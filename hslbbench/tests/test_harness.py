"""The benchmark's own logic: percentiles, failure accounting, spans."""

import json

import pytest

import harness as h
from harness import Span, Tally, Tracer
from workloads import (
    OPEN_TAIL_Q,
    Op,
    answers_correct,
    cell_values,
    certify,
    latency_values,
    service_ops,
)


# -- percentile selection and sample counts ----------------------------------------


def test_nearest_rank_percentile_returns_observed_values():
    sample = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert h.percentile(sample, 0.5) == 5
    assert h.percentile(sample, 0.75) == 8
    assert h.percentile(sample, 1.0) == 10
    assert h.percentile(sample, 0.01) == 1
    assert h.percentile([0.25], 0.98) == 0.25


@pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
def test_percentile_rejects_quantiles_outside_unit_interval(q):
    with pytest.raises(ValueError):
        h.percentile([1.0, 2.0], q)


def test_percentile_of_empty_sample_raises():
    with pytest.raises(ValueError):
        h.percentile([], 0.5)


def test_samples_beyond_a_quantile():
    assert h.beyond(500, 0.98) == 10
    assert h.beyond(500, 0.99) == 5
    assert h.beyond(40, 0.75) == 10
    assert h.beyond(1, 0.5) == 0


def test_service_tail_has_ten_samples_beyond_at_its_run_length():
    # 25 req/s over the run_seconds of BENCHMARK.json.
    spec = json.loads((h_root() / "BENCHMARK.json").read_text())
    requests = round(25.0 * spec["run_seconds"])
    assert h.beyond(requests, OPEN_TAIL_Q) >= 10


@pytest.mark.parametrize("q", [0.5, 0.75])
def test_whole_passes_pin_closed_loop_percentiles_to_one_cell(q):
    cells = [3.8, 1.0, 0.48, 1.35, 2.1, 0.49]
    picks = {h.percentile(cells * passes, q) for passes in range(1, 8)}
    assert len(picks) == 1


def test_latency_values_use_every_op_and_count_only_successes():
    ops = [Op("a", 1.0, True), Op("b", 3.0, True), Op("c", 10.0, False, "killed")]
    values = latency_values(ops, wall=14.0)
    assert values["latency_s.p50"] == 3.0
    assert values["latency_s.tail"] == 10.0
    assert values["ops_per_s"] == pytest.approx(2 / 14.0)


def test_closed_loops_take_each_cells_best_pass():
    passes = [{"a": 1.0, "b": 2.0, "c": 4.0},
              {"a": 1.1, "b": 9.0, "c": 4.2},     # b slowed by a neighbour
              {"a": 0.9, "b": 2.2, "c": 3.8}]
    ops = [Op(cell, t, True) for one in passes for cell, t in one.items()]
    values = cell_values(ops)
    assert values["latency_s.p50"] == 2.0
    assert values["latency_s.tail"] == 3.8
    assert values["ops_per_s"] == pytest.approx(3 / (0.9 + 2.0 + 3.8))


def test_killed_solves_lower_the_closed_loop_rate():
    ops = [Op("a", 1.0, True), Op("b", 10.0, False, "killed_at_budget")]
    assert cell_values(ops)["ops_per_s"] == pytest.approx(0.5 * 2 / 11.0)


def test_geomean():
    assert h.geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        h.geomean([1.0, 0.0])


# -- failure accounting ------------------------------------------------------------


def test_tally_counts_failures_by_reason():
    tally = Tally()
    tally.record(True)
    tally.record(False, "killed_at_budget")
    tally.record(False, "error:SolverError")
    tally.record(False, "rejected")
    tally.miss("certification")
    assert tally.attempted == 4
    assert tally.failed == 4
    assert tally.failures == {
        "killed_at_budget": 1, "error:SolverError": 1, "rejected": 1,
        "certification": 1,
    }
    assert tally.failed_frac == 1.0
    with pytest.raises(ValueError):
        tally.miss("certification")


def _answer(objective, alloc=64):
    return {"allocation": {"atm": alloc}, "objective": objective}


def test_certify_flags_wrong_objectives_and_inconsistent_repeats():
    optimum = {"x": 100.0, "y": 50.0}
    ops = [
        Op("x", 1.0, True, answer=_answer(100.0)),
        Op("x", 1.0, True, answer=_answer(100.0 * (1 + 5e-6))),  # within 1e-5
        Op("y", 1.0, True, answer=_answer(50.1)),                 # off optimum
        Op("x", 1.0, True, answer=_answer(100.0, alloc=65)),      # repeat differs
        Op("z", 9.0, False, "killed_at_budget"),
    ]
    tally = Tally()
    for op in ops:
        tally.record(op.ok, op.reason)
    calls = []

    def oracle(op):
        calls.append(op.key)
        return optimum[op.key]

    assert certify(ops, tally, oracle) == 3
    assert calls == ["x", "y"]          # one oracle solve per distinct problem
    assert tally.failures == {"killed_at_budget": 1, "certification": 1,
                              "repeat_mismatch": 2}
    assert not answers_correct(tally)


def test_failures_without_answers_leave_the_run_correct():
    tally = Tally()
    tally.record(False, "killed_at_budget")
    tally.record(False, "expired")
    assert answers_correct(tally)


class _Response:
    def __init__(self, status, tier=None, result=None):
        self.status, self.tier, self.result = status, tier, result

    @property
    def ok(self):
        return self.status == "ok"


def test_service_statuses_other_than_ok_are_failures():
    keys = ["k0", "k1"]
    stream = [0, 1, 0, 1, 0, 1]
    records = [
        (0.0, 0.0, 0.002, _Response("ok", "exact", _answer(1.0))),
        (0.04, 0.05, 0.30, _Response("rejected")),
        (0.08, 0.08, 0.09, _Response("expired")),
        (0.12, 0.12, 0.13, _Response("poisoned")),
        (0.16, 0.16, 0.20, None),                 # the call raised
        None,
    ]
    ops = service_ops(records, stream, keys)
    assert [op.reason for op in ops] == [
        "", "rejected", "expired", "poisoned", "error", "not_sent"]
    assert ops[0].ok and ops[0].extra["tier"] == "exact"
    # latency runs from the due time, lateness from due to send
    assert ops[1].seconds == pytest.approx(0.26)
    assert ops[1].extra["late"] == pytest.approx(0.01)


# -- spans and self time -----------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("tune", 0.0, 10.0),
        Span("fitting", 1.0, 3.0, parent=0),
        Span("minlp", 2.0, 5.0, parent=0),      # overlaps the previous child
        Span("nlp", 4.0, 4.5, parent=2),
        Span("execute", 9.5, 11.0, parent=0),   # runs past its parent
    ]
    own = h.self_times(spans)
    assert own == pytest.approx([10.0 - 4.0 - 0.5, 2.0, 2.5, 0.5, 1.5])


def test_layer_totals_sum_self_time_and_counts_per_layer():
    spans = [
        Span("minlp", 0.0, 4.0, counts={"nodes": 3}),
        Span("nlp", 1.0, 2.0, parent=0, counts={"newton_iterations": 7}),
        Span("nlp", 2.5, 3.0, parent=0, counts={"newton_iterations": 5}),
    ]
    totals = h.layer_totals(spans)
    assert totals["minlp"] == {"busy_s": pytest.approx(2.5), "calls": 1, "nodes": 3}
    assert totals["nlp"]["calls"] == 2
    assert totals["nlp"]["busy_s"] == pytest.approx(1.5)
    assert totals["nlp"]["newton_iterations"] == 12


def test_tracer_nests_wrapped_calls_and_records_counts():
    tracer = Tracer()

    def inner(x):
        return {"value": x}

    wrapped_inner = tracer.wrap("nlp", inner, lambda r: {"seen": r["value"]})

    def outer():
        return wrapped_inner(2)["value"] + wrapped_inner(3)["value"]

    tracer.op = 7
    assert tracer.wrap("minlp", outer)() == 5
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("minlp", -1, 7), ("nlp", 0, 7), ("nlp", 0, 7)]
    assert [s.counts for s in tracer.spans[1:]] == [{"seen": 2}, {"seen": 3}]
    assert all(s.end >= s.start for s in tracer.spans)


def test_adopted_child_process_spans_hang_under_the_parent_span():
    tracer = Tracer()
    tracer.op = 2
    with tracer.span("bnb.solve"):
        pass
    child = [Span("minlp", 0.1, 0.9), Span("nlp", 0.2, 0.3, parent=0)]
    tracer.adopt([s.to_list() for s in child], 0)
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("bnb.solve", -1, 2), ("minlp", 0, 2), ("nlp", 1, 2)]


# -- the result line ---------------------------------------------------------------


def test_result_line_emits_exactly_the_declared_metrics():
    declared = [{"name": "latency_s.p50", "unit": "s"},
                {"name": "setup_s", "unit": "s"}]
    tally = Tally()
    tally.record(True)
    line = h.result_line(True, tally, {"latency_s.p50": 0.5, "setup_s": 1.25,
                                       "extra": 3.0}, declared)
    payload = json.loads(line)
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["metrics"] == {"latency_s.p50": {"value": 0.5, "unit": "s"},
                                  "setup_s": {"value": 1.25, "unit": "s"}}
    with pytest.raises(KeyError):
        h.result_line(True, tally, {"setup_s": 1.0}, declared)


def h_root():
    from workloads import ROOT

    return ROOT
