"""Differential harness: every backend must be bit-identical to serial.

The contract under test is the one the whole parallel layer is built on
(submit deterministically, merge in submission order): for each backend,
gather -> fit -> solve on the three Table I layouts produces the same
BenchmarkData arrays, the same fitted coefficients, and the same
MINLPResult incumbent and node count as the serial path — including under
fault injection, where the merged event log and the post-gather fault
state must match too.
"""

import numpy as np
import pytest

from repro.cesm import CoupledRunSimulator, make_case
from repro.exceptions import GatherError
from repro.hslb import HSLBPipeline, fit_components, gather_benchmarks, solve_allocation
from repro.minlp import MINLPOptions
from repro.parallel import SupervisedProcessExecutor
from repro.resilience import EventLog, FaultProfile, FaultySimulator, RetryPolicy

BACKENDS = ["thread", "process"]
LAYOUTS = [1, 2, 3]

# Same acceptance profile as the chaos suite: 20% crashes, 5% outliers.
CHAOS = FaultProfile(crash_probability=0.2, outlier_probability=0.05)


def _assert_same_data(ref, got, context=""):
    assert ref.components() == got.components(), context
    for comp in ref.components():
        assert np.array_equal(ref.nodes(comp), got.nodes(comp)), (context, comp)
        assert np.array_equal(ref.times(comp), got.times(comp)), (context, comp)


def _assert_faulty_gather_parity(executor, workers, layout):
    """Data, merged events and post-gather fault state all match serial."""
    case = make_case("1deg", 128, layout=layout)

    def run(executor, workers):
        sim = FaultySimulator(CoupledRunSimulator(case), CHAOS)
        events = EventLog()
        data = gather_benchmarks(
            sim, points=5, policy=RetryPolicy(), events=events,
            executor=executor, workers=workers,
        )
        return data, events, sim.attempt_counts()

    ref_data, ref_events, ref_attempts = run(None, None)
    got_data, got_events, got_attempts = run(executor, workers)
    _assert_same_data(ref_data, got_data, f"layout {layout} {executor}")
    assert got_events == ref_events
    assert got_attempts == ref_attempts
    assert ref_attempts, "the fault profile must actually fire"


@pytest.mark.parametrize("backend", BACKENDS)
class TestGatherEquivalence:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_clean_gather_bit_identical(self, backend, layout):
        case = make_case("1deg", 128, layout=layout)
        sim = CoupledRunSimulator(case)
        ref = gather_benchmarks(sim, points=5)
        got = gather_benchmarks(sim, points=5, executor=backend, workers=4)
        _assert_same_data(ref, got, f"layout {layout} {backend}")

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_faulty_gather_data_events_and_state(self, backend, layout):
        _assert_faulty_gather_parity(backend, 4, layout)

    def test_gather_error_matches_serial(self, backend):
        """A sweep that cannot save 3 points raises the same GatherError —
        same message, same partial data — from every backend."""
        case = make_case("1deg", 128)
        profile = FaultProfile(crash_probability=0.97)
        policy = RetryPolicy(max_attempts=2)

        def run(executor, workers):
            sim = FaultySimulator(CoupledRunSimulator(case), profile)
            events = EventLog()
            with pytest.raises(GatherError) as err:
                gather_benchmarks(
                    sim, points=5, policy=policy, events=events,
                    executor=executor, workers=workers,
                )
            return err.value, events

        ref_err, ref_events = run(None, None)
        got_err, got_events = run(backend, 4)
        assert str(got_err) == str(ref_err)
        _assert_same_data(ref_err.partial, got_err.partial, backend)
        assert got_events == ref_events


def test_faulty_gather_on_a_supervised_executor_instance():
    # A SupervisedProcessExecutor instance must take the process path of
    # the resilient gather: worker copies of the fault state are merged
    # back, or the post-gather attempt counts come home empty.
    with SupervisedProcessExecutor(2) as ex:
        _assert_faulty_gather_parity(ex, 2, 1)


@pytest.mark.parametrize("backend", BACKENDS)
class TestFitEquivalence:
    def test_fit_coefficients_identical(self, backend):
        case = make_case("1deg", 128)
        sim = CoupledRunSimulator(case)
        ref = fit_components(gather_benchmarks(sim, points=5))
        got = fit_components(
            gather_benchmarks(sim, points=5, executor=backend, workers=4)
        )
        for comp in ref:
            assert got[comp].model.as_tuple() == ref[comp].model.as_tuple(), comp
            assert got[comp].r_squared == ref[comp].r_squared, comp


@pytest.mark.parametrize("method", ["lpnlp", "bnb"])
class TestSolveEquivalence:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_workers_do_not_change_the_search(self, method, layout):
        case = make_case("1deg", 128, layout=layout)
        sim = CoupledRunSimulator(case)
        fits = fit_components(gather_benchmarks(sim, points=5))
        ref = solve_allocation(case, fits, method=method,
                               options=MINLPOptions())
        got = solve_allocation(case, fits, method=method,
                               options=MINLPOptions(workers=4))
        assert got.allocation == ref.allocation
        assert got.predicted_total == ref.predicted_total
        r, g = ref.solver_result, got.solver_result
        assert g.objective == r.objective
        assert g.best_bound == r.best_bound
        assert g.nodes == r.nodes
        assert g.nlp_solves == r.nlp_solves
        assert g.cuts_added == r.cuts_added
        assert g.lp_iterations == r.lp_iterations
        assert g.status == r.status


@pytest.mark.parametrize("backend", BACKENDS)
class TestPipelineEquivalence:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_full_pipeline_bit_identical(self, backend, layout):
        serial = HSLBPipeline(make_case("1deg", 128, layout=layout)).run()
        parallel = HSLBPipeline(
            make_case("1deg", 128, layout=layout),
            executor=backend, workers=4,
        ).run()
        assert parallel.allocation == serial.allocation
        assert parallel.predicted_total == serial.predicted_total
        assert parallel.actual_total == serial.actual_total
        _assert_same_data(serial.benchmarks, parallel.benchmarks)
        for comp in serial.fits:
            assert (
                parallel.fits[comp].model.as_tuple()
                == serial.fits[comp].model.as_tuple()
            )

    def test_chaos_pipeline_bit_identical(self, backend):
        case = make_case("1deg", 128)
        serial = HSLBPipeline(case, fault_profile=CHAOS).run()
        parallel = HSLBPipeline(
            case, fault_profile=CHAOS, executor=backend, workers=4
        ).run()
        assert parallel.allocation == serial.allocation
        assert parallel.predicted_total == serial.predicted_total
        assert parallel.actual_total == serial.actual_total
        assert parallel.events == serial.events
        _assert_same_data(serial.benchmarks, parallel.benchmarks)
