"""Short runs of every workload, the budget-kill path and child cleanup.

These drive real solves, so they take a couple of minutes in all:

    python3 -m pytest hslbbench/tests -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import workloads
from workloads import ROOT

def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(cwd / "hslbbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def children_of(pid: int) -> list:
    """Live processes whose parent is ``pid`` (from /proc)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            out.append(int(entry))
    return out


def cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.parametrize("workload", ["tune-paper", "bnb-paper", "service-whatif"])
def test_each_workload_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench("--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", "0"))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_tune_accounts_for_the_tune_time():
    result = result_of(run_bench("--workload", "tune-paper", "--seed", "3",
                                 "--seconds", "1", "--trace", "1"))
    metrics = result["metrics"]
    assert set(metrics) == declared("per_layer")
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert metrics["trace.ops"]["value"] == 18
    assert metrics["fitting.busy_s"]["value"] > 0
    assert metrics["minlp.nodes"]["value"] > 0


def test_traced_bnb_reports_the_barrier_from_the_worker():
    metrics = result_of(run_bench("--workload", "bnb-paper", "--seed", "3",
                                  "--seconds", "1", "--trace", "1"))["metrics"]
    assert metrics["nlp.calls"]["value"] > 0
    assert metrics["kernels.hess_evals"]["value"] > 0
    assert metrics["fitting.busy_s"]["value"] == 0
    assert metrics["trace.coverage"]["value"] >= 0.9


def test_traced_service_reports_the_daemon_tiers():
    metrics = result_of(run_bench("--workload", "service-whatif", "--seed", "3",
                                  "--seconds", "4", "--trace", "1"))["metrics"]
    hits = sum(metrics[f"service.{t}"]["value"]
               for t in ("exact_hits", "warm_hits", "cold_solves", "dedup_hits"))
    assert hits == metrics["trace.ops"]["value"] + workloads.WARMUP_REQUESTS
    assert metrics["service.cold_solves"]["value"] >= 1
    assert metrics["spec.key_s.p50"]["value"] > 0
    assert metrics["service.request_s.sum"]["value"] > 0


def test_same_seed_gives_the_same_inputs():
    assert workloads.tune_cells(5) == workloads.tune_cells(5)
    assert workloads.tune_cells(5) != workloads.tune_cells(6)
    assert (workloads.request_stream(5, 120, 500)
            == workloads.request_stream(5, 120, 500))


def test_an_over_budget_solve_is_killed_timed_at_the_budget_and_replaced():
    cell = ("1deg", 128, False, 1, 0)
    curves = workloads.curves_payload(workloads.fit_curves(cell))
    worker = workloads.BnbWorker()
    try:
        first = worker.proc
        op = workloads.bnb_op(worker, cell, curves, budget=0.05)
        assert (op.ok, op.reason, op.seconds) == (False, "killed_at_budget", 0.05)
        assert first.poll() is not None            # killed and reaped
        assert worker.proc is not first and worker.proc.poll() is None
        op = workloads.bnb_op(worker, cell, curves, budget=60.0)
        assert op.ok                               # the replacement solves
    finally:
        worker.close()
    assert children_of(os.getpid()) == []


def test_kills_are_counted_as_failures_not_wrong_answers(monkeypatch):
    monkeypatch.setitem(workloads.BNB_CELLS, "bnb-tiny",
                        [("1deg", 128, False, 1, 0), ("1deg", 128, False, 2, 0)])
    monkeypatch.setattr(workloads, "BNB_BUDGET_S", 0.05)
    outcome = workloads.run_bnb("bnb-tiny", seed=0, seconds=0.0, trace=False)
    assert outcome.tally.attempted == 2
    assert outcome.tally.failures == {"killed_at_budget": 2}
    assert outcome.correct
    assert outcome.values["ops_per_s"] == 0.0
    assert children_of(os.getpid()) == []


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
def test_no_worker_outlives_an_interrupted_benchmark(sig):
    proc = subprocess.Popen([sys.executable, str(ROOT / "hslbbench" / "run.py"),
                             "--workload", "bnb-paper", "--seed", "0",
                             "--seconds", "60"],
                            cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        workers = []
        while time.monotonic() < deadline and not workers:
            workers = [pid for pid in children_of(proc.pid)
                       if b"bnb_worker" in cmdline(pid)]
            time.sleep(0.2)
        assert workers, "the B&B worker never started"
        proc.send_signal(sig)
        proc.wait(60)
        time.sleep(0.5)
        assert not any(alive(pid) for pid in workers)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_fails_without_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "hslbbench", tmp_path / "hslbbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "tune-paper", "--seed", "1", cwd=tmp_path,
                     timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
