"""Wall-clock speedup of the process backend on latency-dominated stages.

The synthetic simulator replays recorded measurements in microseconds, so
parallelising it proves nothing.  :class:`LatencySimulator` restores the
property the executor layer exists for — every measurement occupies the
machine for time proportional to the simulated seconds, like a real job in
a queue — without touching the returned values.  Two claims:

1.  **Gather scales.**  Benchmarking the 8th-degree case (5 sweep points x
    4 components = 20 independent jobs) with 4 process workers is at least
    2x faster than the serial sweep, and returns bit-identical data.
2.  **Grid search scales.**  The 6x4 ocean/ice fraction grid (24 coupled
    runs) speeds up the same way and picks the same allocation.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import run_once
from repro.baselines.grid_search import grid_search_allocation
from repro.cesm import CoupledRunSimulator, make_case
from repro.hslb import gather_benchmarks
from repro.parallel import LatencySimulator, get_executor

WORKERS = 4
MIN_SPEEDUP = 2.0

# Chosen so each serial baseline sleeps for roughly three seconds: the 8th
# gather replays ~98k simulated seconds, the 1deg grid ~17k.
GATHER_SCALE = 3e-5
GRID_SCALE = 2e-4


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def bench_gather():
    case = make_case("8th", 8192)

    def sim():
        return LatencySimulator(CoupledRunSimulator(case), scale=GATHER_SCALE)

    serial, t_serial = _timed(lambda: gather_benchmarks(sim(), points=5))
    with get_executor("process", WORKERS) as ex:
        parallel, t_parallel = _timed(
            lambda: gather_benchmarks(sim(), points=5, executor=ex)
        )
    return serial, parallel, t_serial, t_parallel


def test_gather_speedup_with_process_workers(benchmark, report):
    serial, parallel, t_serial, t_parallel = run_once(benchmark, bench_gather)
    speedup = t_serial / t_parallel
    report(
        f"gather (8th, 20 latency-bearing jobs): serial {t_serial:.2f} s, "
        f"{WORKERS} process workers {t_parallel:.2f} s ({speedup:.1f}x)"
    )
    assert serial.components() == parallel.components()
    for comp in serial.components():
        assert np.array_equal(serial.times(comp), parallel.times(comp)), comp
    assert speedup >= MIN_SPEEDUP, (
        f"gather speedup {speedup:.2f}x < {MIN_SPEEDUP}x at {WORKERS} workers"
    )


def bench_grid_search():
    case = make_case("1deg", 128)

    def sim():
        return LatencySimulator(CoupledRunSimulator(case), scale=GRID_SCALE)

    serial, t_serial = _timed(lambda: grid_search_allocation(sim()))
    with get_executor("process", WORKERS) as ex:
        parallel, t_parallel = _timed(
            lambda: grid_search_allocation(sim(), executor=ex)
        )
    return serial, parallel, t_serial, t_parallel


def test_grid_search_speedup_with_process_workers(benchmark, report):
    serial, parallel, t_serial, t_parallel = run_once(
        benchmark, bench_grid_search
    )
    speedup = t_serial / t_parallel
    report(
        f"grid search (1deg, 24 coupled runs): serial {t_serial:.2f} s, "
        f"{WORKERS} process workers {t_parallel:.2f} s ({speedup:.1f}x)"
    )
    assert parallel == serial
    assert speedup >= MIN_SPEEDUP, (
        f"grid speedup {speedup:.2f}x < {MIN_SPEEDUP}x at {WORKERS} workers"
    )
