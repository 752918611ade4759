"""Supervision overhead and crash-recovery latency, to ``BENCH_7.json``.

Two claims about :class:`~repro.parallel.supervised.SupervisedProcessExecutor`:

1.  **Supervision is (nearly) free on the clean path.**  The same
    sleep-bearing batch through a bare stdlib
    :class:`concurrent.futures.ProcessPoolExecutor` and the supervised
    pool must return identical results with < 5% wall-clock overhead —
    heartbeats, deadlines and the dispatch loop must not tax healthy runs.
2.  **Recovery is fast.**  Under a deterministic kill profile, every
    injected SIGKILL costs a bounded detect-kill-respawn cycle; the run
    still completes with exact results, and the mean respawn latency is
    recorded.

Sleep-based tasks (not simulator work) so the baseline is pure executor
machinery: the batch holds ``TASKS`` jobs of ``TASK_SECONDS`` each over
``WORKERS`` workers, big enough that per-dispatch overhead would show.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from conftest import run_once
from repro.parallel import SupervisedProcessExecutor
from repro.resilience import ChaosProfile, RetryPolicy

WORKERS = 4
TASKS = 24
TASK_SECONDS = 0.15
MAX_OVERHEAD = 0.05          # clean-path supervision tax ceiling
KILL_PROBABILITY = 0.25
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_7.json"


def _task(payload):
    index, seconds = payload
    time.sleep(seconds)
    return index * index


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def record(suite: str, payload: dict) -> None:
    """Merge one suite's numbers into BENCH_7.json."""
    data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    data[suite] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def bench_clean_overhead():
    payloads = [(i, TASK_SECONDS) for i in range(TASKS)]
    # Warm both pools first so neither side pays process spawn in the
    # measured window (the supervised pool spawns eagerly, the plain pool
    # lazily — spawn cost is lifecycle, not per-batch overhead).
    with ProcessPoolExecutor(WORKERS) as pool:
        list(pool.map(_task, payloads[:WORKERS]))
        plain, t_plain = _timed(lambda: list(pool.map(_task, payloads)))
    with SupervisedProcessExecutor(WORKERS) as ex:
        ex.map_ordered(_task, payloads[:WORKERS])
        supervised, t_supervised = _timed(lambda: ex.map_ordered(_task, payloads))
    return plain, supervised, t_plain, t_supervised


def test_clean_path_overhead_under_five_percent(benchmark, report):
    plain, supervised, t_plain, t_supervised = run_once(
        benchmark, bench_clean_overhead
    )
    overhead = t_supervised / t_plain - 1.0
    report(
        f"clean path ({TASKS} x {TASK_SECONDS}s over {WORKERS} workers): "
        f"plain {t_plain:.2f} s, supervised {t_supervised:.2f} s "
        f"({overhead:+.1%} overhead)"
    )
    assert supervised == plain, "supervision must not change results"
    record("clean_path_overhead", {
        "workers": WORKERS,
        "tasks": TASKS,
        "task_seconds": TASK_SECONDS,
        "plain_seconds": round(t_plain, 3),
        "supervised_seconds": round(t_supervised, 3),
        "overhead_fraction": round(overhead, 4),
        "bit_identical": True,
    })
    assert overhead < MAX_OVERHEAD, (
        f"supervision overhead {overhead:.1%} >= {MAX_OVERHEAD:.0%}"
    )


def bench_recovery():
    payloads = [(i, TASK_SECONDS) for i in range(TASKS)]
    chaos = ChaosProfile(kill_probability=KILL_PROBABILITY)
    with SupervisedProcessExecutor(
        WORKERS, chaos=chaos, seed=0, retry_policy=RetryPolicy(max_attempts=4)
    ) as ex:
        got, elapsed = _timed(lambda: ex.map_ordered(_task, payloads))
        stats = dict(ex.stats)
    return got, elapsed, stats


def test_recovery_latency_per_injected_kill(benchmark, report):
    got, elapsed, stats = run_once(benchmark, bench_recovery)
    assert got == [i * i for i in range(TASKS)], "chaos must not change results"
    assert stats["crashes"] > 0, "the kill profile must actually fire"
    respawns = stats["respawn_seconds"]
    mean_respawn = sum(respawns) / len(respawns)
    report(
        f"recovery (kill={KILL_PROBABILITY:g}, seed 0): {stats['crashes']} kills "
        f"injected, batch finished exact in {elapsed:.2f} s; respawn "
        f"mean {mean_respawn * 1e3:.0f} ms, max {max(respawns) * 1e3:.0f} ms"
    )
    record("recovery_latency", {
        "workers": WORKERS,
        "tasks": TASKS,
        "task_seconds": TASK_SECONDS,
        "kill_probability": KILL_PROBABILITY,
        "seed": 0,
        "kills_injected": stats["crashes"],
        "respawns": stats["respawns"],
        "batch_seconds": round(elapsed, 3),
        "respawn_mean_ms": round(mean_respawn * 1e3, 1),
        "respawn_max_ms": round(max(respawns) * 1e3, 1),
        "bit_identical": True,
    })
    # A respawn is fork + pipe setup; it must stay well under one task.
    assert mean_respawn < 1.0
