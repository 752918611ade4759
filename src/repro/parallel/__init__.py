"""Deterministic parallel execution layer.

- :mod:`repro.parallel.executor` — pluggable ``serial``/``thread``/
  ``process`` backends with submission-order result merging,
- :mod:`repro.parallel.supervised` — the ``process`` backend: monitored
  workers (heartbeats, per-task deadlines), crash/hang detection with
  respawn, bounded retries, :class:`PoisonedTask` quarantine, and workers
  that exit when their parent dies,
- :mod:`repro.parallel.merge` — the ordered-merge rule itself,
- :mod:`repro.parallel.latency` — a job-latency wrapper so speedups are
  measurable against the instant synthetic simulator.

The contract every consumer (gather, the MINLP solvers, grid search, the
experiment registry) relies on: with any backend, outputs are bit-identical
to the serial path.  ``tests/test_parallel`` holds the differential and
property-based harness that enforces it.
"""

from repro.parallel.executor import (
    EXECUTOR_KINDS,
    SerialExecutor,
    ThreadExecutor,
    executor_scope,
    get_executor,
)
from repro.parallel.latency import LatencySimulator
from repro.parallel.merge import TaskFailure, ordered_merge
from repro.parallel.supervised import PoisonedTask, SupervisedProcessExecutor

__all__ = [
    "EXECUTOR_KINDS",
    "SerialExecutor",
    "ThreadExecutor",
    "SupervisedProcessExecutor",
    "PoisonedTask",
    "get_executor",
    "executor_scope",
    "LatencySimulator",
    "TaskFailure",
    "ordered_merge",
]
