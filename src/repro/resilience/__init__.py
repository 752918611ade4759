"""Fault tolerance for the HSLB pipeline.

The paper's step 1 is real 5-day CESM benchmark jobs — jobs that crash, hit
queue timeouts, and return noisy or corrupted timings.  This package makes
the four HSLB stages survive that:

- :mod:`repro.resilience.faults` — :class:`FaultProfile` +
  :class:`FaultySimulator`, deterministic chaos injection over the
  simulator (reproducible via :func:`~repro.util.rng.keyed_rng`).
- :mod:`repro.resilience.retry` — :class:`RetryPolicy` (capped exponential
  backoff with deterministic jitter, per-point and per-sweep budgets) and
  :class:`Deadline` (wall-clock budget polled by the MINLP solvers).
- :mod:`repro.resilience.outliers` — MAD-based rejection of corrupted
  measurements against a robust Theil-Sen trend.
- :mod:`repro.resilience.events` — the typed :class:`EventLog` every
  retry, rejection, fallback and degradation is appended to.
- :mod:`repro.resilience.chaos` — process-level chaos: deterministic
  worker SIGKILLs, hangs, and journal corruption driving the
  kill-matrix CI (see :mod:`repro.parallel.supervised`).

See ``docs/robustness.md`` for the full fault model and semantics.
"""

from repro.resilience.chaos import ChaosProfile, corrupt_file, kill_instant
from repro.resilience.events import Event, EventKind, EventLog
from repro.resilience.faults import FaultProfile, FaultySimulator
from repro.resilience.outliers import mad_scores, worst_outlier
from repro.resilience.retry import Deadline, RetryPolicy

__all__ = [
    "ChaosProfile",
    "corrupt_file",
    "kill_instant",
    "Event",
    "EventKind",
    "EventLog",
    "FaultProfile",
    "FaultySimulator",
    "mad_scores",
    "worst_outlier",
    "Deadline",
    "RetryPolicy",
]
