"""Process-level chaos: deterministic worker kills, hangs, file corruption.

:class:`~repro.resilience.faults.FaultySimulator` injects *measurement*
faults inside a live process; this module injects the failures that kill
the process itself — the kind a fleet-scale experiment run meets on a real
cluster.  Three failure modes, all deterministic by seed:

- **Worker SIGKILL**: the worker kills itself (``SIGKILL``, no cleanup,
  no Python exception) immediately before running a task — exactly what an
  OOM killer or a preempted node looks like from the parent.
- **Worker hang**: the worker sleeps far past its task deadline, like a
  solve stuck in a pathological basin or a job wedged on dead storage.
- **File corruption**: a journal (or any other) file is truncated, left
  with a torn tail record, or overwritten with garbage — the three shapes
  a hard kill mid-write leaves behind.

Draws come from :func:`~repro.util.rng.keyed_rng` keyed by
``(seed, task index, dispatch attempt)``: a retried task sees a fresh draw
(a respawned worker usually survives), while the whole kill-matrix is a
pure function of ``(seed, ChaosProfile)`` — CI replays the exact same
crashes every run.  The parent draws the ticket and ships it with the
task, so the plan is inspectable (and testable) without any worker.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.util.rng import keyed_rng

__all__ = [
    "ChaosProfile",
    "apply_ticket",
    "kill_instant",
    "corrupt_file",
    "CORRUPTION_MODES",
]


def _as_probability(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"ChaosProfile.{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class ChaosProfile:
    """Per-task-dispatch rates for worker-level faults.

    ``kill_probability`` wins over ``hang_probability`` when both fire on
    one draw.  ``hang_seconds`` should comfortably exceed the supervised
    executor's task deadline, or the "hang" is just a slow task.
    """

    kill_probability: float = 0.0
    hang_probability: float = 0.0
    hang_seconds: float = 30.0

    def __post_init__(self):
        for name in ("kill_probability", "hang_probability"):
            object.__setattr__(self, name, _as_probability(name, getattr(self, name)))
        if self.hang_seconds <= 0.0:
            raise ConfigurationError("ChaosProfile.hang_seconds must be > 0")

    @property
    def active(self) -> bool:
        return self.kill_probability > 0.0 or self.hang_probability > 0.0

    def ticket(self, seed: int, index: int, attempt: int):
        """The fault (if any) for dispatch ``attempt`` of task ``index``.

        Returns ``("kill",)``, ``("hang", seconds)`` or ``None``.  A fixed
        draw count per dispatch keeps the stream aligned no matter which
        faults are enabled.
        """
        if not self.active:
            return None
        rng = keyed_rng(int(seed), "chaos", "task", f"{int(index)}:{int(attempt)}")
        u_kill, u_hang = rng.uniform(size=2)
        if u_kill < self.kill_probability:
            return ("kill",)
        if u_hang < self.hang_probability:
            return ("hang", self.hang_seconds)
        return None

    # -- CLI spec parsing --------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "ChaosProfile":
        """Build a profile from a ``key=value`` comma list.

        Keys: ``kill``, ``hang`` (probabilities) and ``hang_s`` (seconds),
        e.g. ``kill=0.3,hang=0.1,hang_s=5``.
        """
        aliases = {
            "kill": "kill_probability",
            "hang": "hang_probability",
            "hang_s": "hang_seconds",
        }
        kwargs: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in aliases:
                raise ConfigurationError(
                    f"bad chaos-profile entry {item!r} "
                    f"(expected one of {sorted(aliases)} as key=value)"
                )
            try:
                kwargs[aliases[key]] = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"bad chaos-profile value {value!r} for {key!r}"
                ) from None
        return cls(**kwargs)

    def describe(self) -> str:
        parts = []
        if self.kill_probability > 0:
            parts.append(f"kill={self.kill_probability:g}")
        if self.hang_probability > 0:
            parts.append(f"hang={self.hang_probability:g}")
            parts.append(f"hang_s={self.hang_seconds:g}")
        return ",".join(parts) if parts else "none"


def apply_ticket(ticket) -> None:
    """Execute a chaos ticket *in the worker process*.

    ``("kill",)`` raises ``SIGKILL`` against the worker itself — no
    cleanup, no exception, the parent sees only a dead process.
    ``("hang", s)`` sleeps, simulating a wedged task.
    """
    if not ticket:
        return
    if ticket[0] == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif ticket[0] == "hang":
        time.sleep(float(ticket[1]))
    else:  # pragma: no cover - future-proofing
        raise ConfigurationError(f"unknown chaos ticket {ticket!r}")


def kill_instant(seed: int, n_cells: int) -> int:
    """The chaos-chosen instant to SIGKILL a fleet run, as a cell count.

    The kill-matrix harness waits until this many cells have *finished*
    (per the journal) and then kills the whole run; ``0`` means "kill as
    soon as the first cell has started".
    """
    if n_cells < 1:
        raise ConfigurationError("kill_instant needs at least one cell")
    rng = keyed_rng(int(seed), "chaos", "kill-instant")
    return int(rng.integers(0, n_cells))


#: Corruption shapes a hard kill mid-write leaves behind.
CORRUPTION_MODES = ("truncate", "torn-tail", "garbage")


def corrupt_file(path, seed: int, mode: str | None = None) -> str:
    """Deterministically damage a JSON/JSONL file in place.

    - ``truncate``: cut the file at a seed-chosen byte offset (a write
      that never finished).
    - ``torn-tail``: append half a JSON record with no trailing newline
      (a kill between ``write`` and ``fsync``).
    - ``garbage``: overwrite a seed-chosen span with non-JSON bytes (a
      torn page / bad sector).

    Returns the mode applied (drawn by seed when ``mode`` is ``None``).
    """
    path = Path(path)
    raw = path.read_bytes()
    rng = keyed_rng(int(seed), "chaos", "corrupt", path.name)
    if mode is None:
        mode = CORRUPTION_MODES[int(rng.integers(0, len(CORRUPTION_MODES)))]
    if mode not in CORRUPTION_MODES:
        raise ConfigurationError(
            f"unknown corruption mode {mode!r}; expected one of {CORRUPTION_MODES}"
        )
    if mode == "truncate":
        cut = int(rng.integers(1, max(2, len(raw)))) if raw else 0
        path.write_bytes(raw[:cut])
    elif mode == "torn-tail":
        torn = json.dumps({"op": "finish", "spec_key": "spec:deadbeef"})
        cut = max(1, len(torn) // 2)
        with path.open("ab") as handle:
            handle.write(torn[:cut].encode("utf-8"))
    else:  # garbage
        if not raw:
            path.write_bytes(b"\x00\xff\x00\xff")
        else:
            start = int(rng.integers(0, len(raw)))
            span = int(rng.integers(1, 16))
            path.write_bytes(raw[:start] + b"\x00\xff" * span + raw[start + span:])
    return mode
