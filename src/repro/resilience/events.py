"""Structured event log for the fault-tolerant pipeline.

Every retry, rejection, fallback and degradation the resilient pipeline
performs appends a typed :class:`Event` to an :class:`EventLog`.  The log is
carried on :class:`~repro.hslb.solve.SolveOutcome` and
:class:`~repro.hslb.pipeline.HSLBRunResult`, rendered by ``report()`` and
serialized by :mod:`repro.io`.

Events are ordered by a monotonic per-log sequence number rather than wall
timestamps: with a fixed ``(seed, FaultProfile)`` two pipeline runs must
produce *identical* logs, and wall clocks would break that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class EventKind(enum.Enum):
    """What happened.  One member per distinct resilience action."""

    RETRY = "retry"                      # a benchmark attempt failed; retrying
    OUTLIER_REJECTED = "outlier_rejected"  # MAD test rejected a measurement
    REMEASURED = "remeasured"            # a rejected point was measured again
    POINT_REPLACED = "point_replaced"    # neighbor node count substituted
    POINT_DROPPED = "point_dropped"      # point abandoned after all recovery
    GATHER_DEGRADED = "gather_degraded"  # sweep finished with fewer points
    FIT_RETRY = "fit_retry"              # least-squares refit with more starts
    SOLVER_FALLBACK = "solver_fallback"  # MINLP backend failed; next in chain
    BASELINE_FALLBACK = "baseline_fallback"  # proportional last-resort used
    DEADLINE_EXPIRED = "deadline_expired"    # wall-clock budget ran out
    EXECUTE_RETRY = "execute_retry"      # coupled verification run retried
    WORKER_CRASH = "worker_crash"        # supervised worker died holding a task
    WORKER_HANG = "worker_hang"          # task deadline/heartbeat expired; killed
    WORKER_RESPAWN = "worker_respawn"    # replacement worker process started
    TASK_POISONED = "task_poisoned"      # task quarantined after its retry budget
    JOURNAL_RECOVERED = "journal_recovered"  # cell result replayed from the journal
    REQUEST_REJECTED = "request_rejected"    # admission queue full; typed refusal sent
    REQUEST_EXPIRED = "request_expired"      # per-request Deadline ran out in queue
    BATCH_DISPATCHED = "batch_dispatched"    # compatible requests sent as one family solve
    WARM_POOL_EVICTED = "warm_pool_evicted"  # LRU dropped a channel's SolveFamily
    WARM_POOL_DOWNGRADED = "warm_pool_downgraded"  # wide budget spread; unsafe reuse off


@dataclass(frozen=True)
class Event:
    """One resilience action, with enough context to audit it later."""

    seq: int                    # position in the log (0-based, dense)
    kind: EventKind
    stage: str                  # "gather" | "fit" | "solve" | "execute"
    detail: str                 # human-readable one-liner
    component: str | None = None
    attempt: int | None = None
    data: dict = field(default_factory=dict)  # small JSON-safe extras

    def to_dict(self) -> dict:
        out = {
            "seq": self.seq,
            "kind": self.kind.value,
            "stage": self.stage,
            "detail": self.detail,
        }
        if self.component is not None:
            out["component"] = self.component
        if self.attempt is not None:
            out["attempt"] = self.attempt
        if self.data:
            out["data"] = dict(self.data)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        return cls(
            seq=int(payload["seq"]),
            kind=EventKind(payload["kind"]),
            stage=str(payload["stage"]),
            detail=str(payload["detail"]),
            component=payload.get("component"),
            attempt=payload.get("attempt"),
            data=dict(payload.get("data", {})),
        )


class EventLog:
    """Append-only list of :class:`Event` with rendering helpers."""

    def __init__(self, events=()):
        self._events: list = list(events)

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        kind: EventKind,
        stage: str,
        detail: str,
        component: str | None = None,
        attempt: int | None = None,
        **data,
    ) -> Event:
        event = Event(
            seq=len(self._events),
            kind=kind,
            stage=stage,
            detail=detail,
            component=component,
            attempt=attempt,
            data=data,
        )
        self._events.append(event)
        return event

    def extend(self, events) -> None:
        """Append another log's events, renumbering their sequence numbers.

        The parallel gather path records each component's events into a
        worker-local log and merges them back in submission order; after the
        renumber, the merged log is identical to one the serial path would
        have recorded directly.
        """
        for event in events:
            self._events.append(replace(event, seq=len(self._events)))

    # -- access ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.to_list() == other.to_list()

    def of_kind(self, kind: EventKind) -> list:
        return [e for e in self._events if e.kind is kind]

    def counts(self) -> dict:
        """``{EventKind: count}`` over the log, insertion-ordered."""
        out: dict = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # -- rendering / serialization ---------------------------------------------

    def summary(self, max_lines: int = 12) -> str:
        """Short text block: per-kind counts plus the most recent events."""
        if not self._events:
            return "resilience events: none"
        counts = ", ".join(
            f"{kind.value}={n}" for kind, n in self.counts().items()
        )
        lines = [f"resilience events ({len(self._events)}): {counts}"]
        tail = self._events[-max_lines:]
        if len(self._events) > max_lines:
            lines.append(f"  ... {len(self._events) - max_lines} earlier events")
        for event in tail:
            where = event.stage
            if event.component:
                where += f"/{event.component}"
            lines.append(f"  [{event.seq}] {event.kind.value} ({where}): {event.detail}")
        return "\n".join(lines)

    def to_list(self) -> list:
        return [event.to_dict() for event in self._events]

    @classmethod
    def from_list(cls, payload) -> "EventLog":
        return cls(Event.from_dict(entry) for entry in payload)
