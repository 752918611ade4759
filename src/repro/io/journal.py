"""Durable run journal: a write-ahead log that survives a hard kill.

The journal is the one resume mechanism for experiment batches: it makes
both finished work and the *run itself* recoverable.  Every fleet run
appends fsync'd records to one JSONL file:

- ``plan`` — the batch being run (experiment ids + seed), written once
  when the journal is new.  ``exp resume`` reconstructs the run from it.
- ``start`` — a cell was dispatched.
- ``finish`` — a cell completed; carries the rendered report text inline,
  so the journal alone is enough to resume.
- ``poison`` — a cell was quarantined after its retry budget.

Records are canonical JSON (:func:`~repro.spec.schema.canonical_json`)
stamped with the ``repro/journal`` schema header and keyed by the cell's
:func:`~repro.spec.schema.spec_key`, one per line, each followed by
``flush`` + ``fsync``: after a SIGKILL at any instant, the file contains
every record that was ever acknowledged plus at most one *torn tail* — a
partial final line the kill interrupted mid-write.

:meth:`RunJournal.read` tolerates exactly that shape: a final line that is
incomplete or unparsable is dropped (and reported via ``torn_tail``), while
damage *before* the final line — garbage bytes, a sequence-number gap, a
wrong schema — raises :class:`~repro.exceptions.JournalError`, because no
crash writes the middle of a file.  :meth:`RunJournal.open` repairs a torn
tail by truncating to the last valid byte before appending, which is the
classic WAL recovery rule.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ConfigurationError, JournalError
from repro.spec.schema import canonical_json, check_schema, stamp

__all__ = ["JournalState", "RunJournal"]

_OPS = ("plan", "start", "finish", "poison")


@dataclass
class JournalState:
    """Everything a resume needs, distilled from one journal read."""

    path: Path
    plan: dict | None = None            # {"experiment_ids": [...], "seed": int}
    completed: dict = field(default_factory=dict)   # spec_key -> finish record
    poisoned: dict = field(default_factory=dict)    # spec_key -> poison record
    started: dict = field(default_factory=dict)     # spec_key -> start record
    records: int = 0                    # valid records read
    torn_tail: bool = False             # a partial final line was dropped
    valid_bytes: int = 0                # file offset after the last valid record

    @property
    def in_flight(self) -> list:
        """Spec keys that started but neither finished nor were poisoned."""
        return [
            key for key in self.started
            if key not in self.completed and key not in self.poisoned
        ]

    def describe(self) -> str:
        lines = [f"journal: {self.path}"]
        if self.plan is None:
            lines.append("  plan: none (empty journal)")
        else:
            ids = ", ".join(self.plan.get("experiment_ids", []))
            lines.append(f"  plan: seed={self.plan.get('seed')} ids=[{ids}]")
        lines.append(
            f"  cells: {len(self.completed)} finished, "
            f"{len(self.poisoned)} poisoned, {len(self.in_flight)} in flight"
        )
        for key, record in self.poisoned.items():
            lines.append(
                f"    poisoned {record.get('experiment_id', '?')} [{key[:21]}...]: "
                f"{record.get('detail', '')}"
            )
        if self.torn_tail:
            lines.append("  tail: torn record dropped (hard kill mid-write)")
        lines.append(f"  records: {self.records} ({self.valid_bytes} bytes)")
        return "\n".join(lines)


def _parse_record(line: bytes, expected_seq: int) -> dict:
    """Decode and validate one journal line; raises ``ValueError`` family."""
    payload = json.loads(line.decode("utf-8"))
    record = check_schema(payload, "journal")
    op = record.get("op")
    if op not in _OPS:
        raise ConfigurationError(f"repro/journal: unknown op {op!r}")
    seq = record.get("seq")
    if seq != expected_seq:
        raise ConfigurationError(
            f"repro/journal: expected seq {expected_seq}, found {seq!r} "
            "(interleaved writers or interior damage)"
        )
    if op == "plan":
        if expected_seq != 0:
            raise ConfigurationError("repro/journal: plan record must be first")
    elif not isinstance(record.get("spec_key"), str):
        raise ConfigurationError(f"repro/journal: {op} record lacks a spec_key")
    return record


class RunJournal:
    """Append-only fsync'd JSONL journal for one experiment run.

    Use :meth:`open` (repairs a torn tail, continues the sequence) or
    :meth:`read` (pure inspection, never writes).  All appends are
    synchronous: when an append returns, the record is on disk.
    """

    def __init__(self, path, *, _state: JournalState | None = None):
        self.path = Path(path)
        if _state is None:
            _state = self.read(self.path)
        self.state = _state
        self._seq = _state.records
        self._fh = None

    # -- reading -----------------------------------------------------------------

    @staticmethod
    def read(path) -> JournalState:
        """Parse a journal file into a :class:`JournalState`.

        Missing file → empty state.  A damaged *final* line (partial write
        from a hard kill) is dropped and flagged ``torn_tail``; damage
        anywhere earlier raises :class:`~repro.exceptions.JournalError`.
        """
        path = Path(path)
        state = JournalState(path=path)
        if not path.exists():
            return state
        raw = path.read_bytes()
        offset = 0
        lines: list = []
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                state.torn_tail = True  # partial final line, no newline
                break
            lines.append((offset, raw[offset:newline]))
            offset = newline + 1
        for position, (start, line) in enumerate(lines):
            try:
                record = _parse_record(line, expected_seq=position)
            except (ValueError, ConfigurationError, UnicodeDecodeError) as exc:
                final = position == len(lines) - 1
                if final and not state.torn_tail:
                    # Unparsable last line: the kill landed mid-write but a
                    # newline from a previous page survived.  Same repair.
                    state.torn_tail = True
                    break
                raise JournalError(
                    f"journal {path} is corrupt at record {position}: {exc}"
                ) from exc
            state.records += 1
            state.valid_bytes = start + len(line) + 1
            op = record["op"]
            if op == "plan":
                state.plan = {
                    "experiment_ids": list(record.get("experiment_ids", [])),
                    "seed": record.get("seed"),
                }
            elif op == "start":
                state.started[record["spec_key"]] = record
            elif op == "finish":
                state.completed[record["spec_key"]] = record
            else:  # poison
                state.poisoned[record["spec_key"]] = record
        return state

    # -- writing -----------------------------------------------------------------

    @classmethod
    def open(cls, path) -> "RunJournal":
        """Open for append, truncating a torn tail first (WAL repair)."""
        path = Path(path)
        state = cls.read(path)
        if state.torn_tail:
            with path.open("r+b") as handle:
                handle.truncate(state.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            state.torn_tail = True  # preserved so callers can report the repair
        journal = cls(path, _state=state)
        path.parent.mkdir(parents=True, exist_ok=True)
        journal._fh = path.open("ab")
        return journal

    @property
    def is_new(self) -> bool:
        return self._seq == 0

    def _append(self, payload: dict) -> dict:
        if self._fh is None:
            raise JournalError(f"journal {self.path} is not open for writing")
        record = stamp({**payload, "seq": self._seq}, "journal")
        self._fh.write((canonical_json(record) + "\n").encode("utf-8"))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._seq += 1
        self.state.records = self._seq
        self.state.valid_bytes = self._fh.tell()
        return record

    def plan(self, experiment_ids, seed: int) -> None:
        """Record the batch; only valid as the very first record."""
        if self._seq != 0:
            raise JournalError(
                f"journal {self.path} already has {self._seq} records; "
                "the plan must be the first"
            )
        record = self._append(
            {"op": "plan", "experiment_ids": list(experiment_ids), "seed": int(seed)}
        )
        self.state.plan = {
            "experiment_ids": list(record["experiment_ids"]),
            "seed": record["seed"],
        }

    def start(self, spec_key: str, experiment_id: str) -> None:
        record = self._append(
            {"op": "start", "spec_key": spec_key, "experiment_id": experiment_id}
        )
        self.state.started[spec_key] = record

    def finish(self, spec_key: str, experiment_id: str, rendered: str) -> None:
        record = self._append(
            {
                "op": "finish",
                "spec_key": spec_key,
                "experiment_id": experiment_id,
                "rendered": str(rendered),
            }
        )
        self.state.completed[spec_key] = record

    def poison(
        self,
        spec_key: str,
        experiment_id: str,
        attempts: int,
        reason: str,
        detail: str,
    ) -> None:
        record = self._append(
            {
                "op": "poison",
                "spec_key": spec_key,
                "experiment_id": experiment_id,
                "attempts": int(attempts),
                "reason": str(reason),
                "detail": str(detail),
            }
        )
        self.state.poisoned[spec_key] = record

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
