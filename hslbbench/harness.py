"""Measurement primitives of the HSLB benchmark.

Nothing here imports ``repro``: percentile selection, failure accounting,
span arithmetic, child-process lifetime and the result line are plain
Python, so ``hslbbench/tests`` can check them without building a case.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import select
import signal
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


# -- statistics --------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty sample.

    Nearest-rank returns an observed value, never an interpolation, so a
    closed loop that runs whole passes over a fixed cell list reports the
    same cell at the same rank whatever the number of passes.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-quantile."""
    return n - max(1, math.ceil(q * n))


def geomean(values) -> float:
    values = list(values)
    if not values or min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    return percentile(values, 0.5)


#: A quiet host runs :func:`host_probe` in about this long (1 BLAS thread).
REF_PROBE_S = 0.025


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter, dict and small-array work
    that touches no ``repro`` code: the host's speed right now.

    On a shared host the same work runs up to 2.7x slower while
    neighbours are busy, in stretches that outlast a run.  Times scaled by
    ``REF_PROBE_S / host_probe()`` measured alongside them read as seconds
    on a quiet host, so a slow stretch does not pass for a regression.
    """
    import numpy as np

    t0 = now()
    acc = 0
    for i in range(100_000):
        acc += i * i
    table = {str(i): [i, i + 1] for i in range(15_000)}
    acc += len(sorted(table.items()))
    a = np.arange(36.0).reshape(6, 6) + 36.0 * np.eye(6)
    b = np.ones(6)
    for _ in range(1_000):
        acc += float(np.linalg.solve(a, b) @ b)
    return now() - t0


def rel_gap(value: float, reference: float, floor: float = 1.0) -> float:
    """``|value - reference| / max(floor, |reference|)``."""
    return abs(value - reference) / max(floor, abs(reference))


# -- failure accounting ------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    An operation that raised, was killed at its budget or got a non-``ok``
    answer fails when it is recorded; one that answered but whose answer
    later misses certification is moved from succeeded to failed with
    :meth:`miss`.  ``failed`` never exceeds ``attempted``.
    """

    attempted: int = 0
    failures: dict = field(default_factory=dict)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self._add(reason or "error")

    def miss(self, reason: str) -> None:
        if self.failed >= self.attempted:
            raise ValueError("more failures than attempted operations")
        self._add(reason)

    def _add(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- spans -------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int = -1          # index into the owning list, -1 for a root
    op: int = -1              # operation (tune, solve, request) it belongs to
    counts: dict = field(default_factory=dict)

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.counts]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row[:5], counts=dict(row[5]))


class Tracer:
    """In-memory spans for one thread of calls, nested by a call stack.

    ``wrap(name, fn, count)`` returns ``fn`` recording one span per call;
    ``count(result)`` may return a dict of counts stored on the span.
    """

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []

    @contextmanager
    def span(self, name: str, **counts):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, now(), 0.0, parent, self.op, dict(counts))
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = now()

    def wrap(self, name: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record.counts.update(count(result))
                return result

        return traced

    def adopt(self, rows, parent: int) -> None:
        """Append spans recorded in another process under span ``parent``."""
        offset = len(self.spans)
        op = self.spans[parent].op
        for row in rows:
            span = Span.from_list(row)
            span.parent = parent if span.parent < 0 else span.parent + offset
            span.op = op
            self.spans.append(span)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged first, so concurrent children are not subtracted twice.
    """
    children: dict = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(0.0, span.end - span.start - covered))
    return out


def layer_totals(spans: list) -> dict:
    """``{name: {"busy_s": summed self time, "calls": n, <count>: sum}}``."""
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"busy_s": 0.0, "calls": 0})
        entry["busy_s"] += own
        entry["calls"] += 1
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals


def write_spans(path: str, spans: list) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_list()) + "\n")


# -- child processes ---------------------------------------------------------------

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Runs in the child before exec: SIGKILL it when the parent dies, so
    no worker or daemon outlives a benchmark that is itself killed."""
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def spawn(args: list, env: dict | None = None) -> subprocess.Popen:
    """Start a line-protocol child with piped stdin/stdout (text mode)."""
    return subprocess.Popen(
        args,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=_die_with_parent,
    )


def read_line(proc: subprocess.Popen, timeout: float) -> str | None:
    """The child's next stdout line, or ``None`` if none arrives in time.

    The protocols here are strict request/response, so no line is ever
    left in the reader's buffer between calls and ``select`` on the pipe
    is exact.
    """
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, timeout))
    if not ready:
        return None
    line = proc.stdout.readline()
    return line or None


def stop(proc: subprocess.Popen | None, grace: float = 5.0) -> None:
    """Terminate ``proc`` and wait until it has ended; kill if it lingers."""
    if proc is None:
        return
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def kill(proc: subprocess.Popen) -> None:
    """SIGKILL ``proc`` now (an over-budget solve) and reap it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has reaped.

    Every child here (import probe, B&B worker, daemon) is waited for
    before the metric is read, so ``RUSAGE_CHILDREN`` covers them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- the result line ---------------------------------------------------------------


def result_line(correct: bool, tally: Tally, values: dict, declared: list) -> str:
    """The benchmark's last stdout line.

    ``declared`` is the ``end_to_end`` or ``per_layer`` list from
    BENCHMARK.json; every declared metric must have a value, and no
    undeclared one is emitted.
    """
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"workload produced no value for {missing}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": metrics,
    })
