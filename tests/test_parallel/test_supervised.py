"""The ``process`` backend: crash/hang recovery, quarantine, clean-path
parity, and workers that never outlive their parent.

Also home to the abnormal-worker-exit semantics under ``map_ordered``: a
SIGKILL'd worker still surfaces as a typed loss for the earliest-submitted
task, and the pool stays usable afterwards.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import pytest

from repro.exceptions import (
    ConfigurationError,
    WorkerCrashError,
    WorkerHangError,
    WorkerLostError,
)
from repro.parallel import (
    EXECUTOR_KINDS,
    PoisonedTask,
    SerialExecutor,
    SupervisedProcessExecutor,
    TaskFailure,
    get_executor,
    ordered_merge,
)
from repro.resilience import ChaosProfile, EventLog, RetryPolicy
from repro.resilience.events import EventKind


# Module level so worker processes can pickle them by reference.
@dataclass
class _Payload:
    value: int


def _square(payload: _Payload) -> int:
    return payload.value * payload.value


def _square_slow_evens(payload: _Payload) -> int:
    if payload.value % 2 == 0:
        time.sleep(0.02)
    return payload.value * payload.value


def _fail_on_three(payload: _Payload) -> int:
    if payload.value == 3:
        raise ValueError(f"boom at {payload.value}")
    if payload.value == 7:
        raise RuntimeError("later failure, must not win")
    return payload.value


def _suicide_on_two(payload: _Payload) -> int:
    if payload.value == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload.value * 10


def _suicide_on_two_fail_on_five(payload: _Payload) -> int:
    if payload.value == 5:
        raise ValueError("later failure, must not win")
    return _suicide_on_two(payload)


def _sleep_forever(payload: _Payload) -> int:
    time.sleep(60.0)
    return payload.value  # pragma: no cover - always killed first


class TestCleanPathParity:
    def test_results_bit_identical_to_serial(self):
        payloads = [_Payload(v) for v in range(12)]
        reference = SerialExecutor().map_ordered(_square_slow_evens, payloads)
        with SupervisedProcessExecutor(4) as ex:
            assert ex.map_ordered(_square_slow_evens, payloads) == reference
            assert ex.stats["crashes"] == 0
            assert ex.stats["respawns"] == 0
            assert len(ex.events) == 0, "clean path must record nothing"

    def test_pool_survives_across_maps(self):
        with SupervisedProcessExecutor(2) as ex:
            first = ex.map_ordered(_square, [_Payload(v) for v in range(4)])
            pids = [w.proc.pid for w in ex._procs]
            second = ex.map_ordered(_square, [_Payload(v) for v in range(4)])
            assert first == second
            assert [w.proc.pid for w in ex._procs] == pids

    def test_empty_payloads(self):
        with SupervisedProcessExecutor(2) as ex:
            assert ex.map_ordered(_square, []) == []
            assert ex.map_supervised(_square, []) == []

    def test_progress_sees_every_success(self):
        seen = []
        with SupervisedProcessExecutor(3) as ex:
            ex.map_ordered(
                _square,
                [_Payload(v) for v in range(8)],
                progress=lambda i, r: seen.append((i, r)),
            )
        assert sorted(seen) == [(i, i * i) for i in range(8)]

    def test_submit_is_lazy_like_serial(self):
        ran = []

        def fn(v):
            ran.append(v)
            return v

        handle = SupervisedProcessExecutor(2).submit(fn, 9)
        assert ran == []
        assert handle.result() == 9
        assert ran == [9]


class TestTaskExceptions:
    def test_map_ordered_raises_earliest_submitted_failure(self):
        payloads = [_Payload(v) for v in range(10)]
        with SupervisedProcessExecutor(4) as ex:
            with pytest.raises(ValueError, match="boom at 3"):
                ex.map_ordered(_fail_on_three, payloads)

    def test_map_supervised_quarantines_without_retry(self):
        payloads = [_Payload(v) for v in range(6)]
        with SupervisedProcessExecutor(2) as ex:
            got = ex.map_supervised(_fail_on_three, payloads)
        poisoned = got[3]
        assert isinstance(poisoned, PoisonedTask)
        assert poisoned.reason == "error"
        assert poisoned.attempts == 1, "a deterministic failure must not retry"
        assert "boom at 3" in poisoned.detail
        assert got[:3] == [0, 1, 2] and got[4] == 4 and got[5] == 5


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_task_retried(self):
        # kill_probability=0.4 with fresh draws per attempt: some dispatches
        # die, every task eventually lands, results stay exact.
        events = EventLog()
        with SupervisedProcessExecutor(
            2, chaos=ChaosProfile(kill_probability=0.4), seed=0, events=events
        ) as ex:
            got = ex.map_ordered(_square, [_Payload(v) for v in range(8)])
            assert got == [v * v for v in range(8)]
            assert ex.stats["crashes"] > 0
            assert ex.stats["respawns"] == ex.stats["crashes"]
        assert events.of_kind(EventKind.WORKER_CRASH)
        assert events.of_kind(EventKind.WORKER_RESPAWN)

    def test_exhausted_crash_budget_poisons(self):
        with SupervisedProcessExecutor(
            2,
            chaos=ChaosProfile(kill_probability=1.0),
            retry_policy=RetryPolicy(max_attempts=2),
        ) as ex:
            got = ex.map_supervised(_square, [_Payload(1), _Payload(2)])
        for poisoned in got:
            assert isinstance(poisoned, PoisonedTask)
            assert poisoned.reason == "crash"
            assert poisoned.attempts == 2
        assert ex.stats["poisoned"] == 2
        assert ex.events.of_kind(EventKind.TASK_POISONED)

    def test_exhausted_crash_budget_raises_in_map_ordered(self):
        with SupervisedProcessExecutor(
            2,
            chaos=ChaosProfile(kill_probability=1.0),
            retry_policy=RetryPolicy(max_attempts=1),
        ) as ex:
            with pytest.raises(WorkerCrashError) as info:
                ex.map_ordered(_square, [_Payload(1), _Payload(2)])
        assert info.value.attempts == 1
        assert isinstance(info.value, WorkerLostError)

    def test_real_sigkill_not_just_chaos(self):
        # A task that SIGKILLs its own worker is indistinguishable from an
        # OOM kill; without chaos plumbing the supervisor must still respawn
        # and, after the budget, poison exactly that task.
        with SupervisedProcessExecutor(
            2, retry_policy=RetryPolicy(max_attempts=2)
        ) as ex:
            got = ex.map_supervised(
                _suicide_on_two, [_Payload(v) for v in range(4)]
            )
        assert got[0] == 0 and got[1] == 10 and got[3] == 30
        assert isinstance(got[2], PoisonedTask)
        assert got[2].reason == "crash"


class TestHangRecovery:
    def test_deadline_expiry_kills_and_poisons(self):
        with SupervisedProcessExecutor(
            2, task_deadline=0.3, retry_policy=RetryPolicy(max_attempts=1)
        ) as ex:
            t0 = time.monotonic()
            got = ex.map_supervised(_sleep_forever, [_Payload(1)])
            elapsed = time.monotonic() - t0
        assert isinstance(got[0], PoisonedTask)
        assert got[0].reason == "hang"
        assert elapsed < 10.0, "hung worker must be killed, not awaited"
        assert ex.stats["hangs"] == 1
        assert ex.events.of_kind(EventKind.WORKER_HANG)

    def test_deadline_expiry_raises_hang_error_in_map_ordered(self):
        with SupervisedProcessExecutor(
            1, task_deadline=0.3, retry_policy=RetryPolicy(max_attempts=1)
        ) as ex:
            with pytest.raises(WorkerHangError):
                ex.map_ordered(_sleep_forever, [_Payload(1)])

    def test_chaos_hang_ticket_recovers(self):
        # Chaos hangs one dispatch far past the deadline; the retry's fresh
        # draw survives and the result is exact.
        with SupervisedProcessExecutor(
            2,
            task_deadline=0.5,
            chaos=ChaosProfile(kill_probability=0.0, hang_probability=0.2,
                               hang_seconds=30.0),
            seed=1,
            retry_policy=RetryPolicy(max_attempts=4),
        ) as ex:
            got = ex.map_ordered(_square, [_Payload(v) for v in range(6)])
        assert got == [v * v for v in range(6)]
        assert ex.stats["hangs"] == 1, "seed 1 at p=0.2 hangs exactly one dispatch"


class TestConstruction:
    def test_registered_backend(self):
        assert "process" in EXECUTOR_KINDS
        assert "supervised" not in EXECUTOR_KINDS
        ex = get_executor("process", 2)
        assert isinstance(ex, SupervisedProcessExecutor)
        assert ex.kind == "process"
        ex.shutdown()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisedProcessExecutor(0)
        with pytest.raises(ConfigurationError):
            SupervisedProcessExecutor(2, heartbeat_interval=0.0)
        with pytest.raises(ConfigurationError):
            SupervisedProcessExecutor(2, heartbeat_misses=0)
        with pytest.raises(ConfigurationError):
            SupervisedProcessExecutor(2, task_deadline=-1.0)

    def test_poisoned_task_round_trip(self):
        poisoned = PoisonedTask(3, 4, "crash", "worker died")
        assert poisoned.to_dict() == {
            "index": 3, "attempts": 4, "reason": "crash", "detail": "worker died",
        }
        assert "task 3" in poisoned.describe()
        assert "4 attempts" in poisoned.describe()


class TestAbnormalPoolExit:
    """``map_ordered`` on the process backend when a worker dies mid-batch."""

    def test_broken_pool_raises_worker_crash_for_earliest_task(self):
        # Task 2 SIGKILLs its worker on every attempt, task 5 raises; once
        # the retry budget is spent what surfaces is a typed
        # WorkerCrashError for task 2 (the earliest-submitted loss), never
        # a raw pool exception and never the later failure.
        payloads = [_Payload(v) for v in range(8)]
        with get_executor("process", 2) as ex:
            with pytest.raises(WorkerCrashError, match="task 2") as info:
                ex.map_ordered(_suicide_on_two_fail_on_five, payloads)
        assert info.value.attempts == ex.retry_policy.max_attempts

    def test_pool_is_rebuilt_after_abnormal_exit(self):
        with get_executor("process", 2) as ex:
            with pytest.raises(WorkerCrashError):
                ex.map_ordered(_suicide_on_two, [_Payload(2)])
            # Every dead worker was respawned; the next map succeeds.
            assert ex.stats["respawns"] == ex.retry_policy.max_attempts
            assert ex.map_ordered(_square, [_Payload(3)]) == [9]

    def test_ordered_merge_earliest_crash_wins(self):
        pairs = [
            (2, TaskFailure(WorkerCrashError("lost task 2"))),
            (0, "fine"),
            (1, TaskFailure(WorkerCrashError("lost task 1"))),
        ]
        with pytest.raises(WorkerCrashError, match="lost task 1"):
            ordered_merge(pairs, 3)

    def test_poisoned_task_is_a_value_not_a_failure(self):
        # PoisonedTask flows through the merge as a result: graceful
        # degradation depends on the merge not raising for it.
        pairs = [(0, "ok"), (1, PoisonedTask(1, 4, "crash", "gone"))]
        merged = ordered_merge(pairs, 2)
        assert merged[0] == "ok"
        assert isinstance(merged[1], PoisonedTask)


_ORPHAN_CHILD = """
from repro.parallel import get_executor
ex = get_executor("process", 2)
ex.map_ordered(abs, [-1, -2, -3])
print(" ".join(str(w.proc.pid) for w in ex._procs), flush=True)
import time
time.sleep(60)
"""


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def wait_until_gone(pids, timeout: float = 5.0) -> list:
    """Poll until every pid has exited; returns the survivors."""
    deadline = time.monotonic() + timeout
    survivors = list(pids)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = [pid for pid in survivors if _alive(pid)]
    return survivors


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="needs /proc to observe workers"
)
class TestOrphanedWorkers:
    def test_workers_exit_when_parent_is_sigkilled(self):
        # A SIGKILL'd supervisor runs no cleanup at all: its workers must
        # notice on their own and exit instead of lingering under pid 1.
        child = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_CHILD],
            stdout=subprocess.PIPE, text=True, env=os.environ,
        )
        watchdog = threading.Timer(120.0, child.kill)  # never block forever
        watchdog.start()
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2, "the child must report its two workers"
            assert all(_alive(pid) for pid in pids)
        finally:
            watchdog.cancel()
            child.kill()
            child.wait(timeout=30)
            child.stdout.close()
        assert wait_until_gone(pids) == [], "workers outlived their parent"
