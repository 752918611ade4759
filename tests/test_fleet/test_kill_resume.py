"""Kill-level chaos: SIGKILL a journaled fleet run, resume, compare.

The acceptance property for the whole durability stack: a run killed at a
chaos-chosen instant (``kill_instant`` picks how many cells may finish
first), then resumed from its journal, must produce a roll-up
*bit-identical* to a run that was never interrupted — on every execution
backend.  No worker of the killed run may outlive it.

The ``chaos`` marker lets CI run these in a dedicated kill-matrix job
across several seeds (``pytest -m chaos`` with ``REPRO_CHAOS_SEEDS=0,1,2``);
the default suite runs seed 0 only.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import run_experiments
from repro.io.journal import RunJournal
from repro.resilience.chaos import kill_instant
from tests.test_parallel.test_supervised import wait_until_gone

SEEDS = [int(s) for s in os.environ.get("REPRO_CHAOS_SEEDS", "0").split(",")]

#: A batch small enough to re-run per backend but long enough that a kill
#: usually lands mid-run.
IDS = ["t3-1", "t3-2", "fig2", "fig4"]

_CHILD = """
import sys
from repro.experiments import run_experiments
run_experiments({ids!r}, seed={seed}, journal={journal!r},
                executor={executor!r}, workers=2)
"""

_references: dict = {}


def _reference(seed: int):
    """The uninterrupted serial roll-up, computed once per seed."""
    if seed not in _references:
        _references[seed] = run_experiments(IDS, seed=seed)
    return _references[seed]


def _children(pid: int) -> list:
    """Direct child pids of ``pid`` (empty if it is gone or has none)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(child) for child in handle.read().split()]
    except OSError:
        return []


def _run_child_and_kill(journal: Path, seed: int, executor: str) -> tuple:
    """Start a journaled fleet run in a child and SIGKILL it.

    The kill fires once the journal shows the run's plan and
    ``kill_instant(seed, n)`` cells finished — i.e. at a deterministic,
    seed-chosen point in the run's life (instant 0 is "started, nothing
    finished", not "before the child wrote anything").  Returns how many
    cells had finished when the child died (the child may legitimately win
    the race and finish everything), and the child's own children read just
    before the kill.
    """
    target = kill_instant(seed, len(IDS))
    script = _CHILD.format(
        ids=IDS, seed=seed, journal=str(journal), executor=executor
    )
    child = subprocess.Popen([sys.executable, "-c", script], env=os.environ)
    workers: list = []
    try:
        deadline = time.monotonic() + 300.0
        while child.poll() is None and time.monotonic() < deadline:
            started, finished = False, 0
            if journal.exists():
                try:
                    state = RunJournal.read(journal)
                    started = state.plan is not None
                    finished = len(state.completed)
                except Exception:
                    pass  # mid-write; try again next tick
            if started and finished >= target:
                workers = _children(child.pid)
                child.send_signal(signal.SIGKILL)
                break
            time.sleep(0.01)
    finally:
        child.wait(timeout=60)
    try:
        return len(RunJournal.read(journal).completed), workers
    except Exception:
        return 0, workers


@pytest.mark.chaos
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("seed", SEEDS)
class TestKillResumeParity:
    def test_rollup_bit_identical_after_kill_and_resume(
        self, tmp_path, executor, seed
    ):
        journal = tmp_path / f"fleet-{executor}-s{seed}.jsonl"
        finished_at_kill, workers = _run_child_and_kill(journal, seed, executor)
        assert wait_until_gone(workers) == [], (
            f"{executor} seed {seed}: workers outlived the killed run"
        )

        state = RunJournal.read(journal)
        assert state.plan is not None, "the plan record must be durable"

        resumed = run_experiments(IDS, seed=seed, journal=journal)
        assert resumed == _reference(seed), (
            f"{executor} seed {seed}: resumed roll-up differs from the "
            f"uninterrupted run (killed with {finished_at_kill} cells done)"
        )
        final = RunJournal.read(journal)
        assert len(final.completed) == len(IDS)
        assert not final.torn_tail
        assert final.in_flight == []
