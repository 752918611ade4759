"""Crash-safe ``run_experiments``: journal resume and quarantine.

Most tests monkeypatch two fast fake experiments into the registry so the
scheduling/durability machinery is exercised without paying for real
pipeline runs; the supervised-integration tests at the bottom use real
(small) experiments because process workers cannot see a monkeypatch.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import registry
from repro.experiments.registry import (
    ExperimentCellSpec,
    quarantine_text,
    run_experiments,
)
from repro.io.journal import RunJournal
from repro.resilience import ChaosProfile, EventLog, RetryPolicy
from repro.resilience.events import EventKind


class _Rendered:
    def __init__(self, text):
        self.text = text

    def render(self):
        return self.text


@pytest.fixture
def fake_experiments(monkeypatch):
    """Two cheap registry entries; returns the per-id call counter."""
    calls = {"fake-a": 0, "fake-b": 0}

    def make(key):
        def run(seed=0):
            calls[key] += 1
            return _Rendered(f"{key} rendered (seed={seed})")

        return ("fake experiment " + key, run)

    monkeypatch.setitem(registry.EXPERIMENTS, "fake-a", make("fake-a"))
    monkeypatch.setitem(registry.EXPERIMENTS, "fake-b", make("fake-b"))
    return calls


IDS = ["fake-a", "fake-b"]


class TestJournalResume:
    def test_journal_records_the_full_run(self, fake_experiments, tmp_path):
        journal = tmp_path / "run.jsonl"
        got = run_experiments(IDS, seed=0, journal=journal)
        assert got == [
            ("fake-a", "fake-a rendered (seed=0)"),
            ("fake-b", "fake-b rendered (seed=0)"),
        ]
        state = RunJournal.read(journal)
        assert state.plan == {"experiment_ids": IDS, "seed": 0}
        assert len(state.completed) == 2
        assert state.in_flight == []

    def test_resume_skips_finished_cells(self, fake_experiments, tmp_path):
        journal = tmp_path / "run.jsonl"
        first = run_experiments(IDS, seed=0, journal=journal)
        events = EventLog()
        second = run_experiments(IDS, seed=0, journal=journal, events=events)
        assert second == first, "resume must reproduce the roll-up exactly"
        assert fake_experiments["fake-a"] == 1, "finished cells never re-run"
        assert fake_experiments["fake-b"] == 1
        assert len(events.of_kind(EventKind.JOURNAL_RECOVERED)) == 2

    def test_resume_runs_only_the_missing_cells(self, fake_experiments, tmp_path):
        # Simulate a kill after the first cell: journal holds plan + start +
        # finish for fake-a and a dangling start for fake-b.
        journal = tmp_path / "run.jsonl"
        key_a = ExperimentCellSpec("fake-a", 0).spec_key()
        key_b = ExperimentCellSpec("fake-b", 0).spec_key()
        with RunJournal.open(journal) as book:
            book.plan(IDS, 0)
            book.start(key_a, "fake-a")
            book.finish(key_a, "fake-a", "fake-a rendered (seed=0)")
            book.start(key_b, "fake-b")
        got = run_experiments(IDS, seed=0, journal=journal)
        assert fake_experiments["fake-a"] == 0
        assert fake_experiments["fake-b"] == 1
        assert got[0] == ("fake-a", "fake-a rendered (seed=0)")
        assert RunJournal.read(journal).in_flight == []

    def test_resume_repairs_a_torn_tail(self, fake_experiments, tmp_path):
        journal = tmp_path / "run.jsonl"
        run_experiments(["fake-a"], seed=0, journal=journal)
        journal.write_bytes(journal.read_bytes() + b'{"op":"finish","spec')
        events = EventLog()
        got = run_experiments(["fake-a"], seed=0, journal=journal, events=events)
        assert got[0][1] == "fake-a rendered (seed=0)"
        kinds = [e.detail for e in events.of_kind(EventKind.JOURNAL_RECOVERED)]
        assert any("torn tail" in d for d in kinds)
        assert not RunJournal.read(journal).torn_tail, "tail was truncated away"

    def test_poisoned_cells_stay_quarantined_on_resume(
        self, fake_experiments, tmp_path
    ):
        journal = tmp_path / "run.jsonl"
        key_a = ExperimentCellSpec("fake-a", 0).spec_key()
        with RunJournal.open(journal) as book:
            book.plan(IDS, 0)
            book.start(key_a, "fake-a")
            book.poison(key_a, "fake-a", 4, "crash", "worker died")
        got = run_experiments(IDS, seed=0, journal=journal)
        assert fake_experiments["fake-a"] == 0, "poison is a terminal verdict"
        assert got[0] == (
            "fake-a", quarantine_text("fake-a", 4, "crash", "worker died"),
        )
        assert got[1][1] == "fake-b rendered (seed=0)"

    def test_mismatched_plan_is_rejected(self, fake_experiments, tmp_path):
        journal = tmp_path / "run.jsonl"
        run_experiments(["fake-a"], seed=0, journal=journal)
        with pytest.raises(ConfigurationError, match="different run"):
            run_experiments(["fake-b"], seed=0, journal=journal)
        with pytest.raises(ConfigurationError, match="different run"):
            run_experiments(["fake-a"], seed=1, journal=journal)


class TestSupervisedIntegration:
    """Real experiments on the process backend (workers can't see mocks)."""

    def test_supervised_matches_serial(self):
        reference = run_experiments(["t3-1"], seed=0)
        supervised = run_experiments(
            ["t3-1"], seed=0, executor="process", workers=2
        )
        assert supervised == reference

    def test_poisoned_cell_degrades_the_rollup(self, tmp_path):
        # kill_probability=1 with a single attempt: the cell is quarantined,
        # the run completes, and the journal records the poison durably.
        journal = tmp_path / "run.jsonl"
        events = EventLog()
        got = run_experiments(
            ["t3-1"],
            seed=0,
            executor="process",
            workers=2,
            journal=journal,
            chaos=ChaosProfile(kill_probability=1.0),
            retry_policy=RetryPolicy(max_attempts=1),
            events=events,
        )
        assert got[0][0] == "t3-1"
        assert "QUARANTINED" in got[0][1]
        assert events.of_kind(EventKind.TASK_POISONED)
        state = RunJournal.read(journal)
        assert len(state.poisoned) == 1
        # A later chaos-free resume keeps the quarantine verdict.
        again = run_experiments(["t3-1"], seed=0, journal=journal)
        assert again == got
