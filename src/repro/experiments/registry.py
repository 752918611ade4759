"""Experiment registry: ids -> runners (shared by CLI and benchmarks).

Each scheduled cell (one experiment id at one seed) is described by an
:class:`ExperimentCellSpec` — serializable, structurally hashable — which
is what crosses process boundaries and what the run journal is keyed by.

Two durability layers:

- ``journal=`` appends every cell start/finish/quarantine to an fsync'd
  :class:`~repro.io.journal.RunJournal`; a run killed at any instant
  resumes from the journal alone, replaying only unfinished cells.
- ``executor="process"`` runs cells under
  :class:`~repro.parallel.supervised.SupervisedProcessExecutor`: crashed
  or hung workers are respawned and their cells retried; a cell that
  exhausts its retry budget (or raises) is *quarantined* — the roll-up
  completes with a ``QUARANTINED`` line for that cell instead of dying.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.spec.schema import check_schema, spec_key, stamp


def _table3(key):
    def run(seed: int = 0):
        from repro.experiments.table3 import run_table3_entry

        return run_table3_entry(key, seed=seed)

    return run


def _fig(runner_name):
    def run(seed: int = 0):
        from repro.experiments import figures

        return getattr(figures, runner_name)(seed=seed)

    return run


def _ablation(runner_name):
    def run(seed: int = 0):
        from repro.experiments import ablations

        return getattr(ablations, runner_name)(seed=seed)

    return run


def _mlice(seed: int = 0):
    from repro.experiments.mlice_ablation import run_mlice_ablation

    return run_mlice_ablation(seed=seed)


def _seeds(seed: int = 0):
    from repro.experiments.stability import run_seed_stability

    return run_seed_stability(seed=seed)


def _finetune(seed: int = 0):
    from repro.experiments.finetune import run_finetune_comparison

    return run_finetune_comparison(seed=seed)


def _reuse(seed: int = 0):
    from repro.experiments.reuse_sweep import run_reuse_sweep

    return run_reuse_sweep(seed=seed)


#: id -> (description, runner).  Runners take ``seed`` and return an object
#: with a ``render()`` method.
EXPERIMENTS = {
    "t3-1": ("Table III: 1 deg, 128 nodes", _table3("1deg-128")),
    "t3-2": ("Table III: 1 deg, 2048 nodes", _table3("1deg-2048")),
    "t3-3": ("Table III: 1/8 deg, 8192 nodes, constrained ocean", _table3("8th-8192")),
    "t3-4": ("Table III: 1/8 deg, 32768 nodes, constrained ocean", _table3("8th-32768")),
    "t3-5": (
        "Table III: 1/8 deg, 8192 nodes, unconstrained ocean",
        _table3("8th-8192-unconstrained"),
    ),
    "t3-6": (
        "Table III: 1/8 deg, 32768 nodes, unconstrained ocean",
        _table3("8th-32768-unconstrained"),
    ),
    "fig2": ("Figure 2: component scaling curves (1 deg)", _fig("run_figure2")),
    "fig3": ("Figure 3: 1/8 deg manual vs HSLB", _fig("run_figure3")),
    "fig4": ("Figure 4: layout scaling (1 deg)", _fig("run_figure4")),
    "a-obj": ("Ablation: objective functions", _ablation("run_objective_ablation")),
    "a-sos": ("Ablation: SOS vs binary branching", _ablation("run_branching_ablation")),
    "a-solve": ("Ablation: solver time at 40,960 nodes", _ablation("run_solver_time")),
    "a-sync": ("Ablation: T_sync band", _ablation("run_tsync_ablation")),
    "a-fit": ("Ablation: benchmark point count", _ablation("run_fit_points_ablation")),
    "a-start": ("Ablation: multistart fitting", _ablation("run_multistart_ablation")),
    "a-mlice": (
        "Extension: ML-based sea-ice decomposition selection (ref. [10])",
        _mlice,
    ),
    "a-seeds": (
        "Extension: seed-replication of the Table III headline comparison",
        _seeds,
    ),
    "a-finetune": (
        "Extension: coupler/river fine-tuning (paper Sec. II deferred step)",
        _finetune,
    ),
    "a-reuse": (
        "Extension: cross-solve reuse family vs cold what-if sweep",
        _reuse,
    ),
}


def run_experiment(experiment_id: str, seed: int = 0):
    """Run one experiment by id; returns its data object (has .render())."""
    try:
        _, runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return runner(seed=seed)


@dataclass(frozen=True)
class ExperimentCellSpec:
    """One schedulable experiment cell (id + seed) as serializable data.

    This is the payload shipped to process workers and the identity key of
    journal records: :meth:`spec_key` hashes the canonical dict, so a
    journaled cell is only replayed for exactly the experiment and seed
    that produced it.
    """

    experiment_id: str
    seed: int = 0

    kind = "experiment_cell"

    def __post_init__(self):
        if self.experiment_id not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment_id!r}; "
                f"known: {sorted(EXPERIMENTS)}"
            )

    def to_dict(self) -> dict:
        return stamp(
            {
                "kind": self.kind,
                "experiment_id": self.experiment_id,
                "seed": int(self.seed),
            },
            "spec",
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentCellSpec":
        check_schema(payload, "spec")
        if payload.get("kind") != cls.kind:
            raise ConfigurationError(
                f"expected an {cls.kind!r} spec, got kind={payload.get('kind')!r}"
            )
        return cls(
            experiment_id=payload["experiment_id"], seed=int(payload.get("seed", 0))
        )

    def spec_key(self) -> str:
        return spec_key(self.to_dict())

    def run(self):
        return run_experiment(self.experiment_id, seed=self.seed)


def _render_cell(payload: dict) -> tuple:
    """Process-pool worker: run one experiment cell and render it to text.

    Takes the cell's *spec payload* rather than a runner closure — closures
    do not pickle; pure data does, in any worker.  Returning the rendered
    text (not the data object) keeps the result picklable for every
    experiment type.
    """
    cell = ExperimentCellSpec.from_dict(payload)
    return cell.experiment_id, cell.run().render()


def quarantine_text(experiment_id: str, attempts: int, reason: str, detail: str) -> str:
    """The roll-up line standing in for a poisoned cell's report.

    A pure function of the poison record, so a journal resume reproduces
    the exact text the original run rolled up.
    """
    return (
        f"experiment {experiment_id} QUARANTINED: {reason} persisted through "
        f"{attempts} attempt{'s' if attempts != 1 else ''}; cell skipped.\n"
        f"  {detail}"
    )


def run_experiments(
    experiment_ids,
    seed: int = 0,
    executor=None,
    workers: int | None = None,
    journal=None,
    retry_policy=None,
    task_deadline: float | None = None,
    chaos=None,
    events=None,
):
    """Run several experiments, optionally concurrently, with resume.

    Returns ``[(experiment_id, rendered_text), ...]`` in the order given,
    whatever the backend (see :mod:`repro.parallel`).  Each experiment is
    internally deterministic given ``seed``, so concurrent execution
    renders the same text serial execution would.

    With ``journal`` set (a path or an open
    :class:`~repro.io.journal.RunJournal`), every cell start/finish is
    appended to the fsync'd journal *as it happens*: after a hard kill,
    calling this again with the same journal (what ``exp resume`` does)
    replays finished cells from the journal and runs only the rest.  A
    journal that already holds a plan must match ``experiment_ids``/``seed``.

    With ``executor="process"``, cells run under the supervised process
    pool: crashed/hung workers are respawned and cells retried per
    ``retry_policy`` (``task_deadline`` bounds each dispatch); a cell that
    exhausts its budget, or raises, is quarantined — its slot in the
    roll-up carries :func:`quarantine_text` and the run still completes.
    ``chaos`` (a :class:`~repro.resilience.chaos.ChaosProfile`) injects
    deterministic worker faults for testing; ``events`` receives the
    supervision/journal event stream.
    """
    from repro.parallel.executor import executor_scope
    from repro.parallel.supervised import PoisonedTask, SupervisedProcessExecutor
    from repro.resilience.events import EventKind, EventLog

    cells = [ExperimentCellSpec(experiment_id, seed) for experiment_id in experiment_ids]
    log = events if events is not None else EventLog()

    book = None
    owns_journal = False
    if journal is not None:
        from repro.io.journal import RunJournal

        if isinstance(journal, RunJournal):
            book = journal
        else:
            book = RunJournal.open(journal)
            owns_journal = True
        if book.state.torn_tail:
            log.record(
                EventKind.JOURNAL_RECOVERED,
                "fleet",
                f"{book.path.name}: torn tail record dropped",
            )
        if book.is_new:
            book.plan([cell.experiment_id for cell in cells], seed)
        elif book.state.plan is not None:
            plan = book.state.plan
            if (
                plan["experiment_ids"] != [cell.experiment_id for cell in cells]
                or plan["seed"] != seed
            ):
                if owns_journal:
                    book.close()
                raise ConfigurationError(
                    f"journal {book.path} records a different run "
                    f"(ids={plan['experiment_ids']}, seed={plan['seed']}); "
                    "use a fresh journal file per batch"
                )

    try:
        finished: dict = {}
        pending: list = []
        for index, cell in enumerate(cells):
            key = cell.spec_key()
            if book is not None and key in book.state.completed:
                finished[index] = (
                    cell.experiment_id,
                    book.state.completed[key]["rendered"],
                )
                log.record(
                    EventKind.JOURNAL_RECOVERED,
                    "fleet",
                    f"{cell.experiment_id} (seed {cell.seed}) replayed from journal",
                )
                continue
            if book is not None and key in book.state.poisoned:
                record = book.state.poisoned[key]
                finished[index] = (
                    cell.experiment_id,
                    quarantine_text(
                        cell.experiment_id,
                        record.get("attempts", 0),
                        record.get("reason", "loss"),
                        record.get("detail", ""),
                    ),
                )
                continue
            pending.append(index)

        if pending:

            def on_done(position: int, outcome) -> None:
                # Runs in the parent, in completion order: the crash-safe
                # moment to persist each cell.
                index = pending[position]
                cell = cells[index]
                if isinstance(outcome, PoisonedTask):
                    if book is not None:
                        book.poison(
                            cell.spec_key(),
                            cell.experiment_id,
                            outcome.attempts,
                            outcome.reason,
                            outcome.detail,
                        )
                    return
                if book is not None:
                    book.finish(cell.spec_key(), cell.experiment_id, outcome[1])

            if book is not None:
                for index in pending:
                    book.start(cells[index].spec_key(), cells[index].experiment_id)

            if executor == "process":
                scope = SupervisedProcessExecutor(
                    workers,
                    retry_policy=retry_policy,
                    task_deadline=task_deadline,
                    chaos=chaos,
                    seed=seed,
                    events=log,
                )
            else:
                scope = executor_scope(executor, workers)
            payloads = [cells[i].to_dict() for i in pending]
            with scope as ex:
                run = getattr(ex, "map_supervised", ex.map_ordered)
                fresh = run(_render_cell, payloads, progress=on_done)
            for index, outcome in zip(pending, fresh):
                if isinstance(outcome, PoisonedTask):
                    cell = cells[index]
                    finished[index] = (
                        cell.experiment_id,
                        quarantine_text(
                            cell.experiment_id,
                            outcome.attempts,
                            outcome.reason,
                            outcome.detail,
                        ),
                    )
                else:
                    finished[index] = outcome
        return [finished[i] for i in range(len(cells))]
    finally:
        if owns_journal and book is not None:
            book.close()
