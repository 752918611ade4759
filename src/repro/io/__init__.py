"""Persistence: benchmark data, fitted models and run results as JSON.

The paper (Sec. III-F): "The data gathering step (1) can be avoided
altogether if reliable benchmarks are already available, for example, from
previous experiments."  These helpers make that workflow concrete: gather
once, save, and re-run fit/solve from the file — also how a user would feed
*real* CESM timing logs into this library instead of the simulator.

:mod:`repro.io.journal` adds the durability layer on top: an fsync'd
write-ahead run journal that lets ``exp resume`` recover a fleet run after
a hard kill, skipping finished cells and repairing a torn tail record.
"""

from repro.io.journal import JournalState, RunJournal
from repro.io.serialize import (
    append_metrics,
    benchmark_data_to_dict,
    benchmark_data_from_dict,
    fits_to_dict,
    fits_from_dict,
    load_metrics,
    load_spec,
    metrics_snapshot_from_dict,
    metrics_snapshot_to_dict,
    save_benchmarks,
    load_benchmarks,
    save_fits,
    load_fits,
    save_spec,
    run_result_to_dict,
)

__all__ = [
    "JournalState",
    "RunJournal",
    "append_metrics",
    "benchmark_data_to_dict",
    "benchmark_data_from_dict",
    "fits_to_dict",
    "fits_from_dict",
    "load_metrics",
    "load_spec",
    "metrics_snapshot_from_dict",
    "metrics_snapshot_to_dict",
    "save_benchmarks",
    "load_benchmarks",
    "save_fits",
    "load_fits",
    "save_spec",
    "run_result_to_dict",
]
