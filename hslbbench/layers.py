"""Timing wrappers around the layer entry points of ``repro``.

The benchmark changes no library file: :func:`traced` rebinds each entry
point *where its caller looks it up* (``from x import f`` copies the
binding into the caller's module) and restores every binding on exit.
Each wrapper records one span named after the ``repro`` module that owns
the layer, plus the counts the call already returns.
"""

from __future__ import annotations

from contextlib import contextmanager


def _gather_counts(data) -> dict:
    return {"samples": sum(len(data.nodes(c)) for c in data.components())}


def _fit_counts(fits: dict) -> dict:
    return {
        "iterations": sum(f.iterations for f in fits.values()),
        "starts": sum(f.starts_tried for f in fits.values()),
        "sse_sum": sum(float(f.sse) for f in fits.values()),
    }


def minlp_counts(result) -> dict:
    """Counts of one ``MINLPResult`` under the benchmark's metric names."""
    counts = {
        "nodes": result.nodes,
        "nlp_solves": result.nlp_solves,
        "cuts_added": result.cuts_added,
    }
    for phase, seconds in result.phase_seconds.items():
        counts[f"phase.{phase}_s"] = float(seconds)
    kc = result.kernel_counters
    for key in ("compiles", "hits", "misses", "grad_evals", "hess_evals"):
        counts[f"kernels.{key}"] = kc.get(f"kernel_{key}", 0)
    for key in ("cuts_carried", "incumbent_seeded", "basis_reused"):
        counts[f"reuse.{key}"] = result.reuse_counters.get(key, 0)
    return counts


def _lp_counts(result) -> dict:
    return {"iterations": result.iterations}


def _nlp_counts(result) -> dict:
    return {
        "newton_iterations": result.newton_iterations,
        "failed": 0 if result.is_optimal else 1,
    }


def _bindings():
    """``(owner, attribute, span name, counter)`` for every wrapped call."""
    import repro.cesm.simulator as simulator
    import repro.hslb.pipeline as pipeline
    import repro.hslb.solve as solve
    import repro.minlp.bnb as bnb
    import repro.minlp.lpnlp as lpnlp
    import repro.spec.specs as specs

    return [
        (pipeline, "gather_benchmarks", "gather", _gather_counts),
        (pipeline, "fit_components", "fitting", _fit_counts),
        (solve, "layout_model_for_case", "layout_models", None),
        (simulator.CoupledRunSimulator, "run_coupled", "execute", None),
        (solve, "solve_lpnlp", "minlp", minlp_counts),
        (solve, "solve_nlp_bnb", "minlp", minlp_counts),
        (lpnlp, "solve_lp", "lp", _lp_counts),
        (lpnlp, "solve_nlp", "nlp", _nlp_counts),
        (bnb, "solve_nlp", "nlp", _nlp_counts),
        (specs, "spec_key", "spec", None),
    ]


@contextmanager
def traced(tracer):
    """Route every layer entry point through ``tracer`` for the block."""
    saved = []
    try:
        for owner, attr, name, count in _bindings():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
