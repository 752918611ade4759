"""Evaluation-count regression gate for the barrier's inner loop.

Each Newton iteration assembles one Hessian, and a centering stage that
ends by convergence assembles one more before returning.  An assembly
evaluates the Hessian kernel of the objective and of each nonlinear
inequality once, so over a solve

    kernel_hess_evals <= sum over stages of (nonlinear functions + 1) x
                         (Newton iterations + 1).

Kernel counters are deterministic, so this is an exact count, not a
timing gate.  A line search that assembles Hessians on its trials (the
old inner loop did, about six times over on this cell) fails it.
"""

from __future__ import annotations

import pytest

from repro.cesm import make_case
from repro.hslb import HSLBPipeline, solve_allocation
from repro.nlp.barrier import _Barrier


@pytest.fixture(scope="module")
def cell():
    case = make_case("1deg", 128, layout=1, seed=0)
    pipeline = HSLBPipeline(case)
    return case, pipeline.fit(pipeline.gather())


def test_one_hessian_per_newton_step(cell, monkeypatch):
    case, fits = cell
    budget = {"hess_evals": 0, "stages": 0}
    center = _Barrier._center

    def counting_center(self, x, t, *args, **kwargs):
        before = self.newton_iters
        try:
            return center(self, x, t, *args, **kwargs)
        finally:
            nonlinear = sum(1 for _, g in self.p.g_items() if g.linear is None)
            budget["hess_evals"] += (nonlinear + 1) * (self.newton_iters - before + 1)
            budget["stages"] += 1

    monkeypatch.setattr(_Barrier, "_center", counting_center)
    outcome = solve_allocation(case, fits, method="bnb")
    counters = outcome.solver_result.kernel_counters

    assert budget["stages"] > 0
    assert 0 < counters["kernel_hess_evals"] <= budget["hess_evals"]
