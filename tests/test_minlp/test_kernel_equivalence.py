"""Kernels-on vs tree-walk equivalence of the branch-and-bound solvers.

The compiled-kernel evaluation layer must be *behavior-preserving*: on the
paper's three Table I layout models, both solvers must return bit-identical
optima and explore bit-identical trees (same node counts) whether the NLPs
evaluate through compiled kernels or through the reference ``Expr.evaluate``
tree walks.  Modest node budgets keep every solve deterministic (no solve
may come near the time limit, or node counts would depend on wall-clock).
"""

from __future__ import annotations

import pytest

from repro.cesm import ComponentId, Layout
from repro.fitting import PerfModel
from repro.hslb import build_layout_model
from repro.minlp.bnb import solve_nlp_bnb
from repro.minlp.lpnlp import solve_lpnlp
from repro.minlp.options import MINLPOptions

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND

PERF = {
    I: PerfModel(a=8000.0, d=18.0),
    L: PerfModel(a=1465.0, d=2.6),
    A: PerfModel(a=27000.0, d=45.0),
    O: PerfModel(a=7900.0, b=0.02, c=1.0, d=36.0),
}
BOUNDS = {I: (8, 2048), L: (4, 2048), A: (8, 2048), O: (8, 2048)}
N = 64
OCN_ALLOWED = [8, 16, 24, 32]

LAYOUTS = (Layout.HYBRID, Layout.SEQUENTIAL_SPLIT, Layout.FULLY_SEQUENTIAL)


def model_for(layout: Layout):
    return build_layout_model(layout, N, PERF, BOUNDS, ocn_allowed=OCN_ALLOWED)


@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda lay: lay.name.lower())
@pytest.mark.parametrize("solver", (solve_nlp_bnb, solve_lpnlp),
                         ids=("bnb", "lpnlp"))
def test_kernel_and_tree_solves_are_identical(layout, solver):
    model = model_for(layout)
    with_kernels = solver(model, MINLPOptions(evaluator="kernel"))
    with_trees = solver(model, MINLPOptions(evaluator="tree"))

    assert with_kernels.status == with_trees.status
    assert with_kernels.objective == with_trees.objective  # bit-identical
    assert with_kernels.nodes == with_trees.nodes
    assert with_kernels.nlp_solves == with_trees.nlp_solves
    assert with_kernels.solution == with_trees.solution


@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda lay: lay.name.lower())
def test_solvers_agree_on_the_optimum(layout):
    model = model_for(layout)
    bnb = solve_nlp_bnb(model)
    lpnlp = solve_lpnlp(model)
    assert bnb.is_optimal and lpnlp.is_optimal
    assert bnb.objective == pytest.approx(lpnlp.objective, abs=1e-5)


def test_kernel_counters_reported():
    result = solve_nlp_bnb(model_for(Layout.HYBRID))
    counters = result.kernel_counters
    assert counters["kernel_compiles"] >= 1
    assert counters["kernel_hits"] >= 1
    assert counters["kernel_grad_evals"] > 0
    assert counters["kernel_hess_evals"] > 0
    # every miss is one compile: nothing is ever built twice
    assert counters["kernel_misses"] == counters["kernel_compiles"]
