"""NLP-based B&B on the three Table I layouts (1 deg / 128 nodes, fitted
curves at case seed 0): answers pinned bit for bit.

Two inner loops are pinned.  With the feasible-phase line search held off
(every step judged on the KKT residual, as infeasible-start Newton does),
the barrier must reproduce the recorded objectives, allocations, node
counts and NLP solve counts exactly: evaluating each Hessian once per
Newton step changes no number.  The shipped loop must reach the very same
answers; it explores fewer nodes because fewer relaxations stall.
"""

from __future__ import annotations

import pytest

from repro.cesm import ComponentId, make_case
from repro.hslb import HSLBPipeline, solve_allocation
from repro.nlp.barrier import _Barrier

#: layout -> (objective, allocation ice/lnd/atm/ocn)
ANSWERS = {
    1: (411.12721931039005, (91, 15, 106, 22)),
    2: (417.62900166256645, (106, 106, 106, 22)),
    3: (463.1618892099213, (128, 128, 128, 128)),
}
#: layout -> (nodes, nlp_solves) with residual-only line searches
RESIDUAL_ONLY_TREES = {1: (13, 14), 2: (5, 6), 3: (5, 6)}
#: layout -> (nodes, nlp_solves) with the feasible-phase merit
TREES = {1: (11, 12), 2: (3, 4), 3: (1, 2)}


COMPONENTS = (ComponentId.ICE, ComponentId.LND, ComponentId.ATM, ComponentId.OCN)


def solve(layout: int):
    case = make_case("1deg", 128, layout=layout, seed=0)
    pipeline = HSLBPipeline(case)
    outcome = solve_allocation(case, pipeline.fit(pipeline.gather()), method="bnb")
    allocation = tuple(outcome.allocation[c] for c in COMPONENTS)
    result = outcome.solver_result
    return outcome.objective_value, allocation, (result.nodes, result.nlp_solves)


@pytest.mark.parametrize("layout", (1, 2, 3))
def test_residual_only_line_search_reproduces_recorded_trees(layout, monkeypatch):
    # Pin the flag that enables the feasible phase to False for the solve.
    monkeypatch.setattr(_Barrier, "on_manifold",
                        property(lambda self: False, lambda self, value: None),
                        raising=False)
    objective, allocation, tree = solve(layout)
    assert (objective, allocation) == ANSWERS[layout]
    assert tree == RESIDUAL_ONLY_TREES[layout]


@pytest.mark.parametrize("layout", (1, 2, 3))
def test_feasible_phase_keeps_every_answer(layout):
    objective, allocation, tree = solve(layout)
    assert (objective, allocation) == ANSWERS[layout]
    assert tree == TREES[layout]
