"""Compiled kernels vs tree evaluation on seeded random expression trees.

The kernel layer promises *bit-compatible-or-better* agreement with the
reference tree walk: values, gradients and Hessian entries from the
compiled/CSE'd/batched paths must match ``Expr.evaluate`` and
``repro.expr.diff`` to 1e-12 across randomly generated trees, including the
degenerate one-node trees and trees with heavily shared subtrees (where CSE
actually kicks in).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.expr.diff import gradient, hessian
from repro.expr.node import Neg, Pow, const, var
from repro.kernels import BatchKernel, KernelCache, SmoothKernel
from repro.util.rng import keyed_rng

NAMES = ("x", "y", "z", "w")
INDEX = {n: i for i, n in enumerate(NAMES)}
N_TREES = 200
SEED = 20260806


def random_tree(rng, depth: int):
    """A random expression over NAMES, kept numerically tame.

    Exponents are small positive integer constants so that negative bases
    (reachable through Neg/subtraction) stay in the real domain and the
    second derivatives remain finite.
    """
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            return const(round(float(rng.uniform(0.1, 4.0)), 3))
        return var(str(rng.choice(NAMES)))
    op = rng.integers(0, 5)
    left = random_tree(rng, depth - 1)
    if op == 0:
        return left + random_tree(rng, depth - 1)
    if op == 1:
        return left * random_tree(rng, depth - 1)
    if op == 2:
        return left / random_tree(rng, depth - 1)
    if op == 3:
        return Pow(left, const(float(rng.integers(1, 4))))
    return Neg(left)


def tree_cases():
    """(expr, point) pairs: the random sweep plus the mandatory edges."""
    cases = []
    for i in range(N_TREES):
        rng = keyed_rng(SEED, "kernels-tree", str(i))
        expr = random_tree(rng, depth=int(rng.integers(1, 6)))
        point = rng.uniform(0.5, 3.0, size=len(NAMES))
        cases.append((expr, point))
    # one-node trees
    cases.append((var("x"), np.array([1.7, 0.0, 0.0, 0.0])))
    cases.append((const(4.25), np.array([1.0, 1.0, 1.0, 1.0])))
    # a heavily shared subtree (CSE must not change values)
    s = (var("x") * var("y") + const(1.0)) / var("z")
    cases.append((s * s + s + Pow(s, const(3.0)), np.array([1.3, 2.1, 0.7, 1.0])))
    return cases


def env_of(point):
    return dict(zip(NAMES, point.tolist()))


def finite_case(expr, point) -> bool:
    """Skip trees whose reference value/derivatives already blow up."""
    try:
        v = expr.evaluate(env_of(point))
    except (ZeroDivisionError, OverflowError, ValueError):
        return False
    if not math.isfinite(v):
        return False
    support = sorted(expr.variables())
    for g in gradient(expr, support).values():
        if not math.isfinite(g.evaluate(env_of(point))):
            return False
    for h in hessian(expr, support).values():
        if not math.isfinite(h.evaluate(env_of(point))):
            return False
    return True


CASES = [c for c in tree_cases() if finite_case(*c)]


def test_sweep_is_meaningful():
    """The domain filter must not silently gut the sweep."""
    assert len(CASES) >= 150


@pytest.mark.parametrize("case_id", range(len(CASES)))
def test_smooth_kernel_matches_tree_and_diff(case_id):
    expr, point = CASES[case_id]
    kern = SmoothKernel(expr, INDEX)
    env = env_of(point)
    support = sorted(expr.variables())

    assert kern.value(point) == pytest.approx(expr.evaluate(env), abs=1e-12, rel=1e-12)

    grads = gradient(expr, support)
    got = dict(zip(support, kern.grad_entries(point)))
    for name in support:
        assert got[name] == pytest.approx(
            grads[name].evaluate(env), abs=1e-12, rel=1e-12
        ), f"d/d{name} of {expr}"

    hess = hessian(expr, support)
    got_h = dict(zip(kern.hess_positions, kern.hess_entries(point)))
    for (a, b), h_expr in hess.items():
        key = (INDEX[a], INDEX[b])
        assert got_h[key] == pytest.approx(
            h_expr.evaluate(env), abs=1e-12, rel=1e-12
        ), f"d2/d{a}d{b} of {expr}"


def test_batched_values_match_tree_pointwise():
    """One batched call reproduces every per-point tree walk."""
    exprs = [e for e, _ in CASES[:40]]
    rng = keyed_rng(SEED, "kernels-batch")
    X = rng.uniform(0.5, 3.0, size=(16, len(NAMES)))
    kern = BatchKernel(exprs, INDEX)
    got = kern.values(X)
    assert got.shape == (16, len(exprs))
    for i in range(X.shape[0]):
        env = env_of(X[i])
        for j, e in enumerate(exprs):
            ref = e.evaluate(env)
            assert got[i, j] == pytest.approx(ref, abs=1e-12, rel=1e-12)


def test_batched_single_point_shape():
    kern = BatchKernel([var("x") + var("y"), const(2.0)], INDEX)
    out = kern.values(np.array([1.0, 2.0, 0.0, 0.0]))
    assert out.shape == (2,)
    assert out[0] == 3.0 and out[1] == 2.0  # constant broadcast


def test_evaluator_backends_agree_exactly():
    """kernel / tree back-ends are bit-identical on shared trees."""
    s = (var("x") * var("y") + const(1.0)) / var("z")
    expr = s * s + s
    point = np.array([1.3, 2.1, 0.7, 1.0])
    kernels = {
        ev: KernelCache().smooth(expr, INDEX, evaluator=ev)
        for ev in ("kernel", "tree")
    }
    vals = {ev: k.value(point) for ev, k in kernels.items()}
    assert vals["kernel"] == vals["tree"]
    grads = {ev: tuple(k.grad_entries(point)) for ev, k in kernels.items()}
    assert grads["kernel"] == grads["tree"]
    hessians = {ev: tuple(k.hess_entries(point)) for ev, k in kernels.items()}
    assert hessians["kernel"] == hessians["tree"]
