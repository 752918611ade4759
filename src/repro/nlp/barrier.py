"""Log-barrier interior-point solver (Boyd & Vandenberghe, ch. 11).

Outer loop: minimize ``t*f(x) + phi(x)`` for increasing ``t``, where ``phi``
is the log barrier of the inequality constraints and the finite box bounds.
Inner loop: Newton on the KKT system of the linear equalities, with a
backtracking line search that maintains strict interiority.

- Each Newton step assembles one Hessian.  A line-search trial evaluates
  the merit and, only where its acceptance test reads it, the gradient;
  an accepted trial's merit, gradient and per-inequality terms carry into
  the next step.
- Until ``A_eq x = b_eq`` holds, steps are infeasible-start Newton
  (B&V §10.3), accepted on the KKT residual norm.  The first full step
  solves the equalities; from then on a step is accepted by Armijo on the
  barrier value with the Newton decrement ``lambda^2 = -grad.dx``, and the
  residual test is kept only for trials whose decrease lies below the
  merit's floating-point floor.
- An optional stop predicate is polled once per Newton iteration, so a
  caller's time limit binds inside a solve.

A built-in phase 1 minimizes the max inequality violation through an
auxiliary slack variable, so callers do not need to hand in a strictly
feasible point — although the MINLP layer usually can, and then phase 1 is
skipped.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SolveInterrupted
from repro.expr.node import VarRef
from repro.nlp.problem import NLPProblem
from repro.nlp.result import NLPResult, NLPStatus

__all__ = ["BarrierOptions", "solve_nlp"]

#: Relative floating-point floor of the barrier merit: decreases smaller
#: than this times ``1 + |merit|`` are not resolvable by comparing values.
_MERIT_FLOOR = 64.0 * np.finfo(float).eps


@dataclass
class BarrierOptions:
    """Tuning knobs for :func:`solve_nlp`."""

    tol: float = 1e-6            # target duality-gap proxy (m / t)
    t0: float = 1.0              # initial barrier weight
    mu: float = 12.0             # barrier weight growth factor
    max_newton: int = 3000       # total Newton iterations across stages
    max_newton_per_center: int = 250  # per centering stage
    stall_window: int = 12       # centering iterations without residual progress
    inner_tol: float = 1e-9      # Newton decrement threshold (lambda^2 / 2)
    armijo: float = 0.25
    backtrack: float = 0.5
    feas_margin: float = 1e-10   # strict-interior margin in line search
    regularization: float = 1e-10


def solve_nlp(
    problem: NLPProblem,
    x0: np.ndarray | None = None,
    options: BarrierOptions | None = None,
    stop=None,
) -> NLPResult:
    """Solve ``problem``; returns a result object (statuses, never raises
    for infeasibility).

    ``stop`` is an optional zero-argument callable polled once per Newton
    iteration (phase 1 and the centering pre-pass included); a truthy
    return aborts the solve with :class:`~repro.exceptions.SolveInterrupted`
    carrying that value as its message.
    """
    opt = options or BarrierOptions()
    solver = _Barrier(problem, opt, stop)

    x = None if x0 is None else np.asarray(x0, dtype=float).copy()
    if x is not None and not solver.strictly_feasible(x):
        x = None
    if x is None:
        x, phase1 = solver.phase1()
        if x is None:
            return phase1  # infeasible (or phase-1 failure) result
    # Starting points routinely sit pressed into a corner of the feasible
    # set (phase 1 minimizes the violation slack; warm starts are clipped
    # projections), where the main barrier's Newton iteration crawls along
    # curved constraint walls.  Pull the point toward the analytic center
    # first (minimize the barrier with a vanishing objective weight); this
    # is best effort — a stall here is fine, and it costs almost nothing
    # when the point is already central.
    x, _, _ = solver._center(x, t=1e-8, stop_idx=None)
    return solver.minimize(x)


class _Barrier:
    def __init__(self, problem: NLPProblem, opt: BarrierOptions, stop=None):
        self.p = problem
        self.opt = opt
        self.stop = stop
        self.finite_lb = np.isfinite(problem.lb)
        self.finite_ub = np.isfinite(problem.ub)
        self.m_barrier = len(problem.inequalities) + int(self.finite_lb.sum()) + int(
            self.finite_ub.sum()
        )
        self.newton_iters = 0
        # Set once a full Newton step lands on A_eq x = b_eq (see _center).
        self.on_manifold = False

    # -- feasibility -----------------------------------------------------------

    def strictly_feasible(self, x: np.ndarray, margin: float = 1e-9) -> bool:
        """Strict interiority with a small margin — a point microscopically
        inside a constraint is useless to the barrier (its log term explodes),
        so such starts are routed through phase 1 instead."""
        lo, hi = self.p.lb, self.p.ub
        fl, fu = self.finite_lb, self.finite_ub
        if np.any(x[fl] <= lo[fl] + margin * (1.0 + np.abs(lo[fl]))):
            return False
        if np.any(x[fu] >= hi[fu] - margin * (1.0 + np.abs(hi[fu]))):
            return False
        if len(self.p.inequalities) and np.any(self.p.g_values(x) >= -margin):
            return False
        return True

    def box_interior_point(self) -> np.ndarray:
        """A point strictly inside the box, then projected onto A_eq x = b."""
        lo, hi = self.p.lb, self.p.ub
        x = np.zeros(self.p.n)
        both = self.finite_lb & self.finite_ub
        x[both] = 0.5 * (lo[both] + hi[both])
        only_lo = self.finite_lb & ~self.finite_ub
        x[only_lo] = lo[only_lo] + 1.0
        only_hi = ~self.finite_lb & self.finite_ub
        x[only_hi] = hi[only_hi] - 1.0
        # Project onto the equality subspace, then pull back strictly inside
        # the box if the projection grazed a face (alternate a few rounds).
        for _ in range(20):
            if len(self.p.eq_rows):
                A, b = self.p.A_eq, self.p.b_eq
                resid = A @ x - b
                if np.abs(resid).max(initial=0.0) > 1e-12:
                    correction, *_ = np.linalg.lstsq(A, resid, rcond=None)
                    x = x - correction
            inside = True
            for j in range(self.p.n):
                width = min(
                    1.0,
                    (hi[j] - lo[j]) * 0.25 if both[j] else 1.0,
                )
                if self.finite_lb[j] and x[j] < lo[j] + 1e-9:
                    x[j] = lo[j] + width
                    inside = False
                if self.finite_ub[j] and x[j] > hi[j] - 1e-9:
                    x[j] = hi[j] - width
                    inside = False
            if inside:
                break
        return x

    # -- phase 1 -----------------------------------------------------------------

    def phase1(self):
        """Find a strictly feasible x, or report infeasibility.

        Minimizes s subject to g_i(x) <= s by running the main barrier
        machinery on an augmented problem; stops early once s < 0.
        """
        x_start = self.box_interior_point()
        if self.strictly_feasible(x_start):
            return x_start, None
        if not self.p.inequalities:
            # Only box/equalities: the projected interior point is as good as
            # it gets; failure means the equalities clash with the box.
            return None, NLPResult(
                NLPStatus.INFEASIBLE,
                message="equality rows incompatible with variable bounds",
                max_violation=self.p.max_violation(x_start),
            )

        s_name = "_phase1_slack"
        while s_name in self.p.index:
            s_name += "_"
        aug = NLPProblem(
            names=self.p.names + [s_name],
            objective=VarRef(s_name),
            inequalities=[
                (label, body - VarRef(s_name)) for label, body in self.p.inequalities
            ],
            lb=np.concatenate([self.p.lb, [-np.inf]]),
            ub=np.concatenate([self.p.ub, [np.inf]]),
            eq_rows=list(self.p.eq_rows),
            kernel_cache=self.p.kernel_cache,
            evaluator=self.p.evaluator,
        )
        g0 = self.p.g_values(x_start)
        s0 = float(g0.max(initial=0.0)) + 1.0
        z0 = np.concatenate([x_start, [s0]])

        # Stop only once the point is *comfortably* interior: a slack that
        # has merely crossed zero leaves the main barrier starting on a
        # constraint boundary, where Newton crawls.
        stop_below = -(0.05 * abs(s0) + 1e-6)
        sub = _Barrier(aug, self.opt, self.stop)
        result = sub.minimize(z0, stop_when_negative=s_name, stop_below=stop_below)
        self.newton_iters += sub.newton_iters
        if result.x is None:
            return None, NLPResult(
                NLPStatus.NUMERICAL_ERROR,
                message=f"phase 1 failed: {result.message}",
                newton_iterations=self.newton_iters,
            )
        x, s = result.x[:-1], float(result.x[-1])
        if s >= 0.0:
            return None, NLPResult(
                NLPStatus.INFEASIBLE,
                message=f"phase 1 optimum {s:.3e} >= 0",
                newton_iterations=self.newton_iters,
                max_violation=self.p.max_violation(x),
            )
        return x, None

    # -- main barrier loop ---------------------------------------------------------

    def minimize(
        self,
        x: np.ndarray,
        stop_when_negative: str | None = None,
        stop_below: float = -1e-6,
    ) -> NLPResult:
        opt = self.opt
        t = opt.t0
        stop_idx = (
            self.p.index[stop_when_negative] if stop_when_negative is not None else None
        )
        status = NLPStatus.OPTIMAL
        message = ""
        failed_stages = 0
        # Last cleanly-centered stage: its objective minus its duality-gap
        # proxy is a *certified* lower bound even if later stages stall.
        clean_f, clean_gap, clean_x = None, math.inf, None
        while True:
            x, ok, msg = self._center(x, t, stop_idx, stop_below)
            if stop_idx is not None and x[stop_idx] < stop_below:
                break  # phase-1 early exit: comfortably interior point found
            if not ok:
                # Conditioning at large t can stall centering even though the
                # iterate is already excellent.  If a clean stage certified a
                # small gap, finish there; otherwise escape by raising t a
                # couple of times before giving up.
                failed_stages += 1
                tight_enough = (
                    clean_f is not None
                    and clean_gap <= max(opt.tol * 100.0, 1e-5) * (1.0 + abs(clean_f))
                )
                if tight_enough:
                    # The certificate belongs to the cleanly-centered
                    # iterate; a stalled stage (singular KKT, lstsq step)
                    # may have drifted off the equality manifold.
                    if self.p.max_violation(x) > self.p.max_violation(clean_x) + 1e-9:
                        x = clean_x
                    message = f"finished on stall with certified gap {clean_gap:.2e}"
                    break
                if failed_stages >= 3 or self.newton_iters >= opt.max_newton:
                    status, message = NLPStatus.ITERATION_LIMIT, msg
                    break
            else:
                failed_stages = 0
                clean_f = self.p.f(x)
                clean_gap = self.m_barrier / t if t > 0 else 0.0
                clean_x = x.copy()
                if self.m_barrier == 0 or self.m_barrier / t < opt.tol:
                    break
            t *= opt.mu
            if self.newton_iters >= opt.max_newton:
                status, message = NLPStatus.ITERATION_LIMIT, "Newton budget exhausted"
                break

        f_final = self.p.f(x)
        if clean_f is not None and status is NLPStatus.OPTIMAL:
            # Honest gap: f* >= clean_f - clean_gap, so the distance from the
            # reported objective to that certificate bounds suboptimality.
            mu_report = max(self.m_barrier / t if t > 0 else 0.0,
                            f_final - clean_f + clean_gap)
        else:
            mu_report = self.m_barrier / t if t > 0 else float("nan")
        return NLPResult(
            status=status,
            x=x,
            objective=f_final,
            newton_iterations=self.newton_iters,
            mu_final=mu_report,
            max_violation=self.p.max_violation(x),
            message=message,
        )

    # -- Newton centering ------------------------------------------------------------

    def _barrier_value(self, x: np.ndarray, t: float):
        """``(merit, g)``: the barrier objective at weight ``t`` and the
        inequality values it read; ``(inf, None)`` outside the domain."""
        # Box interiority first: expressions may be undefined (complex
        # fractional powers, division by zero) outside the box.
        dlo = x[self.finite_lb] - self.p.lb[self.finite_lb]
        dhi = self.p.ub[self.finite_ub] - x[self.finite_ub]
        if np.any(dlo <= 0.0) or np.any(dhi <= 0.0):
            return np.inf, None
        try:
            g = self.p.g_values(x) if self.p.inequalities else np.zeros(0)
        except (TypeError, ArithmeticError):
            return np.inf, None
        if g.size and (not np.all(np.isreal(g)) or not np.all(np.isfinite(g))):
            return np.inf, None
        if g.size and g.max(initial=-np.inf) >= 0.0:
            return np.inf, None
        val = t * self.p.f(x)
        if g.size:
            val -= float(np.log(-g).sum())
        val -= float(np.log(dlo).sum()) + float(np.log(dhi).sum())
        return val, g

    def _gradient(self, x: np.ndarray, t: float, g):
        """Barrier gradient at ``x`` plus each inequality's ``(value,
        gradient vector)`` for :meth:`_hessian`.  ``g`` holds the inequality
        values :meth:`_barrier_value` read at ``x`` (None: evaluate them)."""
        n = self.p.n
        if g is None:
            g = self.p.g_values(x)
        grad = t * self.p.grad_f(x)
        terms = []
        for (_, smooth), gval in zip(self.p.g_items(), g):
            gg = smooth.grad_vector(x, n)
            # -log(-g): gradient = gg / (-g)
            grad += gg / (-gval)
            terms.append((gval, gg))
        dlo = x - self.p.lb
        dhi = self.p.ub - x
        fl, fu = self.finite_lb, self.finite_ub
        grad[fl] -= 1.0 / dlo[fl]
        grad[fu] += 1.0 / dhi[fu]
        return grad, terms

    def _hessian(self, x: np.ndarray, t: float, terms) -> np.ndarray:
        """Barrier Hessian at ``x`` from the inequality terms of
        :meth:`_gradient` (no gradient or value is evaluated again)."""
        n = self.p.n
        H = np.zeros((n, n))
        self.p.hess_f_into(x, H, scale=t)
        for (_, smooth), (gval, gg) in zip(self.p.g_items(), terms):
            # -log(-g): Hessian = gg ggT / g^2 + Hg / (-g)
            H += np.outer(gg, gg) / (gval * gval)
            smooth.hess_into(x, H, scale=1.0 / (-gval))
        dlo = x - self.p.lb
        dhi = self.p.ub - x
        fl, fu = self.finite_lb, self.finite_ub
        diag = np.zeros(n)
        diag[fl] += 1.0 / dlo[fl] ** 2
        diag[fu] += 1.0 / dhi[fu] ** 2
        H[np.diag_indices(n)] += diag + self.opt.regularization
        return H

    def _newton_direction(self, grad: np.ndarray, H: np.ndarray):
        """A guaranteed descent direction: Cholesky with escalating ridge.

        An ill-conditioned barrier Hessian (linear objective, few active
        constraints) can make a naive ``solve`` return a non-descent or
        wildly-scaled direction, which then *masquerades as convergence*
        through a tiny Newton decrement.  Escalating the ridge until the
        factorization succeeds and the direction demonstrably descends
        interpolates between Newton and scaled gradient descent.
        """
        n = grad.shape[0]
        # abs: a negative-trace (indefinite) Hessian must not flip the
        # ridge scale negative — that would poison the last-resort
        # preconditioner below into an ascent direction.
        scale = abs(float(np.trace(H))) / n + 1.0
        ridge = self.opt.regularization * scale
        eye = np.eye(n)
        for _ in range(24):
            try:
                Lf = np.linalg.cholesky(H + ridge * eye)
            except np.linalg.LinAlgError:
                ridge = max(ridge * 100.0, 1e-12 * scale)
                continue
            dx = np.linalg.solve(Lf.T, np.linalg.solve(Lf, -grad))
            dec = float(-grad @ dx)
            if np.all(np.isfinite(dx)) and dec > 0.0:
                return dx, dec
            ridge = max(ridge * 100.0, 1e-12 * scale)
        # Last resort: diagonally preconditioned steepest descent.
        dx = -grad / (np.abs(np.diag(H)) + scale)
        return dx, float(-grad @ dx)

    def _max_box_step(self, x: np.ndarray, dx: np.ndarray) -> float:
        """Largest step keeping ``x + a*dx`` inside the (finite) box."""
        with np.errstate(divide="ignore", invalid="ignore"):
            to_hi = np.where(
                (dx > 0) & self.finite_ub, (self.p.ub - x) / dx, np.inf
            )
            to_lo = np.where(
                (dx < 0) & self.finite_lb, (self.p.lb - x) / dx, np.inf
            )
        step = min(float(np.min(to_hi)), float(np.min(to_lo)))
        return max(step, 1e-16)

    def _center(self, x: np.ndarray, t: float, stop_idx, stop_below: float = -1e-6):
        """Newton minimization of the barrier objective at weight ``t``.

        Returns ``(x, converged, message)``; ``converged=False`` means the
        stage ran out of budget or stalled — callers must not treat the
        value as a certified stage optimum.  Raises
        :class:`SolveInterrupted` when the stop predicate fires.
        """
        opt = self.opt
        p = self.p
        m_eq = len(p.eq_rows)
        nu = np.zeros(m_eq)
        stage_iters = 0
        best_res = np.inf
        best_merit = np.inf
        since_progress = 0
        merit, g = self._barrier_value(x, t)
        grad = terms = None  # carried over from an accepted trial
        while self.newton_iters < opt.max_newton:
            if self.stop is not None:
                reason = self.stop()
                if reason:
                    raise SolveInterrupted(reason)
            if stage_iters >= opt.max_newton_per_center:
                return x, False, "per-stage Newton budget exhausted"
            if grad is None:
                grad, terms = self._gradient(x, t, g)
            H = self._hessian(x, t, terms)
            exact = False  # an exact KKT solve keeps A_eq x = b_eq
            if m_eq:
                r_dual = grad + p.A_eq.T @ nu
                r_prim = p.A_eq @ x - p.b_eq
                KKT = np.block([[H, p.A_eq.T], [p.A_eq, np.zeros((m_eq, m_eq))]])
                rhs = -np.concatenate([r_dual, r_prim])
                try:
                    sol = np.linalg.solve(KKT, rhs)
                    exact = True
                except np.linalg.LinAlgError:
                    sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
                dx, dnu = sol[: p.n], sol[p.n :]
                res_norm = float(np.linalg.norm(np.concatenate([r_dual, r_prim])))
                decrement = res_norm
            else:
                dx, decrement = self._newton_direction(grad, H)
                dnu = np.zeros(0)
                res_norm = float(np.linalg.norm(grad))

            # Convergence: a genuinely small decrement together with a
            # gradient that is small relative to the stage weight.
            if not m_eq and decrement / 2.0 <= opt.inner_tol and res_norm <= 1e-4 * (
                1.0 + abs(t)
            ):
                return x, True, ""
            if m_eq and res_norm <= 1e-8 * (1.0 + abs(t)):
                return x, True, ""
            # On the equality manifold the Newton decrement lambda^2 =
            # -grad.dx measures the merit left to gain.  Below the merit's
            # floating-point floor no line search can resolve a decrease,
            # so the stage is as centered as this precision allows.
            feasible = exact and self.on_manifold
            if feasible:
                lam2 = float(-grad @ dx)
                floor = _MERIT_FLOOR * (1.0 + abs(merit))
                if abs(lam2) / 2.0 <= max(opt.inner_tol, floor):
                    return x, True, ""
            # Stall guard: progress means either the residual or the barrier
            # merit moved meaningfully (a productive crawl keeps lowering the
            # merit long before the residual contracts).
            improved = res_norm < best_res * (1.0 - 1e-3) or (
                merit < best_merit - 1e-6 * (1.0 + abs(best_merit))
            )
            best_res = min(best_res, res_norm)
            best_merit = min(best_merit, merit)
            if improved:
                since_progress = 0
            else:
                since_progress += 1
                if since_progress >= opt.stall_window:
                    return x, False, "centering stalled"

            # Backtracking line search keeping strict interiority and
            # decreasing the merit: the barrier value, or the KKT residual
            # off the equality manifold, after a least-squares step, and
            # where the value cannot resolve the decrease.  Start at the
            # fraction-to-boundary step for the box: a deep-interior start
            # with a weak Hessian yields huge Newton directions, and
            # backtracking from alpha=1 through dozens of infinite-merit
            # trials is what makes cold starts crawl — jumping to 99.5% of
            # the exact box distance first makes those steps land in one or
            # two trials.
            alpha = min(1.0, 0.995 * self._max_box_step(x, dx))
            accepted = False
            for _ in range(60):
                x_new = x + alpha * dx
                nu_new = nu + (dnu if feasible else alpha * dnu)
                merit_new, g_new = self._barrier_value(x_new, t)
                grad_new = terms_new = None
                if np.isfinite(merit_new):
                    if feasible and opt.armijo * alpha * lam2 > floor:
                        if merit_new <= merit - opt.armijo * alpha * lam2:
                            accepted = True
                            break
                    elif m_eq:
                        grad_new, terms_new = self._gradient(x_new, t, g_new)
                        rd = grad_new + p.A_eq.T @ nu_new
                        rp = p.A_eq @ x_new - p.b_eq
                        new_res = float(np.linalg.norm(np.concatenate([rd, rp])))
                        if new_res <= (1.0 - opt.armijo * alpha) * res_norm + 1e-14:
                            accepted = True
                            break
                    else:
                        if merit_new <= merit + opt.armijo * alpha * float(grad @ dx) + 1e-14:
                            accepted = True
                            break
                alpha *= opt.backtrack
            self.newton_iters += 1
            stage_iters += 1
            if not accepted:
                return x, False, "line search stalled"
            if exact and alpha == 1.0:
                # A full infeasible-start step solves A_eq x = b_eq; every
                # later step keeps it (A_eq dx = 0 up to rounding).
                self.on_manifold = True
            x, nu, merit, g = x_new, nu_new, merit_new, g_new
            grad, terms = grad_new, terms_new
            if stop_idx is not None and x[stop_idx] < stop_below:
                return x, True, ""
        return x, False, "Newton iteration limit"
