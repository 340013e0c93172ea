"""Portfolio optimizers built on the x-coordinate reduction.

The mean-risk-skewness problem with constraints x^T m = r, x^T e_A = 1
collapses to min ||x||^2 whenever the mixing law keeps skewness monotone in
the alignment angle; the solution is the two-constraint least-norm point
x = (s/2) m + (t/2) e_A. The mean-risk problem with a return floor reduces to
two dimensions (the coordinates of x along mu0 and gamma0), where it is
solved by one SLSQP run with the return floor as a linear constraint and the
analytic gradient.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mixing import skew_condition
from .nmvm import TransformedModel, portfolio_moments, skew_derivative
from .risk import (YaLaw, _check_beta, _check_measure, _solve, _SolveState,
                   portfolio_risk_exact, risk_ya_and_slope)

__all__ = [
    "DegenerateConstraintsError",
    "SingularGramError",
    "QuadraticSolution",
    "FrontierPoint",
    "ReducedSolution",
    "HypothesisCheck",
    "solve_mean_risk_skew",
    "frontier",
    "solve_mean_risk_reduced",
    "check_skew_monotonicity",
]


class DegenerateConstraintsError(ValueError):
    """The constraint vectors m and e_A are (numerically) parallel."""


class SingularGramError(ValueError):
    """The Gram matrix of (mu0, gamma0, e_A) is numerically singular."""


@dataclass(frozen=True)
class QuadraticSolution:
    """Least-norm solution of the two-constraint quadratic program.

    s and t are the multipliers in the stationarity identity
    2 x = s m + t e_A; x_star itself equals (s/2) m + (t/2) e_A.
    """

    x_star: np.ndarray
    omega_star: np.ndarray
    s: float
    t: float
    achieved_return: float
    skewness: float


@dataclass(frozen=True)
class FrontierPoint:
    target_return: float
    cvar: float
    skewness: float
    weights: np.ndarray
    error: str | None = None


@dataclass(frozen=True)
class ReducedSolution:
    """The reduced optimum. diagnostics holds risk_solves (scalar-risk
    solves), quadrature_evaluations (their quadrature passes, Newton's and
    the slopes', summed), slsqp_iterations and anchor_kept (whether the
    anchor stood in for SLSQP's result, or nothing was left to optimize)."""

    mu_tilde_star: float
    gamma_tilde_star: float
    x_star: np.ndarray
    g_value: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HypothesisCheck:
    condition_value: float
    monotone_on_grid: bool


def solve_mean_risk_skew(tm: TransformedModel, r: float) -> QuadraticSolution:
    """Closed-form solution of min x^T x s.t. x^T m = r, x^T e_A = 1.

    Requires a transform in "skew" mode (m = gamma0 * EZ). Warns, without
    failing, when the mixing law does not certify the skewness-monotonicity
    condition, since the least-norm portfolio is then still well defined but
    no longer provably skewness-optimal.
    """
    if tm.mode != "skew":
        raise ValueError("solve_mean_risk_skew requires a transform with mode='skew'")
    cond = skew_condition(tm.mixing)
    if cond < 0.0:
        warnings.warn(
            f"mixing law violates the skewness condition ({cond:.3e} < 0); "
            "solution minimizes risk but may not maximize skewness",
            stacklevel=2)
    m, e_a = tm.m, tm.e_a
    mm = float(m @ m)
    ee = float(e_a @ e_a)
    me = float(m @ e_a)
    det = mm * ee - me * me
    scale = mm * ee
    if abs(det) < 1e-14 * max(scale, 1e-300):
        raise DegenerateConstraintsError(
            f"constraint vectors are parallel: det={det:.3e}, scale={scale:.3e}")
    s = 2.0 * (r * ee - me) / det
    t = 2.0 * (mm - r * me) / det
    x = 0.5 * s * m + 0.5 * t * e_a
    omega = tm.weights_from_x(x)
    return QuadraticSolution(
        x_star=x, omega_star=omega, s=s, t=t,
        achieved_return=float(x @ m),
        skewness=portfolio_moments(tm, x).skew)


def frontier(tm: TransformedModel, r_grid,
             beta: float) -> list[FrontierPoint]:
    """Sweep the least-norm solutions over a return grid, attaching the exact
    CVaR and the skewness of each point. Failed grid points are emitted with
    their error message instead of aborting the sweep."""
    points = []
    n = tm.n
    for r in np.asarray(r_grid, dtype=float):
        try:
            sol = solve_mean_risk_skew(tm, float(r))
            cvar = portfolio_risk_exact(tm, sol.x_star, "cvar", beta).value
            points.append(FrontierPoint(
                target_return=float(r), cvar=cvar, skewness=sol.skewness,
                weights=sol.omega_star))
        except (ValueError, ArithmeticError) as exc:
            points.append(FrontierPoint(
                target_return=float(r), cvar=math.nan, skewness=math.nan,
                weights=np.full(n, math.nan), error=str(exc)))
    return points


_SLSQP_OPTIONS = {"ftol": 1e-13, "maxiter": 200}


def solve_mean_risk_reduced(tm: TransformedModel, measure: str, beta: float,
                            k: float,
                            grid_size: int | None = None) -> ReducedSolution:
    """Minimize portfolio risk subject to x^T e_A = 1 and expected return >= k.

    Works in the two reduced coordinates (x^T mu0, x^T gamma0); identically
    zero direction vectors drop out of the basis (the elliptical and
    no-location special cases), while genuinely collinear ones raise
    SingularGramError. The reduced problem is convex for CVaR, so one SLSQP
    solve with the return floor as a linear constraint replaces any search.
    SLSQP gets the analytic gradient: the objective -x^T mu0 +
    sqrt(v^T G^-1 v) risk(Y_a) and its slope in a come from one scalar-risk
    solve per point (risk_ya_and_slope), and the chain rule through
    a = x^T gamma0 / ||x|| gives the rest. Each coordinate is scaled by its
    direction's reach, so that the variables SLSQP moves are of order one.
    The solves of one call share a private state (see risk._solve): each
    Newton pass seeds its quadrature with the previous pass's panels, and
    each solve starts at the previous solve's root, since every iterate has
    the same mixing law, measure and level. Nothing outlives the call.
    The solve starts from the least-norm portfolio at the return floor, and
    that anchor is also the fallback: a result that is infeasible or worse
    than the anchor (possible for VaR, which is not convex, or where a VaR
    slope is not finite) is replaced by it. Without gamma0 the risk is
    ||x|| risk(Y_0), priced once; the problem is then unbounded, and raises
    ArithmeticError, when risk(Y_0) is below the norm of mu0 less its e_A
    component.

    grid_size has no effect: the convex solve needs no search grid. It is
    still accepted so that callers written for the former grid search keep
    working.
    """
    if tm.mode != "mean_risk":
        raise ValueError(
            "solve_mean_risk_reduced requires a transform with mode='mean_risk'")
    _check_measure(measure)
    _check_beta(beta)
    ez = tm.mixing.moments().ez
    e_norm = float(np.linalg.norm(tm.e_a))
    zero_tol = 1e-13 * max(e_norm, 1.0)
    b = tm.gamma0_norm
    mu_norm = float(np.linalg.norm(tm.mu0))
    has_mu = mu_norm > zero_tol
    has_gamma = b > zero_tol
    # the kept coordinates u of x along mu0 and gamma0: the expected return
    # is ret_row @ u, and each is scaled by its direction's reach
    reach = 4.0 * (1.0 / e_norm
                   + (abs(k) + 1e-9) / max(float(np.linalg.norm(tm.m)), 1e-12))
    cols, ret_row, scale = [], [], []
    if has_mu:
        cols.append(tm.mu0)
        ret_row.append(1.0)
        scale.append(mu_norm * reach)
    if has_gamma:
        cols.append(tm.gamma0)
        ret_row.append(ez)
        scale.append(b * reach)
    cols.append(tm.e_a)
    ret_row, scale = np.array(ret_row), np.array(scale)
    basis = np.column_stack(cols)
    gram = basis.T @ basis
    if np.linalg.cond(gram) > 1e14:
        raise SingularGramError(
            f"direction vectors are collinear: cond(G)={np.linalg.cond(gram):.3e}")
    g_inv = np.linalg.inv(gram)

    # unit vectors of the mu0 and gamma0 coordinates among the kept ones
    e_mu = np.zeros(len(scale))
    e_gamma = np.zeros(len(scale))
    if has_mu:
        e_mu[0] = 1.0
    # shared by this call's solves; counts their passes
    state = _SolveState()
    solves = 0
    if has_gamma:
        e_gamma[-1] = 1.0
    else:
        # a = 0 everywhere: f = -x^T mu0 + ||x|| R0 falls without bound
        # along P mu0, mu0 less its e_A component, when R0 < ||P mu0||
        r0, state.passes, _ = _solve(YaLaw(0.0, tm.mixing), measure, beta)
        solves = 1
        p_mu = float(np.linalg.norm(
            tm.mu0 - float(tm.mu0 @ tm.e_a) / e_norm ** 2 * tm.e_a))
        if r0 < p_mu:
            raise ArithmeticError(
                f"the reduced problem is unbounded: risk(Y_0) = {r0:.6g} is "
                f"below ||P mu0|| = {p_mu:.6g}")

    def objective(u: np.ndarray) -> tuple[float, np.ndarray]:
        # f = -mu_t + sg R(a), sg = sqrt(v^T G^-1 v), a = gam_t / sg: the
        # gradient is -e_mu + dsg R + sg R'(a) da, da = (e_gamma - a dsg)/sg
        nonlocal solves
        v = np.append(u, 1.0)
        g_v = g_inv @ v
        sg = math.sqrt(float(v @ g_v))
        dsg = g_v[:-1] / sg
        if not has_gamma:
            return -float(e_mu @ u) + sg * r0, -e_mu + dsg * r0
        a = min(max(float(e_gamma @ u) / sg, -b), b)
        solves += 1
        # positional, so that wrappers of the form (law, *args) see it
        r, slope = risk_ya_and_slope(YaLaw(a, tm.mixing), measure, beta,
                                     state)
        grad = -e_mu + dsg * r + slope * (e_gamma - a * dsg)
        return -float(e_mu @ u) + sg * r, grad

    # anchor: least-norm x with x^T m = k, x^T e_A = 1; when m is parallel to
    # e_A, every x with x^T e_A = 1 earns the same return, and the least-norm
    # one stands in
    mm = float(tm.m @ tm.m)
    me = float(tm.m @ tm.e_a)
    ee = e_norm ** 2
    if abs(mm * ee - me * me) > 1e-14 * max(mm * ee, 1e-300):
        c = np.linalg.solve(np.array([[mm, me], [me, ee]]), np.array([k, 1.0]))
        x_anchor = c[0] * tm.m + c[1] * tm.e_a
    else:
        x_anchor = tm.e_a / ee
    # the anchor as SLSQP sees it, so that the fallback is the point priced
    z0 = basis[:, :-1].T @ x_anchor / scale
    u_best = z0 * scale
    slack = 1e-12 * max(1.0, abs(k))
    if float(ret_row @ u_best) < k - slack:
        raise ArithmeticError("no feasible portfolio meets the return floor; "
                              "check k")
    iterations, anchor_kept = 0, True
    if u_best.size:
        # imported here: scipy.optimize adds ~0.3 s to every package import
        from scipy.optimize import minimize
        # a memo for this solve: SLSQP's first evaluation is the anchor, and
        # its fun and jac at one point share a solve
        @functools.cache
        def scaled(z: tuple) -> tuple[float, np.ndarray]:
            value, grad = objective(np.array(z) * scale)
            return value, grad * scale

        best = scaled(tuple(z0))[0]
        res = minimize(
            lambda z: scaled(tuple(z))[0], z0, method="SLSQP",
            jac=lambda z: scaled(tuple(z))[1],
            constraints=[{"type": "ineq",
                          "fun": lambda z: float(ret_row @ (z * scale)) - k,
                          "jac": lambda z: ret_row * scale}],
            options=_SLSQP_OPTIONS)
        u_res = res.x * scale
        iterations = int(res.nit)
        if float(ret_row @ u_res) >= k - slack and res.fun <= best:
            u_best, anchor_kept = u_res, False
    v = np.append(u_best, 1.0)
    return ReducedSolution(
        mu_tilde_star=float(u_best[0]) if has_mu else 0.0,
        gamma_tilde_star=float(u_best[-1]) if has_gamma else 0.0,
        x_star=basis @ (g_inv @ v),
        g_value=float(v @ g_inv @ v),
        diagnostics={"risk_solves": solves,
                     "quadrature_evaluations": state.passes,
                     "slsqp_iterations": iterations,
                     "anchor_kept": anchor_kept})


_SKEW_GRID_POINTS = 201


def check_skew_monotonicity(tm: TransformedModel) -> HypothesisCheck:
    """Evaluate the skewness condition and scan the skewness derivative.

    Returns the value of m3(Z) EZ - 2 Var(Z)^2 together with a check on
    201 evenly spaced points that the derivative of skewness in phi is
    nonnegative on [-1, 1].
    """
    cond = skew_condition(tm.mixing)
    grid = np.linspace(-1.0, 1.0, _SKEW_GRID_POINTS)
    monotone = all(skew_derivative(tm, float(phi)) >= -1e-12 for phi in grid)
    return HypothesisCheck(condition_value=cond, monotone_on_grid=monotone)
