"""Portfolio optimizers built on the x-coordinate reduction.

The mean-risk-skewness problem with constraints x^T m = r, x^T e_A = 1
collapses to min ||x||^2 whenever the mixing law keeps skewness monotone in
the alignment angle; the solution is the two-constraint least-norm point
x = (s/2) m + (t/2) e_A. The mean-risk problem with a return floor depends
on x through x^T mu0, ||x|| and the angle a = x^T gamma0 / ||x|| alone; with
risk(Y_a) replaced by its tangent at one a it becomes a least-norm problem
with a closed form, and the optimum is the tangent point a that this closed
form returns: one scalar root.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .mathkit import find_root
from .mixing import skew_condition
from .nmvm import TransformedModel, portfolio_moments, skew_derivative
from .risk import (YaLaw, _check_beta, _check_measure, _solve, _SolveState,
                   portfolio_risk_exact, risk_ya_and_slope)

__all__ = [
    "DegenerateConstraintsError",
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
    """The reduced optimum x_star, with mu_tilde_star = x^T mu0,
    gamma_tilde_star = x^T gamma0 and g_value = x^T x. diagnostics holds
    risk_solves (scalar-risk solves, one per tangent) and
    quadrature_evaluations (their quadrature passes, Newton's and the
    slopes', summed)."""

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
    condition (skew_condition below zero by more than its rounding error),
    since the least-norm portfolio is then still well defined but no longer
    provably skewness-optimal.
    """
    if tm.mode != "skew":
        raise ValueError("solve_mean_risk_skew requires a transform with mode='skew'")
    cond = skew_condition(tm.mixing)
    mom = tm.mixing.moments()
    # below the rounding bound only: the condition is 0 for Gamma laws
    if cond < -16.0 * np.finfo(float).eps * (abs(mom.m3 * mom.ez)
                                              + 2.0 * mom.var ** 2):
        warnings.warn(
            f"mixing law violates the skewness condition ({cond:.3e} < 0); "
            "solution minimizes risk but may not maximize skewness",
            stacklevel=2)
    c_m, c_e = _pair_coefficients(tm, r, 1.0)
    x = c_m * tm.m + c_e * tm.e_a
    omega = tm.weights_from_x(x)
    return QuadraticSolution(
        x_star=x, omega_star=omega, s=2.0 * c_m, t=2.0 * c_e,
        achieved_return=float(x @ tm.m),
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


def _pair_coefficients(tm: TransformedModel, u: float,
                       v: float) -> tuple[float, float]:
    """(c_m, c_e) of the least-norm x = c_m m + c_e e_A with x^T m = u and
    x^T e_A = v. Raises DegenerateConstraintsError where m and e_A are
    (numerically) parallel."""
    m, e_a = tm.m, tm.e_a
    mm = float(m @ m)
    ee = float(e_a @ e_a)
    me = float(m @ e_a)
    det = mm * ee - me * me
    scale = mm * ee
    if abs(det) < 1e-14 * max(scale, 1e-300):
        raise DegenerateConstraintsError(
            f"constraint vectors are parallel: det={det:.3e}, scale={scale:.3e}")
    return (u * ee - v * me) / det, (v * mm - u * me) / det


# a part of q normal to the active constraints below this share of ||q|| is
# rounding: q then lies in their span
_NORMAL_RTOL = 1e-12


def _tangent_optimum(tm: TransformedModel, alpha: float, q: np.ndarray,
                     k: float) -> tuple[np.ndarray | None, bool]:
    """Minimize alpha ||x|| - q^T x subject to x^T e_A = 1 and x^T m >= k.

    On the plane of the active constraints, with least-norm point x0 and
    q_n the part of q normal to them, the minimum is
    x0 + ||x0|| q_n / sqrt(alpha^2 - ||q_n||^2) where alpha > ||q_n||;
    elsewhere the objective falls without bound along q_n, or, where q_n
    is rounding and alpha < 0, along every direction. The floor binds where
    the plane x^T e_A = 1 alone gives a minimum below it or a ray leaving
    it. Returns (x, True) at the minimum, (d, False) for the unit direction
    d it falls along, and (None, False) where it falls along every one.
    Raises ArithmeticError where m is parallel to e_A and no x meets k.
    """
    m, e_a = tm.m, tm.e_a
    q_tol = _NORMAL_RTOL * float(np.linalg.norm(q))

    def on_plane(x0, q_n, free):
        qn = float(np.linalg.norm(q_n))
        if free == 0 or (qn <= q_tol and alpha >= 0.0):
            return x0, True
        if qn <= q_tol:
            return None, False
        if alpha > qn:
            lift = float(np.linalg.norm(x0)) / math.sqrt(
                (alpha - qn) * (alpha + qn))
            return x0 + lift * q_n, True
        return q_n / qn, False

    x0 = e_a / float(e_a @ e_a)
    slack = 1e-12 * max(1.0, abs(k))
    try:
        floor = _pair_coefficients(tm, k, 1.0)
    except DegenerateConstraintsError:
        # every x with x^T e_A = 1 earns the same return
        if float(x0 @ m) < k - slack:
            raise ArithmeticError("no feasible portfolio meets the return "
                                  "floor; check k") from None
        floor = None
    x, bounded = on_plane(x0, q - float(q @ e_a) * x0, tm.n - 1)
    if floor is None or x is None or float(x @ m) >= (k - slack if bounded
                                                       else 0.0):
        return x, bounded
    q_m, q_e = _pair_coefficients(tm, float(q @ m), float(q @ e_a))
    return on_plane(floor[0] * m + floor[1] * e_a, q - q_m * m - q_e * e_a,
                    tm.n - 2)


def solve_mean_risk_reduced(tm: TransformedModel, measure: str, beta: float,
                            k: float,
                            grid_size: int | None = None) -> ReducedSolution:
    """Minimize portfolio risk subject to x^T e_A = 1 and expected return >= k.

    The risk of x is -x^T mu0 + ||x|| h(a), h(a) = risk(Y_a), at the angle
    a = x^T gamma0 / ||x|| in [-b, b], b = ||gamma0||. With h replaced by
    its tangent r + s (a' - a) at one a, the problem is _tangent_optimum's,
    with alpha = r - s a and q = mu0 - s gamma0. The optimum is the a whose
    tangent problem returns a portfolio at angle a: there the two problems
    share value and gradient, and for CVaR, whose h is convex, the tangent
    problem bounds the risk from below, so that portfolio is the global
    optimum (for VaR, a stationary point). find_root takes that root of
    g(a) = a - angle(x(a)), negative below -b and positive above b, from
    a = 0 with secant slopes, one scalar-risk solve (risk_ya_and_slope) per
    step. Where a tangent problem has no minimum, the angle of the ray it
    falls along stands in for the portfolio's. A ray at the root shows the
    reduced problem unbounded and raises ArithmeticError, as does a slope
    that is not finite (for VaR, where the density of Y_a vanishes).
    Without gamma0 every portfolio has a = 0: one solve of risk(Y_0), s = 0.

    The solves of one call share a private state (see risk._solve): each
    Newton pass seeds its quadrature with the previous pass's panels, and
    each solve starts at the previous solve's root, since every solve has
    the same mixing law, measure and level. Nothing outlives the call.

    grid_size has no effect: the root needs no search grid. It is still
    accepted so that callers written for the former grid search keep
    working.
    """
    if tm.mode != "mean_risk":
        raise ValueError(
            "solve_mean_risk_reduced requires a transform with mode='mean_risk'")
    _check_measure(measure)
    _check_beta(beta)
    if not k < math.inf:
        raise ValueError(f"return floor k must be below inf, got {k}")
    b = tm.gamma0_norm
    has_gamma = b > 1e-13 * max(float(np.linalg.norm(tm.e_a)), 1.0)
    # shared by this call's solves; counts their passes
    state = _SolveState()
    # one (a, g(a), x, bounded, alpha, s) per solve
    steps = []

    def gap(a: float) -> tuple[float, float]:
        law = YaLaw(a, tm.mixing)
        if has_gamma:
            # positional, so that wrappers of the form (law, *args) see it
            r, s = risk_ya_and_slope(law, measure, beta, state)
            if not math.isfinite(s):
                raise ArithmeticError(
                    f"risk(Y_a) has no finite slope at a = {a:.6g}")
        else:
            r, s = _solve(law, measure, beta, state=state)[0], 0.0
        alpha = r - s * a
        x, bounded = _tangent_optimum(tm, alpha, tm.mu0 - s * tm.gamma0, k)
        # where every direction falls, one at the tangent's own angle does
        g = 0.0 if x is None else (
            a - float(x @ tm.gamma0) / float(np.linalg.norm(x)))
        slope = math.nan
        if steps:
            secant = (g - steps[-1][1]) / (a - steps[-1][0])
            if secant > 0.0:
                slope = secant
        steps.append((a, g, x, bounded, alpha, s))
        return g, slope

    if has_gamma:
        find_root(gap, 0.0, 0.25 * b)
    else:
        gap(0.0)
    # the last solve lies within the root tolerance of the root
    a, _, x, bounded, alpha, s = steps[-1]
    if not bounded:
        q = tm.mu0 - s * tm.gamma0
        normal = float(np.linalg.norm(
            q - float(q @ tm.e_a) / float(tm.e_a @ tm.e_a) * tm.e_a))
        lhs, rhs = ((f"at a = {a:.6g}, risk(Y_a) - a risk'(Y_a)",
                     "||P (mu0 - risk'(Y_a) gamma0)||") if has_gamma else
                    ("risk(Y_0)", "||P mu0||"))
        raise ArithmeticError(
            f"the reduced problem is unbounded: {lhs} = {alpha:.6g} is "
            f"below {rhs} = {normal:.6g}")
    return ReducedSolution(
        mu_tilde_star=float(x @ tm.mu0),
        gamma_tilde_star=float(x @ tm.gamma0),
        x_star=x,
        g_value=float(x @ x),
        diagnostics={"risk_solves": len(steps),
                     "quadrature_evaluations": state.passes})


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
