"""Special functions and numerical primitives used by the rest of the package.

Provides the logarithm of the modified Bessel function of the second kind,
the standard normal CDF and quantile, adaptive quadrature on (0, inf) of
elementwise array integrands (one or several on shared nodes), and
safeguarded Newton root finding. All functions are pure and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sspec

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "BracketError",
    "log_bessel_k",
    "normal_cdf",
    "normal_quantile",
    "integrate_semi_infinite",
    "find_root",
]


class QuadratureError(ArithmeticError):
    """Adaptive quadrature exhausted its subdivision budget, or met a
    non-finite integrand value.

    Carries the best available estimate and its error bound so callers can
    inspect how far off the result may be.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class BracketError(ValueError):
    """No sign change of the target was found."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for semi-infinite quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


# Debye's polynomials u_1..u_4 (Abramowitz & Stegun 9.3.9): u_k(t) is t^k
# times a polynomial in t^2, whose coefficients (lowest power first) are
# listed over its denominator
_DEBYE_U = (
    (np.array([3.0, -5.0]), 24.0),
    (np.array([81.0, -462.0, 385.0]), 1152.0),
    (np.array([30375.0, -369603.0, 765765.0, -425425.0]), 414720.0),
    (np.array([4465125.0, -94121676.0, 349922430.0, -446185740.0,
               185910725.0]), 39813120.0),
)


def _log_bessel_k_debye(nu, x):
    """log K_nu(x) by the uniform expansion for large orders (A&S 9.7.8),
    K_nu(nu z) ~ sqrt(pi / (2 nu)) e^(-nu eta) (1 + z^2)^(-1/4)
    sum_k (-1)^k u_k(t) / nu^k, t = 1/sqrt(1 + z^2),
    eta = sqrt(1 + z^2) + log(z / (1 + sqrt(1 + z^2))), to u_4; the first
    omitted term is below double rounding for the orders it serves (a few
    tens and up, see log_bessel_k)."""
    z = x / nu
    w = np.hypot(1.0, z)
    t = 1.0 / w
    series = np.ones_like(z)
    for k, (coeffs, denom) in enumerate(_DEBYE_U, start=1):
        u = t ** k * np.polynomial.polynomial.polyval(t * t, coeffs) / denom
        series += (-1.0) ** k * u / nu ** k
    eta = w + np.log(z) - np.log1p(w)
    return (0.5 * np.log(0.5 * np.pi / nu) - nu * eta + 0.5 * np.log(t)
            + np.log(series))


def log_bessel_k(order, x):
    """log K_order(x), stable for large x via the exponentially scaled kernel.

    Accepts scalars or arrays and broadcasts. Where kve overflows and
    x^2 < 4 eps (|nu| - 1), so that the next term of the small-argument
    series is below double rounding, the leading term
    lgamma(|nu|) - log 2 + |nu| log(2/x) (Abramowitz & Stegun 9.6.9) is
    used; any other overflow takes Debye's uniform expansion in the order
    (A&S 9.7.8). kve overflows outside the small-argument range only at
    orders of a few tens and up, where that expansion is exact to double
    rounding.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("log_bessel_k requires x > 0")
    # scipy's kve is nan at subnormal orders; K is even in the order, so
    # K_0 is exact there
    order = np.where(np.abs(order) < np.finfo(float).tiny, 0.0, order)
    k = _sspec.kve(order, x)
    nu, log_2 = np.abs(order), np.log(2.0)
    leading = np.isinf(k) & (
        x < 2.0 * np.sqrt(np.finfo(float).eps * np.maximum(nu - 1.0, 0.0)))
    small = _sspec.gammaln(nu) - log_2 + nu * (log_2 - np.log(x))
    out = np.where(leading, small, np.log(k) - x)
    debye = np.isinf(k) & ~leading
    if debye.any():
        out[debye] = _log_bessel_k_debye(
            np.broadcast_to(nu, out.shape)[debye],
            np.broadcast_to(x, out.shape)[debye])
    return out


def normal_cdf(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return float(_sspec.ndtr(x))


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires 0 < p < 1, got {p}")
    return float(_sspec.ndtri(p))


# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
_GK_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_GK_WEIGHTS_K = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_GK_WEIGHTS_G = np.array([
    0.0, 0.1294849661688697, 0.0, 0.2797053914892767, 0.0,
    0.3818300505051189, 0.0, 0.4179591836734694, 0.0,
    0.3818300505051189, 0.0, 0.2797053914892767, 0.0,
    0.1294849661688697, 0.0,
])


def _integrand_rows(f: Callable, t: np.ndarray, lo: float,
                    hi: float) -> np.ndarray:
    """f(s(t)) s'(t), s = t/(1-t), at the nodes t of the panels spanning
    [lo, hi], checked to map the nodes elementwise (shape (k, n) for k
    integrands) and to be finite."""
    one_minus = 1.0 - t
    fs = np.asarray(f(t / one_minus), dtype=float)
    if fs.shape[-1:] != t.shape or fs.ndim > 2:
        raise ValueError(f"integrand must map an array of shape {t.shape} "
                         f"elementwise, returned shape {fs.shape}")
    y = fs / (one_minus * one_minus)
    if not np.isfinite(y).all():
        raise QuadratureError(f"integrand is not finite on the panel t in "
                              f"[{lo}, {hi}], s = t/(1-t)", np.nan, np.inf)
    return y


def _estimates(y: np.ndarray, half, riders: int):
    """Kronrod estimates and Kronrod-Gauss gaps of the rows y (nodes on the
    last axis) of panels of half-width half; the last `riders` rows get no
    gap."""
    # the riders get products of their own: a matrix-vector product may
    # round a row differently when the matrix has more rows
    steer = y[:-riders] if riders else y
    val_k = half * (steer @ _GK_WEIGHTS_K)
    err = np.abs(val_k - half * (steer @ _GK_WEIGHTS_G))
    if riders:
        val_k = np.concatenate([val_k, half * (y[-riders:] @ _GK_WEIGHTS_K)])
    return val_k, err


def _eval_panel(f: Callable, lo: float, hi: float, riders: int):
    """Gauss-Kronrod estimates of int_lo^hi f(s(t)) s'(t) dt, s = t/(1-t),
    the gap of each but the last `riders` of them, and the largest gap,
    which orders the panels for splitting.

    A scalar integrand gives np.float64 scalars; one of shape (k, 15) gives
    length-k arrays.
    """
    half = 0.5 * (hi - lo)
    y = _integrand_rows(f, lo + half * (_GK_NODES + 1.0), lo, hi)
    val_k, err = _estimates(y, half, riders)
    return val_k, err, float(err.max())


def _eval_panels(f: Callable, edges: np.ndarray, riders: int) -> list:
    """The m panels between consecutive edges as (key, lo, hi, value, gap),
    with _eval_panel's estimates, from one call of f on all 15 m nodes."""
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    y = _integrand_rows(f, (lo[:, None] + half[:, None] * (_GK_NODES + 1.0))
                        .ravel(), edges[0], edges[-1])
    val_k, err = _estimates(
        y.reshape(y.shape[:-1] + (lo.size, _GK_NODES.size)), half, riders)
    return [(float(err[..., j].max()), lo[j], hi[j], val_k[..., j],
             err[..., j]) for j in range(lo.size)]


def _converged(total, bound, spec: QuadratureSpec) -> bool:
    return bool(np.all(
        bound <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))))


def integrate_semi_infinite(f: Callable, spec: QuadratureSpec | None = None,
                            riders: int = 0, partition: list | None = None):
    """Integrate f over (0, inf) to the tolerances in spec.

    Uses the substitution s = t/(1-t) mapping (0, inf) onto (0, 1), then
    adaptive Gauss-Kronrod panels on the unit interval, splitting the panel
    with the largest error estimate until the summed estimate meets the
    tolerance. f must map a numpy array of nodes s > 0 elementwise to an
    array of the same shape; it is called once per panel, with 15 nodes.

    f may instead return shape (k, 15): k integrands on the same nodes. The
    result is then a length-k array, every component meets the tolerance,
    and the panel with the largest component error is split first. A
    scalar integrand takes the same path (the dot product of two 1-D arrays
    is the same sum) and gives an np.float64, a float subclass. The last
    `riders` of the k components ride on the panels the others choose: they
    neither order the splits nor enter the tolerance test, so adding them
    leaves the other components bit for bit as they were.

    `partition`, a list of edges 0 = t_0 < ... < t_m = 1, carries panels
    from one call to the next. A non-empty one replaces the 8 uniform seed
    panels by its m panels, all evaluated in one call of f on 15 m nodes
    (shape (k, 15 m)); the splits that follow are the ones described above,
    so the result meets the same tolerance. An empty one seeds as without a
    partition. On return the partition holds the edges of the final panels.
    Without a partition every step is as described above, bit for bit.

    Raises QuadratureError (carrying the best estimate and bound) if the
    subdivision budget is exhausted first, and at the first panel where the
    integrand is not finite; raises ValueError when f's output does not have
    the shape of its input.
    """
    spec = spec or DEFAULT_QUADRATURE
    if partition:
        panels = _eval_panels(f, np.asarray(partition, dtype=float), riders)
    else:
        # Seed with several panels so the initial error estimate sees the
        # integrand's structure rather than a single smoothed average.
        n_seed = min(8, spec.max_subdivisions)
        edges = np.linspace(0.0, 1.0, n_seed + 1)
        panels = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, err, key = _eval_panel(f, lo, hi, riders)
            panels.append((key, lo, hi, val, err))

    while True:
        total = sum(p[3] for p in panels)
        bound = sum(p[4] for p in panels)
        if _converged(total[:-riders] if riders else total, bound, spec):
            break
        if len(panels) >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {spec.max_subdivisions} "
                f"subdivisions (estimate {total}, bound {bound})",
                estimate=total, error_bound=bound)
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _, _ = panels.pop()
        mid = 0.5 * (lo + hi)
        for a_, b_ in ((lo, mid), (mid, hi)):
            val, err, key = _eval_panel(f, a_, b_, riders)
            panels.append((key, a_, b_, val, err))
    if partition is not None:
        # the panels tile [0, 1], so their ends are the edges
        partition[:] = sorted({float(t) for p in panels for t in p[1:3]})
    return total


# evaluations allowed per root: 60 bracket expansions, then the ~100
# bisections that take the widest bracket they reach (2^60 steps of order 1)
# down to 1e-12
_MAX_ROOT_STEPS = 200
_ROOT_TOL = 1e-12
# relative part of the root tolerance, as in brentq: a few units in the last
# place, below which neither a step nor a bisection can move x
_ROOT_RTOL = 4.0 * np.finfo(float).eps


def find_root(f: Callable[[float], tuple[float, float]], x0: float,
              step: float) -> float:
    """Root of a nondecreasing f by safeguarded Newton iteration (rtsafe,
    Press et al., Numerical Recipes, 3rd ed., section 9.4), started from x0.

    f(x) returns the pair (f(x), f'(x)). Every evaluation narrows the
    bracket [lo, hi], which starts as (-inf, inf): f(x) < 0 sets lo and
    f(x) > 0 sets hi. A zero, infinite or nan slope gives no Newton step. A
    Newton step that leaves the bracket, or is not at most half the
    previous step, becomes a bisection. While one side of the bracket is
    still unbounded, such a step instead goes `step` toward it, up where
    f < 0 and down where f > 0, and each further one twice as far (at most
    60 of them); the far end of that step also bounds a Newton step.
    Returns once a Newton step, a bisection step or the bracket is at most
    1e-12 + 4 eps |x|, without evaluating f at the final step's end.

    Raises ValueError for a non-positive step, a non-finite x0 or a negative
    slope, BracketError when no sign change is found, and ArithmeticError
    when f is not finite or the evaluation budget runs out.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"root step must be positive and finite, got {step}")
    if not math.isfinite(x0):
        raise ValueError(f"root start point must be finite, got {x0}")
    x = float(x0)
    lo, hi = -math.inf, math.inf
    grow, expansions = float(step), 0
    dx_prev = math.inf
    for _ in range(_MAX_ROOT_STEPS):
        fx, dfx = f(x)
        if not math.isfinite(fx):
            raise ArithmeticError(f"root target is not finite at {x}: {fx}")
        if dfx < 0.0:
            raise ValueError(
                f"root target must be nondecreasing, f'({x}) = {dfx}")
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        dx = -fx / dfx if 0.0 < dfx < math.inf else math.nan
        x_tol = _ROOT_TOL + _ROOT_RTOL * abs(x)
        if -math.inf < lo and hi < math.inf:
            if hi - lo <= x_tol:
                return 0.5 * (lo + hi)
            if not (lo <= x + dx <= hi and abs(dx) <= 0.5 * abs(dx_prev)):
                dx = 0.5 * (lo + hi) - x
        else:
            toward = 1.0 if fx < 0.0 else -1.0
            if not (0.0 < toward * dx <= grow
                    and abs(dx) <= 0.5 * abs(dx_prev)):
                if expansions == 60:
                    raise BracketError(
                        f"no sign change found in 60 bracket expansions "
                        f"from {x0}: f({x}) = {fx:.6e}")
                dx = toward * grow
                grow *= 2.0
                expansions += 1
                dx_prev = dx
                x += dx
                continue
        if abs(dx) <= x_tol:
            return x + dx
        dx_prev = dx
        x += dx
    raise ArithmeticError(
        f"root finding did not converge within {_MAX_ROOT_STEPS} evaluations")
