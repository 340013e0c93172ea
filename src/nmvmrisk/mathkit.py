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


def log_bessel_k(order, x):
    """log K_order(x), stable for large x via the exponentially scaled kernel.

    Accepts scalars or arrays and broadcasts. Where kve overflows and
    x^2 < 4 eps (|nu| - 1), so that the next term of the small-argument
    series is below double rounding, the leading term
    lgamma(|nu|) - log 2 + |nu| log(2/x) (Abramowitz & Stegun 9.6.9) is
    used; any other overflow gives +inf.
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
    return np.where(leading, small, np.log(k) - x)


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


def _eval_panel(f: Callable, lo: float, hi: float):
    """Gauss-Kronrod estimates of int_lo^hi f(s(t)) s'(t) dt, s = t/(1-t),
    their gap, and the largest gap, which orders the panels for splitting.

    A scalar integrand gives floats; one of shape (k, 15) gives length-k
    arrays.
    """
    half = 0.5 * (hi - lo)
    t = lo + half * (_GK_NODES + 1.0)
    one_minus = 1.0 - t
    fs = np.asarray(f(t / one_minus), dtype=float)
    if fs.shape[-1:] != t.shape or fs.ndim > 2:
        raise ValueError(f"integrand must map an array of shape {t.shape} "
                         f"elementwise, returned shape {fs.shape}")
    y = fs / (one_minus * one_minus)
    if not np.isfinite(y).all():
        raise QuadratureError(f"integrand is not finite on the panel t in "
                              f"[{lo}, {hi}], s = t/(1-t)", np.nan, np.inf)
    if fs.ndim == 1:
        val_k = half * float(_GK_WEIGHTS_K @ y)
        val_g = half * float(_GK_WEIGHTS_G @ y)
        err = abs(val_k - val_g)
        return val_k, err, err
    val_k = half * (y @ _GK_WEIGHTS_K)
    err = np.abs(val_k - half * (y @ _GK_WEIGHTS_G))
    return val_k, err, float(err.max())


def _converged(total, bound, spec: QuadratureSpec) -> bool:
    if np.ndim(total):
        return bool(np.all(
            bound <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))))
    return bound <= max(spec.abs_tol, spec.rel_tol * abs(total))


def integrate_semi_infinite(f: Callable, spec: QuadratureSpec | None = None):
    """Integrate f over (0, inf) to the tolerances in spec.

    Uses the substitution s = t/(1-t) mapping (0, inf) onto (0, 1), then
    adaptive Gauss-Kronrod panels on the unit interval, splitting the panel
    with the largest error estimate until the summed estimate meets the
    tolerance. f must map a numpy array of nodes s > 0 elementwise to an
    array of the same shape; it is called once per panel, with 15 nodes.

    f may instead return shape (k, 15): k integrands on the same nodes. The
    result is then a length-k array, every component meets the tolerance,
    and the panel with the largest component error is split first. A
    scalar integrand gives a float, computed exactly as before vector
    integrands were allowed.

    Raises QuadratureError (carrying the best estimate and bound) if the
    subdivision budget is exhausted first, and at the first panel where the
    integrand is not finite; raises ValueError when f's output does not have
    the shape of its input.
    """
    spec = spec or DEFAULT_QUADRATURE
    # Seed with several panels so the initial error estimate sees the
    # integrand's structure rather than a single smoothed average.
    n_seed = min(8, spec.max_subdivisions)
    edges = np.linspace(0.0, 1.0, n_seed + 1)
    panels = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err, key = _eval_panel(f, lo, hi)
        panels.append((key, lo, hi, val, err))

    while True:
        total = sum(p[3] for p in panels)
        bound = sum(p[4] for p in panels)
        if _converged(total, bound, spec):
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
            val, err, key = _eval_panel(f, a_, b_)
            panels.append((key, a_, b_, val, err))
    return total


# evaluations allowed per root: 60 bracket expansions, then the ~100
# bisections that take the widest bracket they reach (2^60 steps of order 1)
# down to 1e-12
_MAX_ROOT_STEPS = 200
# relative part of the root tolerance, as in brentq: a few units in the last
# place, below which neither a step nor a bisection can move x
_ROOT_RTOL = 4.0 * np.finfo(float).eps


def find_root(f: Callable[[float], tuple[float, float]], x0: float,
              step: float, tol: float = 1e-12) -> float:
    """Root of a monotone f by safeguarded Newton iteration (rtsafe, Press
    et al., Numerical Recipes, 3rd ed., section 9.4), started from x0.

    f(x) returns the pair (f(x), f'(x)). Every evaluation narrows the
    bracket [lo, hi] of the sign change. A Newton step that leaves the
    bracket, or is not at most half the previous step, becomes a bisection.
    While one side of the bracket is still unknown, such a step instead
    goes `step` toward that side, and each further one twice as far (at
    most 60 of them); the far end of that step also bounds a Newton step.
    The side comes from the sign of f and of the first nonzero finite
    slope; until a slope shows it, the steps probe both sides of x0 in
    turn. Returns once a Newton step, a bisection step or the bracket is at
    most tol + 4 eps |x|, without evaluating f at the final step's end.

    Raises ValueError for a non-positive tol or step or a non-finite x0,
    BracketError when no sign change is found, and ArithmeticError when f
    is not finite or the evaluation budget runs out.
    """
    if not tol > 0.0:
        raise ValueError(f"root tol must be positive, got {tol}")
    if not 0.0 < step < math.inf:
        raise ValueError(f"root step must be positive and finite, got {step}")
    if not math.isfinite(x0):
        raise ValueError(f"root start point must be finite, got {x0}")
    x = float(x0)
    neg = pos = None  # the latest abscissae where f < 0 and where f > 0
    slope_sign = 0.0
    grow, expansions = float(step), 0
    dx_prev = math.inf
    for _ in range(_MAX_ROOT_STEPS):
        fx, dfx = f(x)
        if not math.isfinite(fx):
            raise ArithmeticError(f"root target is not finite at {x}: {fx}")
        if fx == 0.0:
            return x
        if fx < 0.0:
            neg = x
        else:
            pos = x
        usable = dfx != 0.0 and math.isfinite(dfx)
        if usable and not slope_sign:
            slope_sign = math.copysign(1.0, dfx)
        dx = -fx / dfx if usable else math.nan
        x_tol = tol + _ROOT_RTOL * abs(x)
        if neg is not None and pos is not None:
            lo, hi = min(neg, pos), max(neg, pos)
            if hi - lo <= x_tol:
                return 0.5 * (lo + hi)
            if not (lo <= x + dx <= hi and abs(dx) <= 0.5 * abs(dx_prev)):
                dx = 0.5 * (lo + hi) - x
        else:
            toward = -slope_sign if fx > 0.0 else slope_sign
            if not (0.0 < toward * dx <= grow
                    and abs(dx) <= 0.5 * abs(dx_prev)):
                if expansions == 60:
                    raise BracketError(
                        f"no sign change found in 60 bracket expansions "
                        f"from {x0}: f({x}) = {fx:.6e}")
                if toward:
                    dx = toward * grow
                    grow *= 2.0
                else:
                    # no slope has shown which way f runs yet: probe
                    # x0 + grow, x0 - grow, then twice as far
                    side = -1.0 if expansions % 2 else 1.0
                    dx = x0 + side * grow - x
                    if side < 0.0:
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
