"""Special functions and numerical primitives used by the rest of the package.

Provides the logarithm of the modified Bessel function of the second kind,
the standard normal CDF and quantile, adaptive quadrature on (0, inf) of
elementwise array integrands, and bracketed root finding. All functions are
pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize as _sopt
from scipy import special as _sspec

__all__ = [
    "QuadratureSpec",
    "RootBracket",
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
    """Root bracket does not enclose a sign change."""


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


@dataclass(frozen=True)
class RootBracket:
    """Interval [lo, hi] expected to bracket a sign change of the target."""

    lo: float
    hi: float
    tol: float = 1e-12

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"invalid bracket: lo={self.lo} must be < hi={self.hi}")
        if self.tol <= 0.0:
            raise ValueError("bracket tol must be positive")


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
    and their gap."""
    half = 0.5 * (hi - lo)
    t = lo + half * (_GK_NODES + 1.0)
    one_minus = 1.0 - t
    fs = np.asarray(f(t / one_minus), dtype=float)
    if fs.shape != t.shape:
        raise ValueError(f"integrand must map an array of shape {t.shape} "
                         f"elementwise, returned shape {fs.shape}")
    y = fs / (one_minus * one_minus)
    if not np.isfinite(y).all():
        raise QuadratureError(f"integrand is not finite on the panel t in "
                              f"[{lo}, {hi}], s = t/(1-t)", np.nan, np.inf)
    val_k = half * float(_GK_WEIGHTS_K @ y)
    val_g = half * float(_GK_WEIGHTS_G @ y)
    return val_k, abs(val_k - val_g)


def integrate_semi_infinite(f: Callable, spec: QuadratureSpec | None = None):
    """Integrate f over (0, inf) to the tolerances in spec.

    Uses the substitution s = t/(1-t) mapping (0, inf) onto (0, 1), then
    adaptive Gauss-Kronrod panels on the unit interval, splitting the panel
    with the largest error estimate until the summed estimate meets the
    tolerance. f must map a numpy array of nodes s > 0 elementwise to an
    array of the same shape; it is called once per panel, with 15 nodes.

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
        val, err = _eval_panel(f, lo, hi)
        panels.append((err, lo, hi, val))

    while True:
        total = sum(p[3] for p in panels)
        bound = sum(p[0] for p in panels)
        if bound <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            break
        if len(panels) >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {spec.max_subdivisions} "
                f"subdivisions (estimate {total:.6e}, bound {bound:.2e})",
                estimate=total, error_bound=bound)
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _ = panels.pop()
        mid = 0.5 * (lo + hi)
        for a_, b_ in ((lo, mid), (mid, hi)):
            val, err = _eval_panel(f, a_, b_)
            panels.append((err, a_, b_, val))
    return total


def find_root(f: Callable[[float], float], bracket: RootBracket) -> float:
    """Locate the root of f inside bracket with Brent's method.

    The bracket must straddle a sign change; the bisection safeguard makes
    convergence unconditional for continuous f.
    """
    f_lo, f_hi = f(bracket.lo), f(bracket.hi)
    if f_lo == 0.0:
        return bracket.lo
    if f_hi == 0.0:
        return bracket.hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise BracketError(
            f"no sign change on [{bracket.lo}, {bracket.hi}]: "
            f"f(lo)={f_lo:.6e}, f(hi)={f_hi:.6e}")
    try:
        return float(_sopt.brentq(f, bracket.lo, bracket.hi,
                                  xtol=bracket.tol, maxiter=200))
    except RuntimeError as exc:  # scipy signals non-convergence this way
        raise ArithmeticError(f"root finding failed to converge: {exc}") from exc
