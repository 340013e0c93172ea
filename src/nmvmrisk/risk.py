"""Exact and approximate VaR/CVaR for mixture portfolio returns.

Everything reduces to the canonical scalar family Y_a = a Z + sqrt(Z) N.
Writing y_beta(a) for the VaR of Y_a at level beta, the quantile equation is

    beta = E[ Phi((-y_beta(a) - a Z) / sqrt(Z)) ]

solved by bracketed root finding, and the tail expectation gives

    CVaR_beta(Y_a) = -(1/beta) E[ a Z Phi((-y - a Z)/sqrt(Z))
                                  - sqrt(Z/(2 pi)) exp(-(y + a Z)^2 / (2 Z)) ]

with y = y_beta(a). A portfolio with x = A^T omega then has

    risk(omega^T X) = -x^T mu0 + ||x|| * risk(Y_a),
    a = ||gamma0|| * cos(x, gamma0),

and the map a -> risk(Y_a) is decreasing and convex for coherent measures,
which justifies the two-point (chord) and piecewise approximations evaluated
from at most a handful of Y_a computations per mixing law and level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as _sopt
from scipy import special as _sspec

from .mathkit import (DEFAULT_QUADRATURE, QuadratureSpec, RootBracket,
                      find_root, log_bessel_k, normal_quantile)
from .mixing import Gig, MixingLaw, gig_log_norm
from .nmvm import TransformedModel, UnivariateMixture

__all__ = [
    "YaLaw",
    "RiskResult",
    "TwoPointCoefficients",
    "density_ya",
    "cdf_ya",
    "var_ya",
    "cvar_ya",
    "risk_ya",
    "h",
    "portfolio_risk_exact",
    "two_point_coefficients",
    "portfolio_risk_two_point",
    "portfolio_risk_piecewise",
    "rockafellar_F",
    "cvar_via_F",
    "mc_risk",
    "clear_caches",
]

_MEASURES = ("var", "cvar")

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class YaLaw:
    """Canonical scalar mixture a Z + sqrt(Z) N."""

    a: float
    mixing: MixingLaw


@dataclass(frozen=True)
class RiskResult:
    value: float
    method: str
    beta: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TwoPointCoefficients:
    """Chord coefficients of the two-point approximation for one mixing law,
    endpoint b = ||gamma0||, level beta and quadrature spec.

    w_plus/w_minus interpolate VaR, v_plus/v_minus interpolate CVaR:
    value(Y_a) ~ w_plus + w_minus * (a / b). Because a -> risk(Y_a) is
    decreasing, w_minus and v_minus are nonpositive.
    """

    w_plus: float
    w_minus: float
    v_plus: float
    v_minus: float
    b: float


def _check_beta(beta: float):
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def _check_measure(measure: str):
    if measure not in _MEASURES:
        raise ValueError(f"measure must be one of {_MEASURES}, got {measure!r}")


def cdf_ya(law: YaLaw, y: float, spec: QuadratureSpec | None = None) -> float:
    """P(Y_a <= y), the mixture of conditional normal CDFs."""
    a = law.a
    val = law.mixing.expect(
        lambda s: _sspec.ndtr((y - a * s) / np.sqrt(s)), spec)
    return min(max(val, 0.0), 1.0)


def density_ya(law: YaLaw, y: float, spec: QuadratureSpec | None = None,
               method: str = "auto") -> float:
    """Density of Y_a at y.

    GIG mixing with interior parameters (chi, psi > 0) uses the closed form

        f_a(y) = (psi/chi)^(lam/2) (psi + a^2)^(1/2 - lam)
                 / (sqrt(2 pi) K_lam(sqrt(chi psi)))
                 * K_{lam - 1/2}(q) e^{a y} / q^(1/2 - lam),
        q = sqrt((chi + y^2)(psi + a^2)),

    otherwise the mixture integral of conditional normal densities is
    evaluated by quadrature. method forces one route ("closed_form" or
    "quadrature") for cross-validation.
    """
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown density method: {method!r}")
    mixing = law.mixing
    closed_ok = isinstance(mixing, Gig) and mixing.chi > 0.0 and mixing.psi > 0.0
    if method == "closed_form" and not closed_ok:
        raise ValueError("closed form requires interior GIG mixing")
    if closed_ok and method != "quadrature":
        return _density_ya_gig(mixing, law.a, y)
    a = law.a
    val = mixing.expect(
        lambda s: np.exp(-0.5 * (y - a * s) ** 2 / s) / np.sqrt(s), spec)
    return val / _SQRT_2PI


def _density_ya_gig(mixing: Gig, a: float, y: float) -> float:
    lam, chi, psi = mixing.lam, mixing.chi, mixing.psi
    psi_a = psi + a * a
    q = math.sqrt((chi + y * y) * psi_a)
    # the GIG constant carries 1/2 where this density has 1/sqrt(2 pi)
    log_val = (gig_log_norm(lam, chi, psi) + 0.5 * math.log(2.0 / math.pi)
               + (0.5 - lam) * math.log(psi_a)
               + float(log_bessel_k(lam - 0.5, q))
               + a * y
               - (0.5 - lam) * math.log(q))
    return math.exp(log_val)


def var_ya(law: YaLaw, beta: float, spec: QuadratureSpec | None = None) -> float:
    """y_beta(a): the VaR of Y_a, i.e. the negated upper beta-quantile.

    Solves P(Y_a <= -y) = beta on a bracket grown geometrically from
    +-(|a| EZ + 10 sqrt(EZ)) until it straddles the quantile (at most 60
    doublings, for heavy-tailed mixing at small beta).
    """
    _check_beta(beta)
    return _var_solve(law, beta, spec)[0]


def _var_solve(law: YaLaw, beta: float,
               spec: QuadratureSpec | None) -> tuple[float, int]:
    """var_ya's root and its number of mixture quadratures, one per distinct
    abscissa: the objective keeps each value it computes for this solve."""
    mm = law.mixing.moments()
    width = abs(law.a) * mm.ez + 10.0 * math.sqrt(mm.ez)
    objective = functools.cache(lambda y: cdf_ya(law, -y, spec) - beta)

    lo, hi = -width, width
    f_lo, f_hi = objective(lo), objective(hi)
    for _ in range(60):
        # objective is decreasing in y: want f(lo) > 0 > f(hi)
        if f_lo > 0.0 >= f_hi:
            break
        if f_lo <= 0.0:
            lo *= 2.0
            f_lo = objective(lo)
        if f_hi > 0.0:
            hi *= 2.0
            f_hi = objective(hi)
    else:
        raise ArithmeticError(
            f"could not bracket the {beta}-quantile of Y_a (a={law.a})")
    return (find_root(objective, RootBracket(lo, hi, tol=1e-12)),
            objective.cache_info().currsize)


def cvar_ya(law: YaLaw, beta: float, spec: QuadratureSpec | None = None) -> float:
    """CVaR of Y_a at level beta via the conditional-tail expectation."""
    _check_beta(beta)
    return _cvar_tail(law, var_ya(law, beta, spec), beta, spec)


def _cvar_tail(law: YaLaw, y: float, beta: float,
               spec: QuadratureSpec | None) -> float:
    """CVaR of Y_a given its VaR y; one mixture quadrature."""
    a = law.a
    with np.errstate(under="ignore"):
        val = law.mixing.expect(
            lambda s: (a * s * _sspec.ndtr((-y - a * s) / np.sqrt(s))
                       - np.sqrt(s / (2.0 * math.pi))
                       * np.exp(-0.5 * (y + a * s) ** 2 / s)),
            spec)
    return -val / beta


def risk_ya(law: YaLaw, measure: str, beta: float,
            spec: QuadratureSpec | None = None) -> float:
    _check_measure(measure)
    if measure == "var":
        return var_ya(law, beta, spec)
    return cvar_ya(law, beta, spec)


# ---------------------------------------------------------------------------
# Portfolio-level evaluation
# ---------------------------------------------------------------------------

_SCALAR_RISK_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_SCALAR_RISK_MEMO_SIZE)
def _scalar_risk(mixing: MixingLaw, a: float, measure: str, beta: float,
                 spec: QuadratureSpec) -> float:
    # risk(Y_a) depends on nothing else, so the key holds no model vectors;
    # a CVaR entry reuses the memoized VaR instead of solving it again
    law = YaLaw(a, mixing)
    if measure == "var":
        return var_ya(law, beta, spec)
    return _cvar_tail(law, _scalar_risk(mixing, a, "var", beta, spec), beta,
                      spec)


def clear_caches():
    """Drop the memoized scalar risks risk(Y_a)."""
    _scalar_risk.cache_clear()


def h(tm: TransformedModel, a: float, measure: str, beta: float,
      spec: QuadratureSpec | None = None) -> float:
    """risk(Y_a) for the model's mixing law.

    Memoized in a bounded least-recently-used table keyed on (mixing law, a,
    measure, beta, quadrature spec); models sharing a mixing law share
    entries. Decreasing, convex, and continuous in a when the measure is
    coherent; for VaR those structural guarantees are only checked
    empirically, which is also the basis on which the chord approximation is
    applied to it.
    """
    _check_measure(measure)
    _check_beta(beta)
    return _scalar_risk(tm.mixing, float(a), measure, beta,
                        spec or DEFAULT_QUADRATURE)


def _portfolio(tm: TransformedModel, x: np.ndarray, measure: str,
               beta: float) -> tuple[float, float, float]:
    """(-x^T mu0, ||x||, cos(x, gamma0)) of a finite nonzero x, once the
    measure and the level are checked."""
    _check_measure(measure)
    _check_beta(beta)
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(x))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"x must be finite and nonzero, got ||x|| = {norm}")
    return -float(x @ tm.mu0), norm, tm.cos_angle(x)


def portfolio_risk_exact(tm: TransformedModel, x: np.ndarray, measure: str,
                         beta: float,
                         spec: QuadratureSpec | None = None) -> RiskResult:
    """-x^T mu0 + ||x|| risk(Y_a) with a = ||gamma0|| cos(x, gamma0); its
    quadrature_evaluations are the VaR solve's distinct abscissae (+1 CVaR)."""
    loc, norm, cos_theta = _portfolio(tm, x, measure, beta)
    a = tm.gamma0_norm * cos_theta
    law = YaLaw(a, tm.mixing)
    tail, evaluations = _var_solve(law, beta, spec)
    if measure == "cvar":
        tail = _cvar_tail(law, tail, beta, spec)
        evaluations += 1
    used = spec or DEFAULT_QUADRATURE
    return RiskResult(value=loc + norm * tail, method="exact_quadrature",
                      beta=beta,
                      diagnostics={"a": a, "cos_theta": cos_theta,
                                   "scalar_risk": tail,
                                   "quadrature_evaluations": evaluations,
                                   "quadrature_abs_tol": used.abs_tol})


def two_point_coefficients(tm: TransformedModel, beta: float,
                           spec: QuadratureSpec | None = None) -> TwoPointCoefficients:
    """Chord coefficients from the two endpoint laws Y_{+-b}, b = ||gamma0||.

    The four endpoint values come from the scalar-risk memo that h uses, so
    repeated calls for one mixing law, level and spec solve nothing anew.
    """
    _check_beta(beta)
    b = tm.gamma0_norm
    if b <= 0.0:
        raise ValueError("two-point coefficients require ||gamma0|| > 0; "
                         "use the elliptical path for gamma = 0")
    spec = spec or DEFAULT_QUADRATURE
    var_p, var_m, cvar_p, cvar_m = (
        _scalar_risk(tm.mixing, a, measure, beta, spec)
        for measure, a in (("var", b), ("var", -b), ("cvar", b), ("cvar", -b)))
    return TwoPointCoefficients(
        w_plus=0.5 * (var_p + var_m), w_minus=0.5 * (var_p - var_m),
        v_plus=0.5 * (cvar_p + cvar_m), v_minus=0.5 * (cvar_p - cvar_m),
        b=b)


def portfolio_risk_two_point(tm: TransformedModel, x: np.ndarray, measure: str,
                             beta: float,
                             spec: QuadratureSpec | None = None) -> RiskResult:
    """Chord through the memoized two_point_coefficients; exact at
    cos(x, gamma0) = +-1.

    gamma0 = 0 degenerates the chord interval, so that case routes to the
    single elliptical evaluation risk(Y_0), which is exact.
    """
    loc, norm, cos_theta = _portfolio(tm, x, measure, beta)
    if tm.gamma0_norm == 0.0:
        tail = h(tm, 0.0, measure, beta, spec)
        return RiskResult(value=loc + norm * tail, method="two_point",
                          beta=beta, diagnostics={"cos_theta": cos_theta,
                                                  "elliptical": True})
    coeffs = two_point_coefficients(tm, beta, spec)
    if measure == "var":
        tail = coeffs.w_plus + coeffs.w_minus * cos_theta
    else:
        tail = coeffs.v_plus + coeffs.v_minus * cos_theta
    return RiskResult(value=loc + norm * tail, method="two_point", beta=beta,
                      diagnostics={"cos_theta": cos_theta})


def portfolio_risk_piecewise(tm: TransformedModel, x: np.ndarray, measure: str,
                             beta: float, partition,
                             interpolation: str = "step",
                             spec: QuadratureSpec | None = None) -> RiskResult:
    """Approximate risk with a step (or piecewise-linear) surrogate for
    a -> risk(Y_a) on a partition of [-b, b].

    "step" holds each cell at its left endpoint value; "linear" interpolates
    between knots, which for the convex scalar risk is an upper chord on each
    cell and reduces to the two-point method on the partition {-b, b}.
    """
    loc, norm, cos_theta = _portfolio(tm, x, measure, beta)
    if interpolation not in ("step", "linear"):
        raise ValueError(f"unknown interpolation: {interpolation!r}")
    b = tm.gamma0_norm
    if b == 0.0:
        tail = h(tm, 0.0, measure, beta, spec)
        return RiskResult(value=loc + norm * tail, method="piecewise",
                          beta=beta, diagnostics={"elliptical": True})
    knots = np.asarray(partition, dtype=float)
    pad = 1e-12 * max(1.0, b)
    if knots.ndim != 1 or knots.size < 2 or np.any(np.diff(knots) < 0.0):
        raise ValueError("partition must be a sorted vector with >= 2 points")
    if knots[0] > -b + pad or knots[-1] < b - pad or \
            knots[0] < -b - pad or knots[-1] > b + pad:
        raise ValueError(
            f"partition must cover [-b, b] = [{-b}, {b}] exactly")
    values = np.array([h(tm, float(k), measure, beta, spec) for k in knots])
    a = b * cos_theta
    if interpolation == "linear":
        tail = float(np.interp(a, knots, values))
    else:
        idx = int(np.searchsorted(knots, a, side="right")) - 1
        idx = min(max(idx, 0), knots.size - 2)
        tail = float(values[idx])
    return RiskResult(value=loc + norm * tail, method="piecewise", beta=beta,
                      diagnostics={"knots": knots.size,
                                   "interpolation": interpolation})


# ---------------------------------------------------------------------------
# Auxiliary-function cross-check (loss convention)
# ---------------------------------------------------------------------------

def rockafellar_F(um: UnivariateMixture, alpha: float, beta: float,
                  spec: QuadratureSpec | None = None) -> float:
    """F_beta(alpha) = alpha + E[(-Y - alpha)^+] / (1 - beta) for the loss -Y.

    Y is the portfolio return described by um; conditioning on Z makes the
    positive-part expectation a mixture of Gaussian put values.
    """
    _check_beta(beta)
    loc, c, sig = um.loc, um.skew_coef, um.scale

    def put_value(s):
        mean = loc + c * s
        sd = sig * np.sqrt(s)
        z = (-alpha - mean) / sd
        return (-alpha - mean) * _sspec.ndtr(z) + sd * np.exp(-0.5 * z * z) / _SQRT_2PI

    with np.errstate(under="ignore"):
        expectation = um.mixing.expect(put_value, spec)
    return alpha + expectation / (1.0 - beta)


def cvar_via_F(um: UnivariateMixture, beta: float,
               spec: QuadratureSpec | None = None) -> float:
    """CVaR of the loss -Y at level beta as min_alpha F_beta(alpha).

    One-dimensional convex minimization; agrees with the tail-integral CVaR
    of the return at level 1 - beta.
    """
    _check_beta(beta)
    mm = um.mixing.moments()
    center = -(um.loc + um.skew_coef * mm.ez) - \
        um.scale * math.sqrt(mm.ez) * normal_quantile(1.0 - beta)
    width = 12.0 * (um.scale * math.sqrt(mm.ez) + abs(um.skew_coef) * mm.ez
                    + math.sqrt(mm.var) * abs(um.skew_coef) + 1e-12)
    res = _sopt.minimize_scalar(
        lambda alpha: rockafellar_F(um, alpha, beta, spec),
        bounds=(center - width, center + width), method="bounded",
        options={"xatol": 1e-10})
    if not res.success:
        raise ArithmeticError(f"auxiliary-function minimization failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def mc_risk(um: UnivariateMixture, measure: str, beta: float, n_samples: int,
            rng: np.random.Generator, n_batches: int = 10) -> RiskResult:
    """Empirical VaR/CVaR with a batch-based standard error estimate."""
    _check_measure(measure)
    _check_beta(beta)
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be >= 10000, got {n_samples}")
    z = um.mixing.sample(rng, n_samples)
    y = um.loc + um.skew_coef * z + um.scale * np.sqrt(z) * \
        rng.standard_normal(n_samples)

    def estimate(sample: np.ndarray) -> float:
        k = max(int(beta * sample.size), 1)
        part = np.partition(sample, k - 1)
        q = part[k - 1]
        if measure == "var":
            return -float(q)
        return -float(np.mean(part[:k]))

    value = estimate(y)
    batch = np.array([estimate(chunk) for chunk in
                      np.array_split(y, n_batches)])
    se = float(np.std(batch, ddof=1) / math.sqrt(n_batches))
    return RiskResult(value=value, method="monte_carlo", beta=beta,
                      diagnostics={"se": se, "n_samples": n_samples,
                                   "n_batches": n_batches})
