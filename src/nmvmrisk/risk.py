"""Exact and approximate VaR/CVaR for mixture portfolio returns.

Everything reduces to the canonical scalar family Y_a = a Z + sqrt(Z) N.
Writing y_beta(a) for the VaR of Y_a at level beta, the quantile equation is

    beta = E[ Phi((-y_beta(a) - a Z) / sqrt(Z)) ]

solved by safeguarded Newton iteration from the quantile of the normal law
of mean a c and spread sqrt(c + a^2 c^2), c = scale() (EZ where it
exists), so laws without moments start the same way; its slope in y is
-f_a(-y), the density of Y_a, which each step gets from the same
quadrature pass as the CDF F(-y). A CVaR solve adds the
tail T(y) = E[ a Z Phi(z) - sqrt(Z) phi(z) ], z = (-y - a Z)/sqrt(Z), to
each pass and reads, at its last abscissa y,

    CVaR_beta(Y_a) = y + (-T(y) - y F(-y)) / beta,

the auxiliary function of Rockafellar & Uryasev (2000), which is stationary
in y at y_beta(a). Both measures have a-derivatives that are mixture
integrals with z at the solved y, priced by one more pass there:

    d y_beta/da    = -E[ sqrt(Z) phi(z) ] / E[ phi(z) / sqrt(Z) ],
    d CVaR_beta/da = -E[ Z Phi(z) ] / beta,

the first from differentiating the quantile equation (Hong 2009), the second
because the auxiliary function is stationary in y, so only its explicit
dependence on a counts. A portfolio with x = A^T omega then has

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
from scipy import special as _sspec

from .mathkit import (DEFAULT_QUADRATURE, BracketError, QuadratureError,
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
    "risk_ya_and_slope",
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
    endpoint b = ||gamma0|| and level beta.

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


def cdf_ya(law: YaLaw, y: float) -> float:
    """P(Y_a <= y), the mixture of conditional normal CDFs."""
    a = law.a
    val = law.mixing.expect(lambda s: _sspec.ndtr((y - a * s) / np.sqrt(s)))
    return min(max(val, 0.0), 1.0)


def density_ya(law: YaLaw, y: float) -> float:
    """Density of Y_a at y.

    GIG mixing with interior parameters (chi, psi > 0) uses the closed form

        f_a(y) = (psi/chi)^(lam/2) (psi + a^2)^(1/2 - lam)
                 / (sqrt(2 pi) K_lam(sqrt(chi psi)))
                 * K_{lam - 1/2}(q) e^{a y} / q^(1/2 - lam),
        q = sqrt((chi + y^2)(psi + a^2)),

    every other mixing law integrates the conditional normal densities by
    quadrature.
    """
    mixing = law.mixing
    if isinstance(mixing, Gig) and mixing.chi > 0.0 and mixing.psi > 0.0:
        return _density_ya_gig(mixing, law.a, y)
    a = law.a
    val = mixing.expect(
        lambda s: np.exp(-0.5 * (y - a * s) ** 2 / s) / np.sqrt(s))
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


def var_ya(law: YaLaw, beta: float) -> float:
    """y_beta(a): the VaR of Y_a, i.e. the negated upper beta-quantile.

    Solves beta - P(Y_a <= -y) = 0, increasing in y with slope f_a(-y), by
    safeguarded Newton iteration (find_root, to 1e-12 in y) from the normal
    quantile y0 = -(a c + sqrt(c + a^2 c^2) Phi^-1(beta)), c = scale(),
    which is EZ where it exists, so a heavy-tailed law without moments
    starts the same way. Each step is one mixture quadrature pass that
    gives the CDF and the density of Y_a together. A step that would leave
    the bracket becomes a bisection; while the quantile is not yet
    bracketed it becomes a step of the start's spread toward it, doubled
    each time (at most 60, for heavy-tailed mixing at small beta). Y_0 is
    symmetric, so its median is 0 without a solve.
    """
    _check_beta(beta)
    return _solve(law, "var", beta)[0]


def cvar_ya(law: YaLaw, beta: float) -> float:
    """CVaR of Y_a at level beta, read from the VaR solve's last pass."""
    _check_beta(beta)
    return _solve(law, "cvar", beta)[0]


@dataclass
class _SolveState:
    """What a scalar-risk solve inherits from earlier solves at its mixing
    law and level: the edges of the last pass's quadrature panels (see
    integrate_semi_infinite's partition), the last Newton root, and the
    quadrature passes summed over the solves. The reduced optimizer shares
    one across its iterates; the memo hands each VaR to its CVaR pass as
    the root of a fresh one."""

    partition: list = field(default_factory=list)
    root: float | None = None
    passes: int = 0


def _solve(law: YaLaw, measure: str, beta: float, slope: bool = False,
           state: _SolveState | None = None) -> tuple[float, int, float]:
    """(risk(Y_a), its number of mixture quadrature passes, d risk(Y_a)/da),
    solved from the normal quantile of mean a c and spread
    sqrt(c + a^2 c^2), c = scale(), which is EZ where it exists. Each
    Newton pass at y integrates the CDF F and the density of Y_a at -y on
    shared nodes and, for CVaR only, the tail T = E[Y_a; Y_a <= -y]; the
    CVaR is read at the last abscissa x as x + (-T - x F)/beta, which is
    stationary at the VaR. With `slope`, one more pass at the last
    abscissa adds the row of the a-derivative (see the module docstring)
    and reads it; the value comes from the Newton passes alone and is the
    one without `slope`, bit for bit. Without `slope` the slope is nan.

    A `state` is all that a solve inherits: every pass seeds its quadrature
    with the previous pass's panels, the solve starts at state.root where
    there is one, and state.root and state.passes take this solve's root
    and passes. Without a state a solve depends on its arguments alone."""
    a = law.a
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    tail = measure == "cvar"
    passes = 0
    last = None
    partition = None if state is None else state.partition

    def rows(y, density, with_slope=False):
        def integrand(s):
            root = np.sqrt(s)
            z = (-y - a * s) / root
            cdf = _sspec.ndtr(z)
            gauss = np.exp(-0.5 * z * z)
            out = [cdf, gauss / root]
            if tail:
                out.append(s * (a * cdf - out[1] / _SQRT_2PI))
            if with_slope:
                out.append(s * cdf if tail else root * gauss)
            return np.stack(out if density else [cdf, *out[2:]])
        return law.mixing.expect(integrand, partition=partition)

    def objective(y):
        # increasing in y, with slope f_a(-y)
        nonlocal passes, last
        passes += 1
        try:
            cdf, density, *rest = rows(y, True)
        except QuadratureError:
            # f_a is unbounded at 0 when E[Z^-1/2] is infinite (Gamma-like
            # mixing of shape <= 1/2); the CDF alone gives find_root a point
            # without a slope, which it bisects or steps past
            passes += 1
            (cdf, *rest), density = rows(y, False), math.nan
        cdf = min(max(float(cdf), 0.0), 1.0)
        last = y, cdf, density, rest
        return beta - cdf, float(density) / _SQRT_2PI

    if a == 0.0 and beta == 0.5:
        root = 0.0  # the median of the symmetric Y_0
        if tail or slope:
            objective(root)
    else:
        c = law.mixing.scale()
        sd = math.sqrt(c + a * a * c * c)
        start = None if state is None else state.root
        if start is None:
            start = -(a * c + sd * normal_quantile(beta))
        try:
            root = find_root(objective, start, sd)
        except BracketError as exc:
            raise ArithmeticError(
                f"could not bracket the {beta}-quantile of Y_a (a={a}): "
                f"{exc}") from exc
    value, d_value = root, math.nan
    if tail:
        x, cdf, _, (t, *_) = last
        value = x + (-float(t) - x * cdf) / beta
    if slope:
        # the slope row over -beta for CVaR, over minus the density row
        # for VaR
        x, _, density, _ = last
        over = beta if tail else float(density)
        if over > 0.0:
            passes += 1
            d_value = -float(rows(x, not math.isnan(density), True)[-1]) / over
    if state is not None:
        state.root = root
        state.passes += passes
    return value, passes, d_value


def risk_ya(law: YaLaw, measure: str, beta: float) -> float:
    _check_measure(measure)
    _check_beta(beta)
    return _solve(law, measure, beta)[0]


def risk_ya_and_slope(law: YaLaw, measure: str, beta: float,
                      state: _SolveState | None = None) -> tuple[float, float]:
    """(risk(Y_a), d risk(Y_a)/da) from one solve: the value is risk_ya's
    bit for bit, and the slope is read by one more pass at the solve's
    last abscissa (nan where the density of Y_a there is not finite, for
    VaR). With a `state` (see _solve) the value is risk_ya's within the
    quadrature and root tolerances."""
    _check_measure(measure)
    _check_beta(beta)
    value, _, slope = _solve(law, measure, beta, slope=True, state=state)
    return value, slope


# ---------------------------------------------------------------------------
# Portfolio-level evaluation
# ---------------------------------------------------------------------------

_SCALAR_RISK_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=_SCALAR_RISK_MEMO_SIZE)
def _scalar_risk(mixing: MixingLaw, a: float,
                 beta: float) -> tuple[float, float]:
    # (VaR, CVaR) of Y_a depend on nothing else, so the key holds no model
    # vectors; the CVaR pass starts at the solved VaR and takes one step
    law = YaLaw(a, mixing)
    var = var_ya(law, beta)
    return var, _solve(law, "cvar", beta, state=_SolveState(root=var))[0]


def clear_caches():
    """Drop the memoized scalar risks risk(Y_a)."""
    _scalar_risk.cache_clear()


def h(tm: TransformedModel, a: float, measure: str, beta: float) -> float:
    """risk(Y_a) for the model's mixing law.

    Memoized in a bounded least-recently-used table keyed on (mixing law, a,
    beta), whose entry holds the VaR and the CVaR of Y_a from one solve;
    every entry is priced at DEFAULT_QUADRATURE, the one tolerance no caller
    changes, so models sharing a mixing law share entries. Decreasing,
    convex, and continuous in a when the measure is coherent; for VaR those
    structural guarantees are only checked empirically, which is also the
    basis on which the chord approximation is applied to it.
    """
    _check_measure(measure)
    _check_beta(beta)
    return _scalar_risk(tm.mixing, float(a), beta)[_MEASURES.index(measure)]


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
                         beta: float) -> RiskResult:
    """-x^T mu0 + ||x|| risk(Y_a) with a = ||gamma0|| cos(x, gamma0); its
    quadrature_evaluations are the solve's Newton passes, each one
    quadrature giving the CDF and the density of Y_a (and for CVaR its
    tail, so the CVaR needs no pass of its own), all integrated to
    DEFAULT_QUADRATURE, whose abs_tol it reports."""
    loc, norm, cos_theta = _portfolio(tm, x, measure, beta)
    a = tm.gamma0_norm * cos_theta
    tail, evaluations, _ = _solve(YaLaw(a, tm.mixing), measure, beta)
    return RiskResult(
        value=loc + norm * tail, method="exact_quadrature", beta=beta,
        diagnostics={"a": a, "cos_theta": cos_theta, "scalar_risk": tail,
                     "quadrature_evaluations": evaluations,
                     "quadrature_abs_tol": DEFAULT_QUADRATURE.abs_tol})


def two_point_coefficients(tm: TransformedModel,
                           beta: float) -> TwoPointCoefficients:
    """Chord coefficients from the two endpoint laws Y_{+-b}, b = ||gamma0||.

    The two endpoint entries come from the scalar-risk memo that h uses, so
    repeated calls for one mixing law and level solve nothing anew. At
    b = 0 both ends are Y_0, one memo entry: the chord is flat.
    """
    _check_beta(beta)
    b = tm.gamma0_norm
    var_p, cvar_p = _scalar_risk(tm.mixing, b, beta)
    var_m, cvar_m = _scalar_risk(tm.mixing, -b, beta)
    return TwoPointCoefficients(
        w_plus=0.5 * (var_p + var_m), w_minus=0.5 * (var_p - var_m),
        v_plus=0.5 * (cvar_p + cvar_m), v_minus=0.5 * (cvar_p - cvar_m),
        b=b)


def portfolio_risk_two_point(tm: TransformedModel, x: np.ndarray, measure: str,
                             beta: float) -> RiskResult:
    """Chord through the memoized two_point_coefficients; exact at
    cos(x, gamma0) = +-1, and at gamma0 = 0, where the chord is the flat
    risk(Y_0).
    """
    loc, norm, cos_theta = _portfolio(tm, x, measure, beta)
    coeffs = two_point_coefficients(tm, beta)
    if measure == "var":
        tail = coeffs.w_plus + coeffs.w_minus * cos_theta
    else:
        tail = coeffs.v_plus + coeffs.v_minus * cos_theta
    return RiskResult(value=loc + norm * tail, method="two_point", beta=beta,
                      diagnostics={"cos_theta": cos_theta})


def portfolio_risk_piecewise(tm: TransformedModel, x: np.ndarray, measure: str,
                             beta: float, partition,
                             interpolation: str = "linear") -> RiskResult:
    """Approximate risk with the piecewise-linear interpolant of
    a -> risk(Y_a) on a partition of [-b, b].

    For the convex scalar risk the interpolant is an upper chord on each cell,
    and it reduces to the two-point method on the partition {-b, b}.
    "linear" is the only interpolation.
    """
    loc, norm, cos_theta = _portfolio(tm, x, measure, beta)
    if interpolation != "linear":
        raise ValueError(f"unknown interpolation: {interpolation!r}")
    b = tm.gamma0_norm
    knots = np.asarray(partition, dtype=float)
    pad = 1e-12 * max(1.0, b)
    if knots.ndim != 1 or knots.size < 2 or not np.all(np.isfinite(knots)) \
            or np.any(np.diff(knots) < 0.0):
        raise ValueError(
            "partition must be a sorted finite vector with >= 2 points")
    if knots[0] > -b + pad or knots[-1] < b - pad or \
            knots[0] < -b - pad or knots[-1] > b + pad:
        raise ValueError(
            f"partition must cover [-b, b] = [{-b}, {b}] exactly")
    values = np.array([h(tm, float(k), measure, beta) for k in knots])
    tail = float(np.interp(b * cos_theta, knots, values))
    return RiskResult(value=loc + norm * tail, method="piecewise", beta=beta,
                      diagnostics={"knots": knots.size,
                                   "interpolation": interpolation})


# ---------------------------------------------------------------------------
# Auxiliary-function cross-check (loss convention)
# ---------------------------------------------------------------------------

def rockafellar_F(um: UnivariateMixture, alpha: float, beta: float) -> float:
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
        expectation = um.mixing.expect(put_value)
    return alpha + expectation / (1.0 - beta)


def cvar_via_F(um: UnivariateMixture, beta: float) -> float:
    """CVaR of the loss -Y at level beta as min_alpha F_beta(alpha).

    One-dimensional convex minimization over a bracket placed by c =
    scale(), which stands for both EZ and the spread of Z, so a law without
    moments (heavy tails) takes the same bracket. A minimizer at an end of
    it (far in a tail where sd(Z) exceeds c) moves the bracket to that end
    at twice the width, up to 10 times; one still at an end raises
    ArithmeticError. Agrees with the tail-integral CVaR of the return at
    level 1 - beta.
    """
    # imported here: scipy.optimize adds ~0.3 s to every package import
    from scipy.optimize import minimize_scalar
    _check_beta(beta)
    c = um.mixing.scale()
    center = -(um.loc + um.skew_coef * c) - \
        um.scale * math.sqrt(c) * normal_quantile(1.0 - beta)
    width = 12.0 * (um.scale * math.sqrt(c) + 2.0 * abs(um.skew_coef) * c
                    + 1e-12)
    for _ in range(11):  # the first bracket, then up to 10 moves
        lo, hi = center - width, center + width
        res = minimize_scalar(
            lambda alpha: rockafellar_F(um, alpha, beta), bounds=(lo, hi),
            method="bounded", options={"xatol": 1e-10})
        if not res.success:
            raise ArithmeticError(
                f"auxiliary-function minimization failed: {res.message}")
        # where F still falls at an end, the search stops ~3e-8 |alpha| from
        # it; F is convex, so its minimizer lies beyond that end
        if min(res.x - lo, hi - res.x) > 1e-6 * (hi - lo) + 1e-7 * abs(res.x):
            return float(res.fun)
        center, width = res.x, 2.0 * width
    raise ArithmeticError(
        f"the minimizer of F lies at an end of its bracket [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

_MC_BATCHES = 10


def mc_risk(um: UnivariateMixture, measure: str, beta: float, n_samples: int,
            rng: np.random.Generator) -> RiskResult:
    """Empirical VaR/CVaR with a standard error estimated from 10 batches."""
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
                      np.array_split(y, _MC_BATCHES)])
    se = float(np.std(batch, ddof=1) / math.sqrt(_MC_BATCHES))
    return RiskResult(value=value, method="monte_carlo", beta=beta,
                      diagnostics={"se": se, "n_samples": n_samples,
                                   "n_batches": _MC_BATCHES})
