"""Independent reference values for the benchmark's correctness gate.

Everything here integrates over the mixing density as scipy.stats gives it,
with scipy.integrate, and never calls nmvmrisk. A portfolio return is
R = loc + c Z + s sqrt(Z) N; its VaR v solves P(R <= -v) = beta and its CVaR
is -(1/beta) E[R 1{R <= -v}].
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

# default QuadratureSpec of nmvmrisk when the benchmark was written
ABS_TOL = 1e-10
REL_TOL = 1e-8
# The package's Gauss-Kronrod error bound is an estimate, not a guarantee:
# a value may miss the requested tolerance by a small factor (the location
# model's VaR at beta 0.05 near a = 0.80 b misses it by 1.15x). The gate
# accepts up to GATE_FACTOR times the requested tolerance; anything beyond
# is a wrong value. Reports carry the worst ratio seen, so a drift shows.
GATE_FACTOR = 10.0


def mixing_dist(spec: dict):
    """Frozen scipy.stats law for a mixing spec {"family": ..., params}."""
    family = spec["family"]
    if family == "gig":
        lam, chi, psi = spec["lambda"], spec["chi"], spec["psi"]
        if chi > 0.0 and psi > 0.0:
            return stats.geninvgauss(lam, math.sqrt(chi * psi),
                                     scale=math.sqrt(chi / psi))
        if chi == 0.0:
            return stats.gamma(lam, scale=2.0 / psi)
        return stats.invgamma(-lam, scale=0.5 * chi)
    if family == "gamma":
        return stats.gamma(spec["shape"], scale=1.0 / spec["rate"])
    if family == "inverse_gaussian":
        d, g = spec["delta"], spec["gamma_ig"]
        return stats.invgauss(1.0 / (d * g), scale=d * d)
    raise ValueError(f"no oracle for mixing family {family!r}")


def tail_integrals(dist, loc, c, s, v):
    """P(R_i <= -v_i) and E[R_i 1{R_i <= -v_i}] for arrays of portfolios.

    One adaptive vector quadrature covers the whole batch.
    """
    loc, c, s, v = (np.asarray(u, dtype=float) for u in (loc, c, s, v))
    pdf = dist.pdf

    def integrand(z):
        if z <= 0.0:
            return np.zeros(2 * loc.size)
        m = loc + c * z
        sd = s * math.sqrt(z)
        d = (-v - m) / sd
        cdf = special.ndtr(d)
        dens = pdf(z)
        return np.concatenate([cdf * dens,
                               (m * cdf - sd * np.exp(-0.5 * d * d)
                                / math.sqrt(2.0 * math.pi)) * dens])

    val, _ = integrate.quad_vec(integrand, 0.0, np.inf, epsabs=1e-14,
                                epsrel=1e-12, norm="max", limit=4000)
    return val[:loc.size], val[loc.size:]


def var_residual_tol(beta: float) -> float:
    """How far P(R <= -VaR) may sit from beta at the default tolerance."""
    return ABS_TOL + REL_TOL * beta


def cvar_tol(beta: float, loc, s, cvar):
    """Allowed CVaR error: the scalar-tail quadrature tolerance in R units."""
    scalar = (np.asarray(cvar) + np.asarray(loc)) / np.asarray(s)
    return np.asarray(s) * (ABS_TOL + REL_TOL * beta * np.abs(scalar)) / beta


def tolerance_ratios(dist, beta, loc, c, s, var, cvar):
    """Errors as multiples of the requested quadrature tolerance: the
    quantile-equation residual at each VaR, and each CVaR against the tail
    integral at that VaR. A value passes the gate at <= GATE_FACTOR."""
    prob, tail = tail_integrals(dist, loc, c, s, var)
    var_ratio = np.abs(prob - beta) / var_residual_tol(beta)
    cvar_ratio = np.abs(np.asarray(cvar) + tail / beta) / cvar_tol(
        beta, loc, s, cvar)
    return var_ratio, cvar_ratio


def solve_var_cvar(dist, beta, loc, c, s):
    """Oracle VaR and CVaR of one portfolio by root finding on scipy quad."""
    def prob_minus_beta(v):
        val, _ = integrate.quad(
            lambda z: special.ndtr((-v - loc - c * z) / (s * math.sqrt(z)))
            * dist.pdf(z), 0.0, np.inf, epsabs=1e-14, epsrel=1e-12,
            limit=400)
        return val - beta

    width = abs(loc) + abs(c) * dist.mean() + 10.0 * s * math.sqrt(dist.mean())
    while prob_minus_beta(-width) < 0.0 or prob_minus_beta(width) > 0.0:
        width *= 2.0
    v = optimize.brentq(prob_minus_beta, -width, width, xtol=1e-14)
    _, tail = tail_integrals(dist, [loc], [c], [s], [v])
    return v, float(-tail[0] / beta)


def student_t_var_cvar(beta: float, loc: float, scale: float, dof: float):
    """Closed-form VaR and CVaR of R = loc + scale * T, T Student t.

    With Z ~ GIG(-dof/2, chi, 0), sqrt(Z) N equals sqrt(chi/dof) T in law.
    """
    t = stats.t(dof)
    q = t.ppf(beta)
    es = (dof + q * q) / (dof - 1.0) * t.pdf(q) / beta
    return -(loc + scale * q), -loc + scale * es
