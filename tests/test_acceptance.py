"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.

Criteria 1 and 2 compare computed VaR/CVaR against externally published
reference tables for the five-stock location model. Those reference values
are provably not reproducible from the model parameters stated alongside
them (the reference dispersion matrix is inconsistent by a factor of about
1.33 with per-portfolio scatter; see README "Reference-table reproduction
status"). The assertions are kept at their stated tolerances and fail
honestly; the accompanying internal-consistency checks (exact vs two-point
agreement at the same gap as the reference's own columns) do pass.
"""

import math
import time

import numpy as np
import pytest

import nmvmrisk as nr
from nmvmrisk.mixing import Degenerate, Gamma, InverseGaussian
from nmvmrisk.nmvm import portfolio_moments, transform
from nmvmrisk.optimize import solve_mean_risk_skew
from nmvmrisk.risk import (YaLaw, cvar_via_F, cvar_ya, h,
                           portfolio_risk_exact, portfolio_risk_two_point,
                           risk_ya, var_ya)

BETAS = [0.1, 0.05, 0.01]
PORTFOLIOS = np.array([
    [0.1, 0.4, 0.2, 0.1, 0.2],
    [0.2, 0.1, 0.5, 0.1, 0.1],
    [0.1, 0.4, 0.1, 0.3, 0.1],
    [0.3, 0.1, 0.3, 0.1, 0.2],
    [0.1, 0.3, 0.1, 0.3, 0.2],
])

# reference tables for the location model: exact and chord-approximate
# values per portfolio row x beta column
REF_VAR = np.array([
    [0.027729, 0.042165, 0.082055],
    [0.038508, 0.058196, 0.112613],
    [0.02568, 0.039183, 0.076513],
    [0.03131, 0.047384, 0.091771],
    [0.025091, 0.038256, 0.074639],
])
REF_V = np.array([
    [0.029828, 0.044277, 0.084206],
    [0.040006, 0.059714, 0.114193],
    [0.02816, 0.041678, 0.079054],
    [0.032775, 0.048857, 0.093264],
    [0.027397, 0.040574, 0.076994],
])
REF_CVAR = np.array([
    [0.050643, 0.067315, 0.111296],
    [0.069764, 0.092505, 0.152508],
    [0.04712, 0.062719, 0.103883],
    [0.056816, 0.075369, 0.124296],
    [0.04599, 0.061195, 0.10131],
])
REF_CV = np.array([
    [0.050654, 0.067341, 0.111366],
    [0.0698, 0.092567, 0.15264],
    [0.047136, 0.062755, 0.103972],
    [0.056815, 0.075376, 0.124327],
    [0.046, 0.06122, 0.101378],
])

# reference optimizer table for the skew model; the five target returns are
# the uniform grid 0.002 * (9 + j) / 9, whose four-decimal roundings are the
# labels the reference prints
R_GRID = [0.002 * (9 + j) / 9 for j in range(5)]
REF_WEIGHTS = np.array([
    [0.077077, 0.194069, 0.31106, 0.428051, 0.545042],
    [0.252863, 0.22433, 0.195798, 0.167265, 0.138732],
    [0.067729, 0.101723, 0.135716, 0.169709, 0.203703],
    [0.399764, 0.26734, 0.134915, 0.00249, -0.12994],
    [0.202566, 0.212539, 0.222512, 0.232485, 0.242458],
])
REF_SKEWNESS = [0.34231, 0.370487, 0.383957, 0.385706, 0.380047]


def report(criterion: str, passed: bool, detail: str):
    flag = "PASS" if passed else "FAIL"
    print(f"[{flag}] {criterion}: {detail}", flush=True)


def table_deviations(tm, reference_exact, reference_chord, measure):
    dev_exact = np.zeros_like(reference_exact)
    dev_chord = np.zeros_like(reference_chord)
    internal_gap = np.zeros_like(reference_exact)
    for i, omega in enumerate(PORTFOLIOS):
        x = tm.x_from_weights(omega)
        for j, beta in enumerate(BETAS):
            exact = portfolio_risk_exact(tm, x, measure, beta).value
            chord = portfolio_risk_two_point(tm, x, measure, beta).value
            dev_exact[i, j] = exact - reference_exact[i, j]
            dev_chord[i, j] = chord - reference_chord[i, j]
            internal_gap[i, j] = abs(chord - exact)
    return dev_exact, dev_chord, internal_gap


def test_criterion_1_var_table_golden(tm_location):
    start = time.time()
    dev_exact, dev_chord, gap = table_deviations(tm_location, REF_VAR, REF_V,
                                                 "var")
    elapsed = time.time() - start
    worst = max(np.abs(dev_exact).max(), np.abs(dev_chord).max())
    ok = worst <= 2e-3
    report("criterion 1 (VaR table golden)", ok,
           f"max |deviation| = {worst:.4e} vs tolerance 2e-3; "
           f"internal exact-vs-chord gap ok (max {gap.max():.2e}); "
           f"{elapsed:.1f}s")
    assert ok, (
        f"exact VaR / chord V deviate from the reference table by up to "
        f"{worst:.4e} (> 2e-3). The reference values are internally "
        f"consistent but not derivable from the stated parameters; see "
        f"README 'Reference-table reproduction status'.")


def test_criterion_2_cvar_table_golden(tm_location):
    start = time.time()
    dev_exact, dev_chord, gap = table_deviations(tm_location, REF_CVAR,
                                                 REF_CV, "cvar")
    elapsed = time.time() - start
    worst = max(np.abs(dev_exact).max(), np.abs(dev_chord).max())
    ok = worst <= 1e-3
    report("criterion 2 (CVaR table golden)", ok,
           f"max |deviation| = {worst:.4e} vs tolerance 1e-3; "
           f"internal exact-vs-chord gap ok (max {gap.max():.2e}); "
           f"{elapsed:.1f}s")
    assert ok, (
        f"exact CVaR / chord CV deviate from the reference table by up to "
        f"{worst:.4e} (> 1e-3). The reference values are internally "
        f"consistent but not derivable from the stated parameters; see "
        f"README 'Reference-table reproduction status'.")


def test_criterion_3_optimizer_golden(tm_skew):
    start = time.time()
    worst_w = worst_s = worst_c = 0.0
    for j, r in enumerate(R_GRID):
        sol = solve_mean_risk_skew(tm_skew, r)
        worst_w = max(worst_w,
                      float(np.abs(sol.omega_star - REF_WEIGHTS[:, j]).max()))
        worst_s = max(worst_s, abs(sol.skewness - REF_SKEWNESS[j]))
        worst_c = max(worst_c, abs(sol.omega_star.sum() - 1.0),
                      abs(sol.achieved_return - r))
    elapsed = time.time() - start
    ok = worst_w <= 5e-3 and worst_s <= 1e-3 and worst_c <= 1e-10
    report("criterion 3 (optimizer golden)", ok,
           f"max |weight dev| = {worst_w:.2e} (tol 5e-3), "
           f"max |skewness dev| = {worst_s:.2e} (tol 1e-3), "
           f"max constraint residual = {worst_c:.1e} (tol 1e-10); "
           f"{elapsed:.1f}s")
    assert worst_w <= 5e-3
    assert worst_s <= 1e-3
    assert worst_c <= 1e-10
    assert elapsed < 5.0


def _empirical_var_cvar(y: np.ndarray, beta: float):
    k = max(int(beta * y.size), 1)
    part = np.partition(y, k - 1)
    return -float(part[k - 1]), -float(np.mean(part[:k]))


@pytest.mark.slow
def test_criterion_4_monte_carlo_oracle(location_model):
    start = time.time()
    n = 10_000_000
    b = transform(location_model).gamma0_norm
    cases = [(location_model.mixing, a, beta)
             for a in (-b, 0.0, b) for beta in BETAS]
    cases += [(Gamma(1.0, 1.0), b, beta) for beta in BETAS]
    worst_ratio = 0.0
    for idx, (mixing, a, beta) in enumerate(cases):
        law = YaLaw(a, mixing)
        quad_var = var_ya(law, beta)
        quad_cvar = cvar_ya(law, beta)
        rng = np.random.default_rng(9000 + idx)
        z = mixing.sample(rng, n)
        y = a * z + np.sqrt(z) * rng.standard_normal(n)
        mc_var, mc_cvar = _empirical_var_cvar(y, beta)
        batches = [_empirical_var_cvar(chunk, beta)
                   for chunk in np.array_split(y, 10)]
        se_var = np.std([v for v, _ in batches], ddof=1) / math.sqrt(10)
        se_cvar = np.std([c for _, c in batches], ddof=1) / math.sqrt(10)
        worst_ratio = max(worst_ratio,
                          abs(quad_var - mc_var) / (3.0 * se_var),
                          abs(quad_cvar - mc_cvar) / (3.0 * se_cvar))
    elapsed = time.time() - start
    ok = worst_ratio <= 1.0 and elapsed < 180.0
    report("criterion 4 (Monte Carlo oracle, 12 cases x 1e7)", ok,
           f"worst |quad - MC| / (3 SE) = {worst_ratio:.2f} (must be <= 1); "
           f"{elapsed:.0f}s (budget 180s)")
    assert worst_ratio <= 1.0
    assert elapsed < 180.0


def test_criterion_5_closed_forms():
    # plain Gaussian model: point-mass mixing must reproduce the normal
    # closed forms exactly
    model = nr.NmvmModel(mu=[0.004, -0.002], gamma=np.zeros(2),
                         sigma=[[0.0009, 0.0002], [0.0002, 0.0016]],
                         mixing=Degenerate())
    tm = transform(model)
    omega = np.array([0.6, 0.4])
    x = tm.x_from_weights(omega)
    mu_p = float(omega @ model.mu)
    sigma_p = math.sqrt(float(omega @ model.sigma @ omega))
    worst = 0.0
    for beta in BETAS:
        q = nr.normal_quantile(beta)
        var_closed = -mu_p - sigma_p * q
        cvar_closed = -mu_p + sigma_p * math.exp(-0.5 * q * q) / (
            beta * math.sqrt(2.0 * math.pi))
        worst = max(
            worst,
            abs(portfolio_risk_exact(tm, x, "var", beta).value - var_closed),
            abs(portfolio_risk_exact(tm, x, "cvar", beta).value
                - cvar_closed))
    # elliptical reduction: zero skewness vector, heavy-tailed mixing
    model2 = nr.NmvmModel(mu=[0.004, -0.002], gamma=np.zeros(2),
                          sigma=[[0.0009, 0.0002], [0.0002, 0.0016]],
                          mixing=nr.Gig(lam=-0.5, chi=1.44, psi=1.44))
    tm2 = transform(model2)
    x2 = tm2.x_from_weights(omega)
    for beta in BETAS:
        for measure in ("var", "cvar"):
            scalar = risk_ya(YaLaw(0.0, model2.mixing), measure, beta)
            elliptical = -float(x2 @ tm2.mu0) + \
                float(np.linalg.norm(x2)) * scalar
            got = portfolio_risk_two_point(tm2, x2, measure, beta).value
            worst = max(worst, abs(got - elliptical))
    ok = worst <= 1e-8
    report("criterion 5 (closed-form consistency)", ok,
           f"max |deviation| = {worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_6_condition_identities():
    worst_gamma = 0.0
    for shape in np.linspace(0.3, 6.0, 10):
        law = Gamma(shape=float(shape), rate=0.5 * 1.7 ** 2)
        rel = abs(nr.skew_condition(law)) / law.moments().var ** 2
        worst_gamma = max(worst_gamma, rel)
    worst_ig = 0.0
    for i in range(10):
        d, g = 0.5 + 0.3 * i, 1.8 - 0.1 * i
        got = nr.skew_condition(InverseGaussian(delta=d, gamma_ig=g))
        worst_ig = max(worst_ig, abs(got - d * d / g ** 6) / (d * d / g ** 6))
    ok = worst_gamma <= 1e-14 and worst_ig <= 1e-12
    report("criterion 6 (condition identities)", ok,
           f"gamma-family relative residual {worst_gamma:.1e} (tol 1e-14), "
           f"inverse-Gaussian relative error {worst_ig:.1e} (tol 1e-12)")
    assert ok


def test_criterion_7_property_suite(location_model, skew_model):
    start = time.time()
    failures = []
    laws_models = [location_model,
                   nr.NmvmModel(mu=location_model.mu,
                                gamma=location_model.gamma,
                                sigma=location_model.sigma,
                                mixing=Gamma(1.0, 1.0))]
    for model in laws_models:
        tm = transform(model)
        b = tm.gamma0_norm
        grid = np.linspace(-b, b, 21)
        for beta in BETAS:
            cvals = [h(tm, float(a), "cvar", beta) for a in grid]
            vvals = [h(tm, float(a), "var", beta) for a in grid]
            for i in range(20):
                if cvals[i + 1] > cvals[i] + 1e-9:
                    failures.append(f"monotonicity beta={beta}")
            for i in range(1, 20):
                chord = 0.5 * (cvals[i - 1] + cvals[i + 1])
                if cvals[i] > chord + 1e-8:
                    failures.append(f"convexity beta={beta}")
            for cv, vv in zip(cvals, vvals):
                if cv < vv - 1e-10:
                    failures.append(f"cvar>=var beta={beta}")
    # chord interpolation exact at the endpoints
    tm = transform(location_model)
    for sign in (1.0, -1.0):
        x = sign * tm.gamma0
        for measure in ("var", "cvar"):
            exact = portfolio_risk_exact(tm, x, measure, 0.05).value
            chord = portfolio_risk_two_point(tm, x, measure, 0.05).value
            if abs(chord - exact) > 1e-9:
                failures.append(f"endpoint exactness sign={sign}")
    # factorization invariance of solver weights, risk values, and moments
    tm_sym = transform(skew_model, "symmetric_sqrt", mode="skew")
    tm_chol = transform(skew_model, "cholesky", mode="skew")
    sol_sym = solve_mean_risk_skew(tm_sym, 0.002)
    sol_chol = solve_mean_risk_skew(tm_chol, 0.002)
    if np.abs(sol_sym.omega_star - sol_chol.omega_star).max() > 1e-9:
        failures.append("factorization invariance of weights")
    omega = np.array([0.1, 0.4, 0.2, 0.1, 0.2])
    risk_vals, moment_vals = [], []
    for tm_fac in (tm_sym, tm_chol):
        x = tm_fac.x_from_weights(omega)
        risk_vals.append(portfolio_risk_exact(tm_fac, x, "cvar", 0.05).value)
        pm = portfolio_moments(tm_fac, x)
        moment_vals.append((pm.std, pm.skew, pm.kurt))
    if abs(risk_vals[0] - risk_vals[1]) > 1e-9:
        failures.append("factorization invariance of risk")
    if np.abs(np.array(moment_vals[0]) - np.array(moment_vals[1])).max() \
            > 1e-9:
        failures.append("factorization invariance of moments")
    elapsed = time.time() - start
    ok = not failures
    report("criterion 7 (property suite)", ok,
           f"{'all properties hold' if ok else failures}; {elapsed:.0f}s")
    assert ok, failures


def test_criterion_8_em_suite():
    from tests.test_fit import (SYNTH_GAMMA, SYNTH_MIXING, SYNTH_MU,
                                SYNTH_SIGMA, synthetic_returns)

    start = time.time()
    rm = synthetic_returns(20_000, seed=20260810)
    result = nr.mcecm_fit(rm, nr.FitConfig(
        lambda_mode="fixed", lambda_value=-0.5, include_mu=True,
        max_iters=300, ll_tol=1e-8, identification="unit_ez"))
    elapsed = time.time() - start
    trace = np.array(result.log_likelihood_trace)
    monotone = bool(np.all(np.diff(trace) >= -1e-8))

    mm = result.model.mixing.moments()
    implied_mean = result.model.mu + result.model.gamma * mm.ez
    implied_cov = mm.var * np.outer(result.model.gamma, result.model.gamma) \
        + mm.ez * result.model.sigma
    truth_mm = SYNTH_MIXING.moments()
    truth_mean = SYNTH_MU + SYNTH_GAMMA * truth_mm.ez
    truth_cov = truth_mm.var * np.outer(SYNTH_GAMMA, SYNTH_GAMMA) \
        + truth_mm.ez * SYNTH_SIGMA

    x = rm.values
    t = rm.t
    se_mean = x.std(axis=0, ddof=1) / math.sqrt(t)
    mean_ok = bool(np.all(np.abs(implied_mean - truth_mean)
                          <= 4.0 * se_mean))
    centered = x - x.mean(axis=0)
    cov_ok = True
    worst_cov = 0.0
    for i in range(3):
        for j in range(3):
            prod = centered[:, i] * centered[:, j]
            se_cov = prod.std(ddof=1) / math.sqrt(t)
            ratio = abs(implied_cov[i, j] - truth_cov[i, j]) / (4.0 * se_cov)
            worst_cov = max(worst_cov, ratio)
            cov_ok = cov_ok and ratio <= 1.0
    ok = monotone and mean_ok and cov_ok and elapsed < 120.0
    report("criterion 8 (EM suite)", ok,
           f"monotone={monotone}, mean within 4 SE={mean_ok}, "
           f"cov worst |dev|/(4 SE)={worst_cov:.2f}, iterations="
           f"{result.iterations}, {elapsed:.0f}s (budget 120s)")
    assert monotone
    assert mean_ok
    assert cov_ok
    assert elapsed < 120.0


def test_criterion_9_auxiliary_function_cross_check(location_model):
    worst = 0.0
    for omega in PORTFOLIOS:
        um = nr.project(location_model, omega)
        via_f = cvar_via_F(um, 0.95)
        a = um.skew_coef / um.scale
        tail = -um.loc + um.scale * cvar_ya(YaLaw(a, um.mixing), 0.05)
        worst = max(worst, abs(via_f - tail))
    ok = worst <= 1e-5
    report("criterion 9 (auxiliary-function cross-check)", ok,
           f"max |min-F CVaR - tail-integral CVaR| = {worst:.2e} (tol 1e-5)")
    assert ok
