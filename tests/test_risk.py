"""Tests for the scalar-family and portfolio risk evaluations.

Frozen expected values were produced by an independent adaptive-quadrature
route (QUADPACK) and cross-checked against 1e7-sample Monte Carlo estimates;
the package's own quadrature must reproduce them to well below the Monte
Carlo uncertainty.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

import nmvmrisk as nr
from nmvmrisk import risk as riskmod
from nmvmrisk.mathkit import (QuadratureError, QuadratureSpec,
                              QuadratureWarning, normal_quantile)
from nmvmrisk.mixing import Degenerate, Gamma, Gig, InverseGaussian
from nmvmrisk.nmvm import UnivariateMixture, project, transform
from nmvmrisk.risk import (YaLaw, cdf_ya, clear_caches, cvar_via_F, cvar_ya,
                           density_ya, h, mc_risk, portfolio_risk_exact,
                           portfolio_risk_piecewise, portfolio_risk_two_point,
                           risk_ya, risk_ya_and_slope, rockafellar_F,
                           two_point_coefficients, var_ya)

MIXING_REF = Gig(lam=-0.378655004, chi=0.379275063, psi=0.371543387)
B_REF = 0.05424821646403182  # ||gamma0|| of the five-stock location model

# independent-oracle values for Y_a under MIXING_REF
VAR_ORACLE = {
    (-B_REF, 0.1): 1.193229663304551,
    (-B_REF, 0.05): 1.7925415146394688,
    (-B_REF, 0.01): 3.47104999978805,
    (0.0, 0.1): 1.1091690605248603,
    (0.0, 0.05): 1.6654539248214182,
    (0.0, 0.01): 3.2115861226829514,
    (B_REF, 0.1): 1.0307350582994133,
    (B_REF, 0.05): 1.5478168311176763,
    (B_REF, 0.01): 2.9731433818835673,
}
CVAR_ORACLE = {
    (-B_REF, 0.1): 2.1515109141688704,
    (-B_REF, 0.05): 2.851267929800513,
    (-B_REF, 0.01): 4.710143941380155,
    (0.0, 0.1): 1.9949642866883066,
    (0.0, 0.05): 2.6404437439796085,
    (0.0, 0.01): 4.348433943400644,
    (B_REF, 0.1): 1.8504228793720525,
    (B_REF, 0.05): 2.446379923746139,
    (B_REF, 0.01): 4.016577313704091,
}

# portfolio-level values for the five-stock location model, same oracle
PORTFOLIO_ORACLE = {
    ((0.1, 0.4, 0.2, 0.1, 0.2), "var", 0.1): 0.023742180808445857,
    ((0.1, 0.4, 0.2, 0.1, 0.2), "cvar", 0.05): 0.05782782894453203,
    ((0.3, 0.1, 0.3, 0.1, 0.2), "var", 0.05): 0.04038216216917153,
    ((0.3, 0.1, 0.3, 0.1, 0.2), "cvar", 0.01): 0.10602158628275152,
}


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestDensityYa:
    def test_degenerate_is_standard_normal(self):
        law = YaLaw(0.0, Degenerate())
        for y in (-1.3, 0.0, 2.1):
            assert density_ya(law, y) == pytest.approx(
                math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_closed_form_matches_quadrature(self):
        assert density_ya(YaLaw(0.02, MIXING_REF), 0.01) == \
            pytest.approx(0.6171540268381732, rel=1e-12)
        # one law two ways: IG(d, g) = GIG(-1/2, d^2, g^2), by quadrature
        # and by the closed form
        for d, g in ((0.5, 0.8), (1.0, 1.0), (2.0, 3.0)):
            for a, y in ((-0.3, -1.2), (0.0, 0.4), (0.7, 2.5)):
                quad = density_ya(YaLaw(a, InverseGaussian(d, g)), y)
                closed = density_ya(YaLaw(a, Gig(-0.5, d * d, g * g)), y)
                assert quad == pytest.approx(closed, rel=1e-9)

    def test_normalizes(self):
        law = YaLaw(B_REF, MIXING_REF)
        spec = nr.QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10,
                                 max_subdivisions=400)
        total = 0.0
        # integrate the two half-lines through the bounded substitution
        total += nr.integrate_semi_infinite(
            lambda u: np.array([density_ya(law, v) for v in u]), spec)
        total += nr.integrate_semi_infinite(
            lambda u: np.array([density_ya(law, -v) for v in u]), spec)
        assert total == pytest.approx(1.0, abs=1e-7)


class TestVarYa:
    def test_degenerate_normal_quantile(self):
        law = YaLaw(0.0, Degenerate())
        assert var_ya(law, 0.05) == pytest.approx(1.6448536269514722,
                                                  abs=1e-10)

    def test_symmetric_median_is_zero(self):
        assert var_ya(YaLaw(0.0, MIXING_REF), 0.5) == pytest.approx(0.0,
                                                                    abs=1e-10)

    @pytest.mark.parametrize("key", sorted(VAR_ORACLE))
    def test_oracle_values(self, key):
        a, beta = key
        assert var_ya(YaLaw(a, MIXING_REF), beta) == pytest.approx(
            VAR_ORACLE[key], abs=1e-9)

    @pytest.mark.parametrize("a,beta", [(B_REF, 0.05), (-B_REF, 0.01),
                                        (0.02, 0.1)])
    def test_quantile_consistency(self, a, beta):
        law = YaLaw(a, MIXING_REF)
        y = var_ya(law, beta)
        assert cdf_ya(law, -y) == pytest.approx(beta, abs=1e-8)

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            var_ya(YaLaw(0.0, MIXING_REF), 1.5)

    @pytest.mark.parametrize("mixing", [Gamma(0.3, 5.0), Gamma(0.5, 0.5),
                                        Gig(0.2, 0.0, 1.0)])
    def test_median_where_density_is_unbounded(self, location_model, mixing):
        # E[Z^-1/2] is infinite, so the density of Y_0 is infinite at its
        # median 0; symmetry gives that median without a solve, and the
        # CVaR pass there drops the density
        shape, rate = (mixing.shape, mixing.rate) if isinstance(
            mixing, Gamma) else (mixing.lam, 0.5 * mixing.psi)
        mean_sqrt = math.exp(math.lgamma(shape + 0.5)
                             - math.lgamma(shape)) / math.sqrt(rate)
        law = YaLaw(0.0, mixing)
        assert var_ya(law, 0.5) == 0.0
        assert cvar_ya(law, 0.5) == pytest.approx(
            mean_sqrt * math.sqrt(2.0 / math.pi), rel=1e-9)
        tm = transform(nr.NmvmModel(mu=location_model.mu, gamma=np.zeros(5),
                                    sigma=location_model.sigma,
                                    mixing=mixing))
        x = tm.x_from_weights(np.ones(5) / 5.0)
        for measure in ("var", "cvar"):
            result = portfolio_risk_exact(tm, x, measure, 0.5)
            assert result.diagnostics["quadrature_evaluations"] <= 2

    def test_start_where_cdf_and_density_underflow(self):
        # the normal start lies ~186 below the mean of this right-skewed
        # law, where both integrands underflow to 0 and give no slope
        law = YaLaw(3.0, Gig(-0.5, 20.0, 0.05))
        y = var_ya(law, 1e-3)
        assert y == pytest.approx(-3.7989201291818504, abs=1e-9)
        assert cdf_ya(law, -y) == pytest.approx(1e-3, rel=1e-8)

    @pytest.mark.parametrize("model", ["tm_location", "tm_skew"])
    @pytest.mark.parametrize("beta", [0.1, 0.05, 0.01])
    def test_newton_passes_per_solve(self, request, model, beta):
        # from the normal start at c = scale(), Newton needs 4-6 passes
        # here
        tm = request.getfixturevalue(model)
        b = tm.gamma0_norm
        for ratio in (-1.0, -0.6, -0.3, 0.0, 0.4, 0.8, 1.0):
            _, passes, _ = riskmod._solve(YaLaw(ratio * b, tm.mixing),
                                          "var", beta)
            assert passes <= 7

    @pytest.mark.parametrize("mixing", [Gamma(0.3, 5.0), Gamma(0.5, 0.5),
                                        Gig(0.2, 0.0, 1.0)],
                             ids=["gamma-0.3", "gamma-0.5", "gig-gamma"])
    def test_cusp_passes(self, mixing):
        # f_0 is unbounded at 0, so the median of Y_a near a = 0 gets no
        # usable slope and is bisected; no pass probes the wrong side
        _, passes, _ = riskmod._solve(YaLaw(1e-300, mixing), "var", 0.5)
        assert passes <= 42

    @pytest.mark.parametrize("mixing", [MIXING_REF, InverseGaussian(1.0, 1.0),
                                        Degenerate()],
                             ids=["gig", "ig", "degenerate"])
    def test_cdf_and_density_share_one_pass(self, monkeypatch, mixing):
        law, beta = YaLaw(0.3, mixing), 0.1
        cdf, density = cdf_ya(law, -1.2), density_ya(law, -1.2)
        objectives, passes = [], []
        orig_root, orig_expect = riskmod.find_root, type(mixing).expect

        def captured(f, x0, step):
            objectives.append(f)
            return orig_root(f, x0, step)

        def counted(self, f, spec=None, partition=None):
            passes.append(f)
            return orig_expect(self, f, spec, partition)

        monkeypatch.setattr(riskmod, "find_root", captured)
        monkeypatch.setattr(type(mixing), "expect", counted)
        _, steps, _ = riskmod._solve(law, "var", beta)
        assert len(passes) == steps
        passes.clear()
        value, slope = objectives[0](1.2)
        assert len(passes) == 1
        assert (value, slope) == pytest.approx((beta - cdf, density),
                                               rel=1e-8, abs=1e-10)

    def test_state_root_is_the_first_abscissa(self, monkeypatch):
        law, beta = YaLaw(0.3, MIXING_REF), 0.05
        var = var_ya(law, beta)
        abscissae = []
        orig = riskmod.find_root

        def recorded(f, x0, step):
            def g(y):
                abscissae.append(y)
                return f(y)
            return orig(g, x0, step)

        monkeypatch.setattr(riskmod, "find_root", recorded)
        state = riskmod._SolveState(root=var + 0.25)
        value, passes, _ = riskmod._solve(law, "var", beta, state=state)
        assert abscissae[0] == var + 0.25
        assert passes == len(abscissae) == state.passes
        assert state.root == value == pytest.approx(var, abs=1e-10)
        # a state without a root starts, like no state, at the normal
        # quantile
        c = MIXING_REF.scale()
        start = -(0.3 * c + math.sqrt(c + 0.09 * c * c)
                  * normal_quantile(beta))
        for state in (riskmod._SolveState(), None):
            abscissae.clear()
            riskmod._solve(law, "var", beta, state=state)
            assert abscissae[0] == start

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_a(self, tm_location, a):
        law = YaLaw(a, MIXING_REF)
        for solve in (lambda: var_ya(law, 0.05), lambda: cvar_ya(law, 0.05),
                      lambda: risk_ya(law, "cvar", 0.05),
                      lambda: h(tm_location, a, "var", 0.05)):
            with pytest.raises(ValueError, match="a must be finite"):
                solve()


class TestCvarYa:
    def test_degenerate_closed_form(self):
        law = YaLaw(0.0, Degenerate())
        q = normal_quantile(0.05)
        expected = math.exp(-0.5 * q * q) / (0.05 * math.sqrt(2.0 * math.pi))
        assert cvar_ya(law, 0.05) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(2.0627128075074257, rel=1e-12)

    def test_dominates_var(self):
        law = YaLaw(0.04, MIXING_REF)
        assert cvar_ya(law, 0.1) >= var_ya(law, 0.1)

    @pytest.mark.parametrize("key", sorted(CVAR_ORACLE))
    def test_oracle_values(self, key):
        a, beta = key
        assert cvar_ya(YaLaw(a, MIXING_REF), beta) == pytest.approx(
            CVAR_ORACLE[key], abs=1e-9)


class TestH:
    def test_monotone_pair(self, tm_location):
        assert h(tm_location, 0.03, "cvar", 0.05) <= \
            h(tm_location, -0.03, "cvar", 0.05)

    def test_midpoint_convexity(self, tm_location):
        b = tm_location.gamma0_norm
        mid = h(tm_location, 0.0, "cvar", 0.05)
        chord = 0.5 * (h(tm_location, -b, "cvar", 0.05)
                       + h(tm_location, b, "cvar", 0.05))
        assert mid <= chord + 1e-10

    def test_degenerate_var(self, location_model):
        model = nr.NmvmModel(mu=location_model.mu, gamma=location_model.gamma,
                             sigma=location_model.sigma, mixing=Degenerate())
        tm = transform(model)
        assert h(tm, 0.0, "var", 0.05) == pytest.approx(1.6448536269514722,
                                                        abs=1e-10)

    def test_memoized(self, tm_location, monkeypatch):
        calls = {"n": 0}
        original = riskmod.var_ya

        def counting(law, beta):
            calls["n"] += 1
            return original(law, beta)

        monkeypatch.setattr(riskmod, "var_ya", counting)
        h(tm_location, 0.01, "var", 0.1)
        h(tm_location, 0.01, "var", 0.1)
        assert calls["n"] == 1

    def test_memo_is_bounded(self):
        memo = riskmod._scalar_risk
        maxsize = memo.cache_info().maxsize
        for i in range(maxsize + 10):
            memo(Degenerate(), i * 1e-4, 0.1)
        assert memo.cache_info().currsize <= maxsize


class TestPortfolioRiskExact:
    @pytest.mark.parametrize("key", sorted(PORTFOLIO_ORACLE))
    def test_oracle_values(self, key, tm_location):
        weights, measure, beta = key
        x = tm_location.x_from_weights(np.array(weights))
        result = portfolio_risk_exact(tm_location, x, measure, beta)
        assert result.value == pytest.approx(PORTFOLIO_ORACLE[key], abs=1e-9)

    def test_matches_univariate_projection(self, location_model, tm_location):
        # the x-space reduction and the direct projection describe one law
        omega = np.array([0.15, 0.3, 0.2, 0.15, 0.2])
        um = project(location_model, omega)
        x = tm_location.x_from_weights(omega)
        for measure, beta in (("var", 0.05), ("cvar", 0.1)):
            via_x = portfolio_risk_exact(tm_location, x, measure, beta).value
            a = um.skew_coef / um.scale
            direct = -um.loc + um.scale * risk_ya(YaLaw(a, um.mixing),
                                                  measure, beta)
            assert via_x == pytest.approx(direct, abs=1e-9)

    def test_elliptical_reduction(self, location_model):
        model = nr.NmvmModel(mu=location_model.mu,
                             gamma=np.zeros(5),
                             sigma=location_model.sigma,
                             mixing=location_model.mixing)
        tm = transform(model)
        omega = np.ones(5) / 5.0
        x = tm.x_from_weights(omega)
        got = portfolio_risk_exact(tm, x, "cvar", 0.05).value
        scalar = risk_ya(YaLaw(0.0, model.mixing), "cvar", 0.05)
        expected = -float(x @ tm.mu0) + float(np.linalg.norm(x)) * scalar
        assert got == pytest.approx(expected, abs=1e-12)

    def test_factorization_invariance(self, location_model):
        omega = np.array([0.1, 0.4, 0.2, 0.1, 0.2])
        values = []
        for method in ("symmetric_sqrt", "cholesky"):
            tm = transform(location_model, method)
            x = tm.x_from_weights(omega)
            values.append(portfolio_risk_exact(tm, x, "cvar", 0.05).value)
        assert values[0] == pytest.approx(values[1], abs=1e-9)

    def test_cash_invariance(self, location_model):
        shift = 0.013
        shifted = nr.NmvmModel(mu=location_model.mu + shift,
                               gamma=location_model.gamma,
                               sigma=location_model.sigma,
                               mixing=location_model.mixing)
        omega = np.array([0.1, 0.4, 0.2, 0.1, 0.2])
        for measure in ("var", "cvar"):
            base = portfolio_risk_exact(
                transform(location_model),
                transform(location_model).x_from_weights(omega),
                measure, 0.05).value
            moved = portfolio_risk_exact(
                transform(shifted), transform(shifted).x_from_weights(omega),
                measure, 0.05).value
            assert moved == pytest.approx(base - shift * omega.sum(),
                                          abs=1e-10)

    @pytest.mark.parametrize("measure", ["var", "cvar"])
    @pytest.mark.parametrize("beta", [0.1, 0.05, 0.01])
    def test_each_abscissa_evaluated_once(self, tm_location, monkeypatch,
                                          measure, beta):
        # each Newton step is one pass at a new abscissa, and the CVaR is
        # read from the last of them, so it costs no pass of its own
        abscissae = []
        orig = riskmod.find_root

        def recorded(f, x0, step):
            def g(y):
                abscissae.append(y)
                return f(y)
            return orig(g, x0, step)

        monkeypatch.setattr(riskmod, "find_root", recorded)
        x = tm_location.x_from_weights(np.array([0.1, 0.4, 0.2, 0.1, 0.2]))
        result = portfolio_risk_exact(tm_location, x, measure, beta)
        assert len(abscissae) == len(set(abscissae))
        assert result.diagnostics["quadrature_evaluations"] == len(abscissae)
        monkeypatch.undo()
        law = YaLaw(result.diagnostics["a"], tm_location.mixing)
        assert len(abscissae) == riskmod._solve(law, "var", beta)[1]

    def test_positive_homogeneity(self, tm_location):
        x = tm_location.x_from_weights(np.array([0.1, 0.4, 0.2, 0.1, 0.2]))
        single = portfolio_risk_exact(tm_location, x, "cvar", 0.05)
        doubled = portfolio_risk_exact(tm_location, 2.0 * x, "cvar", 0.05)
        expected = (-2.0 * float(x @ tm_location.mu0)
                    + 2.0 * float(np.linalg.norm(x))
                    * single.diagnostics["scalar_risk"])
        assert doubled.value == pytest.approx(expected, abs=1e-10)
        assert doubled.diagnostics["a"] == pytest.approx(
            single.diagnostics["a"], abs=1e-14)


PRICERS = {
    "exact": portfolio_risk_exact,
    "two_point": portfolio_risk_two_point,
    "piecewise": lambda tm, x, measure, beta: portfolio_risk_piecewise(
        tm, x, measure, beta,
        np.linspace(-tm.gamma0_norm, tm.gamma0_norm, 5), "linear"),
}
X_GOOD = np.array([0.1, 0.4, 0.2, 0.1, 0.2])


@pytest.mark.parametrize("pricer", PRICERS.values(), ids=list(PRICERS))
@pytest.mark.parametrize("x, measure, beta", [
    (np.zeros(5), "cvar", 0.05),
    (np.array([np.nan, 0.4, 0.2, 0.1, 0.2]), "cvar", 0.05),
    (np.array([np.inf, 0.4, 0.2, 0.1, 0.2]), "var", 0.05),
    (X_GOOD, "es", 0.05),
    (X_GOOD, "var", 0.0),
    (X_GOOD, "cvar", 1.0),
], ids=["zero_x", "nan_x", "inf_x", "measure_es", "beta_0", "beta_1"])
def test_pricers_share_checked_preamble(tm_location, pricer, x, measure,
                                        beta):
    with pytest.raises(ValueError):
        pricer(tm_location, x, measure, beta)


class TestTwoPoint:
    def test_coefficient_identities(self, tm_location):
        coeffs = two_point_coefficients(tm_location, 0.1)
        b = coeffs.b
        assert coeffs.w_plus + coeffs.w_minus == pytest.approx(
            var_ya(YaLaw(b, tm_location.mixing), 0.1), abs=1e-10)
        assert coeffs.w_plus - coeffs.w_minus == pytest.approx(
            var_ya(YaLaw(-b, tm_location.mixing), 0.1), abs=1e-10)
        assert coeffs.w_minus <= 0.0
        assert coeffs.v_minus <= 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exact_at_endpoints(self, tm_location, sign):
        x = sign * tm_location.gamma0
        for measure in ("var", "cvar"):
            exact = portfolio_risk_exact(tm_location, x, measure, 0.05).value
            approx = portfolio_risk_two_point(tm_location, x, measure,
                                              0.05).value
            assert approx == pytest.approx(exact, abs=1e-9)

    def test_cached_once(self, tm_location, monkeypatch):
        calls = {"var": 0, "cvar": 0}
        cvar_passes = []
        orig_var, orig_solve = riskmod.var_ya, riskmod._solve

        def count_var(law, beta):
            calls["var"] += 1
            return orig_var(law, beta)

        def count_solve(law, measure, beta, slope=False, state=None):
            value, passes, d_value = orig_solve(law, measure, beta, slope,
                                                state)
            if measure == "cvar":
                calls["cvar"] += 1
                cvar_passes.append(passes)
            return value, passes, d_value

        monkeypatch.setattr(riskmod, "var_ya", count_var)
        monkeypatch.setattr(riskmod, "_solve", count_solve)
        x = tm_location.x_from_weights(np.array([0.1, 0.4, 0.2, 0.1, 0.2]))
        portfolio_risk_two_point(tm_location, x, "var", 0.1)
        portfolio_risk_two_point(tm_location, x, "cvar", 0.1)
        # one VaR solve per endpoint law, whose memo entry also holds the
        # CVaR read from one pass started at that VaR
        assert calls == {"var": 2, "cvar": 2}
        assert cvar_passes == [1, 1]
        first_pass = dict(calls)
        for _ in range(3):
            portfolio_risk_two_point(tm_location, x, "var", 0.1)
            portfolio_risk_two_point(tm_location, x, "cvar", 0.1)
        assert calls == first_pass

    def test_elliptical_route_when_gamma_zero(self, location_model):
        model = nr.NmvmModel(mu=location_model.mu, gamma=np.zeros(5),
                             sigma=location_model.sigma,
                             mixing=location_model.mixing)
        tm = transform(model)
        x = tm.x_from_weights(np.ones(5) / 5.0)
        exact = portfolio_risk_exact(tm, x, "cvar", 0.05).value
        approx = portfolio_risk_two_point(tm, x, "cvar", 0.05).value
        assert approx == pytest.approx(exact, abs=1e-8)

    def test_coefficients_flat_without_skew(self, location_model):
        # at b = 0 both chord ends are Y_0, one memo entry
        model = nr.NmvmModel(mu=location_model.mu, gamma=np.zeros(5),
                             sigma=location_model.sigma,
                             mixing=location_model.mixing)
        tm = transform(model)
        coeffs = two_point_coefficients(tm, 0.1)
        assert (coeffs.w_plus, coeffs.w_minus, coeffs.v_plus,
                coeffs.v_minus, coeffs.b) == (
            h(tm, 0.0, "var", 0.1), 0.0, h(tm, 0.0, "cvar", 0.1), 0.0, 0.0)


class TestPiecewise:
    def test_two_knot_linear_equals_two_point(self, tm_location):
        b = tm_location.gamma0_norm
        x = tm_location.x_from_weights(np.array([0.1, 0.4, 0.2, 0.1, 0.2]))
        linear = portfolio_risk_piecewise(tm_location, x, "cvar", 0.05,
                                          [-b, b])
        chord = portfolio_risk_two_point(tm_location, x, "cvar", 0.05)
        assert linear.value == pytest.approx(chord.value, abs=1e-12)

    def test_degenerate_mixing_any_partition_exact(self, location_model):
        # the point mass makes a -> risk(Y_a) affine, so linear interpolation
        # is exact on every partition
        model = nr.NmvmModel(mu=location_model.mu, gamma=location_model.gamma,
                             sigma=location_model.sigma, mixing=Degenerate())
        tm = transform(model)
        b = tm.gamma0_norm
        x = tm.x_from_weights(np.array([0.1, 0.4, 0.2, 0.1, 0.2]))
        exact = portfolio_risk_exact(tm, x, "var", 0.05).value
        for knots in ([-b, b], np.linspace(-b, b, 5)):
            approx = portfolio_risk_piecewise(tm, x, "var", 0.05, knots)
            assert approx.value == pytest.approx(exact, abs=1e-10)

    def test_refined_linear_beats_two_point(self, tm_location):
        b = tm_location.gamma0_norm
        knots = np.linspace(-b, b, 41)
        rng = np.random.default_rng(99)
        worse = 0
        for _ in range(100):
            omega = rng.dirichlet(np.ones(5))
            x = tm_location.x_from_weights(omega)
            exact = portfolio_risk_exact(tm_location, x, "var", 0.05).value
            fine = portfolio_risk_piecewise(tm_location, x, "var", 0.05,
                                            knots).value
            chord = portfolio_risk_two_point(tm_location, x, "var",
                                             0.05).value
            if abs(fine - exact) > abs(chord - exact) + 1e-12:
                worse += 1
        assert worse == 0

    def test_linear_is_the_only_rule(self, tm_location):
        b = tm_location.gamma0_norm
        knots = np.linspace(-b, b, 5)
        x = tm_location.x_from_weights(np.array([0.1, 0.4, 0.2, 0.1, 0.2]))
        default = portfolio_risk_piecewise(tm_location, x, "var", 0.05, knots)
        linear = portfolio_risk_piecewise(tm_location, x, "var", 0.05, knots,
                                          interpolation="linear")
        assert default.value == linear.value
        assert default.diagnostics["interpolation"] == "linear"
        values = [h(tm_location, k, "var", 0.05) for k in knots]
        tail = np.interp(b * tm_location.cos_angle(x), knots, values)
        loc = -float(x @ tm_location.mu0)
        assert default.value == loc + float(np.linalg.norm(x)) * float(tail)
        with pytest.raises(ValueError, match="interpolation"):
            portfolio_risk_piecewise(tm_location, x, "var", 0.05, knots,
                                     interpolation="step")

    def test_partition_validation(self, tm_location):
        b = tm_location.gamma0_norm
        x = tm_location.x_from_weights(np.array([0.1, 0.4, 0.2, 0.1, 0.2]))
        with pytest.raises(ValueError):
            portfolio_risk_piecewise(tm_location, x, "var", 0.05, [-b])
        with pytest.raises(ValueError):
            portfolio_risk_piecewise(tm_location, x, "var", 0.05,
                                     [-b / 2, b / 2])
        with pytest.raises(ValueError):
            portfolio_risk_piecewise(tm_location, x, "var", 0.05, [b, -b])
        # every comparison with nan is false, so only a finiteness check
        # keeps a nan knot out
        with pytest.raises(ValueError, match="partition must be .* finite"):
            portfolio_risk_piecewise(tm_location, x, "var", 0.05,
                                     [-b, math.nan, b])


class TestRockafellar:
    def test_degenerate_consistency(self):
        um = UnivariateMixture(loc=0.002, skew_coef=0.0, scale=0.03,
                               mixing=Degenerate())
        # loss-level 0.95 equals the return-side tail at 0.05
        expected = -um.loc + um.scale * 2.0627128075074257
        assert cvar_via_F(um, 0.95) == pytest.approx(expected, abs=1e-8)

    def test_convex_in_alpha(self, location_model):
        um = project(location_model, np.ones(5) / 5.0)
        alphas = np.linspace(-0.05, 0.08, 5)
        for alpha_lo, alpha_hi in zip(alphas[:-1], alphas[1:]):
            mid = 0.5 * (alpha_lo + alpha_hi)
            chord = 0.5 * (rockafellar_F(um, alpha_lo, 0.95)
                           + rockafellar_F(um, alpha_hi, 0.95))
            assert rockafellar_F(um, mid, 0.95) <= chord + 1e-12

    def test_matches_tail_integral(self, location_model):
        um = project(location_model, np.ones(5) / 5.0)
        a = um.skew_coef / um.scale
        tail = -um.loc + um.scale * cvar_ya(YaLaw(a, um.mixing), 0.05)
        assert cvar_via_F(um, 0.95) == pytest.approx(tail, abs=1e-5)

    @pytest.mark.parametrize("dof", [3.0, 4.0, 5.0])
    @pytest.mark.parametrize("beta", [0.05, 0.01])
    def test_student_t_expected_shortfall(self, dof, beta):
        # Z ~ GIG(-dof/2, dof, 0) lacks E[Z^3], so the bracket is placed by
        # scale(); sqrt(Z) N is Student t
        um = UnivariateMixture(loc=0.0, skew_coef=0.0, scale=1.0,
                               mixing=Gig(-dof / 2.0, dof, 0.0))
        q = stats.t.ppf(1.0 - beta, dof)
        shortfall = stats.t.pdf(q, dof) / beta * (dof + q * q) / (dof - 1.0)
        assert cvar_via_F(um, 1.0 - beta) == pytest.approx(shortfall,
                                                            rel=1e-9)

    @pytest.mark.parametrize("beta", [0.995, 0.999])
    def test_bracket_widens_to_a_far_minimizer(self, beta):
        # pure skew on a law with sd(Z) 11.3 and EZ = scale() = 2: the loss
        # VaR (~67 at beta 0.995) lies beyond the first bracket's end (~50)
        law = InverseGaussian(0.25, 0.125)
        um = UnivariateMixture(loc=0.0, skew_coef=-1.0, scale=1e-3,
                               mixing=law)
        tail = um.scale * cvar_ya(YaLaw(-1.0 / um.scale, law), 1.0 - beta)
        assert cvar_via_F(um, beta) == pytest.approx(tail, rel=1e-9)

    def test_minimizer_at_a_bracket_end_raises(self, monkeypatch):
        # a bracket centred 1e6 sd below the minimizer: ten doublings of its
        # width 12 sd reach ~2.5e4 sd, and end short of it
        monkeypatch.setattr(riskmod, "normal_quantile", lambda p: 1e6)
        um = UnivariateMixture(loc=0.0, skew_coef=0.0, scale=1.0,
                               mixing=Gamma(2.0, 2.0))
        with pytest.raises(ArithmeticError, match="end of its bracket"):
            cvar_via_F(um, 0.95)


class TestMonteCarlo:
    def test_degenerate_oracle(self):
        um = UnivariateMixture(loc=0.0, skew_coef=0.0, scale=1.0,
                               mixing=Degenerate())
        result = mc_risk(um, "var", 0.05, 1_000_000,
                         np.random.default_rng(5))
        se = result.diagnostics["se"]
        assert abs(result.value - 1.6448536269514722) <= 3.0 * se

    def test_reproducible(self, location_model):
        um = project(location_model, np.ones(5) / 5.0)
        r1 = mc_risk(um, "cvar", 0.05, 100_000, np.random.default_rng(17))
        r2 = mc_risk(um, "cvar", 0.05, 100_000, np.random.default_rng(17))
        assert r1.value == r2.value

    def test_minimum_sample_size(self, location_model):
        um = project(location_model, np.ones(5) / 5.0)
        with pytest.raises(ValueError):
            mc_risk(um, "var", 0.05, 5_000, np.random.default_rng(0))


@given(a=st.floats(-0.5, 0.5), beta=st.floats(0.02, 0.4))
@settings(max_examples=60, deadline=None)
def test_degenerate_var_closed_form_property(a, beta):
    law = YaLaw(a, Degenerate())
    assert var_ya(law, beta) == pytest.approx(-a - normal_quantile(beta),
                                              abs=1e-9)
    assert cvar_ya(law, beta) >= var_ya(law, beta) - 1e-12


@given(law=st.one_of(
    st.builds(Gig, st.floats(-3.0, 3.0), st.floats(0.1, 5.0),
              st.floats(0.1, 5.0)),
    st.builds(lambda lam, psi: Gig(lam, 0.0, psi), st.floats(0.3, 5.0),
              st.floats(0.1, 5.0)),
    st.builds(lambda lam, chi: Gig(-lam, chi, 0.0), st.floats(3.2, 8.0),
              st.floats(0.1, 5.0)),
    st.builds(Gamma, st.floats(0.3, 5.0), st.floats(0.1, 5.0)),
    st.builds(InverseGaussian, st.floats(0.1, 5.0), st.floats(0.1, 5.0))),
    ratio=st.floats(-1.0, 1.0), beta=st.floats(1e-3, 0.5))
# EZ 4.9: its CVaR missed by 8e-8 relative while the quadrature map's unit
# was fixed at s = 1 rather than at the law's scale
@example(law=Gamma(0.5, 0.1015625), ratio=0.5, beta=0.5)
@settings(max_examples=100, deadline=None)
def test_var_solves_the_quantile_equation(law, ratio, beta):
    # a in [-b, b] with b = 1; the CDF is checked by the scalar quadrature,
    # and the CVaR by the tail integral at the solved VaR, not by the pass
    # the solve used
    ya = YaLaw(ratio, law)
    y = var_ya(ya, beta)
    assert cdf_ya(ya, -y) == pytest.approx(beta, abs=1e-8)
    tail = law.expect(
        lambda s: (ratio * s * ndtr((-y - ratio * s) / np.sqrt(s))
                   - np.sqrt(s / (2.0 * math.pi))
                   * np.exp(-0.5 * (y + ratio * s) ** 2 / s)),
        QuadratureSpec(1e-12, 1e-10, 400))
    assert cvar_ya(ya, beta) == pytest.approx(-tail / beta, rel=1e-8,
                                              abs=1e-10)


@given(law=st.one_of(
    st.builds(Gig, st.floats(-3.0, 3.0), st.floats(0.1, 5.0),
              st.floats(0.1, 5.0)),
    st.builds(Gamma, st.floats(0.3, 5.0), st.floats(0.1, 5.0))),
    log10_c=st.floats(-3.0, 3.0), a=st.floats(-1.0, 1.0),
    beta=st.sampled_from([0.05, 0.01]))
@settings(max_examples=100, deadline=None)
def test_var_scale_invariance(law, log10_c, a, beta):
    # a c Z + sqrt(c Z) N = sqrt(c) Y_{a sqrt(c)}, so the VaR of Y_a under
    # cZ is sqrt(c) times the VaR of Y_{a sqrt(c)} under Z
    c = 10.0 ** log10_c
    if isinstance(law, Gamma):
        scaled = Gamma(law.shape, law.rate / c)
    else:
        scaled = Gig(law.lam, c * law.chi, law.psi / c)
    root_c = math.sqrt(c)
    assert var_ya(YaLaw(a, scaled), beta) == pytest.approx(
        root_c * var_ya(YaLaw(a * root_c, law), beta), rel=1e-8,
        abs=1e-9 * root_c)


def test_cdf_of_a_large_scale_law():
    # EZ 98.6: with the quadrature map's unit fixed at s = 1 every s > 7 fell
    # in one seed panel, and the CDF came out as 1.3e-10
    from scipy.integrate import quad
    law = YaLaw(-2.739054290056232, Gig(1.6492587191158945,
                                        0.01797193192351061,
                                        0.033457956821658766))
    y = -964.6602224778505

    def integrand(s):
        return ndtr((y - law.a * s) / math.sqrt(s)) * law.mixing.density(s)

    reference = sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12,
                         limit=500)[0]
                    for lo, hi in ((0.0, 100.0), (100.0, 1000.0),
                                   (1000.0, math.inf)))
    assert reference == pytest.approx(0.010772, rel=1e-4)
    assert cdf_ya(law, y) == pytest.approx(reference, rel=1e-8)
    assert cdf_ya(law, -var_ya(law, 0.01)) == pytest.approx(0.01, rel=1e-8)


@given(law=st.one_of(
    st.builds(Gig, st.floats(-3.0, 3.0), st.floats(0.1, 5.0),
              st.floats(0.1, 5.0)),
    st.builds(Gamma, st.floats(0.3, 5.0), st.floats(0.1, 5.0)),
    st.builds(InverseGaussian, st.floats(0.1, 5.0), st.floats(0.1, 5.0))),
    a=st.floats(-1.0, 1.0), beta=st.sampled_from([0.1, 0.05, 0.01]),
    measure=st.sampled_from(["var", "cvar"]))
@settings(max_examples=100, deadline=None)
def test_slope_matches_central_difference(law, a, beta, measure):
    # the slope row takes a pass of its own after the solve's, so the value
    # is risk_ya's bit for bit
    value, slope = risk_ya_and_slope(YaLaw(a, law), measure, beta)
    assert value == risk_ya(YaLaw(a, law), measure, beta)
    step = 1e-5
    central = (risk_ya(YaLaw(a + step, law), measure, beta)
               - risk_ya(YaLaw(a - step, law), measure, beta)) / (2.0 * step)
    assert slope == pytest.approx(central, rel=1e-6)


def test_var_where_the_law_lacks_its_third_moment():
    # Student t with 5 dof: E[Z^3] is infinite, so the Newton start takes
    # the law's scale for EZ; it raised MomentError when it needed moments()
    law = YaLaw(0.3, Gig(-2.5, 3.0, 0.0))
    y = var_ya(law, 0.05)
    assert y == pytest.approx(1.199003026, rel=1e-9)
    assert cdf_ya(law, -y) == pytest.approx(0.05, abs=1e-10)
    assert cvar_ya(law, 0.05) > y


@given(dof=st.floats(2.5, 10.0), log_chi=st.floats(-3.0, 3.0),
       beta=st.sampled_from([0.05, 0.01, 0.001]))
@settings(max_examples=60, deadline=None)
def test_student_t_var_and_cvar_property(dof, log_chi, beta):
    # Z ~ GIG(-dof/2, chi, 0) makes sqrt(Z) N a Student t with dof degrees
    # of freedom scaled by sqrt(chi/dof); below 6 dof E[Z^3] is infinite
    chi = math.exp(log_chi)
    law = YaLaw(0.0, Gig(-dof / 2.0, chi, 0.0))
    unit = math.sqrt(chi / dof)
    q = stats.t.ppf(1.0 - beta, dof)
    shortfall = stats.t.pdf(q, dof) / beta * (dof + q * q) / (dof - 1.0)
    var, passes, _ = riskmod._solve(law, "var", beta)
    assert var == pytest.approx(unit * q, rel=1e-8)
    assert passes <= 12
    assert cvar_ya(law, beta) == pytest.approx(unit * shortfall, rel=1e-8)


def _student_t_cvar(dof: float, beta: float) -> float:
    """CVaR at level beta of a unit Student t with dof degrees of freedom."""
    q = stats.t.ppf(1.0 - beta, dof)
    return stats.t.pdf(q, dof) / beta * (dof + q * q) / (dof - 1.0)


def test_cvar_at_two_dof():
    # Student t with 2 dof, Z ~ GIG(-1, 2, 0): at beta 0.001 a node of the
    # last panel rounds to t = 1, where s = t/(1-t) was inf; the map clips
    # 1 - t at epsneg. The error, 1.3e-7 relative, is ~13x the quadrature's
    # nominal bound, and the quadrature warns that it may be
    law = YaLaw(0.0, Gig(-1.0, 2.0, 0.0))
    with pytest.warns(QuadratureWarning, match="clipped"):
        cvar = cvar_ya(law, 0.001)
    assert cvar == pytest.approx(_student_t_cvar(2.0, 0.001), rel=1e-6)


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="for 1 < dof < 2 the tail integrand in t is "
                   "singular at t = 1: the adaptive splits do not converge "
                   "within 200 subdivisions")
def test_cvar_below_two_dof():
    # Student t with 1.5 dof, Z ~ GIG(-0.75, 1.5, 0): the CVaR is finite
    law = YaLaw(0.0, Gig(-0.75, 1.5, 0.0))
    assert cvar_ya(law, 0.05) == pytest.approx(_student_t_cvar(1.5, 0.05),
                                               rel=1e-6)


@given(law=st.one_of(
    st.builds(Gig, st.floats(-3.0, 3.0), st.floats(0.1, 5.0),
              st.floats(0.1, 5.0)),
    st.builds(lambda lam, psi: Gig(lam, 0.0, psi), st.floats(0.3, 5.0),
              st.floats(0.1, 5.0)),
    st.builds(lambda lam, chi: Gig(-lam, chi, 0.0), st.floats(3.2, 8.0),
              st.floats(0.1, 5.0)),
    st.builds(Gamma, st.floats(0.3, 5.0), st.floats(0.1, 5.0)),
    st.builds(InverseGaussian, st.floats(0.1, 5.0), st.floats(0.1, 5.0))),
    a=st.floats(-10.0, 10.0),
    beta=st.floats(math.log(1e-6), math.log(0.5)).map(math.exp))
@settings(max_examples=60, deadline=None)
def test_var_at_extreme_levels_and_skews(law, a, beta):
    # levels down to 1e-6 and |a| up to 10: the solved VaR meets the quantile
    # equation to twice the quadrature tolerance, by a tighter reference
    ya = YaLaw(a, law)
    y = var_ya(ya, beta)
    cdf = law.expect(lambda s: ndtr((-y - a * s) / np.sqrt(s)),
                     QuadratureSpec(1e-14, 1e-12, 400))
    assert abs(cdf - beta) <= 2.0 * (1e-10 + 1e-8 * beta)
    assert cvar_ya(ya, beta) >= y


@pytest.mark.xfail(strict=True, reason="the quadrature misses the CDF's mass "
                   "beyond s ~ y: every node of the last seed panels sees "
                   "almost none of it, so the Kronrod-Gauss gap is tiny")
def test_var_at_a_far_tail_level_of_a_wide_law():
    # EZ 2, Var Z 128: at beta 1.4e-6 and a = -1 the left tail of Y_a lives
    # at Z ~ 741, which falls between two nodes of the last seed panel; the
    # quadrature then gives F(-y) ~ 1e-11 for every y >= 745, and the solve
    # returns y = 741.09, where F(-y) is 1.67e-6 against beta
    law, a, beta = InverseGaussian(0.25, 0.125), -1.0, math.exp(-13.5)
    y = var_ya(YaLaw(a, law), beta)
    cdf = law.expect(lambda s: ndtr((-y - a * s) / np.sqrt(s)),
                     QuadratureSpec(1e-14, 1e-12, 400))
    assert abs(cdf - beta) <= 2.0 * (1e-10 + 1e-8 * beta)
