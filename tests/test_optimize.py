"""Tests for the closed-form solver, frontier sweep, and reduced optimizer."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize as _sopt

import nmvmrisk as nr
from nmvmrisk import mixing as mixmod
from nmvmrisk import optimize as optmod
from nmvmrisk.mixing import Gamma, Gig, InverseGaussian
from nmvmrisk.nmvm import portfolio_moments, project, transform
from nmvmrisk.optimize import (DegenerateConstraintsError,
                               check_skew_monotonicity, frontier,
                               solve_mean_risk_reduced, solve_mean_risk_skew)
from nmvmrisk.risk import (YaLaw, cvar_via_F, portfolio_risk_exact,
                           portfolio_risk_two_point, risk_ya,
                           risk_ya_and_slope)

# golden five-column weight table for the skew model; the five target
# returns form the uniform grid 0.002 * (9 + j) / 9
R_GRID = [0.002 * (9 + j) / 9 for j in range(5)]
WEIGHTS_GOLDEN = np.array([
    [0.077077, 0.194069, 0.31106, 0.428051, 0.545042],
    [0.252863, 0.22433, 0.195798, 0.167265, 0.138732],
    [0.067729, 0.101723, 0.135716, 0.169709, 0.203703],
    [0.399764, 0.26734, 0.134915, 0.00249, -0.12994],
    [0.202566, 0.212539, 0.222512, 0.232485, 0.242458],
])
SKEWNESS_GOLDEN = [0.34231, 0.370487, 0.383957, 0.385706, 0.380047]


class TestMeanRiskSkew:
    def test_two_asset_pinned_solution(self):
        # m = [1, 0], e_A = [1, 1], r = 0.3: both constraints pin x = [.3, .7]
        model = nr.NmvmModel(mu=np.zeros(2), gamma=[1.0, 0.0],
                             sigma=np.eye(2), mixing=Gamma(1.0, 1.0))
        tm = transform(model, mode="skew")
        sol = solve_mean_risk_skew(tm, 0.3)
        assert np.allclose(sol.x_star, [0.3, 0.7], atol=1e-12)

    def test_constraints_satisfied(self, tm_skew):
        sol = solve_mean_risk_skew(tm_skew, 0.002)
        assert float(sol.x_star @ tm_skew.m) == pytest.approx(0.002,
                                                              abs=1e-10)
        assert float(sol.x_star @ tm_skew.e_a) == pytest.approx(1.0,
                                                                abs=1e-10)
        assert sol.omega_star.sum() == pytest.approx(1.0, abs=1e-10)
        assert sol.achieved_return == pytest.approx(0.002, abs=1e-12)

    def test_kkt_residual(self, tm_skew):
        sol = solve_mean_risk_skew(tm_skew, 0.002)
        residual = 2.0 * sol.x_star - sol.s * tm_skew.m - sol.t * tm_skew.e_a
        scale = max(1.0, float(np.linalg.norm(sol.x_star)))
        assert np.abs(residual).max() <= 1e-10 * scale

    def test_least_norm_against_random_feasible(self, tm_skew):
        sol = solve_mean_risk_skew(tm_skew, 0.002)
        basis = np.column_stack([tm_skew.m, tm_skew.e_a])
        # null-space directions of the two constraints
        q, _ = np.linalg.qr(basis, mode="complete")
        null = q[:, 2:]
        rng = np.random.default_rng(1234)
        for _ in range(100):
            x = sol.x_star + null @ rng.normal(size=null.shape[1])
            assert np.linalg.norm(x) >= np.linalg.norm(sol.x_star) - 1e-12

    def test_brute_force_norm_minimum(self, tm_skew):
        # independent check: optimize over the feasible affine set directly
        sol = solve_mean_risk_skew(tm_skew, 0.0025)
        basis = np.column_stack([tm_skew.m, tm_skew.e_a])
        q, _ = np.linalg.qr(basis, mode="complete")
        null = q[:, 2:]
        res = _sopt.minimize(
            lambda c: np.linalg.norm(sol.x_star + null @ c) ** 2,
            np.zeros(null.shape[1]), method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14})
        assert np.linalg.norm(null @ res.x) <= 1e-5

    def test_golden_weights(self, tm_skew):
        for j, r in enumerate(R_GRID):
            sol = solve_mean_risk_skew(tm_skew, r)
            assert np.abs(sol.omega_star - WEIGHTS_GOLDEN[:, j]).max() <= 5e-3

    def test_golden_skewness(self, tm_skew):
        for j, r in enumerate(R_GRID):
            sol = solve_mean_risk_skew(tm_skew, r)
            assert sol.skewness == pytest.approx(SKEWNESS_GOLDEN[j],
                                                 abs=1e-3)

    def test_requires_skew_mode(self, tm_location):
        with pytest.raises(ValueError):
            solve_mean_risk_skew(tm_location, 0.002)

    def test_parallel_constraints(self):
        # gamma proportional to ones makes m parallel to e_A under Sigma = I
        model = nr.NmvmModel(mu=np.zeros(3), gamma=np.ones(3) * 0.2,
                             sigma=np.eye(3), mixing=Gamma(1.0, 1.0))
        tm = transform(model, mode="skew")
        with pytest.raises(DegenerateConstraintsError):
            solve_mean_risk_skew(tm, 0.01)

    def test_warns_when_condition_violated(self):
        # lognormal-free construction: a GIG with psi = 0 can fail the
        # condition; use a law with negative condition value instead
        class Shrunk(Gamma):
            def moments(self):
                mm = super().moments()
                return nr.MixingMoments(ez=mm.ez, ez2=mm.ez2, ez3=mm.ez3,
                                        var=mm.var, m3=mm.m3 * 0.2, m4=mm.m4)

        model = nr.NmvmModel(mu=np.zeros(2), gamma=[0.1, 0.05],
                             sigma=[[0.02, 0.0], [0.0, 0.03]],
                             mixing=Shrunk(2.0, 2.0))
        tm = transform(model, mode="skew")
        with pytest.warns(UserWarning):
            solve_mean_risk_skew(tm, 0.01)

    @pytest.mark.parametrize("law", [
        Gamma(1.7, 0.845), Gamma(20.0, 3.0),
        *(Gamma(float(shape), 0.5 * 1.7 ** 2)
          for shape in np.linspace(0.3, 6.0, 10))],
        ids=lambda law: f"{law.shape:.4g},{law.rate:.4g}")
    def test_gamma_laws_do_not_warn(self, law):
        # skew_condition is 0 for Gamma in exact arithmetic; its rounding
        # (-3.55e-15 for Gamma(1.7, 0.845)) is no violation
        model = nr.NmvmModel(mu=np.zeros(2), gamma=[0.1, 0.05],
                             sigma=[[0.02, 0.0], [0.0, 0.03]], mixing=law)
        tm = transform(model, mode="skew")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_mean_risk_skew(tm, 0.01)

    def test_heavy_tail_without_fourth_moment(self, skew_model):
        # the skewness needs E[Z^3] only; the kurtosis is then +inf
        tm = _heavy_tail_skew_model(skew_model)
        sol = solve_mean_risk_skew(tm, 0.002)
        assert sol.achieved_return == pytest.approx(0.002, abs=1e-12)
        moments = portfolio_moments(tm, sol.x_star)
        assert math.isfinite(sol.skewness) and sol.skewness == moments.skew
        assert moments.kurt == math.inf

    def test_factorization_invariance(self, skew_model):
        solutions = []
        for method in ("symmetric_sqrt", "cholesky"):
            tm = transform(skew_model, method, mode="skew")
            solutions.append(solve_mean_risk_skew(tm, 0.002).omega_star)
        assert np.abs(solutions[0] - solutions[1]).max() <= 1e-9

    def test_skewness_roundtrip_through_weights(self, skew_model, tm_skew):
        # recompute skewness from omega via a fresh transform of the model
        sol = solve_mean_risk_skew(tm_skew, 0.0024)
        tm2 = transform(skew_model, "cholesky", mode="skew")
        x2 = tm2.x_from_weights(sol.omega_star)
        assert portfolio_moments(tm2, x2).skew == pytest.approx(sol.skewness,
                                                                abs=1e-12)


def _heavy_tail_skew_model(skew_model) -> nr.TransformedModel:
    """The five-stock skew model under an inverse gamma of shape 3.5: E[Z^3]
    is finite, E[Z^4] is not."""
    model = nr.NmvmModel(mu=skew_model.mu, gamma=skew_model.gamma,
                         sigma=skew_model.sigma,
                         mixing=Gig(lam=-3.5, chi=5.0, psi=0.0))
    return transform(model, mode="skew")


class TestFrontier:
    def test_single_point_matches_composition(self, tm_skew):
        pts = frontier(tm_skew, [0.002], beta=0.05)
        assert len(pts) == 1
        sol = solve_mean_risk_skew(tm_skew, 0.002)
        direct = portfolio_risk_exact(tm_skew, sol.x_star, "cvar", 0.05).value
        assert pts[0].cvar == pytest.approx(direct, abs=1e-12)
        assert pts[0].skewness == pytest.approx(sol.skewness, abs=1e-12)
        assert np.allclose(pts[0].weights, sol.omega_star, atol=1e-12)
        assert pts[0].error is None

    def test_grid_order_preserved(self, tm_skew):
        grid = [0.001, 0.0015, 0.002]
        pts = frontier(tm_skew, grid, beta=0.1)
        assert [p.target_return for p in pts] == grid

    def test_cvar_monotone_away_from_minimum(self, tm_skew):
        res = _sopt.minimize_scalar(
            lambda r: frontier(tm_skew, [r], beta=0.05)[0].cvar,
            method="golden", bracket=(-0.001, 0.001, 0.005),
            options={"xtol": 1e-6})
        r_minvar = float(res.x)
        grid = np.linspace(r_minvar - 0.004, r_minvar + 0.004, 9)
        cvars = [p.cvar for p in frontier(tm_skew, grid, beta=0.05)]
        mid = 4
        for i in range(mid, len(grid) - 1):
            assert cvars[i + 1] >= cvars[i] - 1e-10
        for i in range(mid, 0, -1):
            assert cvars[i - 1] >= cvars[i] - 1e-10

    def test_heavy_tail_without_fourth_moment(self, skew_model):
        tm = _heavy_tail_skew_model(skew_model)
        pts = frontier(tm, R_GRID, beta=0.05)
        assert all(p.error is None for p in pts)
        for r, p in zip(R_GRID, pts):
            sol = solve_mean_risk_skew(tm, r)
            assert p.skewness == sol.skewness
            assert math.isfinite(p.cvar) and math.isfinite(p.skewness)
            assert np.array_equal(p.weights, sol.omega_star)

    def test_failed_points_marked(self):
        model = nr.NmvmModel(mu=np.zeros(3), gamma=np.ones(3) * 0.2,
                             sigma=np.eye(3), mixing=Gamma(1.0, 1.0))
        tm = transform(model, mode="skew")
        pts = frontier(tm, [0.01, 0.02], beta=0.05)
        assert all(p.error is not None for p in pts)
        assert all(math.isnan(p.cvar) for p in pts)


SIGMA_3 = np.array([[0.04, 0.01, 0.004],
                    [0.01, 0.09, -0.006],
                    [0.004, -0.006, 0.0225]])


def _elliptical(mu, mixing):
    """Three assets with gamma = 0, in mean-risk mode."""
    model = nr.NmvmModel(mu=mu, gamma=np.zeros(3), sigma=SIGMA_3,
                         mixing=mixing)
    return transform(model, mode="mean_risk")


class TestMeanRiskReduced:
    def test_weakly_improves_on_anchor(self, location_model):
        # location forced to zero: the least-norm portfolio at the return
        # floor is feasible, so the optimizer must do at least as well
        model = nr.NmvmModel(mu=np.zeros(5), gamma=location_model.gamma,
                             sigma=location_model.sigma,
                             mixing=location_model.mixing)
        tm_sk = transform(model, mode="skew")
        anchor = solve_mean_risk_skew(tm_sk, 0.002)
        anchor_risk = portfolio_risk_exact(tm_sk, anchor.x_star, "cvar",
                                           0.05).value
        tm_mr = transform(model, mode="mean_risk")
        sol = solve_mean_risk_reduced(tm_mr, "cvar", 0.05,
                                      k=anchor.achieved_return)
        got = portfolio_risk_exact(tm_mr, sol.x_star, "cvar", 0.05).value
        assert got <= anchor_risk + 1e-6
        assert float(sol.x_star @ tm_mr.e_a) == pytest.approx(1.0, abs=1e-8)
        assert sol.mu_tilde_star + sol.gamma_tilde_star * \
            tm_mr.mixing.moments().ez >= anchor.achieved_return - 1e-9

    def test_two_dimensional_search(self, tm_location):
        # both reduced coordinates active; floor set near the anchor return
        ez = tm_location.mixing.moments().ez
        k = 0.0015
        sol = solve_mean_risk_reduced(tm_location, "var", 0.1, k=k,
                                      grid_size=13)
        assert float(sol.x_star @ tm_location.e_a) == pytest.approx(1.0,
                                                                    abs=1e-8)
        assert sol.mu_tilde_star + sol.gamma_tilde_star * ez >= k - 1e-9
        assert sol.g_value == pytest.approx(
            float(sol.x_star @ sol.x_star), abs=1e-10)
        # beats the equality-constrained least-norm anchor
        mm = float(tm_location.m @ tm_location.m)
        me = float(tm_location.m @ tm_location.e_a)
        ee = float(tm_location.e_a @ tm_location.e_a)
        c = np.linalg.solve(np.array([[mm, me], [me, ee]]), [k, 1.0])
        x_anchor = c[0] * tm_location.m + c[1] * tm_location.e_a
        anchor_risk = portfolio_risk_exact(tm_location, x_anchor, "var",
                                           0.1).value
        got = portfolio_risk_exact(tm_location, sol.x_star, "var", 0.1).value
        assert got <= anchor_risk + 1e-6

    def test_elliptical_case_matches_minimum_variance(self):
        # gamma = 0 and mu = 0: risk is norm times a constant, so the
        # solution is the minimum-variance portfolio
        tm = _elliptical(np.zeros(3), Gig(lam=-0.5, chi=1.44, psi=1.44))
        sol = solve_mean_risk_reduced(tm, "cvar", 0.05, k=-1.0)
        omega = tm.weights_from_x(sol.x_star)
        ones = np.ones(3)
        omega_mv = np.linalg.solve(SIGMA_3, ones)
        omega_mv /= omega_mv.sum()
        assert np.abs(omega - omega_mv).max() <= 1e-6

    def test_return_floor_out_of_reach(self):
        # mu = gamma = 0: every portfolio earns 0, so k = 0.01 is infeasible
        # and k = 0 leaves the minimum-variance portfolio
        tm = _elliptical(np.zeros(3), Gig(lam=-0.5, chi=1.44, psi=1.44))
        with pytest.raises(ArithmeticError, match="return floor"):
            solve_mean_risk_reduced(tm, "cvar", 0.05, k=0.01)
        omega = tm.weights_from_x(
            solve_mean_risk_reduced(tm, "cvar", 0.05, k=0.0).x_star)
        omega_mv = np.linalg.solve(SIGMA_3, np.ones(3))
        omega_mv /= omega_mv.sum()
        assert np.abs(omega - omega_mv).max() <= 1e-12

    @pytest.mark.parametrize("k", [-1.0, 0.0, 0.005])
    def test_unbounded_without_gamma_raises(self, k):
        # gamma = 0 drops a: the objective -x^T mu0 + ||x|| risk(Y_0) has no
        # minimum when risk(Y_0) = VaR_0.5 = 0 is below ||P mu0|| = 0.0605
        tm = _elliptical(np.array([0.01, 0.02, 0.0]), Gamma(0.3, 5.0))
        with pytest.raises(ArithmeticError,
                           match=r"unbounded: risk\(Y_0\) = 0 .* 0\.0604"):
            solve_mean_risk_reduced(tm, "var", 0.5, k=k)

    @pytest.mark.parametrize("mu, gamma, measure, beta, k", [
        # the risk falls without bound along a ray at a = 0.238, and at
        # a = 1.25 with gamma five times as large; a solver that misses it
        # walks to |x^T e_A| ~ 1e15 and a "risk" of -1e29
        ([0.01, 0.02, 0.0], [0.05, -0.03, 0.02], "var", 0.5, 0.0),
        ([0.01, 0.02, 0.0], [0.25, -0.15, 0.1], "cvar", 0.5, 0.0),
        # mu0 parallel to e_A and risk(Y_0) < 0: the risk falls as ||x||
        # grows along any direction, though the part of mu0 normal to e_A
        # is rounding, not 0
        ([0.01, 0.01, 0.01], [0.0, 0.0, 0.0], "var", 0.7, -1.0)],
        ids=["var", "cvar", "mu0-along-e_A"])
    def test_unbounded_raises(self, mu, gamma, measure, beta, k):
        model = nr.NmvmModel(mu=mu, gamma=gamma, sigma=SIGMA_3,
                             mixing=Gig(-0.5, 1.44, 1.44))
        tm = transform(model, mode="mean_risk")
        with pytest.raises(ArithmeticError, match="unbounded"):
            solve_mean_risk_reduced(tm, measure, beta, k=k)

    def test_tangent_ray_leaving_the_floor(self):
        # at the root the tangent problem on x^T e_A = 1 falls along a ray
        # that breaks the floor; on the floor it has a minimum, and that is
        # the optimum, below the least-norm portfolio's 0.5158 there
        model = nr.NmvmModel(
            mu=[0.29929227784701273, -0.299525633185062, 0.018255210922086845],
            gamma=[-0.3210764829709724, 0.3290618511343299,
                   -0.0052850308539928075],
            sigma=np.eye(3), mixing=Gamma(0.5, 0.5))
        tm = transform(model, mode="mean_risk")
        k = 0.04639220975974262
        x = solve_mean_risk_reduced(tm, "var", 0.3, k=k).x_star
        assert float(x @ tm.m) == pytest.approx(k, abs=1e-12)
        got = portfolio_risk_exact(tm, x, "var", 0.3).value
        assert got == pytest.approx(0.5019778864, abs=1e-9)
        # the floor's line, and steps off it into the feasible side
        q, _ = np.linalg.qr(np.column_stack([tm.e_a, tm.m]), mode="complete")
        along, inward = q[:, 2], q[:, 1] * np.sign(q[:, 1] @ tm.m)
        for step in np.linspace(-2.0, 2.0, 21):
            for y in (x + step * along, x + abs(step) * inward):
                assert portfolio_risk_exact(tm, y, "var", 0.3).value >= got

    def test_bounded_without_gamma_solves(self):
        # CVaR_0.05(Y_0) = 0.624 exceeds ||P mu0||: the floor stays inactive
        tm = _elliptical(np.array([0.01, 0.02, 0.0]), Gamma(0.3, 5.0))
        low = solve_mean_risk_reduced(tm, "cvar", 0.05, k=-1.0)
        high = solve_mean_risk_reduced(tm, "cvar", 0.05, k=0.005)
        assert low.gamma_tilde_star == 0.0
        assert low.mu_tilde_star >= 0.005
        assert np.abs(low.x_star - high.x_star).max() <= 1e-6

    def test_reaches_cvar_optimum(self, tm_location):
        # Nelder-Mead on the reduced objective reaches the same optimum,
        # 0.0521862086; grid_size no longer changes anything
        sol = solve_mean_risk_reduced(tm_location, "cvar", 0.05, k=0.001)
        got = portfolio_risk_exact(tm_location, sol.x_star, "cvar", 0.05).value
        assert got <= 0.0521862087
        coarse = solve_mean_risk_reduced(tm_location, "cvar", 0.05, k=0.001,
                                         grid_size=5)
        assert np.array_equal(coarse.x_star, sol.x_star)

    def test_active_return_floor(self, tm_location):
        # k = 0.006 lies above the unconstrained optimum's return, so the
        # solution sits on the floor, below the anchor's 0.7086684
        k = 0.006
        sol = solve_mean_risk_reduced(tm_location, "cvar", 0.05, k=k)
        assert float(sol.x_star @ tm_location.m) == pytest.approx(k, abs=1e-12)
        got = portfolio_risk_exact(tm_location, sol.x_star, "cvar", 0.05).value
        assert got <= 0.70823844

    def test_location_only_direction(self, location_model):
        # gamma = 0 drops the gamma coordinate, leaving u = x^T mu0 free; the
        # risk is -u + h0 sqrt(g(u)) with g(u) = al u^2 + 2 be u + ga, whose
        # stationary point solves (al u + be)^2 (h0^2 al - 1) = al ga - be^2
        model = nr.NmvmModel(mu=location_model.mu, gamma=np.zeros(5),
                             sigma=location_model.sigma,
                             mixing=location_model.mixing)
        tm = transform(model, mode="mean_risk")
        k = -0.01
        sol = solve_mean_risk_reduced(tm, "cvar", 0.05, k=k)
        assert sol.gamma_tilde_star == 0.0
        assert float(sol.x_star @ tm.e_a) == pytest.approx(1.0, abs=1e-12)
        assert float(sol.x_star @ tm.m) >= k
        got = portfolio_risk_exact(tm, sol.x_star, "cvar", 0.05).value
        h0 = risk_ya(YaLaw(0.0, tm.mixing), "cvar", 0.05)
        basis = np.column_stack([tm.mu0, tm.e_a])
        (al, be), (_, ga) = np.linalg.inv(basis.T @ basis)
        u = (math.sqrt((al * ga - be * be) / (h0 * h0 * al - 1.0)) - be) / al
        assert u >= k
        assert got == pytest.approx(
            -u + h0 * math.sqrt(al * u * u + 2.0 * be * u + ga), abs=1e-12)
        mm = float(tm.m @ tm.m)
        me = float(tm.m @ tm.e_a)
        ee = float(tm.e_a @ tm.e_a)
        c = np.linalg.solve(np.array([[mm, me], [me, ee]]), [k, 1.0])
        x_anchor = c[0] * tm.m + c[1] * tm.e_a
        assert got <= portfolio_risk_exact(tm, x_anchor, "cvar", 0.05).value

    @staticmethod
    def count_solves(monkeypatch) -> list:
        """Record the a of every risk-and-slope solve the optimizer makes."""
        seen = []

        def counted(law, *args):
            seen.append(law.a)
            return risk_ya_and_slope(law, *args)

        monkeypatch.setattr(optmod, "risk_ya_and_slope", counted)
        return seen

    @pytest.mark.parametrize("measure", ["cvar", "var"])
    def test_one_risk_solve_per_abscissa(self, tm_location, monkeypatch,
                                         measure):
        # one solve per tangent point, none of them repeated
        seen = self.count_solves(monkeypatch)
        solve_mean_risk_reduced(tm_location, measure, 0.05, k=0.001)
        assert 0 < len(seen) <= 8
        assert len(seen) == len(set(seen))

    def test_active_floor_solve_count(self, tm_location, monkeypatch):
        seen = self.count_solves(monkeypatch)
        solve_mean_risk_reduced(tm_location, "cvar", 0.05, k=0.006)
        assert 0 < len(seen) <= 8

    def test_solve_count_over_levels_and_floors(self, tm_location,
                                                monkeypatch):
        # 30 calls; with finite-difference gradients one of them took 71
        seen = self.count_solves(monkeypatch)
        counts = []
        for measure in ("cvar", "var"):
            for beta in (0.1, 0.05, 0.01):
                for k in (0.001, 0.002, 0.004, 0.006, 0.008):
                    seen.clear()
                    sol = solve_mean_risk_reduced(tm_location, measure, beta,
                                                  k=k)
                    assert float(sol.x_star @ tm_location.m) >= k - 1e-12
                    counts.append(len(seen))
        assert 0 < max(counts) <= 8

    def test_non_finite_slope_raises(self, tm_location, monkeypatch):
        # a VaR solve whose last pass dropped the density row has no slope,
        # and so no tangent
        def no_slope(law, *args):
            return risk_ya_and_slope(law, *args)[0], math.nan

        monkeypatch.setattr(optmod, "risk_ya_and_slope", no_slope)
        with pytest.raises(ArithmeticError, match="no finite slope"):
            solve_mean_risk_reduced(tm_location, "var", 0.05, k=0.001)

    @pytest.mark.parametrize("measure", ["cvar", "var"])
    def test_integrand_calls_per_reduced_call(self, tm_location, monkeypatch,
                                              measure):
        # the solves of one call share their quadrature panels and Newton
        # root: 24 integrand calls for either measure
        calls = []
        real = mixmod.integrate_semi_infinite

        def counted(f, *args):
            return real(lambda s: calls.append(s.size) or f(s), *args)

        monkeypatch.setattr(mixmod, "integrate_semi_infinite", counted)
        sol = solve_mean_risk_reduced(tm_location, measure, 0.05, k=0.001)
        assert 0 < len(calls) <= 80
        assert sol.diagnostics["quadrature_evaluations"] <= len(calls)

    def test_diagnostics(self, tm_location, monkeypatch):
        seen = self.count_solves(monkeypatch)
        sol = solve_mean_risk_reduced(tm_location, "cvar", 0.05, k=0.001)
        diag = sol.diagnostics
        assert set(diag) == {"risk_solves", "quadrature_evaluations"}
        assert diag["risk_solves"] == len(seen)
        assert diag["quadrature_evaluations"] >= diag["risk_solves"]
        assert [type(v) for v in diag.values()] == [int, int]
        # without gamma0 the risk of Y_0 is priced once
        tm = _elliptical(np.array([0.01, 0.02, 0.0]), Gamma(0.3, 5.0))
        diag = solve_mean_risk_reduced(tm, "cvar", 0.05, k=-1.0).diagnostics
        assert diag["risk_solves"] == 1
        assert diag["quadrature_evaluations"] >= 1

    def test_nothing_to_optimize_gives_the_least_norm_portfolio(self):
        # mu = gamma = 0: the risk is ||x|| risk(Y_0), least at x = e_A/||e_A||^2
        model = nr.NmvmModel(mu=np.zeros(2), gamma=np.zeros(2),
                             sigma=np.eye(2), mixing=Gamma(1.0, 1.0))
        tm = transform(model, mode="mean_risk")
        sol = solve_mean_risk_reduced(tm, "cvar", 0.05, k=-1.0)
        assert sol.diagnostics["risk_solves"] == 1
        assert np.array_equal(sol.x_star, tm.e_a / float(tm.e_a @ tm.e_a))

    def test_shared_state_ends_with_the_call(self, tm_location):
        # nothing carries over from one call to the next
        first = solve_mean_risk_reduced(tm_location, "var", 0.05, k=0.001)
        solve_mean_risk_reduced(tm_location, "cvar", 0.01, k=0.004)
        again = solve_mean_risk_reduced(tm_location, "var", 0.05, k=0.001)
        assert np.array_equal(first.x_star, again.x_star)
        assert first.diagnostics == again.diagnostics

    @pytest.mark.parametrize("law", ["skew", "location", "gamma_0.5",
                                     "gamma_2", "ig_1"])
    def test_shared_state_keeps_the_optimum(self, request, location_model,
                                            monkeypatch, law):
        # the same solves with every risk solve stateless, as each one was
        # before the solves of a call shared their panels and root
        if law == "skew":
            model = request.getfixturevalue("skew_model")
        else:
            mixing = {"location": location_model.mixing,
                      "gamma_0.5": Gamma(0.5, 0.5), "gamma_2": Gamma(2.0, 2.0),
                      "ig_1": InverseGaussian(1.0, 1.0)}[law]
            model = nr.NmvmModel(mu=location_model.mu,
                                 gamma=location_model.gamma,
                                 sigma=location_model.sigma, mixing=mixing)
        tm = transform(model, mode="mean_risk")
        cases = [(measure, beta, k) for measure in ("cvar", "var")
                 for beta in (0.1, 0.05, 0.01) for k in (-0.01, 0.002, 0.01)]
        shared = [solve_mean_risk_reduced(tm, *case[:2], k=case[2]).x_star
                  for case in cases]

        def stateless(law, measure, beta, state=None):
            return risk_ya_and_slope(law, measure, beta)

        monkeypatch.setattr(optmod, "risk_ya_and_slope", stateless)
        for (measure, beta, k), x in zip(cases, shared):
            alone = solve_mean_risk_reduced(tm, measure, beta, k=k).x_star
            want = portfolio_risk_exact(tm, alone, measure, beta).value
            got = portfolio_risk_exact(tm, x, measure, beta).value
            assert got == pytest.approx(want, rel=1e-10)

    def test_gram_spd_for_reference_model(self, tm_location):
        basis = np.column_stack([tm_location.mu0, tm_location.gamma0,
                                 tm_location.e_a])
        eigvals = np.linalg.eigvalsh(basis.T @ basis)
        assert eigvals[0] > 0.0

    def test_collinear_directions_solve(self):
        # mu, gamma and e_A are parallel in x-space: the one angle is
        # a = ||gamma0||, and x = e_A/||e_A||^2 is the one portfolio there
        # that spends the least norm
        model = nr.NmvmModel(mu=[0.02, 0.02], gamma=[0.04, 0.04],
                             sigma=np.eye(2), mixing=Gamma(1.0, 1.0))
        tm = transform(model, mode="mean_risk")
        sol = solve_mean_risk_reduced(tm, "cvar", 0.1, k=0.0)
        assert sol.x_star == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_floor_must_be_below_inf(self, tm_location):
        # k = -inf drops the floor; nan and +inf are no floor at all
        for k in (math.nan, math.inf):
            with pytest.raises(ValueError, match="return floor"):
                solve_mean_risk_reduced(tm_location, "cvar", 0.05, k=k)
        free = solve_mean_risk_reduced(tm_location, "cvar", 0.05, k=-math.inf)
        low = solve_mean_risk_reduced(tm_location, "cvar", 0.05, k=-1.0)
        assert np.array_equal(free.x_star, low.x_star)

    def test_requires_mean_risk_mode(self, tm_skew):
        with pytest.raises(ValueError):
            solve_mean_risk_reduced(tm_skew, "cvar", 0.05, k=0.002)

    @pytest.mark.parametrize("measure, beta", [
        ("cvar", 7.0), ("var", math.nan), ("mad", 0.05)])
    def test_rejects_bad_level_without_risk_terms(self, measure, beta):
        # mu0 = gamma0 = 0 leaves nothing to optimize, so no risk is priced:
        # the level and the measure must be checked up front
        model = nr.NmvmModel(mu=np.zeros(2), gamma=np.zeros(2),
                             sigma=np.eye(2), mixing=Gamma(1.0, 1.0))
        tm = transform(model, mode="mean_risk")
        with pytest.raises(ValueError, match="beta|measure"):
            solve_mean_risk_reduced(tm, measure, beta, k=-1.0)


class TestTwoAssets:
    """Two assets: x^T e_A = 1 leaves one weight free, so a scan over it
    finds the optimum without the solver."""

    MODEL = nr.NmvmModel(mu=[0.01, 0.02], gamma=[0.05, -0.03],
                         sigma=[[0.04, 0.01], [0.01, 0.09]],
                         mixing=Gig(-0.5, 1.44, 1.44))

    @staticmethod
    def risks(tm, measure, k, w1) -> np.ndarray:
        """Exact risks of the portfolios (w1, 1 - w1); inf where one misses
        the floor k."""
        out = []
        for w in w1:
            x = tm.x_from_weights([w, 1.0 - w])
            out.append(portfolio_risk_exact(tm, x, measure, 0.05).value
                       if float(x @ tm.m) >= k else math.inf)
        return np.array(out)

    @pytest.mark.parametrize("measure", ["cvar", "var"])
    @pytest.mark.parametrize("k", [0.0, 0.06])
    def test_no_scanned_portfolio_does_better(self, measure, k):
        # the unconstrained optimum earns 0.047, so k = 0.06 binds
        tm = transform(self.MODEL, mode="mean_risk")
        sol = solve_mean_risk_reduced(tm, measure, 0.05, k=k)
        x = sol.x_star
        assert float(x @ tm.e_a) == pytest.approx(1.0, abs=1e-12)
        assert float(x @ tm.m) >= k - 1e-12
        got = portfolio_risk_exact(tm, x, measure, 0.05).value
        # a coarse scan over the line, then a fine one about its best
        coarse = np.linspace(-3.0, 4.0, 71)
        coarse_risks = self.risks(tm, measure, k, coarse)
        w_best = coarse[np.argmin(coarse_risks)]
        fine = np.linspace(w_best - 0.1, w_best + 0.1, 101)
        assert got <= min(coarse_risks.min(),
                          self.risks(tm, measure, k, fine).min())

    def test_unconstrained_cvar_optimum(self):
        tm = transform(self.MODEL, mode="mean_risk")
        sol = solve_mean_risk_reduced(tm, "cvar", 0.05, k=0.0)
        assert tm.weights_from_x(sol.x_star) == pytest.approx(
            [0.8146, 0.1854], abs=1e-4)
        assert portfolio_risk_exact(tm, sol.x_star, "cvar", 0.05).value == \
            pytest.approx(0.3330472353, abs=1e-10)


_BOOK_LAWS = [Gig(-0.5, 0.87953198, 0.645169932),
              Gig(-0.378655004, 0.379275063, 0.371543387),
              Gamma(0.5, 0.5), Gamma(2.0, 2.0), InverseGaussian(1.0, 1.0)]


@given(data=st.data(), n=st.integers(3, 5), law=st.sampled_from(_BOOK_LAWS),
       measure=st.sampled_from(["cvar", "var"]),
       beta=st.sampled_from([0.1, 0.05, 0.01]),
       k=st.one_of(st.just(-1.0), st.floats(-0.02, 0.04)))
@settings(max_examples=30, deadline=None)
def test_reduced_optimum_is_locally_least(data, n, law, measure, beta, k):
    # no feasible step of 1e-3 ||x|| along the constraint set lowers the
    # exact risk by more than the quadrature tolerance of the two prices
    mu = data.draw(st.lists(st.floats(-0.02, 0.02), min_size=n, max_size=n))
    gamma = data.draw(st.lists(st.floats(-0.05, 0.05), min_size=n,
                               max_size=n))
    factor = np.diag(data.draw(st.lists(st.floats(0.1, 0.3), min_size=n,
                                        max_size=n)))
    factor[np.tril_indices(n, -1)] = data.draw(st.lists(
        st.floats(-0.1, 0.1), min_size=n * (n - 1) // 2,
        max_size=n * (n - 1) // 2))
    model = nr.NmvmModel(mu=mu, gamma=gamma, sigma=factor @ factor.T,
                         mixing=law)
    tm = transform(model, mode="mean_risk")
    try:
        x = solve_mean_risk_reduced(tm, measure, beta, k=k).x_star
    except ArithmeticError as exc:
        assume("unbounded" not in str(exc))
        raise
    assert float(x @ tm.e_a) == pytest.approx(1.0, abs=1e-12)
    slack = 1e-12 * max(1.0, abs(k))
    assert float(x @ tm.m) >= k - slack
    at = portfolio_risk_exact(tm, x, measure, beta)
    norm = float(np.linalg.norm(x))
    tol = 2.0 * norm * (1e-10 + 1e-8 * abs(at.diagnostics["scalar_risk"]))
    # directions normal to e_A: those also normal to m, and the one along
    # the part of m normal to e_A
    q, _ = np.linalg.qr(np.column_stack([tm.e_a, tm.m]), mode="complete")
    for d in q[:, 1:].T:
        for step in (1e-3 * norm * d, -1e-3 * norm * d):
            y = x + step
            if float(y @ tm.m) >= k - slack:
                risk = portfolio_risk_exact(tm, y, measure, beta).value
                assert risk >= at.value - tol


class TestOneAsset:
    """A one-asset model: every x is parallel to gamma0 and to e_A."""

    MIXING = Gig(-0.5, 1.0, 1.0)

    def model(self, mu=0.01, gamma=0.02):
        return nr.NmvmModel(mu=[mu], gamma=[gamma], sigma=[[0.04]],
                            mixing=self.MIXING)

    @pytest.mark.parametrize("x", [0.2, -0.3])
    @pytest.mark.parametrize("measure", ["var", "cvar"])
    def test_chord_is_exact(self, x, measure):
        # cos(x, gamma0) = +-1, the chord's ends
        model = self.model()
        tm = transform(model, mode="mean_risk")
        x = np.array([x])
        exact = portfolio_risk_exact(tm, x, measure, 0.05)
        assert abs(exact.diagnostics["cos_theta"]) == 1.0
        assert exact.value == pytest.approx(
            portfolio_risk_two_point(tm, x, measure, 0.05).value, rel=1e-14)
        if measure == "cvar":
            um = project(model, tm.weights_from_x(x))
            assert exact.value == pytest.approx(cvar_via_F(um, 0.95),
                                                rel=1e-12)

    def test_skew_solver_and_frontier(self):
        tm = transform(self.model(), mode="skew")
        # m and e_A are parallel: no portfolio meets two constraints
        with pytest.raises(DegenerateConstraintsError, match="parallel"):
            solve_mean_risk_skew(tm, 0.002)
        points = frontier(tm, [0.001, 0.002], 0.05)
        assert len(points) == 2
        assert all(p.error and "parallel" in p.error for p in points)
        assert all(math.isnan(p.cvar) for p in points)

    def test_reduced_solver(self):
        # x = 1/e_A = 0.2 is the one portfolio with x^T e_A = 1, with or
        # without mu and gamma
        for mu, gamma in ((0.01, 0.02), (0.0, 0.0)):
            tm = transform(self.model(mu=mu, gamma=gamma), mode="mean_risk")
            for measure in ("var", "cvar"):
                sol = solve_mean_risk_reduced(tm, measure, 0.05, k=0.0)
                assert sol.x_star == pytest.approx([0.2], rel=1e-12)


class TestHypothesisCheck:
    def test_gamma_mixing(self):
        model = nr.NmvmModel(mu=np.zeros(2), gamma=[0.1, 0.2],
                             sigma=np.eye(2), mixing=Gamma(1.7, 0.845))
        check = check_skew_monotonicity(transform(model, mode="skew"))
        assert check.condition_value == pytest.approx(0.0, abs=1e-14)
        assert check.monotone_on_grid

    def test_inverse_gaussian_mixing(self):
        d, g = 0.9, 1.4
        model = nr.NmvmModel(mu=np.zeros(2), gamma=[0.1, 0.2],
                             sigma=np.eye(2),
                             mixing=InverseGaussian(delta=d, gamma_ig=g))
        check = check_skew_monotonicity(transform(model, mode="skew"))
        assert check.condition_value == pytest.approx(d * d / g ** 6,
                                                      rel=1e-12)
        assert check.monotone_on_grid

    def test_reference_gig(self, tm_skew):
        check = check_skew_monotonicity(tm_skew)
        assert check.condition_value > 0.0
        assert check.monotone_on_grid
