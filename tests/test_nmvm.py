"""Tests for the multivariate model, factorization, and moment formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmvmrisk as nr
from nmvmrisk.mixing import Degenerate, Gamma, MomentError
from nmvmrisk.nmvm import (NotSpdError, factorize, portfolio_moments, project,
                           skew_derivative, transform)

# canonical symmetric-square-root coordinates of the five-stock location
# model, frozen from the defining identities A gamma0 = gamma, A mu0 = mu
MU0_CANONICAL = np.array([
    -0.007397092928525467, 0.04070369581144506, 0.005429003683892644,
    0.060201324529474624, 0.007784697172432649])
GAMMA0_CANONICAL = np.array([
    0.03939543511523682, 0.014217457733286755, 0.0246758753024115,
    0.002006174811076999, 0.023996020876367468])


class TestModelValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nr.NmvmModel(mu=[0.0, 0.0], gamma=[0.0], sigma=np.eye(2),
                         mixing=Degenerate())

    def test_not_spd(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotSpdError) as err:
            nr.NmvmModel(mu=[0.0, 0.0], gamma=[0.0, 0.0], sigma=sigma,
                         mixing=Degenerate())
        assert "eigenvalue" in str(err.value)

    def test_asymmetric_rejected(self):
        sigma = np.array([[1.0, 0.3], [0.1, 1.0]])
        with pytest.raises(NotSpdError):
            nr.NmvmModel(mu=[0.0, 0.0], gamma=[0.0, 0.0], sigma=sigma,
                         mixing=Degenerate())

    @pytest.mark.parametrize("field", ["mu", "gamma", "sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        params = {"mu": np.zeros(2), "gamma": np.zeros(2), "sigma": np.eye(2)}
        params[field] = params[field].copy()
        params[field].flat[0] = value
        with pytest.raises(ValueError, match="finite"):
            nr.NmvmModel(mixing=Degenerate(), **params)

    def test_near_singular_rejected(self):
        sigma = np.diag([1.0, 1e-14])
        with pytest.raises(NotSpdError):
            nr.NmvmModel(mu=[0.0, 0.0], gamma=[0.0, 0.0], sigma=sigma,
                         mixing=Degenerate())


class TestFactorize:
    @pytest.mark.parametrize("method", ["symmetric_sqrt", "cholesky"])
    def test_identity(self, method):
        assert np.allclose(factorize(np.eye(3), method), np.eye(3),
                           atol=1e-14)

    def test_diagonal_symmetric_sqrt(self):
        assert np.allclose(factorize(np.diag([4.0, 9.0])),
                           np.diag([2.0, 3.0]), atol=1e-14)

    @pytest.mark.parametrize("method", ["symmetric_sqrt", "cholesky"])
    def test_reference_sigma_residual(self, method, location_model):
        a = factorize(location_model.sigma, method)
        residual = np.abs(a @ a.T - location_model.sigma).max()
        assert residual <= 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            factorize(np.eye(2), "qr")


class TestTransform:
    def test_identity_factor(self):
        model = nr.NmvmModel(mu=[0.1, -0.2], gamma=[0.3, 0.4],
                             sigma=np.eye(2), mixing=Gamma(2.0, 2.0))
        tm = transform(model)
        assert np.allclose(tm.gamma0, model.gamma, atol=1e-14)
        assert np.allclose(tm.mu0, model.mu, atol=1e-14)
        assert np.allclose(tm.e_a, np.ones(2), atol=1e-14)

    def test_defining_identities(self, tm_location, location_model):
        assert np.allclose(tm_location.a_factor @ tm_location.gamma0,
                           location_model.gamma, atol=1e-10)
        assert np.allclose(tm_location.a_factor @ tm_location.mu0,
                           location_model.mu, atol=1e-10)

    def test_canonical_coordinates_frozen(self, tm_location):
        assert np.allclose(tm_location.mu0, MU0_CANONICAL, atol=1e-9)
        assert np.allclose(tm_location.gamma0, GAMMA0_CANONICAL, atol=1e-9)

    def test_roundtrip_weights(self, tm_location):
        omega = np.array([0.1, 0.4, 0.2, 0.1, 0.2])
        x = tm_location.x_from_weights(omega)
        assert np.allclose(tm_location.weights_from_x(x), omega, atol=1e-12)

    def test_gamma0_norm_factorization_invariant(self, location_model):
        tm_sym = transform(location_model, "symmetric_sqrt")
        tm_chol = transform(location_model, "cholesky")
        expected = math.sqrt(location_model.gamma @ np.linalg.solve(
            location_model.sigma, location_model.gamma))
        assert tm_sym.gamma0_norm == pytest.approx(expected, abs=1e-10)
        assert tm_chol.gamma0_norm == pytest.approx(expected, abs=1e-10)

    def test_mode_selects_m(self, location_model):
        ez = location_model.mixing.moments().ez
        tm_mr = transform(location_model, mode="mean_risk")
        tm_sk = transform(location_model, mode="skew")
        assert np.allclose(tm_mr.m, tm_mr.mu0 + tm_mr.gamma0 * ez, atol=1e-14)
        assert np.allclose(tm_sk.m, tm_sk.gamma0 * ez, atol=1e-14)


class TestProject:
    def test_unit_vector_identity_model(self):
        model = nr.NmvmModel(mu=np.zeros(3), gamma=np.zeros(3),
                             sigma=np.eye(3), mixing=Degenerate())
        um = project(model, np.array([1.0, 0.0, 0.0]))
        assert (um.loc, um.skew_coef, um.scale) == (0.0, 0.0, 1.0)

    def test_scale_matches_direct_arithmetic(self, location_model):
        omega = np.array([0.1, 0.4, 0.2, 0.1, 0.2])
        um = project(location_model, omega)
        assert um.scale == pytest.approx(
            math.sqrt(omega @ location_model.sigma @ omega), rel=1e-14)
        assert um.loc == pytest.approx(float(omega @ location_model.mu),
                                       rel=1e-14)

    def test_scale_homogeneity(self, location_model):
        omega = np.array([0.1, 0.4, 0.2, 0.1, 0.2])
        assert project(location_model, 2.0 * omega).scale == pytest.approx(
            2.0 * project(location_model, omega).scale, rel=1e-14)

    def test_dimension_mismatch(self, location_model):
        with pytest.raises(ValueError):
            project(location_model, np.ones(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weights(self, location_model, value):
        with pytest.raises(ValueError, match="finite"):
            project(location_model, np.array([value, 0.4, 0.2, 0.1, 0.2]))


class TestPortfolioMoments:
    def test_symmetric_case(self):
        model = nr.NmvmModel(mu=np.zeros(2), gamma=np.zeros(2),
                             sigma=np.eye(2), mixing=Gamma(2.0, 2.0))
        tm = transform(model, mode="skew")
        x = np.array([0.6, 0.8])
        pm = portfolio_moments(tm, x)
        ez = Gamma(2.0, 2.0).moments().ez
        assert pm.skew == pytest.approx(0.0, abs=1e-15)
        assert pm.std == pytest.approx(math.sqrt(ez), rel=1e-12)

    def test_skew_scale_invariance(self, tm_location):
        x = np.array([0.3, -0.1, 0.25, 0.4, 0.05])
        pm1 = portfolio_moments(tm_location, x)
        pm2 = portfolio_moments(tm_location, 2.0 * x)
        assert pm2.skew == pytest.approx(pm1.skew, rel=1e-12)
        assert pm2.kurt == pytest.approx(pm1.kurt, rel=1e-12)
        assert pm2.std == pytest.approx(2.0 * pm1.std, rel=1e-12)

    def test_monte_carlo_skewness_oracle(self, skew_model, tm_skew):
        omega = np.array([0.25, 0.25, 0.2, 0.15, 0.15])
        x = tm_skew.x_from_weights(omega)
        pm = portfolio_moments(tm_skew, x)
        rng = np.random.default_rng(314)
        n = 1_000_000
        z = skew_model.mixing.sample(rng, n)
        um = project(skew_model, omega)
        y = um.loc + um.skew_coef * z + um.scale * np.sqrt(z) * \
            rng.standard_normal(n)
        batches = np.array_split(y, 10)

        def skew_of(sample):
            centered = sample - sample.mean()
            return np.mean(centered ** 3) / np.std(sample) ** 3

        estimates = np.array([skew_of(chunk) for chunk in batches])
        se = estimates.std(ddof=1) / math.sqrt(len(batches))
        assert abs(skew_of(y) - pm.skew) <= 4.0 * se

    def test_kurt_requires_fourth_moment(self):
        model = nr.NmvmModel(mu=np.zeros(2), gamma=[0.1, 0.0],
                             sigma=np.eye(2),
                             mixing=nr.Gig(lam=-3.6, chi=1.0, psi=0.0))
        tm = transform(model, mode="skew")
        with pytest.raises(MomentError):
            portfolio_moments(tm, np.array([1.0, 0.0]))


class TestSkewDerivative:
    def test_finite_difference(self, tm_location):
        phi, step = 0.3, 1e-5
        mm = tm_location.mixing.moments()
        b = tm_location.gamma0_norm

        def skew_at(p):
            c = b * p
            return (c ** 3 * mm.m3 + 3.0 * c * mm.var) / \
                (c * c * mm.var + mm.ez) ** 1.5

        numeric = (skew_at(phi + step) - skew_at(phi - step)) / (2.0 * step)
        assert skew_derivative(tm_location, phi) == pytest.approx(numeric,
                                                                  abs=1e-6)

    def test_at_zero(self, tm_location):
        mm = tm_location.mixing.moments()
        b = tm_location.gamma0_norm
        expected = 3.0 * b * mm.var * mm.ez / mm.ez ** 2.5
        assert skew_derivative(tm_location, 0.0) == pytest.approx(expected,
                                                                  rel=1e-12)

    def test_gamma_mixing_positive_everywhere(self):
        model = nr.NmvmModel(mu=np.zeros(2), gamma=[0.2, -0.1],
                             sigma=np.eye(2), mixing=Gamma(1.7, 0.845))
        tm = transform(model, mode="skew")
        for phi in np.linspace(-1.0, 1.0, 21):
            assert skew_derivative(tm, float(phi)) > 0.0

    def test_domain(self, tm_location):
        with pytest.raises(ValueError):
            skew_derivative(tm_location, 1.5)


class TestFactorizationInvariance:
    def test_projection_identical(self, location_model):
        omega = np.array([0.2, 0.1, 0.3, 0.15, 0.25])
        um = project(location_model, omega)
        # projection never touches the factor; transform-level quantities do
        for method in ("symmetric_sqrt", "cholesky"):
            tm = transform(location_model, method)
            x = tm.x_from_weights(omega)
            assert np.linalg.norm(x) == pytest.approx(um.scale, abs=1e-12)
            assert float(x @ tm.gamma0) == pytest.approx(um.skew_coef,
                                                         abs=1e-12)
            assert float(x @ tm.mu0) == pytest.approx(um.loc, abs=1e-12)

    def test_moments_identical(self, location_model):
        omega = np.array([0.2, 0.1, 0.3, 0.15, 0.25])
        values = []
        for method in ("symmetric_sqrt", "cholesky"):
            tm = transform(location_model, method)
            pm = portfolio_moments(tm, tm.x_from_weights(omega))
            values.append((pm.std, pm.skew, pm.kurt))
        assert values[0] == pytest.approx(values[1], abs=1e-9)


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_projection_homogeneity_property(scale):
    model = nr.NmvmModel(mu=[0.01, -0.02], gamma=[0.05, 0.02],
                         sigma=[[0.04, 0.01], [0.01, 0.09]],
                         mixing=Gamma(2.0, 2.0))
    omega = np.array([0.7, 0.3])
    um1 = project(model, omega)
    um2 = project(model, scale * omega)
    assert um2.scale == pytest.approx(scale * um1.scale, rel=1e-12)
    assert um2.loc == pytest.approx(scale * um1.loc, rel=1e-12)
