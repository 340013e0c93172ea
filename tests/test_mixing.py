"""Tests for the mixing laws: densities, moments, condition, samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmvmrisk import mixing as mixmod
from nmvmrisk.mathkit import QuadratureSpec, integrate_semi_infinite
from nmvmrisk.mixing import (Degenerate, Exponential, Gamma, Gig,
                             InverseGaussian, MomentError, skew_condition)
from nmvmrisk.risk import YaLaw, cdf_ya, var_ya

GIG_REF = Gig(lam=-0.5, chi=0.87953198, psi=0.645169932)

CONTINUOUS_LAWS = [
    GIG_REF,
    Gig(lam=-0.378655004, chi=0.379275063, psi=0.371543387),
    Gig(lam=1.3, chi=0.7, psi=2.1),
    Gamma(shape=1.0, rate=1.0),
    Gamma(shape=2.5, rate=1.3),
    InverseGaussian(delta=0.9, gamma_ig=1.4),
    Exponential(),
]
GIG_BOUNDARY_LAWS = [
    Gig(lam=1.8, chi=0.0, psi=2.1),    # gamma boundary
    Gig(lam=-2.5, chi=1.0, psi=0.0),   # inverse-gamma boundary
]


class TestDensity:
    @pytest.mark.parametrize("law", CONTINUOUS_LAWS + GIG_BOUNDARY_LAWS,
                             ids=lambda law: repr(law))
    def test_normalizes(self, law):
        assert integrate_semi_infinite(law.density) == pytest.approx(1.0,
                                                                     abs=1e-8)

    @pytest.mark.parametrize("law", CONTINUOUS_LAWS,
                             ids=lambda law: repr(law))
    def test_first_moment_matches_quadrature(self, law):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
        quad_mean = integrate_semi_infinite(lambda w: w * law.density(w), spec)
        assert quad_mean == pytest.approx(law.moments().ez, abs=1e-7)

    def test_exponential_density_value(self):
        assert Exponential().density(0.5) == pytest.approx(math.exp(-0.5),
                                                           rel=1e-14)

    @pytest.mark.parametrize("law", CONTINUOUS_LAWS + [Degenerate()],
                             ids=lambda law: repr(law))
    def test_zero_outside_support(self, law):
        assert law.density(-1.0) == 0.0
        assert law.density(0.0) == 0.0

    @given(lam=st.floats(0.1, 20.0), log10_eps=st.floats(-300.0, -200.0),
           other=st.floats(0.1, 10.0), w=st.floats(0.05, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_near_boundary_matches_boundary_law(self, lam, log10_eps, other,
                                                w):
        # K_lam(sqrt(chi psi)) overflows in the normalizer as chi or psi
        # nears 0; the laws must tend to their Gamma and inverse-gamma limits
        eps = 10.0 ** log10_eps
        assert Gig(lam, eps, other).density(w) == pytest.approx(
            Gig(lam, 0.0, other).density(w), rel=1e-10)
        assert Gig(-lam, other, eps).density(w) == pytest.approx(
            Gig(-lam, other, 0.0).density(w), rel=1e-10)


class TestParameterValidation:
    def test_gig_domain(self):
        Gig(lam=-0.5, chi=1.0, psi=0.0)  # allowed: lam < 0, psi = 0
        Gig(lam=0.5, chi=0.0, psi=1.0)   # allowed: lam > 0, chi = 0
        with pytest.raises(ValueError):
            Gig(lam=-0.5, chi=0.0, psi=1.0)
        with pytest.raises(ValueError):
            Gig(lam=0.0, chi=1.0, psi=0.0)
        with pytest.raises(ValueError):
            Gig(lam=0.5, chi=1.0, psi=0.0)
        with pytest.raises(ValueError):
            Gig(lam=0.5, chi=-1.0, psi=1.0)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            Gamma(shape=0.0, rate=1.0)
        with pytest.raises(ValueError):
            Gamma(shape=1.0, rate=-2.0)

    def test_ig_domain(self):
        with pytest.raises(ValueError):
            InverseGaussian(delta=-1.0, gamma_ig=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: Gig(lam=v, chi=1.0, psi=1.0),
        lambda v: Gig(lam=-0.5, chi=v, psi=1.0),
        lambda v: Gig(lam=-0.5, chi=1.0, psi=v),
        lambda v: Gamma(shape=v, rate=1.0),
        lambda v: Gamma(shape=1.0, rate=v),
        lambda v: InverseGaussian(delta=v, gamma_ig=1.0),
        lambda v: InverseGaussian(delta=1.0, gamma_ig=v),
    ], ids=["gig_lam", "gig_chi", "gig_psi", "gamma_shape", "gamma_rate",
            "ig_delta", "ig_gamma"])
    def test_non_finite_parameters_rejected(self, make, value):
        # nan fails every domain comparison, so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            make(value)


class TestMoments:
    def test_gamma_parametrized_family(self):
        # shape lam, rate g^2/2: EZ = 2 lam / g^2, Var = lam (2/g^2)^2,
        # m3 = 2 lam (2/g^2)^3
        lam, g = 1.7, 1.3
        law = Gamma(shape=lam, rate=0.5 * g * g)
        mm = law.moments()
        base = 2.0 / (g * g)
        assert mm.ez == pytest.approx(lam * base, rel=1e-14)
        assert mm.var == pytest.approx(lam * base ** 2, rel=1e-14)
        assert mm.m3 == pytest.approx(2.0 * lam * base ** 3, rel=1e-14)

    def test_inverse_gaussian_moments(self):
        d, g = 0.9, 1.4
        mm = InverseGaussian(delta=d, gamma_ig=g).moments()
        assert mm.ez == pytest.approx(d / g, rel=1e-14)
        assert mm.var == pytest.approx(d / g ** 3, rel=1e-14)
        assert mm.m3 == pytest.approx(3.0 * d / g ** 5, rel=1e-14)

    def test_gig_half_integer_mean(self):
        assert GIG_REF.moments().ez == pytest.approx(
            math.sqrt(0.87953198 / 0.645169932), rel=1e-12)

    @pytest.mark.parametrize("d,g", [(0.9, 1.4), (2.0, 0.7), (1.2, 1.2)])
    def test_gig_matches_inverse_gaussian(self, d, g):
        gig = Gig(lam=-0.5, chi=d * d, psi=g * g).moments()
        ig = InverseGaussian(delta=d, gamma_ig=g).moments()
        for field in ("ez", "ez2", "ez3", "var", "m3", "m4"):
            assert getattr(gig, field) == pytest.approx(
                getattr(ig, field), rel=1e-12), field

    @pytest.mark.parametrize("lam", [5e-324, 1e-310, -1e-310])
    def test_gig_subnormal_index_is_index_zero(self, lam):
        # scipy's kve is nan at subnormal orders; K is flat in the order at 0
        law, zero = Gig(lam, 1.3, 0.7), Gig(0.0, 1.3, 0.7)
        assert law.moments() == zero.moments()
        w = np.array([0.3, 1.0, 4.0])
        assert np.array_equal(law.density(w), zero.density(w))

    def test_degenerate_moments(self):
        mm = Degenerate().moments()
        assert (mm.ez, mm.var, mm.m3, mm.m4) == (1.0, 0.0, 0.0, 0.0)

    def test_inverse_gamma_edge_lacks_high_moments(self):
        # psi = 0 with lam = -2.5 has moments only up to order < 2.5
        law = Gig(lam=-2.5, chi=1.0, psi=0.0)
        assert law.raw_moment(1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        with pytest.raises(MomentError):
            law.raw_moment(3.0)
        with pytest.raises(MomentError):
            law.moments()

    def test_moments_error_when_third_missing(self):
        with pytest.raises(MomentError):
            Gig(lam=-1.5, chi=1.0, psi=0.0).moments()

    def test_moments_error_raised_on_every_call(self):
        law = Gig(lam=-1.5, chi=1.0, psi=0.0)
        for _ in range(2):
            with pytest.raises(MomentError):
                law.moments()

    def test_gig_moments_computed_once_per_law(self, monkeypatch):
        calls = []
        raw_moment = Gig.raw_moment

        def counted(self, r):
            calls.append(r)
            return raw_moment(self, r)

        monkeypatch.setattr(Gig, "raw_moment", counted)
        law = Gig(lam=-0.5, chi=1.1, psi=0.9)
        first = law.moments()
        n_first = len(calls)
        assert n_first > 0
        assert law.moments() is first
        assert len(calls) == n_first

    @pytest.mark.parametrize("law", [Gig(3.0, 1e-300, 1.0),
                                     Gig(-3.0, 1.0, 1e-300)],
                             ids=["gamma_edge", "inverse_gamma_edge"])
    def test_near_boundary_moments_finite(self, law):
        # (chi/psi)^(r/2) or the Bessel ratio leaves the double range here
        mm = law.moments()
        assert all(math.isfinite(v) for v in (mm.ez, mm.ez2, mm.ez3))

    @given(lam=st.floats(0.1, 20.0), log10_eps=st.floats(-300.0, -200.0),
           other=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_near_boundary_moments_match_boundary_law(self, lam, log10_eps,
                                                      other):
        eps = 10.0 ** log10_eps
        for r in (1.0, 2.0, 3.0, 4.0):
            assert Gig(lam, eps, other).raw_moment(r) == pytest.approx(
                Gig(lam, 0.0, other).raw_moment(r), rel=1e-10)
            # inverse-gamma moments of order r exist for r < lam
            if r < lam - 0.1:
                assert Gig(-lam, other, eps).raw_moment(r) == pytest.approx(
                    Gig(-lam, other, 0.0).raw_moment(r), rel=1e-10)


def test_var_near_gamma_boundary_matches_gamma_law():
    # Gig(3, chi -> 0, 1) tends to Gamma(3, 1/2); its moments overflowed
    near = var_ya(YaLaw(0.2, Gig(3.0, 1e-300, 1.0)), 0.05)
    assert near == pytest.approx(var_ya(YaLaw(0.2, Gamma(3.0, 0.5)), 0.05),
                                 abs=1e-10)
    assert near == pytest.approx(2.63044944, abs=1e-8)


def test_large_index_gig_keeps_its_mass():
    # log K_300(10) overflowed kve, so the normalizer was -inf and the
    # density 0 everywhere
    law = Gig(300.0, 1.0, 100.0)
    assert law.expect(lambda s: np.ones_like(s)) == pytest.approx(1.0,
                                                                  abs=1e-9)
    assert law.expect(lambda s: s) == pytest.approx(law.moments().ez,
                                                    rel=1e-9)
    ya = YaLaw(0.5, law)
    assert cdf_ya(ya, -var_ya(ya, 0.05)) == pytest.approx(0.05, abs=1e-8)


class TestSkewCondition:
    @pytest.mark.parametrize("shape", np.linspace(0.3, 6.0, 10))
    def test_gamma_identically_zero(self, shape):
        law = Gamma(shape=shape, rate=0.5 * 1.7 ** 2)
        mm = law.moments()
        assert abs(skew_condition(law)) <= 1e-14 * mm.var ** 2

    @pytest.mark.parametrize("d,g", [(0.5 + 0.3 * i, 1.8 - 0.1 * i)
                                     for i in range(10)])
    def test_inverse_gaussian_closed_form(self, d, g):
        assert skew_condition(InverseGaussian(delta=d, gamma_ig=g)) == \
            pytest.approx(d * d / g ** 6, rel=1e-12)

    def test_exponential_is_zero(self):
        assert abs(skew_condition(Exponential())) <= 1e-14

    def test_reference_gig_positive(self):
        assert skew_condition(GIG_REF) > 0.0

    @given(shape=st.floats(0.2, 8.0), rate=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_gamma_zero_property(self, shape, rate):
        law = Gamma(shape=shape, rate=rate)
        assert abs(skew_condition(law)) <= 1e-13 * law.moments().var ** 2


class TestSampling:
    def test_degenerate(self):
        draws = Degenerate().sample(np.random.default_rng(0), 5)
        assert np.array_equal(draws, np.ones(5))

    def test_exponential_mean(self):
        draws = Exponential().sample(np.random.default_rng(11), 1_000_000)
        assert draws.mean() == pytest.approx(1.0, abs=3e-3)

    @pytest.mark.parametrize("law", [GIG_REF,
                                     InverseGaussian(delta=0.9, gamma_ig=1.4),
                                     Gamma(shape=2.5, rate=1.3)],
                             ids=lambda law: repr(law))
    def test_sample_moments_match(self, law):
        n = 1_000_000
        draws = law.sample(np.random.default_rng(7), n)
        mm = law.moments()
        se_mean = math.sqrt(mm.var / n)
        assert abs(draws.mean() - mm.ez) <= 4.0 * se_mean
        var_hat = draws.var(ddof=1)
        se_var = math.sqrt((mm.m4 - mm.var ** 2) / n)
        assert abs(var_hat - mm.var) <= 4.0 * se_var

    def test_reproducible(self):
        a = GIG_REF.sample(np.random.default_rng(42), 1000)
        b = GIG_REF.sample(np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)

    def test_nonnegative_support(self):
        draws = GIG_REF.sample(np.random.default_rng(3), 10_000)
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("law", GIG_BOUNDARY_LAWS,
                             ids=lambda law: repr(law))
    def test_boundary_law_sample_mean(self, law):
        n = 200_000
        draws = law.sample(np.random.default_rng(19), n)
        mean = law.raw_moment(1.0)
        spread = math.sqrt(law.raw_moment(2.0) - mean * mean)
        assert abs(draws.mean() - mean) <= 4.0 * spread / math.sqrt(n)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            GIG_REF.sample(np.random.default_rng(0), 0)


class TestExpectationOperator:
    def test_degenerate_is_point_evaluation(self):
        assert Degenerate().expect(lambda s: s * s + 1.0) == 2.0

    def test_matches_moment(self):
        assert GIG_REF.expect(lambda s: s) == pytest.approx(
            GIG_REF.moments().ez, abs=1e-9)

    @given(law=st.one_of(
        st.builds(Gig, st.floats(-3.0, 3.0), st.floats(0.1, 5.0),
                  st.floats(0.1, 5.0)),
        st.builds(lambda lam, psi: Gig(lam, 0.0, psi), st.floats(0.5, 5.0),
                  st.floats(0.1, 5.0)),
        st.builds(lambda lam, chi: Gig(-lam, chi, 0.0), st.floats(0.5, 5.0),
                  st.floats(0.1, 5.0)),
        st.builds(Gamma, st.floats(0.5, 5.0), st.floats(0.1, 5.0)),
        st.builds(InverseGaussian, st.floats(0.1, 5.0), st.floats(0.1, 5.0))),
        k=st.floats(0.1, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_is_quadrature_of_f_times_density(self, law, k):
        def f(s):
            return np.sqrt(s) * np.exp(-k * s)

        c = law.scale()
        assert law.expect(f) == integrate_semi_infinite(
            lambda u: c * f(c * u) * law.density(c * u))

    def test_scale_is_the_mean_or_the_inverse_gamma_mode(self):
        assert Gamma(2.0, 4.0).scale() == 0.5
        assert InverseGaussian(3.0, 2.0).scale() == 1.5
        assert GIG_REF.scale() == GIG_REF.moments().ez
        # EZ = (chi/2)/(-lam - 1) is finite below lam = -1 only
        assert Gig(-2.0, 2.0, 0.0).scale() == pytest.approx(1.0, rel=1e-15)
        assert Gig(-1.0, 2.0, 0.0).scale() == 0.5
        assert Gig(-0.5, 1.5, 0.0).scale() == 0.5

    def test_degenerate_scale_is_the_point_mass(self):
        law = Degenerate()
        assert law.scale() == 1.0 == law.moments().ez

    def test_gig_normalizer_computed_once_per_law(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return gig_log_norm(*args)

        gig_log_norm = mixmod.gig_log_norm
        monkeypatch.setattr(mixmod, "gig_log_norm", counted)
        law = Gig(lam=-0.5, chi=1.1, psi=0.9)
        cdf_ya(YaLaw(0.3, law), 0.2)
        cdf_ya(YaLaw(-0.3, law), 1.5)
        assert len(calls) == 1
