"""Tests for the special-function and quadrature primitives."""

import math
import warnings

import numpy as np
import pytest

from nmvmrisk.mathkit import (BracketError, QuadratureError, QuadratureSpec,
                              RootBracket, find_root,
                              integrate_semi_infinite, log_bessel_k,
                              normal_cdf, normal_quantile)
from nmvmrisk.mixing import Gig


def bessel_k_by_quadrature(order, x):
    """Slow oracle: K_order(x) = (1/2) int_0^inf y^(order-1) e^(-x(y+1/y)/2) dy."""
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=400)
    val = integrate_semi_infinite(
        lambda y: np.exp((order - 1.0) * np.log(y) - 0.5 * x * (y + 1.0 / y)),
        spec)
    return 0.5 * val


def bessel_k(order, x):
    """K_order(x) through the log kernel the package uses."""
    return math.exp(float(log_bessel_k(order, x)))


class TestBesselK:
    def test_half_integer_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
        assert bessel_k(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)

    def test_order_symmetry(self):
        assert bessel_k(0.7, 2.3) == pytest.approx(bessel_k(-0.7, 2.3),
                                                   rel=1e-10)

    @pytest.mark.parametrize("order", [0.3, 0.5, 1.0, 1.5, 2.2, 3.5])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0])
    def test_order_symmetry_grid(self, order, x):
        assert bessel_k(order, x) == pytest.approx(bessel_k(-order, x),
                                                   rel=1e-10)

    @pytest.mark.parametrize("order", [5e-324, -1e-310])
    def test_subnormal_order_is_order_zero(self, order):
        assert log_bessel_k(order, 1.0) == log_bessel_k(0.0, 1.0)

    def test_recurrence_at_three_halves(self):
        # K_{3/2}(x) = (1/x) K_{1/2}(x) + K_{-1/2}(x)
        x = 1.5
        assert bessel_k(1.5, x) == pytest.approx(
            bessel_k(0.5, x) / x + bessel_k(-0.5, x), rel=1e-12)

    @pytest.mark.parametrize("order", np.arange(-3.0, 3.01, 0.5))
    @pytest.mark.parametrize("x", [0.1, 0.5, 2.0, 7.0, 20.0])
    def test_recurrence_residual_grid(self, order, x):
        lhs = bessel_k(order + 1.0, x)
        rhs = (2.0 * order / x) * bessel_k(order, x) + bessel_k(order - 1.0, x)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    @pytest.mark.parametrize("order,x", [(0.5, 1.0), (0.7, 2.3), (2.0, 0.8),
                                         (-1.3, 3.0), (3.5, 5.0)])
    def test_against_integral_definition(self, order, x):
        assert bessel_k(order, x) == pytest.approx(
            bessel_k_by_quadrature(order, x), rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_bessel_k(0.5, 0.0)
        with pytest.raises(ValueError):
            log_bessel_k(0.5, -1.0)

    def test_overflow_signals_inf(self):
        assert log_bessel_k(80.0, 1e-6) == math.inf

    def test_log_form_matches_for_large_argument(self):
        # direct kernel underflows near x ~ 800; the log form stays finite
        assert log_bessel_k(0.5, 800.0) == pytest.approx(
            0.5 * math.log(math.pi / 1600.0) - 800.0, rel=1e-12)


class TestNormal:
    def test_cdf_at_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_symmetry(self):
        assert normal_cdf(-1.7) + normal_cdf(1.7) == pytest.approx(1.0,
                                                                   abs=1e-15)

    def test_quantile_value(self):
        assert normal_quantile(0.05) == pytest.approx(-1.6448536269514722,
                                                      abs=1e-9)

    @pytest.mark.parametrize("p", [1e-8, 0.01, 0.05, 0.3, 0.5, 0.9, 1 - 1e-8])
    def test_roundtrip(self, p):
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestQuadrature:
    def test_exponential(self):
        assert integrate_semi_infinite(lambda s: np.exp(-s)) == pytest.approx(
            1.0, abs=1e-10)

    def test_gamma_two(self):
        assert integrate_semi_infinite(
            lambda s: s * np.exp(-s)) == pytest.approx(1.0, abs=1e-10)

    def test_gig_density_normalizes(self):
        law = Gig(lam=-0.5, chi=0.87953198, psi=0.645169932)
        assert integrate_semi_infinite(law.density) == pytest.approx(1.0,
                                                                     abs=1e-8)

    def test_scalar_only_callable(self):
        def f(s):
            if s < 0:  # comparisons force a scalar argument
                return 0.0
            return math.exp(-s)

        assert integrate_semi_infinite(f) == pytest.approx(1.0, abs=1e-10)

    def test_nonconvergence_carries_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=9)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(lambda s: np.exp(-s) / np.sqrt(s), spec)
        assert err.value.estimate == pytest.approx(math.sqrt(math.pi),
                                                   rel=1e-2)
        assert err.value.error_bound > 0.0

    @pytest.mark.parametrize("f", [
        lambda s: np.full_like(s, np.nan),
        lambda s: np.where(s > 50.0, np.inf, np.exp(-s)),
    ], ids=["nan", "inf_beyond_50"])
    def test_non_finite_integrand_raises_in_seed_round(self, f):
        sizes = []

        def counted(s):
            sizes.append(np.size(s))
            return f(s)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(QuadratureError, match="not finite"):
                integrate_semi_infinite(counted)
        assert not [w for w in caught if w.category is RuntimeWarning]
        # the 2-point vectorization probe, then at most the 8 seed panels
        assert sizes[0] == 2 and len(sizes) - 1 <= 8

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2.0,
                         RootBracket(0.0, 5.0)) == pytest.approx(2.0,
                                                                 abs=1e-12)

    def test_normal_quantile_by_root(self):
        root = find_root(lambda x: normal_cdf(x) - 0.05,
                         RootBracket(-10.0, 10.0))
        assert root == pytest.approx(-1.6448536269514722, abs=1e-9)

    def test_cubic_root_at_zero(self):
        assert find_root(lambda x: x ** 3,
                         RootBracket(-1.0, 2.0)) == pytest.approx(0.0,
                                                                  abs=1e-6)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, RootBracket(-1.0, 1.0))

    def test_idempotent(self):
        f = lambda x: normal_cdf(x) - 0.3
        root = find_root(f, RootBracket(-10.0, 10.0, tol=1e-12))
        again = find_root(f, RootBracket(root - 1e-6, root + 1e-6, tol=1e-12))
        assert again == pytest.approx(root, abs=1e-12)

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            RootBracket(2.0, 1.0)
