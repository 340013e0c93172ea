"""Tests for the special-function and quadrature primitives."""

import math
import warnings

import numpy as np
import pytest

from nmvmrisk.mathkit import (BracketError, QuadratureError, QuadratureSpec,
                              find_root, integrate_semi_infinite,
                              log_bessel_k, normal_cdf, normal_quantile)
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

    def test_overflow_at_large_order_uses_debye(self):
        # kve overflows, and x^2 is too large for the small-argument term;
        # log K by mpmath at 40 digits
        assert log_bessel_k(80.0, 1e-6) == pytest.approx(
            1429.2905695523974, rel=1e-14)

    def test_overflow_uses_small_argument_term(self):
        # kve overflows at both; log K by mpmath at 40 digits
        assert log_bessel_k(80.0, 1e-10) == pytest.approx(2166.117799310492,
                                                          rel=1e-15)
        # log K_3(1e-150), the GIG normalizer's argument at chi = 1e-300
        assert log_bessel_k(3.0, 1e-150) == pytest.approx(1038.2427333890004,
                                                          rel=1e-15)
        # entries that do not overflow keep the kve route
        both = log_bessel_k(80.0, np.array([1e-10, 1.0]))
        assert both[0] == log_bessel_k(80.0, 1e-10)
        assert both[1] == log_bessel_k(80.0, 1.0)

    def test_overflow_outside_small_argument_range_uses_debye(self):
        # kve(300, 10) overflows, and the leading term is 925.678 there
        # against the true 925.594 (mpmath at 40 digits)
        assert log_bessel_k(300.0, 10.0) == pytest.approx(925.5939462449082,
                                                          rel=1e-14)
        assert log_bessel_k(1000.0, 100.0) == pytest.approx(
            1990.004895181192, rel=1e-14)

    @pytest.mark.slow
    def test_large_orders_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        orders = np.array([100.0, 150.0, 300.0, 550.0, 1000.0])
        xs = np.geomspace(0.1, 1e3, 13)
        got = log_bessel_k(orders[:, None], xs[None, :])
        with mpmath.workdps(30):
            for nu, row in zip(orders, got):
                for x, value in zip(xs, row):
                    ref = float(mpmath.log(mpmath.besselk(nu, x)))
                    assert value == pytest.approx(ref, rel=1e-12)

    def test_finite_kernel_values_keep_the_kve_route(self):
        # the expansion only replaces entries where kve overflows
        from scipy.special import kve
        orders = np.array([[0.5], [20.0], [100.0], [300.0], [1000.0]])
        xs = np.geomspace(0.1, 1e3, 13)
        k = kve(orders, xs)
        direct = np.log(k) - xs
        got = log_bessel_k(orders, xs)
        assert np.isinf(k).any()
        assert np.array_equal(got[np.isfinite(k)], direct[np.isfinite(k)])

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

    def test_one_call_per_panel(self):
        nodes = []

        def f(s):
            nodes.append(s.copy())
            return np.exp(-s) / np.sqrt(s)

        integrate_semi_infinite(f)
        # no probe call: every call evaluates one distinct 15-node panel,
        # the 8 seed panels and then both halves of each split
        assert all(s.shape == (15,) for s in nodes)
        assert len({s.tobytes() for s in nodes}) == len(nodes)
        assert len(nodes) > 8 and len(nodes) % 2 == 0

    @pytest.mark.parametrize("f", [lambda s: 0.5, lambda s: np.sum(s),
                                   lambda s: np.exp(-s)[:-1]],
                             ids=["constant", "sum", "short"])
    def test_integrand_must_map_elementwise(self, f):
        with pytest.raises(ValueError, match="elementwise"):
            integrate_semi_infinite(f)

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
        # at most the 8 seed panels, 15 nodes each
        assert len(sizes) <= 8 and set(sizes) == {15}

    def test_scalar_integrand_value_unchanged(self):
        # a scalar integrand keeps the arithmetic it had before vector
        # integrands were allowed, to the last bit
        assert integrate_semi_infinite(
            lambda s: np.exp(-s) / np.sqrt(s)).hex() == "0x1.c5bf88fa3bb62p+0"
        assert integrate_semi_infinite(
            lambda s: np.log1p(s) * np.exp(-0.5 * s),
            QuadratureSpec(1e-13, 1e-11, 400)).hex() == "0x1.d887be0f4bedbp+0"

    def test_vector_integrand(self):
        calls = []

        def f(s):
            calls.append(s)
            return np.stack((np.exp(-s), s * np.exp(-s), np.exp(-s) / np.sqrt(s)))

        val = integrate_semi_infinite(f)
        assert val.shape == (3,)
        assert val == pytest.approx([1.0, 1.0, math.sqrt(math.pi)], rel=1e-8,
                                    abs=1e-10)
        # every component meets the tolerance, so the pass runs at least as
        # many panels as its hardest component alone
        alone = []
        integrate_semi_infinite(
            lambda s: alone.append(s) or np.exp(-s) / np.sqrt(s))
        assert len(calls) >= len(alone)

    def test_riders_leave_the_other_rows_unchanged(self):
        def rows(s, seen, rider):
            seen.append(s)
            out = [np.exp(-s), np.exp(-s) / np.sqrt(s)]
            return np.stack(out + [s * s * np.exp(-s)] if rider else out)

        plain, ridden = [], []
        alone = integrate_semi_infinite(lambda s: rows(s, plain, False))
        val = integrate_semi_infinite(lambda s: rows(s, ridden, True),
                                      riders=1)
        # the rider neither splits a panel nor joins the sums of the others
        assert np.array_equal(val[:2], alone)
        assert len(ridden) == len(plain)
        assert val[2] == pytest.approx(2.0, rel=1e-8)

    def test_empty_partition_seeds_as_without_one_and_gets_the_leaves(self):
        def f(s):
            return np.stack((np.exp(-s), np.exp(-s) / np.sqrt(s)))

        partition = []
        val = integrate_semi_infinite(f, partition=partition)
        assert np.array_equal(val, integrate_semi_infinite(f))
        # the final leaves tile [0, 1]: more than the 8 seed panels
        assert partition[0] == 0.0 and partition[-1] == 1.0
        assert len(partition) > 9
        assert all(lo < hi for lo, hi in zip(partition[:-1], partition[1:]))

    def test_partition_seeds_every_panel_in_one_call(self):
        def f(s):
            return np.stack((np.exp(-s), s * np.exp(-s),
                             np.exp(-s) / np.sqrt(s)))

        partition = []
        integrate_semi_infinite(f, partition=partition)
        leaves = list(partition)
        shapes = []

        def counted(s):
            shapes.append(s.shape)
            return f(s)

        # the same integrand on the same leaves needs no split: one call
        val = integrate_semi_infinite(counted, partition=partition)
        assert shapes == [(15 * (len(leaves) - 1),)]
        assert partition == leaves
        assert val == pytest.approx([1.0, 1.0, math.sqrt(math.pi)], rel=1e-8,
                                    abs=1e-10)

    def test_coarse_partition_is_refined_to_the_tolerance(self):
        # one panel on [0, 1] misses the tolerance: the split loop refines it
        # one panel per call, as without a partition
        partition = [0.0, 1.0]
        shapes = []

        def f(s):
            shapes.append(s.shape)
            return np.exp(-s) / np.sqrt(s)

        val = integrate_semi_infinite(f, partition=partition)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-8)
        assert shapes[0] == (15,) and len(shapes) > 1
        assert set(shapes[1:]) == {(15,)}
        # the seed call, then two calls per split, each adding one edge
        assert len(shapes) == 1 + 2 * (len(partition) - 2)

    def test_partition_keeps_riders_out_of_the_splits(self):
        def rows(s, rider):
            out = [np.exp(-s), np.exp(-s) / np.sqrt(s)]
            return np.stack(out + [s * s * np.exp(-s)] if rider else out)

        plain, ridden = [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]
        alone = integrate_semi_infinite(lambda s: rows(s, False),
                                        partition=plain)
        val = integrate_semi_infinite(lambda s: rows(s, True), riders=1,
                                      partition=ridden)
        assert np.array_equal(val[:2], alone)
        assert plain == ridden
        assert val[2] == pytest.approx(2.0, rel=1e-8)

    def test_non_finite_integrand_on_a_partition_raises(self):
        partition = [0.0, 0.25, 0.5, 1.0]
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_semi_infinite(
                lambda s: np.where(s > 50.0, np.nan, np.exp(-s)),
                partition=partition)
        assert partition == [0.0, 0.25, 0.5, 1.0]

    def test_vector_nonconvergence_carries_estimates(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=9)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(
                lambda s: np.stack((np.exp(-s), np.exp(-s) / np.sqrt(s))), spec)
        assert err.value.estimate[1] == pytest.approx(math.sqrt(math.pi),
                                                      rel=1e-2)
        assert err.value.error_bound.shape == (2,)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestFindRoot:
    @staticmethod
    def normal_cdf_minus(p):
        return lambda x: (normal_cdf(x) - p,
                          math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))

    def test_linear(self):
        assert find_root(lambda x: (x - 2.0, 1.0), 0.0,
                         5.0) == pytest.approx(2.0, abs=1e-12)

    def test_normal_quantile_by_root(self):
        root = find_root(self.normal_cdf_minus(0.05), 0.0, 10.0)
        assert root == pytest.approx(-1.6448536269514722, abs=1e-9)

    def test_cubic_root_at_zero(self):
        # the slope vanishes at the root, so Newton's steps only shrink by
        # 2/3 and the bisection safeguard has to take over
        assert find_root(lambda x: (x ** 3, 3.0 * x * x), 2.0,
                         3.0) == pytest.approx(0.0, abs=1e-6)

    def test_overshoot_from_far_start(self):
        # plain Newton diverges on arctan from |x - root| > 1.39
        calls = []

        def f(x):
            calls.append(x)
            return math.atan(x - 1.0), 1.0 / (1.0 + (x - 1.0) ** 2)

        assert find_root(f, 30.0, 100.0) == pytest.approx(1.0, abs=1e-12)
        assert max(abs(x - 1.0) for x in calls) <= 100.0
        assert len(calls) <= 40

    def test_newton_cycle_broken_by_bisection(self):
        # Newton maps x to -x on sign(x) sqrt|x| forever; a step that does
        # not halve the one before must become a bisection
        def f(x):
            root = math.sqrt(abs(x))
            return math.copysign(root, x), 0.5 / root if root else math.inf

        assert find_root(f, 1.0, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_no_sign_change(self):
        # increasing and above 1 everywhere (exp(x) alone underflows to an
        # exact zero near x = -745, which is a root in floating point)
        with pytest.raises(BracketError):
            find_root(lambda x: (1.0 + math.exp(x), math.exp(x)), 0.5, 1.0)

    def test_flat_target_has_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: (1.0, 0.0), 0.5, 1.0)

    def test_flat_start_steps_toward_the_root(self):
        # at x = 60 the upper tail and the density both underflow to 0, so
        # there is no slope, but f > 0 says the root lies below
        calls = []

        def f(x):
            calls.append(x)
            return (0.05 - normal_cdf(-x),
                    math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))

        assert find_root(f, 60.0, 10.0) == pytest.approx(
            1.6448536269514722, abs=1e-12)
        assert max(calls) <= 60.0

    def test_decreasing_target_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            find_root(lambda x: (2.0 - x, -1.0), 0.0, 1.0)

    def test_idempotent(self):
        f = self.normal_cdf_minus(0.3)
        root = find_root(f, 0.0, 10.0)
        again = find_root(f, root, 1e-6)
        assert again == pytest.approx(root, abs=1e-12)

    def test_bracket_validation(self):
        # the start point and step open the bracket search
        for x0, step in [(0.0, 0.0), (0.0, -1.0), (0.0, math.inf),
                         (0.0, math.nan), (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                find_root(lambda x: (x, 1.0), x0, step)
