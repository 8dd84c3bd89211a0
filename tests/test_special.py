"""In-repo special functions against independent references (math/scipy)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp
from scipy import stats

from adux.errors import ImpreciseShapes
from adux.special import (
    beta_pdf,
    incomplete_beta_inverse,
    log_beta,
    log_gamma,
    newton_root,
    normal_quantile,
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_quantile,
)


class TestLogGamma:
    @pytest.mark.parametrize("x", [0.001, 0.1, 0.4999, 0.5, 1.0, 2.0, 7.5, 50.0, 1234.5])
    def test_matches_stdlib(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=1e-4, max_value=5000.0))
    @settings(max_examples=200)
    def test_matches_stdlib_everywhere(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("x", [5e-324, 1e-310, 2.0 ** -1022])
    def test_subnormal_arguments(self, x):
        # The reflection's pi / sin(pi x) overflows below 2**-1022.
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestLogBeta:
    def test_cached_values_are_the_computed_ones_bit_for_bit_and_in_type(self):
        shapes = [0.05, 0.5, 1, 2.5, 3, 7.5, 1000, 123456.5, 10**7, 10**9]
        args = []
        for a in shapes:
            for b in shapes:
                for kind in (int, float, np.float64):
                    if kind is not int or (a == int(a) and b == int(b)):
                        args.append((kind(a), kind(b)))
                args.append((np.float64(a), float(b)))
        # Each argument pair twice, in an order that mixes first calls,
        # repeats still cached and repeats already evicted.
        calls = args + args
        random.Random(20).shuffle(calls)
        log_beta.cache_clear()
        for a, b in calls:
            got, want = log_beta(a, b), log_beta.__wrapped__(a, b)
            assert type(got) is type(want), (a, b)
            assert float(got).hex() == float(want).hex(), (a, b)
        info = log_beta.cache_info()
        assert info.hits > 0 and info.misses > len(args)

    @pytest.mark.parametrize("a, b", [(5e19, 5e19), (1e100, 1e100), (1e10, 1e10),
                                      (1.0, 1e20), (3.0, 1e300)])
    def test_shapes_beyond_its_precision_are_refused(self, a, b):
        with pytest.raises(ImpreciseShapes, match=r"past the precision of log B"):
            log_beta(a, b)

    @pytest.mark.parametrize("a, b", [(1e-300, 1e300), (5e-324, 1.0), (1.0, 5e-324)])
    def test_a_tiny_shape_beside_any_other_keeps_its_precision(self, a, b):
        # a + b rounds to the larger shape, whose two log-gammas cancel
        # exactly; log B is -ln min(a, b) to double precision. (scipy's
        # betaln overflows at 5e-324.)
        assert log_beta(a, b) == pytest.approx(-math.log(min(a, b)), rel=1e-15)

    def test_an_error_is_raised_on_every_call(self):
        log_beta.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError):
                log_beta(0, 1)
        assert log_beta.cache_info().currsize == 0


class TestIncompleteBeta:
    def test_uniform_is_identity(self):
        assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_square_law(self):
        # Beta(2,1) has CDF x^2
        assert regularized_incomplete_beta(2.0, 1.0, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_midpoint(self):
        assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_boundaries(self):
        assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
        assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    @given(
        st.floats(min_value=0.05, max_value=60.0),
        st.floats(min_value=0.05, max_value=60.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_against_scipy_within_contract(self, a, b, x):
        ours = regularized_incomplete_beta(a, b, x)
        assert ours == pytest.approx(float(sp.betainc(a, b, x)), abs=1e-10)

    @pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-10, 0.3, 0.5, 0.7])
    def test_a_shape_sum_near_the_float_range_stays_in_the_unit_interval(self, x):
        # Beta(1e-300, 1e300) holds all but ~1e-300 of its mass below
        # 5e-324. The continued fraction of the shape 1e300 overflows to
        # NaN, and the one from 0 summed to 1.0000000000000238 at 5e-324.
        assert regularized_incomplete_beta(1e-300, 1e300, x) == 1.0
        if 1.0 - x < 1.0:
            assert regularized_incomplete_beta(1e300, 1e-300, 1.0 - x) == 0.0

    @pytest.mark.parametrize("a, b, x", [(1e-100, 1e20, 1e-20), (1e-100, 1e20, 1e-19),
                                         (2e-6, 1e17, 1e-17), (2.5e-7, 1e150, 1e-150)])
    def test_a_huge_shape_where_one_minus_x_rounds_to_one(self, a, b, x):
        # 1 - x loses x, and the fraction returned -2.9e182 for the first.
        # Within the 1e-4 that log B may be off by at these shapes.
        want = float(sp.betainc(a, b, x))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(want, abs=1e-4)

    def test_a_fraction_that_overflows_raises(self):
        with pytest.raises(ImpreciseShapes, match="overflows its continued fraction"):
            regularized_incomplete_beta(1e-7, 1.7e308, 1e-310)


@pytest.mark.parametrize("a, b", [(5e-324, 1.0), (1e-300, 1e300)])
def test_quantiles_of_mass_held_below_the_smallest_float(a, b):
    # I_x(a, b) = 1 to float precision from x = 5e-324 on.
    for x in (5e-324, 1e-310):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(1.0, abs=1e-12)
    for p in (0.025, 0.5, 0.975):
        assert incomplete_beta_inverse(a, b, p) == 5e-324


class TestNewtonRoot:
    def test_quadratic_convergence_from_a_good_start(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0, 2.0 * x

        assert newton_root(f, 0.0, 2.0, 1.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert len(calls) <= 6

    def test_bisects_when_newton_leaves_the_bracket(self):
        # atan is flat far from its root, so Newton from 10 jumps far
        # outside the bracket; bisection must take over.
        def f(x):
            return math.atan(x - 1.0), 1.0 / (1.0 + (x - 1.0) ** 2)

        assert newton_root(f, -20.0, 20.0, 10.0) == pytest.approx(1.0, rel=1e-12)

    def test_useless_slope_falls_back_to_bisection(self):
        assert newton_root(lambda x: (x - 0.3, 0.0), 0.0, 1.0, 0.9) == pytest.approx(
            0.3, rel=1e-11
        )

    def test_never_returns_an_unevaluated_end(self):
        # The root, 1 - exp(-800), rounds to the upper end, where the
        # residual is undefined.
        def f(x):
            assert 0.0 < x < 1.0
            return -800.0 - math.log1p(-x), 1.0 / (1.0 - x)

        x = newton_root(f, 0.0, 1.0, 0.5)
        assert 0.0 < x < 1.0


class TestIncompleteBetaInverse:
    def test_edges(self):
        assert incomplete_beta_inverse(2.0, 3.0, 0.0) == 0.0
        assert incomplete_beta_inverse(2.0, 3.0, 1.0) == 1.0

    @given(
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_inverse_hits_target_mass(self, a, b, p):
        x = incomplete_beta_inverse(a, b, p)
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.3, 4.0), (2.0, 1e6), (6e6 + 1, 4e6 + 1)])
    @pytest.mark.parametrize("p", [1e-9, 0.05, 0.5, 0.95])
    def test_matches_scipy_across_shapes(self, a, b, p):
        expected = float(sp.betaincinv(a, b, p))
        assert incomplete_beta_inverse(a, b, p) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "a, b, p",
        [
            (0.05, 0.5, 1e-8),  # root 3.7e-160, many decades below the start
            (1.0, 0.05, 0.05),  # the tail estimate lands within 1e-15 of 1
            (0.2, 3e5, 0.5),
            (1.0, 2.0, 1e-300),  # the normal-theory start overflowed exp() here
            (2.0, 1.0, 1e-300),  # ... and here fell 42 decades below the root
            (1.0, 1e5, 1e-300),  # ... and here underflowed to 0
        ],
    )
    def test_roots_next_to_a_boundary(self, a, b, p):
        expected = float(sp.betaincinv(a, b, p))
        assert incomplete_beta_inverse(a, b, p) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("prior", [1e-20, 1e-5, 1e-3, 1e-2])
    @pytest.mark.parametrize("n, N", [(0, 0), (0, 1), (0, 5), (1, 1), (3, 5), (5, 5),
                                      (2, 10), (0, 100), (100, 100)])
    def test_posteriors_of_a_vague_prior(self, prior, n, N):
        # A density beyond any float near 0 or 1, and power-law starts whose
        # exponents overflowed exp().
        a, b = prior + n, prior + (N - n)
        for p in (0.025, 0.05, 0.5, 0.95, 0.975):
            expected = float(sp.betaincinv(a, b, p))
            assert incomplete_beta_inverse(a, b, p) == pytest.approx(expected, abs=1e-10)

    def test_shapes_near_zero_raise_nothing(self):
        # Beta(1e-300, 1e-300) puts half its mass within a float of 0 and
        # half within one of 1, so no float median is better than another.
        assert 0.0 <= incomplete_beta_inverse(1e-300, 1e-300, 0.5) <= 1.0
        # A density past the largest float reads as infinite.
        assert beta_pdf(1e-5, 5.0, 5e-324) == math.inf


class TestStudentT:
    @pytest.mark.parametrize("df", [3, 5, 6, 10, 28])
    @pytest.mark.parametrize("x", [-3.0, -0.7, 0.0, 1.2, 2.5])
    def test_cdf_matches_scipy(self, df, x):
        assert student_t_cdf(x, df) == pytest.approx(stats.t.cdf(x, df), abs=1e-12)

    @pytest.mark.parametrize("df", [3, 4, 6, 10, 28, 100])
    @pytest.mark.parametrize(
        "p", [1e-12, 0.005, 0.025, 0.1, 0.5, 0.9, 0.975, 0.995, 1.0 - 1e-12]
    )
    def test_quantile_matches_scipy(self, df, p):
        assert student_t_quantile(p, df) == pytest.approx(stats.t.ppf(p, df), abs=1e-9)

    def test_symmetry(self):
        assert student_t_quantile(0.25, 7) == -student_t_quantile(0.75, 7)

    def test_domain(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)


class TestNormalQuantile:
    @pytest.mark.parametrize(
        "p", [1e-12, 0.001, 0.025, 0.25, 0.5, 0.8, 0.975, 0.999, 1.0 - 1e-12]
    )
    def test_matches_scipy(self, p):
        assert normal_quantile(p) == pytest.approx(stats.norm.ppf(p), abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(1.0)
