"""Beta-Binomial machinery: conjugacy, intervals, HDI optimality."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special as sp

from adux import special
from adux.bayes import (
    BetaParams,
    CredibleInterval,
    IntervalKind,
    TrialSummary,
    beta_cdf,
    beta_quantile,
    bucs,
    equal_tailed_interval,
    hdi,
    posterior,
    update_prior,
    wald_ci,
)
from adux.errors import InvalidMass, ZeroTrials
from oracles import min_width_hdi

# Frozen oracle values (computed before the implementation existed):
# - Beta(8,4) median from a CDF grid at step 1e-7.
# - HDI endpoints from an exhaustive grid search over scipy's incomplete beta.
BETA_8_4_MEDIAN = 0.6761955
BETA_2_2_HDI = (0.0942993240, 0.9057006759)
BETA_8_4_HDI = (0.4120474430, 0.9066276692)
# Wald(7/10) from direct arithmetic: 0.7 +/- 1.959964*sqrt(0.7*0.3/10).
WALD_7_10_HALF_WIDTH = 1.959964 * math.sqrt(0.7 * 0.3 / 10)


class TestTypes:
    def test_beta_params_positive(self):
        with pytest.raises(ValueError):
            BetaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaParams(1.0, -2.0)

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
    ])
    def test_beta_params_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="must be finite"):
            BetaParams(alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [(1e308, 1e308), (1.7e308, 1e307)])
    def test_beta_params_sum_finite(self, alpha, beta):
        # Each shape is finite but their sum is not: no posterior to solve for.
        with pytest.raises(ValueError, match=r"alpha \+ beta overflows a float"):
            BetaParams(alpha, beta)

    def test_bucs_refuses_an_overflowing_prior_before_any_numerics(self):
        with pytest.raises(ValueError, match=r"alpha \+ beta overflows a float"):
            bucs(BetaParams(1e308, 1e308), TrialSummary(3, 10), 0.95)

    def test_trial_summary_bounds(self):
        with pytest.raises(ValueError):
            TrialSummary(completions=5, trials=4)
        with pytest.raises(ValueError):
            TrialSummary(completions=-1, trials=4)

    def test_interval_ordering(self):
        with pytest.raises(ValueError):
            CredibleInterval(lower=0.9, upper=0.1, mass=0.95, kind=IntervalKind.HDI)

    def test_mean_and_mode(self):
        assert BetaParams(8, 4).mean() == pytest.approx(8 / 12, abs=1e-15)
        assert BetaParams(8, 4).mode() == pytest.approx(0.7, abs=1e-15)
        assert BetaParams(0.5, 2.0).mode() is None
        assert BetaParams(11, 1).mode() is None


class TestPosterior:
    def test_uniform_prior_seven_of_ten(self):
        post = posterior(BetaParams(1, 1), TrialSummary(7, 10))
        assert (post.alpha, post.beta) == (8.0, 4.0)

    def test_no_data_is_identity(self):
        post = posterior(BetaParams(1, 1), TrialSummary(0, 0))
        assert (post.alpha, post.beta) == (1.0, 1.0)

    def test_informative_prior(self):
        post = posterior(BetaParams(2, 3), TrialSummary(5, 8))
        assert (post.alpha, post.beta) == (7.0, 6.0)


class TestUpdatePrior:
    def test_fold_matches_pooled(self):
        result = update_prior([TrialSummary(3, 5), TrialSummary(4, 5)], BetaParams(1, 1))
        assert (result.alpha, result.beta) == (8.0, 4.0)

    def test_empty_history_is_identity(self):
        initial = BetaParams(2.5, 7.0)
        assert update_prior([], initial) == initial

    def test_order_invariant(self):
        batches = [TrialSummary(3, 9), TrialSummary(0, 2), TrialSummary(7, 7)]
        forward = update_prior(batches, BetaParams(1, 1))
        backward = update_prior(list(reversed(batches)), BetaParams(1, 1))
        assert forward == backward

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.data(),
    )
    @settings(max_examples=100)
    def test_any_split_equals_pooled_exactly(self, n, extra, data):
        total_trials = n + extra
        # split the pooled counts (n successes of total_trials) in two
        first_trials = data.draw(st.integers(min_value=0, max_value=total_trials))
        first_n = data.draw(
            st.integers(
                min_value=max(0, n - (total_trials - first_trials)),
                max_value=min(n, first_trials),
            )
        )
        split = [
            TrialSummary(first_n, first_trials),
            TrialSummary(n - first_n, total_trials - first_trials),
        ]
        folded = update_prior(split, BetaParams(1, 1))
        pooled = posterior(BetaParams(1, 1), TrialSummary(n, total_trials))
        assert folded == pooled  # exact: integer count arithmetic


class TestCdfAndQuantile:
    def test_uniform_cdf_is_identity(self):
        assert beta_cdf(BetaParams(1, 1), 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_square_cdf(self):
        assert beta_cdf(BetaParams(2, 1), 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_cdf_midpoint(self):
        assert beta_cdf(BetaParams(2, 2), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_quantile(self):
        assert beta_quantile(BetaParams(1, 1), 0.975) == pytest.approx(0.975, abs=1e-10)

    def test_square_quantile(self):
        assert beta_quantile(BetaParams(2, 1), 0.25) == pytest.approx(0.5, abs=1e-10)

    def test_median_against_frozen_grid_oracle(self):
        assert beta_quantile(BetaParams(8, 4), 0.5) == pytest.approx(
            BETA_8_4_MEDIAN, abs=1e-6
        )

    @given(
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_quantile_cdf_roundtrip_in_mass_bulk(self, a, b, u):
        # x spans the 1%..99% quantile range, where the inversion is
        # well-conditioned and the 1e-8 roundtrip contract is meaningful.
        params = BetaParams(a, b)
        x = beta_quantile(params, u)
        assert beta_quantile(params, beta_cdf(params, x)) == pytest.approx(x, abs=1e-8)

    @given(
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @example(a=30.0, b=50.0, x=0.8046875)  # beta_cdf rounds to exactly 1.0
    @settings(max_examples=150, deadline=None)
    def test_quantile_cdf_roundtrip_raw_coordinate(self, a, b, x):
        # Deep in a tail the CDF value quantizes (float spacing near 0/1
        # exceeds density * 1e-8), so the achievable x-precision is
        # ulp(p) / density; the bound widens accordingly. When p rounds to
        # exactly 0 or 1 the float carries no information about x at all,
        # and all that can be asked is that x2 maps back to p.
        params = BetaParams(a, b)
        p = beta_cdf(params, x)
        x2 = beta_quantile(params, p)
        if p in (0.0, 1.0):
            assert beta_cdf(params, x2) == p
            return
        density = max(params.pdf(x), 1e-300)
        ulp = max(math.ulp(p), math.ulp(1.0 - p))
        bound = min(1e-8 + 4.0 * ulp / density, 1.0)
        assert abs(x2 - x) <= bound


class TestHdi:
    def test_flat_density_returns_central_convention(self):
        interval = hdi(BetaParams(1, 1), 0.95)
        assert interval.lower == pytest.approx(0.025, abs=1e-9)
        assert interval.upper == pytest.approx(0.975, abs=1e-9)
        assert interval.kind is IntervalKind.EQUAL_TAILED
        assert interval.unique is False

    def test_symmetric_unimodal_matches_equal_tailed(self):
        interval = hdi(BetaParams(2, 2), 0.95)
        assert interval.kind is IntervalKind.HDI
        assert interval.lower == pytest.approx(BETA_2_2_HDI[0], abs=1e-4)
        assert interval.upper == pytest.approx(BETA_2_2_HDI[1], abs=1e-4)
        et = equal_tailed_interval(BetaParams(2, 2), 0.95)
        assert interval.lower == pytest.approx(et.lower, abs=1e-4)
        assert interval.upper == pytest.approx(et.upper, abs=1e-4)

    def test_skewed_unimodal_against_frozen_grid_oracle(self):
        interval = hdi(BetaParams(8, 4), 0.95)
        assert interval.kind is IntervalKind.HDI
        assert interval.lower == pytest.approx(BETA_8_4_HDI[0], abs=1e-3)
        assert interval.upper == pytest.approx(BETA_8_4_HDI[1], abs=1e-3)
        mass = beta_cdf(BetaParams(8, 4), interval.upper) - beta_cdf(
            BetaParams(8, 4), interval.lower
        )
        assert mass == pytest.approx(0.95, abs=1e-6)

    def test_endpoint_densities_equal_at_optimum(self):
        params = BetaParams(8, 4)
        interval = hdi(params, 0.95)
        f_lo, f_hi = params.pdf(interval.lower), params.pdf(interval.upper)
        assert abs(f_lo - f_hi) / max(f_lo, f_hi) <= 1e-4

    def test_decreasing_density_is_lower_anchored(self):
        interval = hdi(BetaParams(0.8, 3.0), 0.95)
        assert interval.kind is IntervalKind.ONE_SIDED_LOWER
        assert interval.lower == 0.0
        assert interval.upper == pytest.approx(
            beta_quantile(BetaParams(0.8, 3.0), 0.95), abs=1e-10
        )

    def test_increasing_density_is_upper_anchored(self):
        interval = hdi(BetaParams(3.0, 0.8), 0.95)
        assert interval.kind is IntervalKind.ONE_SIDED_UPPER
        assert interval.upper == 1.0

    def test_u_shaped_falls_back_to_central(self):
        interval = hdi(BetaParams(0.5, 0.5), 0.95)
        assert interval.kind is IntervalKind.EQUAL_TAILED
        assert interval.unique is False

    def test_invalid_mass(self):
        with pytest.raises(InvalidMass):
            hdi(BetaParams(2, 2), 0.0)
        with pytest.raises(InvalidMass):
            hdi(BetaParams(2, 2), 1.0)

    @given(
        st.floats(min_value=1.2, max_value=40.0),
        st.floats(min_value=1.2, max_value=40.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_never_wider_than_equal_tailed(self, a, b):
        params = BetaParams(a, b)
        assert hdi(params).width <= equal_tailed_interval(params).width + 1e-6

    @given(
        st.floats(min_value=0.2, max_value=30.0),
        st.floats(min_value=0.2, max_value=30.0),
        st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_holds_stated_mass(self, a, b, mass):
        params = BetaParams(a, b)
        interval = hdi(params, mass)
        held = beta_cdf(params, interval.upper) - beta_cdf(params, interval.lower)
        assert held == pytest.approx(mass, abs=1e-6)

    def test_matches_grid_oracle_across_shapes(self):
        rng = np.random.default_rng(2718)
        for _ in range(12):
            a = float(rng.uniform(1.2, 40.0))
            b = float(rng.uniform(1.2, 40.0))
            interval = hdi(BetaParams(a, b), 0.95)
            lo, hi = min_width_hdi(a, b, 0.95)
            assert interval.lower == pytest.approx(lo, abs=1e-3)
            assert interval.upper == pytest.approx(hi, abs=1e-3)


def traffic_grid(sizes):
    """(posterior, mass) over N in ``sizes``, n/N in {0.05, 0.3, 0.6, 0.9},
    masses 0.90/0.95/0.99, under the uniform and the Jeffreys prior."""
    for alpha, beta in ((1.0, 1.0), (0.5, 0.5)):
        for big_n in sizes:
            for share in (0.05, 0.3, 0.6, 0.9):
                n = round(share * big_n)
                for mass in (0.90, 0.95, 0.99):
                    yield BetaParams(alpha + n, beta + big_n - n), mass


class TestHdiAtTrafficScale:
    @pytest.mark.parametrize("big_n", [10**5, 10**6, 10**7])
    def test_mass_and_equal_density_against_scipy(self, big_n):
        for params, mass in traffic_grid([big_n]):
            a, b = params.alpha, params.beta
            interval = hdi(params, mass)
            held = float(sp.betainc(a, b, interval.upper) - sp.betainc(a, b, interval.lower))
            assert held == pytest.approx(mass, abs=1e-6), (a, b, mass)

            def log_density(x):  # up to the normalising constant
                return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)

            gap = log_density(interval.lower) - log_density(interval.upper)
            assert abs(gap) <= 1e-6, (a, b, mass)

    @pytest.mark.parametrize(
        "a, b, mass",
        [
            (1.1, 30.0, 0.99),  # lower endpoint ~1e-22
            (30.0, 1.1, 0.99),
            (1.000001, 5.0, 0.95),  # lower endpoint underflows: one-sided in floats
            (1.000001, 1.000001, 0.99),  # nearly flat
            (163198.7, 1.0 + 1e-12, 0.95),  # the mode rounds to 1.0
        ],
    )
    def test_endpoints_pressed_against_a_boundary(self, a, b, mass):
        interval = hdi(BetaParams(a, b), mass)
        assert interval.kind is IntervalKind.HDI
        held = float(sp.betainc(a, b, interval.upper) - sp.betainc(a, b, interval.lower))
        assert held == pytest.approx(mass, abs=1e-6)

    def test_incomplete_beta_calls_per_interval(self, monkeypatch):
        calls = 0
        real = special.regularized_incomplete_beta

        def counted(a, b, x):
            nonlocal calls
            calls += 1
            return real(a, b, x)

        monkeypatch.setattr("adux.bayes.regularized_incomplete_beta", counted)
        monkeypatch.setattr("adux.special.regularized_incomplete_beta", counted)
        per_interval = []
        for params, mass in traffic_grid([10**e for e in range(1, 8)]):
            before = calls
            hdi(params, mass)
            per_interval.append(calls - before)
        assert sum(per_interval) / len(per_interval) <= 50
        assert max(per_interval) <= 100


class TestBucs:
    def test_seven_of_ten(self):
        result = bucs(BetaParams(1, 1), TrialSummary(7, 10))
        assert (result.posterior.alpha, result.posterior.beta) == (8.0, 4.0)
        assert result.mean == pytest.approx(2 / 3, abs=1e-9)
        assert result.mode == pytest.approx(0.7, abs=1e-12)
        assert result.interval.kind is IntervalKind.HDI

    def test_perfect_completion_is_upper_anchored(self):
        result = bucs(BetaParams(1, 1), TrialSummary(10, 10))
        assert (result.posterior.alpha, result.posterior.beta) == (11.0, 1.0)
        assert result.interval.kind is IntervalKind.ONE_SIDED_UPPER
        assert result.interval.upper == 1.0
        assert result.mode is None

    def test_no_data_passes_prior_through(self):
        result = bucs(BetaParams(1, 1), TrialSummary(0, 0))
        assert (result.posterior.alpha, result.posterior.beta) == (1.0, 1.0)
        assert result.interval.lower == pytest.approx(0.025, abs=1e-9)
        assert result.interval.upper == pytest.approx(0.975, abs=1e-9)

    def test_monotone_narrowing_with_sample_size(self):
        widths = []
        for n_trials in (10, 50, 200, 1000):
            completions = round(0.7 * n_trials)
            result = bucs(BetaParams(1, 1), TrialSummary(completions, n_trials))
            widths.append(result.interval.width)
        assert all(b < a for a, b in zip(widths, widths[1:]))


class TestWald:
    def test_perfect_completion_collapses(self):
        interval = wald_ci(TrialSummary(10, 10))
        assert (interval.lower, interval.upper) == (1.0, 1.0)

    def test_zero_completion_collapses(self):
        interval = wald_ci(TrialSummary(0, 10))
        assert (interval.lower, interval.upper) == (0.0, 0.0)

    def test_seven_of_ten_frozen_arithmetic(self):
        interval = wald_ci(TrialSummary(7, 10))
        assert interval.lower == pytest.approx(0.7 - WALD_7_10_HALF_WIDTH, abs=1e-12)
        assert interval.upper == pytest.approx(0.7 + WALD_7_10_HALF_WIDTH, abs=1e-12)

    def test_zero_trials_raises(self):
        with pytest.raises(ZeroTrials):
            wald_ci(TrialSummary(0, 0))

    def test_clamped_to_unit_interval(self):
        interval = wald_ci(TrialSummary(1, 2))
        assert 0.0 <= interval.lower <= interval.upper <= 1.0

    def test_edge_dominance_over_bucs(self):
        # At n = N (or n = 0) the Wald width is 0 but the posterior interval
        # keeps honest positive width.
        for completions, trials in ((10, 10), (0, 10)):
            wald = wald_ci(TrialSummary(completions, trials))
            bayes = bucs(BetaParams(1, 1), TrialSummary(completions, trials))
            assert wald.width == 0.0
            assert bayes.interval.width > 0.0
