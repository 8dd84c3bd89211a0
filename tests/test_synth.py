"""Synthetic generators: determinism, ground-truth recovery, presets."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate

import pytest

from adux import synth

from adux.drift import fit_tdc
from adux.entropy import iei_by_group
from adux.model import (
    DiscreteDistribution,
    ResponseSpace,
    STRICT,
    five_point,
    validate_dataset,
)
from adux.synth import (
    DEFAULT_PRESET_SEED,
    GeneratorSpec,
    category_presets,
    discretized_line_distributions,
    gen_drift_series,
    gen_ratings,
    gen_session_columns,
    gen_trials,
)
from oracles import entropy_bits_direct


def _spec(**overrides):
    base = dict(
        category="chat",
        true_distribution=DiscreteDistribution(five_point(), (0.2, 0.2, 0.2, 0.2, 0.2)),
        true_beta0=3.0,
        true_beta1=0.0,
        noise_sd=0.0,
        completion_p=0.8,
        periods=4,
        sessions_per_period=25,
        seed=17,
    )
    base.update(overrides)
    return GeneratorSpec(**base)


class TestGeneratorSpec:
    @pytest.mark.parametrize(
        "bad",
        [
            {"completion_p": 1.2},
            {"noise_sd": -0.1},
            {"periods": 0},
            {"sessions_per_period": 0},
            {"seed": -1},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            _spec(**bad)

    def test_per_period_distributions_must_match_periods(self):
        dists = discretized_line_distributions(five_point(), 3.0, 0.1, 0.8, 3)
        with pytest.raises(ValueError, match="per period"):
            _spec(true_distribution=dists, periods=4)

    def test_per_period_distributions_accepted(self):
        dists = discretized_line_distributions(five_point(), 3.0, 0.1, 0.8, 4)
        spec = _spec(true_distribution=dists, periods=4)
        assert spec.distribution_for(2) is dists[2]


class TestGenRatings:
    def test_degenerate_distribution_gives_zero_entropy(self):
        dist = DiscreteDistribution(five_point(), (0.0, 0.0, 1.0, 0.0, 0.0))
        ds = gen_ratings(_spec(true_distribution=dist))
        assert {o.rating for o in ds.observations} == {3}
        [(_, entry)] = iei_by_group(ds.counts())
        assert entry.value == 0.0

    def test_same_seed_is_byte_identical(self):
        assert gen_ratings(_spec()) == gen_ratings(_spec())

    def test_distinct_seeds_differ(self):
        a = gen_ratings(_spec(seed=1))
        b = gen_ratings(_spec(seed=2))
        assert [o.rating for o in a.observations] != [o.rating for o in b.observations]

    def test_uniform_recovers_max_entropy(self):
        ds = gen_ratings(_spec(periods=10, sessions_per_period=1000, seed=5))
        [(_, entry)] = iei_by_group(ds.counts())
        assert entry.value == pytest.approx(math.log2(5), abs=0.05)

    def test_completion_extremes(self):
        all_done = gen_ratings(_spec(completion_p=1.0))
        assert all(o.task_completed is True for o in all_done.observations)
        none_done = gen_ratings(_spec(completion_p=0.0))
        assert all(o.task_completed is False for o in none_done.observations)

    def test_generated_dataset_passes_strict_validation(self):
        ds = gen_ratings(_spec())
        rows = [
            {
                "session_id": o.session_id,
                "category": o.category,
                "period": o.period,
                "rating": o.rating,
                "task_completed": o.task_completed,
            }
            for o in ds.observations
        ]
        result = validate_dataset(rows, ds.space, STRICT)
        assert len(result.dataset) == len(ds)
        assert result.rejections == ()

    def test_per_period_distributions_drift_the_mean(self):
        dists = discretized_line_distributions(five_point(), 2.0, 0.25, 0.6, 8)
        ds = gen_ratings(_spec(true_distribution=dists, periods=8,
                               sessions_per_period=400, seed=23))
        by_period = {}
        for o in ds.observations:
            by_period.setdefault(o.period, []).append(o.rating)
        means = [sum(v) / len(v) for _, v in sorted(by_period.items())]
        assert means[-1] > means[0] + 1.0  # clear upward drift


class TestGenSessionRows:
    def test_draws_codes_then_outcomes_per_period(self):
        # The stream order is part of the contract: per period, one uniform
        # per session for the codes, then one per session for the outcomes.
        dists = discretized_line_distributions(five_point(), 2.0, 0.5, 0.8, 3)
        spec = _spec(true_distribution=dists, periods=3, sessions_per_period=50)
        rng = random.Random(spec.seed)
        expected = []
        for t in range(3):
            cum = list(accumulate(dists[t].probs))
            idx = [min(bisect_right(cum, rng.random()), 4) for _ in range(50)]
            done = [rng.random() < spec.completion_p for _ in range(50)]
            expected += [(f"chat-p{t}-s{i}", "chat", t, idx[i] + 1, done[i])
                         for i in range(50)]
        rows = [(s, *key) for ids, keys in gen_session_columns(spec)
                for s, key in zip(ids, keys)]
        assert rows == expected

    def test_uniform_past_the_last_cumulative_prob_takes_the_last_code(self):
        # Cumulative sums may top out below 1.0; as with a clamp, a uniform
        # beyond them falls in the last code, even one of probability 0.
        class Top:
            def random(self):
                return 1.0 - 2.0 ** -53

        dist = DiscreteDistribution(five_point(), (0.1, 0.2, 0.7 - 1e-12, 0.0, 0.0))
        assert synth._sample_codes(Top(), dist, 3) == [5, 5, 5]

    def test_draws_one_period_at_a_time(self, monkeypatch):
        calls = []
        sample = synth._sample_codes
        monkeypatch.setattr(synth, "_sample_codes",
                            lambda *a: calls.append(a[2]) or sample(*a))
        periods = gen_session_columns(_spec(periods=4, sessions_per_period=25))
        next(periods)
        assert calls == [25]
        next(periods)
        assert calls == [25, 25]


class TestGenDriftSeries:
    def test_noiseless_line_recovered_exactly(self):
        spec = _spec(true_beta0=2.0, true_beta1=0.21, periods=9)
        fit = fit_tdc(gen_drift_series(spec))
        assert fit.beta1 == pytest.approx(0.21, abs=1e-9)
        assert fit.beta0 == pytest.approx(2.0, abs=1e-9)

    def test_flat_noiseless_series_has_zero_slope(self):
        spec = _spec(true_beta0=3.0, true_beta1=0.0, periods=6)
        fit = fit_tdc(gen_drift_series(spec))
        assert fit.beta1 == 0.0

    def test_clamped_to_scale(self):
        spec = _spec(true_beta0=4.5, true_beta1=1.0, noise_sd=2.0, periods=12)
        series = gen_drift_series(spec)
        assert all(1.0 <= u <= 5.0 for _, u in series.points)

    def test_deterministic_per_seed(self):
        spec = _spec(noise_sd=0.4, periods=8)
        assert gen_drift_series(spec) == gen_drift_series(spec)

    def test_noise_is_standard_normal_times_sd(self):
        spec = _spec(true_beta0=3.0, noise_sd=0.5, periods=4001, seed=31)
        noise = [u - 3.0 for _, u in gen_drift_series(spec).points]
        mean = sum(noise) / len(noise)
        sd = math.sqrt(sum((e - mean) ** 2 for e in noise) / (len(noise) - 1))
        assert mean == pytest.approx(0.0, abs=0.05)  # about six standard errors
        assert sd == pytest.approx(0.5, abs=0.05)
        # The two normals of a Box-Muller pair are independent.
        pairs = list(zip(noise[0::2], noise[1::2]))
        corr = sum(a * b for a, b in pairs) / (len(pairs) * 0.25)
        assert corr == pytest.approx(0.0, abs=0.1)  # about four standard errors


class TestGenTrials:
    def test_certain_completion(self):
        assert gen_trials(1.0, 20, seed=3).completions == 20

    def test_certain_failure(self):
        assert gen_trials(0.0, 20, seed=3).completions == 0

    def test_law_of_large_numbers(self):
        trials = gen_trials(0.7, 10_000, seed=11)
        assert trials.completions / trials.trials == pytest.approx(0.7, abs=0.02)

    def test_deterministic(self):
        assert gen_trials(0.4, 50, seed=9) == gen_trials(0.4, 50, seed=9)

    def test_counts_the_uniforms_below_p(self):
        # An exact Binomial draw, not a normal approximation.
        u = random.Random(9).random
        assert gen_trials(0.4, 50, seed=9).completions == sum(u() < 0.4 for _ in range(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_trials(1.5, 10, seed=0)
        with pytest.raises(ValueError):
            gen_trials(0.5, -1, seed=0)
        with pytest.raises(ValueError):
            gen_trials(0.5, 10, seed=-1)


class TestDiscretizedLineDistributions:
    def test_valid_distributions_tracking_the_line(self):
        dists = discretized_line_distributions(five_point(), 2.0, 0.5, 0.5, 5)
        assert len(dists) == 5
        for t, dist in enumerate(dists):
            assert abs(sum(dist.probs) - 1.0) <= 1e-9
            mean = sum(c * p for c, p in zip(dist.space.codes, dist.probs))
            assert mean == pytest.approx(min(2.0 + 0.5 * t, 5.0), abs=0.35)

    def test_requires_positive_sd(self):
        with pytest.raises(ValueError):
            discretized_line_distributions(five_point(), 3.0, 0.0, 0.0, 3)


class TestCategoryPresets:
    def test_five_presets_on_default_scale(self):
        presets = category_presets()
        assert len(presets) == 5
        names = [p.category for p in presets]
        assert "conversational-assistant" in names
        assert "form-autocomplete" in names
        assert len(set(p.seed for p in presets)) == 5

    def test_seed_stability(self):
        a = category_presets(seed=DEFAULT_PRESET_SEED)
        b = category_presets(seed=DEFAULT_PRESET_SEED)
        assert a == b

    def test_entropy_ordering_of_true_distributions(self):
        # The shipped spreads must realize the qualitative category profile:
        # conversational above recommendation above form-autocomplete.
        by_name = {p.category: p.true_distribution for p in category_presets()}
        h = {k: entropy_bits_direct(d.probs) for k, d in by_name.items()}
        assert h["conversational-assistant"] > h["recommendation-engine"]
        assert h["recommendation-engine"] > h["form-autocomplete"]

    def test_rejects_wrong_cardinality_space(self):
        with pytest.raises(ValueError, match="five-level"):
            category_presets(space=ResponseSpace.from_range(1, 7))
