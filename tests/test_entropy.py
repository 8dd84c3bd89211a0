"""Interaction Entropy Index: exact cases, grouping, and bound properties."""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import given, strategies as st

from adux.entropy import (
    EntropyBits,
    MEAN_OF_SESSIONS,
    PER_CATEGORY,
    PER_CATEGORY_PER_PERIOD,
    POOLED,
    iei,
    iei_by_group,
    iei_of_ratings,
)
from adux.errors import EmptyDataset
from adux.model import (
    Dataset,
    DiscreteDistribution,
    ResponseSpace,
    SessionObservation,
    build_distribution,
    five_point,
)
from oracles import mean_of_sessions_iei

# Frozen oracle: -0.25*log2(0.25) - 0.75*log2(0.75), mpmath at 50 digits.
H_QUARTER_THREEQUARTER = 0.8112781244591328
LOG2_5 = 2.321928094887362


def _dist(*probs):
    return DiscreteDistribution(ResponseSpace.from_range(1, len(probs)), tuple(probs))


class TestIei:
    def test_uniform_five_levels_is_log2_5(self):
        result = iei(_dist(0.2, 0.2, 0.2, 0.2, 0.2))
        assert result.value == pytest.approx(LOG2_5, abs=1e-12)
        assert result.normalized == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_is_exactly_zero(self):
        result = iei(_dist(0.0, 0.0, 1.0, 0.0, 0.0))
        assert result.value == 0.0
        assert result.normalized == 0.0

    def test_two_level_frozen_value(self):
        result = iei(_dist(0.25, 0.75))
        assert result.value == pytest.approx(H_QUARTER_THREEQUARTER, abs=1e-12)

    def test_n_ratings_propagates_from_counts(self):
        assert iei(build_distribution([1, 2, 2], five_point())).n_ratings == 3
        assert iei(_dist(0.5, 0.5)).n_ratings is None

    def test_entropy_bits_validation(self):
        with pytest.raises(ValueError):
            EntropyBits(value=-0.1)
        with pytest.raises(ValueError):
            EntropyBits(value=0.5, normalized=1.2)


class TestIeiNormalized:
    def test_uniform_is_one(self):
        assert iei(_dist(0.2, 0.2, 0.2, 0.2, 0.2)).normalized == pytest.approx(1.0)

    def test_degenerate_is_zero(self):
        assert iei(_dist(1.0, 0.0, 0.0, 0.0, 0.0)).normalized == 0.0

    def test_single_level_space_is_zero_by_convention(self):
        assert iei(_dist(1.0)).normalized == 0.0


@st.composite
def distributions(draw, max_levels=8):
    n = draw(st.integers(min_value=2, max_value=max_levels))
    weights = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)
    )
    total = sum(weights)
    if total == 0.0:
        weights = [1.0] * n
        total = float(n)
    probs = [w / total for w in weights]
    probs[-1] = 1.0 - sum(probs[:-1])  # close the simplex exactly
    if probs[-1] < 0:
        probs[-1] = 0.0
    return _dist(*probs)


class TestIeiProperties:
    @given(distributions())
    def test_bounds(self, dist):
        value = iei(dist).value
        assert 0.0 <= value <= math.log2(len(dist.space)) + 1e-9

    @given(distributions(), st.randoms(use_true_random=False))
    def test_symmetric_in_probabilities(self, dist, rnd):
        shuffled = list(dist.probs)
        rnd.shuffle(shuffled)
        permuted = DiscreteDistribution(dist.space, tuple(shuffled))
        assert iei(permuted).value == pytest.approx(iei(dist).value, abs=1e-9)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=200))
    def test_merging_identical_multisets_is_invariant(self, ratings):
        space = five_point()
        once = iei_of_ratings(ratings, space).value
        twice = iei_of_ratings(ratings + ratings, space).value
        assert twice == once


def _obs(session, category, period, rating):
    return SessionObservation(session, category, period, rating)


def _counts(observations, aggregation=POOLED):
    """The counts of these rows, for IEI under ``aggregation``."""
    return Dataset(five_point(), tuple(observations)).counts(aggregation)


class TestIeiByGroup:
    def test_identical_ratings_give_zero(self):
        counts = _counts([_obs(f"s{i}", "chat", 0, 4) for i in range(6)])
        [(key, entry)] = iei_by_group(counts)
        assert key == "chat"
        assert entry.value == 0.0
        assert entry.n_ratings == 6

    def test_identical_multisets_give_identical_iei(self):
        ratings = [1, 2, 2, 3, 5, 5]
        counts = _counts(
            [_obs(f"a{i}", "alpha", 0, r) for i, r in enumerate(ratings)]
            + [_obs(f"b{i}", "beta", 0, r) for i, r in enumerate(ratings)]
        )
        results = dict(iei_by_group(counts))
        assert results["alpha"].value == results["beta"].value

    def test_group_keys_sorted(self):
        counts = _counts([_obs("s1", "zeta", 0, 3), _obs("s2", "alpha", 0, 3)])
        keys = [k for k, _ in iei_by_group(counts)]
        assert keys == ["alpha", "zeta"]

    def test_per_category_per_period_keys(self):
        counts = _counts([_obs("s1", "chat", 0, 3), _obs("s2", "chat", 1, 4)])
        keys = [k for k, _ in iei_by_group(counts, grouping=PER_CATEGORY_PER_PERIOD)]
        assert keys == [("chat", 0), ("chat", 1)]

    def test_mean_of_sessions_averages_per_session_entropy(self):
        # session a: ratings 1,5 -> 1 bit; session b: ratings 3,3 -> 0 bits
        counts = _counts(
            [_obs("a", "chat", 0, 1), _obs("a", "chat", 0, 5),
             _obs("b", "chat", 0, 3), _obs("b", "chat", 0, 3)],
            MEAN_OF_SESSIONS,
        )
        [(_, entry)] = iei_by_group(counts)
        assert entry.value == pytest.approx(0.5, abs=1e-12)
        assert entry.n_ratings == 4

    def test_pooled_differs_from_mean_of_sessions_here(self):
        counts = _counts(
            [_obs("a", "chat", 0, 1), _obs("a", "chat", 0, 5),
             _obs("b", "chat", 0, 3), _obs("b", "chat", 0, 3)]
        )
        [(_, pooled)] = iei_by_group(counts)
        assert pooled.value == pytest.approx(1.5, abs=1e-12)  # probs (1/4,0,1/2,0,1/4)

    def test_both_aggregations_stay_in_bounds(self):
        rows = [_obs(f"s{i % 3}", "chat", i % 4, 1 + (i * 2) % 5) for i in range(40)]
        for aggregation in (POOLED, MEAN_OF_SESSIONS):
            [(_, entry)] = iei_by_group(_counts(rows, aggregation))
            assert 0.0 <= entry.value <= LOG2_5 + 1e-9

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            iei_by_group(_counts([]))

    def test_unknown_options_rejected(self):
        counts = _counts([_obs("s1", "chat", 0, 3)])
        with pytest.raises(ValueError):
            iei_by_group(counts, grouping="per-user")
        with pytest.raises(ValueError, match="aggregation must be"):
            _counts([_obs("s1", "chat", 0, 3)], "median")

    def test_pooled_recovers_generator_entropy(self):
        # 10,000 draws from a known distribution: estimate within 0.05 bits
        # of the analytic entropy of the generating distribution.
        from adux.synth import GeneratorSpec, gen_ratings
        from oracles import entropy_bits_direct

        probs = (0.1, 0.2, 0.4, 0.2, 0.1)
        spec = GeneratorSpec(
            category="chat",
            true_distribution=DiscreteDistribution(five_point(), probs),
            true_beta0=3.0, true_beta1=0.0, noise_sd=0.0, completion_p=0.5,
            periods=10, sessions_per_period=1000, seed=991,
        )
        [(_, entry)] = iei_by_group(gen_ratings(spec).counts())
        assert entry.value == pytest.approx(entropy_bits_direct(probs), abs=0.05)


session_rows = st.lists(
    st.tuples(st.sampled_from(["s1", "s2", "s3"]), st.sampled_from(["chat", "code"]),
              st.integers(0, 3), st.integers(1, 5)),
    min_size=1, max_size=30,
)
# Enough sessions of a few ratings that their IEIs, added in another
# order, can round to another float.
many_sessions_rows = st.lists(
    st.tuples(st.integers(0, 40).map("s{}".format), st.sampled_from(["chat", "code"]),
              st.integers(0, 1), st.integers(1, 5)),
    min_size=20, max_size=150,
)
groupings = st.sampled_from([PER_CATEGORY, PER_CATEGORY_PER_PERIOD])
aggregations = st.sampled_from([POOLED, MEAN_OF_SESSIONS])


class TestMeanOfSessionsRegrouping:
    """IEI regroups the counts by reference, under either aggregation."""

    @given(rows=session_rows, grouping=groupings, aggregation=aggregations)
    def test_mean_of_each_sessions_ratings(self, rows, grouping, aggregation):
        # A session's part of a group is all its ratings in that group, and
        # the mean is the correctly rounded sum of the parts' IEIs over their
        # number. Pooled, a group is one part of all its ratings.
        ratings: dict = {}
        for session, category, period, rating in rows:
            group = category if grouping == PER_CATEGORY else (category, period)
            part = session if aggregation == MEAN_OF_SESSIONS else None
            ratings.setdefault(group, {}).setdefault(part, []).append(rating)
        counts = _counts([_obs(*row) for row in rows], aggregation)
        results = iei_by_group(counts, grouping=grouping)
        assert [key for key, _ in results] == sorted(ratings)
        for key, entry in results:
            parts = list(ratings[key].values())
            values = [iei_of_ratings(part, five_point()).value for part in parts]
            assert entry.value == math.fsum(values) / len(values)
            assert entry.n_ratings == sum(map(len, parts))

    @given(rows=many_sessions_rows, grouping=groupings)
    def test_within_an_ulp_of_the_exact_mean(self, rows, grouping):
        expected = mean_of_sessions_iei(rows, by_period=grouping == PER_CATEGORY_PER_PERIOD)
        results = iei_by_group(_counts([_obs(*row) for row in rows], MEAN_OF_SESSIONS),
                               grouping=grouping)
        assert [key for key, _ in results] == sorted(expected)
        for key, entry in results:
            assert abs(entry.value - expected[key]) <= math.ulp(expected[key])

    @given(rows=many_sessions_rows, grouping=groupings, data=st.data())
    def test_the_order_of_the_rows_moves_no_bit(self, rows, grouping, data):
        def iei_of(listed):
            counts = _counts([_obs(*row) for row in listed], MEAN_OF_SESSIONS)
            return iei_by_group(counts, grouping=grouping)

        assert iei_of(data.draw(st.permutations(rows))) == iei_of(rows)

    @given(rows=session_rows, grouping=groupings, aggregation=aggregations)
    def test_counts_are_left_as_they_were(self, rows, grouping, aggregation):
        counts = _counts([_obs(*row) for row in rows], aggregation)
        before = copy.deepcopy(counts)
        first = iei_by_group(counts, grouping=grouping)
        # Every count, and the order of the groups and of each one's sessions.
        assert counts == before
        assert [(key, list(group)) for key, group in counts.sessions.items()] == [
            (key, list(group)) for key, group in before.sessions.items()]
        assert iei_by_group(counts, grouping=grouping) == first
