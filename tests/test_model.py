"""Core model: response spaces, distributions, observations, validation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from adux.errors import EmptyInput, MalformedRow, NegativePeriod, UnknownRating
from adux.model import (
    MAX_SCALE_LEVELS,
    Dataset,
    DiscreteDistribution,
    ResponseSpace,
    SKIP_INVALID,
    STRICT,
    SessionCounts,
    SessionObservation,
    build_distribution,
    five_point,
    validate_dataset,
)


class TestResponseSpace:
    def test_five_point_default(self):
        space = five_point()
        assert space.codes == (1, 2, 3, 4, 5)
        assert len(space) == 5
        assert space.min_code == 1 and space.max_code == 5

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one level"):
            ResponseSpace.from_range(1, 0)

    def test_from_range_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            ResponseSpace.from_range(5, 1)

    def test_singleton_space_allowed(self):
        assert len(ResponseSpace.from_range(3, 3)) == 1

    def test_rejects_more_levels_than_the_cap(self):
        # Refused before any count is sized by it; one of 10^8 levels ran
        # out of memory.
        assert len(ResponseSpace.from_range(0, MAX_SCALE_LEVELS - 1)) == MAX_SCALE_LEVELS
        with pytest.raises(ValueError, match=f"at most {MAX_SCALE_LEVELS} levels, got 0..101"):
            ResponseSpace.from_range(0, MAX_SCALE_LEVELS)
        with pytest.raises(ValueError, match="at most"):
            SessionCounts(ResponseSpace(1, 10**8))

    def test_contains_equal_codes_only(self):
        space = five_point()
        assert 3 in space and 3.0 in space and True in space
        assert 9 not in space and 0 not in space and 2.5 not in space


class TestDiscreteDistribution:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="5 levels"):
            DiscreteDistribution(five_point(), (0.5, 0.5))

    def test_rejects_negative_prob(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDistribution(five_point(), (1.1, -0.1, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_prob(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteDistribution(five_point(), (bad, 0.2, 0.2, 0.2, 0.2))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution(five_point(), (0.3, 0.3, 0.3, 0.0, 0.0))

    def test_sum_tolerance_is_tight(self):
        probs = (0.2, 0.2, 0.2, 0.2, 0.2 + 5e-10)
        DiscreteDistribution(five_point(), probs)  # within 1e-9: fine


class TestSessionObservation:
    def test_negative_period_rejected(self):
        with pytest.raises(NegativePeriod):
            SessionObservation("s1", "chat", period=-1, rating=3)

    @pytest.mark.parametrize("rating", [9, 0, 2.5])
    def test_dataset_rejects_rating_outside_space(self, rating):
        obs = SessionObservation("s1", "chat", period=0, rating=rating)
        with pytest.raises(UnknownRating, match=f"rating code {rating} "):
            Dataset(five_point(), (obs,))


class TestBuildDistribution:
    def test_relative_frequencies(self):
        dist = build_distribution([1, 1, 1, 5], five_point())
        assert dist.probs == (0.75, 0.0, 0.0, 0.0, 0.25)
        assert dist.n_obs == 4

    def test_degenerate(self):
        dist = build_distribution([3, 3, 3], five_point())
        assert dist.probs == (0.0, 0.0, 1.0, 0.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            build_distribution([], five_point())

    def test_unknown_rating_reports_code(self):
        with pytest.raises(UnknownRating, match="7"):
            build_distribution([1, 7], five_point())

    def test_rating_between_codes_is_unknown(self):
        with pytest.raises(UnknownRating, match="2.5"):
            build_distribution([1, 2.5], five_point())

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=300))
    def test_output_is_valid_distribution(self, ratings):
        dist = build_distribution(ratings, five_point())
        assert len(dist.probs) == 5
        assert all(p >= 0 for p in dist.probs)
        assert abs(sum(dist.probs) - 1.0) <= 1e-9

    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=100),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, ratings, rnd):
        shuffled = list(ratings)
        rnd.shuffle(shuffled)
        space = five_point()
        assert build_distribution(ratings, space).probs == \
            build_distribution(shuffled, space).probs


def _row(session="s1", category="chat", period=0, rating=4, task_completed=""):
    return {
        "session_id": session,
        "category": category,
        "period": period,
        "rating": rating,
        "task_completed": task_completed,
    }


class TestValidateDataset:
    def test_all_valid_strict(self):
        rows = [_row(session=f"s{i}") for i in range(10)]
        result = validate_dataset(rows, five_point(), STRICT)
        assert len(result.dataset) == 10
        assert result.rejections == ()

    def test_strict_fails_on_first_invalid(self):
        rows = [_row(), _row(rating=9)]
        with pytest.raises(UnknownRating, match="row 2"):
            validate_dataset(rows, five_point(), STRICT)

    def test_skip_invalid_drops_and_logs(self):
        rows = [_row(session=f"s{i}") for i in range(10)]
        rows[4] = _row(session="bad", rating=9)
        result = validate_dataset(rows, five_point(), SKIP_INVALID)
        assert len(result.dataset) == 9
        assert len(result.rejections) == 1
        assert result.rejections[0].row == 5
        assert result.rejections[0].reason == "unknown-rating"

    def test_negative_period_reason(self):
        result = validate_dataset([_row(period=-2)], five_point(), SKIP_INVALID)
        assert result.rejections[0].reason == "negative-period"

    def test_periods_past_2_53_are_malformed(self):
        # Past 2**53 a float no longer holds every integer, and TDC regresses
        # on float periods.
        rows = [_row(period=p) for p in (2**53, 2**53 + 1, str(2**53 + 1), 1e300)]
        result = validate_dataset(rows, five_point(), SKIP_INVALID)
        assert [o.period for o in result.dataset.observations] == [2**53]
        assert [(r.row, r.reason) for r in result.rejections] == [
            (2, "malformed-row"), (3, "malformed-row"), (4, "malformed-row")]
        assert result.rejections[0].detail == f"period must be <= 2**53, got {2**53 + 1}"

    @pytest.mark.parametrize(
        "mutation",
        [
            {"session_id": ""},
            {"category": None},
            {"rating": ""},
            {"period": "soon"},
            {"rating": "high"},
            {"task_completed": "perhaps"},
        ],
    )
    def test_malformed_rows(self, mutation):
        row = _row()
        row.update(mutation)
        with pytest.raises((MalformedRow,)):
            validate_dataset([row], five_point(), STRICT)

    def test_task_completed_parsing(self):
        rows = [
            _row(session="a", task_completed="true"),
            _row(session="b", task_completed="False"),
            _row(session="c", task_completed=""),
            _row(session="d", task_completed=True),
        ]
        result = validate_dataset(rows, five_point(), STRICT)
        flags = [o.task_completed for o in result.dataset.observations]
        assert flags == [True, False, None, True]

    def test_bad_strictness_rejected(self):
        with pytest.raises(ValueError, match="strictness"):
            validate_dataset([], five_point(), "lenient")

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=50))
    def test_skip_equals_strict_on_clean_input(self, ratings):
        rows = [_row(session=f"s{i}", rating=r) for i, r in enumerate(ratings)]
        strict = validate_dataset(rows, five_point(), STRICT)
        skip = validate_dataset(rows, five_point(), SKIP_INVALID)
        assert strict.dataset == skip.dataset
        assert skip.rejections == ()
