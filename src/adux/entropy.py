"""Interaction Entropy Index: Shannon entropy of rating distributions.

The IEI of a rating distribution is ``-sum(p * log2(p))`` in bits, with the
standard convention that terms with p = 0 contribute nothing. High values
mean broadly spread satisfaction responses (an unpredictable-feeling
interface); zero means every rating landed on one level.

Grouped IEI is computed from rating counts (:class:`~adux.model.SessionCounts`),
never from the rows themselves: a probability is count / n, the same float
whether the ratings are counted or listed.
"""

from __future__ import annotations

import math
from collections import defaultdict

from ._record import record
from .errors import EmptyDataset
from .model import (
    MEAN_OF_SESSIONS,
    POOLED,
    Dataset,
    DiscreteDistribution,
    ResponseSpace,
    SessionCounts,
    build_distribution,
    sum_counts,
)

PER_CATEGORY = "per-category"
PER_CATEGORY_PER_PERIOD = "per-category-per-period"

GroupKey = str | tuple[str, int]


@record(frozen=True)
class EntropyBits:
    """Entropy value in bits, its normalized form, and the sample size.

    ``normalized`` is value / log2(|R|), clamped to [0, 1]; it is defined as
    0 for a single-level space, where entropy is identically zero.
    ``n_ratings`` is None when the distribution was not estimated from data.
    """

    value: float
    normalized: float | None = None
    n_ratings: int | None = None

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError(f"entropy cannot be negative, got {self.value}")
        if self.normalized is not None and not 0.0 <= self.normalized <= 1.0:
            raise ValueError(f"normalized entropy outside [0, 1]: {self.normalized}")


def _entropy_bits(probs: tuple[float, ...]) -> float:
    h = -sum(p * math.log2(p) for p in probs if p > 0.0)
    return h if h > 0.0 else 0.0  # scrub -0.0 and rounding dust


def _normalize(value: float, n_levels: int) -> float:
    if n_levels < 2:
        return 0.0
    return min(max(value / math.log2(n_levels), 0.0), 1.0)


def iei(dist: DiscreteDistribution) -> EntropyBits:
    """Interaction Entropy Index of one distribution, in bits."""
    value = _entropy_bits(dist.probs)
    return EntropyBits(
        value=value,
        normalized=_normalize(value, len(dist.space)),
        n_ratings=dist.n_obs,
    )


def iei_of_ratings(ratings, space: ResponseSpace) -> EntropyBits:
    """IEI of a raw list of rating codes."""
    return iei(build_distribution(ratings, space))


@record(frozen=True)
class GroupedEntropy:
    """Per-group IEI results, one per group that has ratings."""

    results: tuple[tuple[GroupKey, EntropyBits], ...]


def _entropy_of_counts(counts: tuple[int, ...]) -> float:
    n = sum(counts)
    return _entropy_bits(tuple(c / n for c in counts))


def _mean_entropy(parts: list[list[int]], space: ResponseSpace) -> EntropyBits:
    """IEI of a group as the unweighted mean over its parts' rating counts:
    its sessions, or the whole group as one part when pooled.

    Sessions of a few ratings share few count vectors, so each distinct
    vector's entropy is computed once; the sum keeps the parts' order."""
    known: dict[tuple[int, ...], float] = {}
    values = []
    for counts in map(tuple, parts):
        value = known.get(counts)
        if value is None:
            value = known[counts] = _entropy_of_counts(counts)
        values.append(value)
    mean_value = sum(values) / len(values)
    return EntropyBits(
        value=mean_value,
        normalized=_normalize(mean_value, len(space)),
        n_ratings=sum(sum(counts) for counts in parts),
    )


def iei_by_group(
    dataset: Dataset | SessionCounts,
    grouping: str = PER_CATEGORY,
    aggregation: str = POOLED,
) -> GroupedEntropy:
    """IEI per group of a dataset or of its counts.

    Grouping is per category or per (category, period). Pooled aggregation
    builds one distribution from all ratings in the group; mean-of-sessions
    computes the IEI of each session separately and averages them
    (unweighted), which needs counts tallied per session. ``n_ratings``
    reports the total ratings in the group either way. Group keys come back
    sorted for deterministic output.
    """
    if grouping not in (PER_CATEGORY, PER_CATEGORY_PER_PERIOD):
        raise ValueError(f"unknown grouping {grouping!r}")
    if aggregation not in (POOLED, MEAN_OF_SESSIONS):
        raise ValueError(f"unknown aggregation {aggregation!r}")
    counts = SessionCounts.of(dataset, aggregation)
    if len(counts) == 0:
        raise EmptyDataset("cannot compute grouped IEI on an empty dataset")

    def group_of(category: str, period: int) -> GroupKey:
        return category if grouping == PER_CATEGORY else (category, period)

    parts: defaultdict[GroupKey, list[list[int]]] = defaultdict(list)
    if aggregation == POOLED:
        pooled = sum_counts((group_of(c, p), n) for (c, p), n in counts.levels.items())
        for key, n in pooled.items():
            parts[key].append(n)
    elif counts.per_session:
        # Sessions keep first-seen order within their group, so the mean
        # sums the session entropies in the order the rows listed them.
        sessions = sum_counts(
            ((group_of(c, p), s), n) for (c, p, s), n in counts.sessions.items()
        )
        for (key, _), n in sessions.items():
            parts[key].append(n)
    else:
        raise ValueError("mean-of-sessions IEI needs counts tallied per session")
    return GroupedEntropy(results=tuple(
        (key, _mean_entropy(parts[key], counts.space)) for key in sorted(parts)
    ))
