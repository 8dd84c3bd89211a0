"""Interaction Entropy Index: Shannon entropy of rating distributions.

The IEI of a rating distribution is ``-sum(p * log2(p))`` in bits, with the
standard convention that terms with p = 0 contribute nothing. High values
mean broadly spread satisfaction responses (an unpredictable-feeling
interface); zero means every rating landed on one level.

Grouped IEI is computed from rating counts (:class:`~adux.model.SessionCounts`),
never from the rows themselves: a probability is count / n, the same float
whether the ratings are counted or listed. The counts also carry the
aggregation, pooled or mean-of-sessions, that was chosen when they were
made.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from itertools import chain, repeat

from ._record import record
from .errors import EmptyDataset
# MEAN_OF_SESSIONS is re-exported, beside POOLED, for adux.__all__.
from .model import (  # noqa: F401
    MEAN_OF_SESSIONS,
    POOLED,
    DiscreteDistribution,
    ResponseSpace,
    SessionCounts,
    build_distribution,
    sum_counts,
)

PER_CATEGORY = "per-category"
PER_CATEGORY_PER_PERIOD = "per-category-per-period"

GroupKey = str | tuple[str, int]


@record
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


def _entropy_of_counts(counts: tuple[int, ...]) -> float:
    n = sum(counts)
    return _entropy_bits(tuple(c / n for c in counts))


def _mean_entropy(parts: Iterable[Sequence[int]], space: ResponseSpace) -> EntropyBits:
    """IEI of a group as the unweighted mean over its parts' rating counts:
    its sessions, or the whole group as one part when pooled.

    Sessions of a few ratings share few count vectors, so the parts are
    counted by vector and each distinct vector's entropy is computed once.
    The mean is the ``math.fsum`` of the parts' entropies, each distinct
    one repeated by its multiplicity, over the number of parts. fsum rounds
    the exact sum once, so the mean does not depend on the parts' order."""
    multiplicity = Counter(map(tuple, parts))
    total = math.fsum(chain.from_iterable(
        repeat(_entropy_of_counts(counts), m) for counts, m in multiplicity.items()))
    mean_value = total / multiplicity.total()
    return EntropyBits(
        value=mean_value,
        normalized=_normalize(mean_value, len(space)),
        n_ratings=sum(sum(counts) * m for counts, m in multiplicity.items()),
    )


def _parts(levels: list[dict[str, list[int]]]) -> Iterable[Sequence[int]]:
    """The count lists of a group's parts, from its levels' dicts of them
    by session id: one level's as they are, or several summed by id."""
    if len(levels) == 1:
        return levels[0].values()
    return sum_counts(chain.from_iterable(map(dict.items, levels))).values()


def iei_by_group(
    counts: SessionCounts, grouping: str = PER_CATEGORY
) -> tuple[tuple[GroupKey, EntropyBits], ...]:
    """IEI per group of a session log's counts, as (key, IEI) pairs.

    Grouping is per category or per (category, period). The aggregation is
    the counts' own: pooled builds one distribution from all ratings in the
    group; mean-of-sessions computes the IEI of each session separately and
    averages them (unweighted), in any order to the same bits. A session
    seen in two periods of a category is one part of that category.
    ``n_ratings`` reports the total ratings in the group either way. Group
    keys come back sorted for deterministic output.

    Counts are read, never changed: each group takes its count lists by
    reference, and a new list is summed only for a group that gathers more
    than one of them, such as a session whose rows fall in two periods of
    one category. Mean-of-sessions sums a category's sessions by id one
    category at a time, and only for a category seen in several periods.
    """
    if grouping not in (PER_CATEGORY, PER_CATEGORY_PER_PERIOD):
        raise ValueError(f"unknown grouping {grouping!r}")
    if len(counts) == 0:
        raise EmptyDataset("cannot compute grouped IEI on an empty dataset")

    if counts.aggregation == POOLED:
        parts: defaultdict[GroupKey, list[Sequence[int]]] = defaultdict(list)
        if grouping == PER_CATEGORY:
            pooled = sum_counts((c, n) for (c, _), n in counts.levels.items())
        else:
            pooled = counts.levels
        for key, n in pooled.items():
            parts[key].append(n)
        return tuple((key, _mean_entropy(parts[key], counts.space)) for key in sorted(parts))
    groups: defaultdict[GroupKey, list[dict[str, list[int]]]] = defaultdict(list)
    for (c, p), level in counts.sessions.items():
        groups[c if grouping == PER_CATEGORY else (c, p)].append(level)
    return tuple((key, _mean_entropy(_parts(groups[key]), counts.space))
                 for key in sorted(groups))
