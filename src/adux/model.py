"""Core domain types: response spaces, rating distributions, session logs
and the counts every metric is computed from.

The value types are immutable after construction and validated eagerly, so
the metric modules can assume well-formed inputs. A session log is checked
row by row by one :class:`RowValidator`, the same for rows given as
mappings (:func:`validate_dataset`) and rows streamed from a file
(``ingest.load_sessions`` and ``ingest.tally_sessions``). The metrics need
only sufficient statistics, which :class:`SessionCounts` holds: rating
counts per (category, period), task outcomes per category and, for the
mean-of-sessions IEI, rating counts per session; the IEI aggregation is
set when the counts are made. It is the one mutable type here, an
accumulator that is filled a row at a time, and the one input every
metric takes; ``ingest.tally_sessions`` fills it from a log.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Hashable, Iterable, Mapping, Sequence
from operator import add
from typing import Any, TypeVar

from ._record import record
from .errors import (
    AduxError,
    EmptyInput,
    MalformedRow,
    NegativePeriod,
    UnknownRating,
)

PROB_SUM_TOL = 1e-9

# The most levels a response space may have: a 0..100 visual-analogue scale.
# Counts hold a list entry per level for each category, period and session,
# so a scale of 10^8 levels would exhaust memory.
MAX_SCALE_LEVELS = 101

STRICT = "strict"
SKIP_INVALID = "skip-invalid"


@record
class ResponseSpace:
    """The admissible ratings: the integers ``min_code`` to ``max_code``
    inclusive, in order.

    The shipped default is the 1..5 scale (see :func:`five_point`). A code
    belongs to the space when it equals one of those integers, so ``3.0``
    and ``True`` (which equals 1) do and ``2.5`` does not.
    """

    min_code: int
    max_code: int

    def __post_init__(self) -> None:
        if self.max_code < self.min_code:
            raise ValueError(
                "response space must contain at least one level, "
                f"got {self.min_code}..{self.max_code}"
            )
        if self.max_code - self.min_code >= MAX_SCALE_LEVELS:
            raise ValueError(
                f"response space may hold at most {MAX_SCALE_LEVELS} levels, "
                f"got {self.min_code}..{self.max_code}"
            )

    @classmethod
    def from_range(cls, lo: int, hi: int) -> ResponseSpace:
        """Space with codes lo..hi inclusive."""
        return cls(lo, hi)

    @property
    def codes(self) -> tuple[int, ...]:
        return tuple(range(self.min_code, self.max_code + 1))

    def __len__(self) -> int:
        return self.max_code - self.min_code + 1

    def __contains__(self, code: object) -> bool:
        # range compares by equality, unlike a bare bounds check: 2.5 is out.
        return code in range(self.min_code, self.max_code + 1)


def five_point() -> ResponseSpace:
    """The shipped default: a 1..5 rating scale."""
    return ResponseSpace.from_range(1, 5)


@record
class DiscreteDistribution:
    """Probability vector over a response space.

    ``n_obs`` records how many observations the probabilities were estimated
    from, when they came from data; it stays ``None`` for hand-specified
    distributions.
    """

    space: ResponseSpace
    probs: tuple[float, ...]
    n_obs: int | None = None

    def __post_init__(self) -> None:
        if len(self.probs) != len(self.space):
            raise ValueError(
                f"got {len(self.probs)} probabilities for {len(self.space)} levels"
            )
        if not all(map(math.isfinite, self.probs)):
            raise ValueError(f"non-finite probability in {self.probs}")
        if any(p < 0 for p in self.probs):
            raise ValueError(f"negative probability in {self.probs}")
        total = sum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if self.n_obs is not None and self.n_obs < 1:
            raise ValueError("n_obs must be positive when given")


@record
class SessionObservation:
    """One logged interaction row.

    ``rating`` is validated against the shared space when the observation is
    placed in a :class:`Dataset`; the period must be non-negative already.
    """

    session_id: str
    category: str
    period: int
    rating: int
    task_completed: bool | None = None

    def __post_init__(self) -> None:
        if self.period < 0:
            raise NegativePeriod(f"period must be >= 0, got {self.period}")


_K = TypeVar("_K", bound=Hashable)

# How IEI aggregates a group: one distribution of all its ratings, or the
# unweighted mean of each session's entropy (which needs counts per session).
POOLED = "pooled"
MEAN_OF_SESSIONS = "mean-of-sessions"


def sum_counts(pairs: Iterable[tuple[_K, Sequence[int]]]) -> dict[_K, Sequence[int]]:
    """Add up count vectors that share a key; keys keep first-seen order.
    No vector given is changed: a key seen again gets a new list of sums."""
    total: dict[_K, Sequence[int]] = {}
    for key, counts in pairs:
        mine = total.get(key)
        total[key] = counts if mine is None else list(map(add, mine, counts))
    return total


class SessionCounts:
    """Sufficient statistics of a session log, filled one row at a time.

    ``aggregation`` is how IEI aggregates a group of these counts,
    ``pooled`` or ``mean-of-sessions``; any other value is a ValueError.
    ``levels`` maps (category, period) to rating counts, one per level of
    ``space`` in order. ``trials`` maps a category to
    ``[completions, trials]`` over its rows that carry a task outcome.
    ``sessions`` is filled only under ``mean-of-sessions``, which reads it:
    it maps (category, period) to a dict from session id to that session's
    rating counts in the group, so a session's key holds no copy of its
    category or period. ``len()`` is the number of rows counted.
    """

    __hash__ = None  # mutable, so unhashable

    def __init__(self, space: ResponseSpace, aggregation: str = POOLED) -> None:
        if aggregation not in (POOLED, MEAN_OF_SESSIONS):
            raise ValueError(f"aggregation must be {POOLED!r} or {MEAN_OF_SESSIONS!r}, "
                             f"got {aggregation!r}")
        self.space = space
        self.aggregation = aggregation
        self.rows = 0
        self.levels: dict[tuple[str, int], list[int]] = {}
        self.trials: dict[str, list[int]] = {}
        self.sessions: dict[tuple[str, int], dict[str, list[int]]] = {}
        self._index = {code: i for i, code in enumerate(space.codes)}

    def __repr__(self) -> str:
        return (f"SessionCounts(space={self.space!r}, aggregation={self.aggregation!r}, "
                f"rows={self.rows!r}, levels={self.levels!r}, trials={self.trials!r}, "
                f"sessions={self.sessions!r})")

    def __eq__(self, other: object) -> Any:  # the six fields; _index follows from space
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def add(
        self,
        session_id: str,
        category: str,
        period: int,
        rating: int,
        task_completed: bool | None,
        n: int = 1,
    ) -> None:
        """Count one validated row, or ``n`` identical ones.

        Adding a row with weight n is the same as adding it n times in a
        row: :func:`~adux.ingest.tally_sessions` counts the distinct lines
        of a clean CSV log and adds each once, with its count as weight.
        """
        i = self._index[rating]
        key = (category, period)
        counts = self.levels.get(key)
        if counts is None:
            counts = self.levels[key] = [0] * len(self._index)
        counts[i] += n
        if task_completed is not None:
            outcomes = self.trials.get(category)
            if outcomes is None:
                outcomes = self.trials[category] = [0, 0]
            if task_completed:
                outcomes[0] += n
            outcomes[1] += n
        if self.aggregation == MEAN_OF_SESSIONS:
            group = self.sessions.get(key)
            if group is None:
                group = self.sessions[key] = {}
            counts = group.get(session_id)
            if counts is None:
                counts = group[session_id] = [0] * len(self._index)
            counts[i] += n
        self.rows += n

    def __len__(self) -> int:
        return self.rows

    def categories(self) -> tuple[str, ...]:
        """Distinct categories, sorted."""
        return tuple(sorted({category for category, _ in self.levels}))


@record
class Dataset:
    """A response space plus the observations recorded against it."""

    space: ResponseSpace
    observations: tuple[SessionObservation, ...]

    def __post_init__(self) -> None:
        codes = set(self.space.codes)
        for obs in self.observations:
            if obs.rating not in codes:
                raise UnknownRating(
                    f"rating code {obs.rating} (session {obs.session_id!r}) "
                    f"not in response space {self.space.codes}"
                )

    def counts(self, aggregation: str = POOLED) -> SessionCounts:
        """The sufficient statistics of these observations, in their order,
        for IEI under ``aggregation``."""
        tally = SessionCounts(self.space, aggregation)
        for o in self.observations:
            tally.add(o.session_id, o.category, o.period, o.rating, o.task_completed)
        return tally

    def __len__(self) -> int:
        return len(self.observations)


@record
class Rejection:
    """One dropped or refused input row."""

    row: int
    reason: str
    detail: str


@record
class ValidationResult:
    """Validated dataset plus the log of rejected rows."""

    dataset: Dataset
    rejections: tuple[Rejection, ...] = ()


def build_distribution(
    ratings: Sequence[int], space: ResponseSpace
) -> DiscreteDistribution:
    """Empirical relative-frequency distribution of the given rating codes.

    Raises :class:`EmptyInput` for an empty list and :class:`UnknownRating`
    for any code outside the space.
    """
    if len(ratings) == 0:
        raise EmptyInput("cannot build a distribution from zero ratings")
    counts = Counter(ratings)
    known = set(space.codes)
    for code in counts:
        if code not in known:
            raise UnknownRating(
                f"rating code {code!r} not in response space {space.codes}"
            )
    n = len(ratings)
    probs = tuple(counts.get(code, 0) / n for code in space.codes)
    return DiscreteDistribution(space=space, probs=probs, n_obs=n)


_TRUE_WORDS = {"true", "1", "yes"}
_FALSE_WORDS = {"false", "0", "no"}


def _parse_task_completed(value: Any) -> bool | None:
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text == "":
        return None
    if text in _TRUE_WORDS:
        return True
    if text in _FALSE_WORDS:
        return False
    raise ValueError(f"task_completed value {value!r} is not true/false/empty")


def _parse_int(value: Any, name: str) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got boolean {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return int(str(value).strip())
    except (TypeError, ValueError):
        raise ValueError(f"{name} value {value!r} is not an integer") from None


_REASON_BY_TYPE = {
    UnknownRating: "unknown-rating",
    NegativePeriod: "negative-period",
    MalformedRow: "malformed-row",
}


def _parse_fields(
    space: ResponseSpace, period: Any, rating: Any, task_completed: Any
) -> tuple[int, int, bool | None] | AduxError:
    """Parsed (period, rating, task_completed), or the error of the first
    check that fails: missing rating, missing period, each field's parse,
    negative period, period above 2**53, rating outside the space."""
    if rating is None or rating == "":
        return MalformedRow("missing rating")
    if period is None or period == "":
        return MalformedRow("missing period")
    try:
        period = _parse_int(period, "period")
        rating = _parse_int(rating, "rating")
        task = _parse_task_completed(task_completed)
    except ValueError as exc:
        return MalformedRow(str(exc))
    if period < 0:
        return NegativePeriod(f"period must be >= 0, got {period}")
    if period > 2**53:  # past it a float, which TDC regresses on, skips integers
        return MalformedRow(f"period must be <= 2**53, got {period}")
    if rating not in space:
        return UnknownRating(f"rating code {rating} not in response space {space.codes}")
    return period, rating, task


class RowValidator:
    """Checks raw rows one at a time and keeps the log of rejected ones.

    A row's checks run in a fixed order: missing session_id, missing
    category, a category that is not UTF-8 text, then those of
    :func:`_parse_fields`. In ``strict`` mode the first invalid row raises
    its error, prefixed with the row number; in ``skip-invalid`` mode it is
    recorded in ``rejections`` and dropped.

    The outcome of the (period, rating, task_completed) checks is memoised
    per distinct triple of raw values, since a log repeats few of them. The
    key holds each value's type as well, because ``True``, ``1`` and ``1.0``
    are equal and hash alike in Python yet parse differently; floats are
    not memoised at all, as ``0.0`` and ``-0.0`` are equal but print apart.
    """

    def __init__(self, space: ResponseSpace, strictness: str = STRICT) -> None:
        if strictness not in (STRICT, SKIP_INVALID):
            raise ValueError(f"strictness must be {STRICT!r} or {SKIP_INVALID!r}")
        self.space = space
        self.strict = strictness == STRICT
        self.rejections: list[Rejection] = []
        self._parsed: dict[tuple, tuple[int, int, bool | None] | AduxError] = {}

    def reject(self, row: int, error: AduxError) -> None:
        """Raise (strict) or record (skip-invalid) an invalid row."""
        if self.strict:
            raise type(error)(f"row {row}: {error}")
        self.rejections.append(Rejection(row, _REASON_BY_TYPE[type(error)], str(error)))

    def check(
        self,
        row: int,
        session_id: Any,
        category: Any,
        period: Any,
        rating: Any,
        task_completed: Any,
    ) -> tuple[str, str, int, int, bool | None] | None:
        """The parsed row, or None when it was rejected."""
        if session_id is None or str(session_id) == "":
            return self.reject(row, MalformedRow("missing session_id"))
        category = "" if category is None else str(category)
        if category == "":
            return self.reject(row, MalformedRow("missing category"))
        if not category.isascii():
            try:
                category.encode("utf-8")
            except UnicodeEncodeError:
                # A lone surrogate, from a JSON escape such as "\ud800" or a
                # byte read with surrogateescape, which no report can write.
                return self.reject(row, MalformedRow(f"category {category!r} is not UTF-8 text"))
        key = (period, rating, task_completed,
               period.__class__, rating.__class__, task_completed.__class__)
        try:
            parsed = self._parsed[key]
        except KeyError:
            parsed = _parse_fields(self.space, period, rating, task_completed)
            if float not in key[3:]:
                self._parsed[key] = parsed
        except TypeError:  # an unhashable JSON value: a list or an object
            parsed = _parse_fields(self.space, period, rating, task_completed)
        if parsed.__class__ is not tuple:
            return self.reject(row, parsed)
        return (str(session_id), category) + parsed


def validate_dataset(
    rows: Iterable[Mapping[str, Any]],
    space: ResponseSpace,
    strictness: str = STRICT,
) -> ValidationResult:
    """Turn raw row mappings into a validated :class:`Dataset`.

    In ``strict`` mode the first invalid row raises; in ``skip-invalid`` mode
    invalid rows are dropped and each one is recorded in the rejection log
    with its row number, counted from 1, and a machine-readable reason.
    """
    validator = RowValidator(space, strictness)
    observations: list[SessionObservation] = []
    for number, row in enumerate(rows, 1):
        get = row.get
        parsed = validator.check(number, get("session_id"), get("category"),
                                 get("period"), get("rating"), get("task_completed"))
        if parsed is not None:
            observations.append(SessionObservation(*parsed))
    return ValidationResult(
        dataset=Dataset(space=space, observations=tuple(observations)),
        rejections=tuple(validator.rejections),
    )
