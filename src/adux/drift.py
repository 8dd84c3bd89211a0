"""Temporal Drift Coefficient: the slope of mean usability over time.

A usability series is the per-period mean rating of a category. The TDC is
the ordinary-least-squares slope of that series against the period index,
reported per period, with a Student-t confidence interval. At least five
points are required for a fit; fewer raise :class:`InsufficientData`.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import record
from .errors import DegenerateTime, InsufficientData, UnknownCategory
from .model import SessionCounts
from .special import student_t_quantile

MIN_POINTS = 5


@record
class UsabilitySeries:
    """Ordered (period, mean usability) points; periods strictly increasing."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        ts = [t for t, _ in self.points]
        if any(t < 0 for t in ts):
            raise ValueError(f"periods must be non-negative, got {ts}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"periods must be strictly increasing, got {ts}")

    def __len__(self) -> int:
        return len(self.points)


@record
class TdcFit:
    """OLS fit of usability on time: intercept, slope, and inference stats."""

    beta0: float
    beta1: float
    stderr_beta1: float
    ci95_beta1: tuple[float, float]
    residual_sd: float
    r_squared: float
    n_points: int

    def __post_init__(self) -> None:
        lo, hi = self.ci95_beta1
        if not lo <= self.beta1 <= hi:
            raise ValueError(
                f"confidence interval {self.ci95_beta1} does not contain "
                f"the slope {self.beta1}"
            )
        if self.n_points < MIN_POINTS:
            raise ValueError(f"fit must use at least {MIN_POINTS} points")
        if not -1e-9 <= self.r_squared <= 1.0 + 1e-9:
            raise ValueError(f"r_squared outside [0, 1]: {self.r_squared}")


class DriftDirection(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    INDETERMINATE = "indeterminate"


def series_from_dataset(counts: SessionCounts, category: str) -> UsabilitySeries:
    """Per-period mean rating of one category, skipping empty periods.

    No imputation: periods without data are simply absent from the series.
    A point is the exact integer sum of code x count over the count, so it
    equals the mean of the listed ratings.
    """
    codes = counts.space.codes
    means = {
        period: sum(code * k for code, k in zip(codes, n)) / sum(n)
        for (c, period), n in counts.levels.items()
        if c == category
    }
    if not means:
        raise UnknownCategory(
            f"category {category!r} not in dataset "
            f"(have: {', '.join(counts.categories()) or 'none'})"
        )
    return UsabilitySeries(points=tuple(sorted(means.items())))


def fit_tdc(series: UsabilitySeries) -> TdcFit:
    """Ordinary least squares of usability on period index.

    The slope standard error is residual_sd / sqrt(sum((t - tbar)^2)) with
    residual_sd^2 = SSE / (n - 2), and the 95% interval uses the Student-t
    quantile with n - 2 degrees of freedom. r_squared is defined as 0 for a
    constant series.
    """
    n = len(series)
    if n < MIN_POINTS:
        raise InsufficientData(
            f"TDC requires at least {MIN_POINTS} populated periods "
            f"to yield a stable slope; got {n}"
        )
    ts = [float(t) for t, _ in series.points]
    us = [u for _, u in series.points]
    tbar = sum(ts) / n
    ubar = sum(us) / n
    sxx = sum((t - tbar) ** 2 for t in ts)
    if sxx == 0.0:
        raise DegenerateTime("time periods have zero variance; no slope exists")
    sxy = sum((t - tbar) * (u - ubar) for t, u in zip(ts, us))
    beta1 = sxy / sxx
    beta0 = ubar - beta1 * tbar

    sse = sum((u - (beta0 + beta1 * t)) ** 2 for t, u in zip(ts, us))
    sst = sum((u - ubar) ** 2 for u in us)
    residual_sd = math.sqrt(max(sse, 0.0) / (n - 2))
    stderr = residual_sd / math.sqrt(sxx)
    tq = student_t_quantile(0.975, n - 2)
    r_squared = 0.0 if sst == 0.0 else min(max(1.0 - sse / sst, 0.0), 1.0)

    return TdcFit(
        beta0=beta0,
        beta1=beta1,
        stderr_beta1=stderr,
        ci95_beta1=(beta1 - tq * stderr, beta1 + tq * stderr),
        residual_sd=residual_sd,
        r_squared=r_squared,
        n_points=n,
    )


def classify_drift(fit: TdcFit) -> DriftDirection:
    """Sign of the drift, judged by whether the 95% CI excludes zero."""
    lo, hi = fit.ci95_beta1
    if lo > 0.0:
        return DriftDirection.POSITIVE
    if hi < 0.0:
        return DriftDirection.NEGATIVE
    return DriftDirection.INDETERMINATE
