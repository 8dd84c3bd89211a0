"""Bayesian Usability Confidence Score: Beta-Binomial intervals.

Task completion is modelled as Binomial with a conjugate Beta prior, so the
posterior after n completions in N trials is Beta(alpha + n, beta + N - n).
The headline output is the 95% highest density interval of that posterior;
a Wald interval on the same counts is provided as the frequentist
comparator.

The HDI of a unimodal interior density is solved directly from its two
defining conditions, equal density at both endpoints and the stated mass
between them (Kruschke 2015, *Doing Bayesian Data Analysis*): Newton on the
shared log-density level, with each endpoint found by Newton on the log
density. Boundary-mode shapes (alpha <= 1 or beta <= 1) get one-sided
intervals anchored at the boundary where the density peaks, and flat or
U-shaped densities fall back to the central equal-tailed interval flagged
as non-unique.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from collections.abc import Iterable

from ._record import record
from .errors import InvalidMass, ZeroTrials
from .special import (
    beta_pdf,
    incomplete_beta_inverse,
    log_beta,
    newton_root,
    normal_quantile,
    regularized_incomplete_beta,
)

# z pinned at the conventional 6-digit value for the default level.
_Z_95 = 1.959964

# Relative step at which the HDI level search stops. A level off by
# _LEVEL_RTOL * |lam| moves the held mass by at most _LEVEL_RTOL, since
# |R'(lam)| <= 1/|lam| for a log-concave density; a tighter stop would only
# chase the error of I_x itself, ~1e-9 at N = 10^7.
_LEVEL_RTOL = 1e-8


@record
class BetaParams:
    """Shape parameters of a Beta distribution; both positive and finite,
    and so is their sum."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError(
                f"Beta parameters must be positive, got ({self.alpha}, {self.beta})"
            )
        if not (self.alpha < math.inf and self.beta < math.inf):  # NaN fails this too
            raise ValueError(f"Beta parameters must be finite, got ({self.alpha}, {self.beta})")
        if self.alpha + self.beta == math.inf:  # no density, mean or interval to solve for
            raise ValueError("alpha + beta overflows a float")

    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def mode(self) -> float | None:
        """Interior mode; None when the density peaks on a boundary."""
        if self.alpha > 1.0 and self.beta > 1.0:
            return (self.alpha - 1.0) / (self.alpha + self.beta - 2.0)
        return None

    def pdf(self, x: float) -> float:
        return beta_pdf(self.alpha, self.beta, x)


@record
class TrialSummary:
    """Completion counts: ``completions`` successes out of ``trials``."""

    completions: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError(f"trial count must be >= 0, got {self.trials}")
        if not 0 <= self.completions <= self.trials:
            raise ValueError(
                f"completions must lie in [0, {self.trials}], got {self.completions}"
            )


class IntervalKind(Enum):
    HDI = "hdi"
    EQUAL_TAILED = "equal-tailed"
    ONE_SIDED_LOWER = "one-sided-lower"
    ONE_SIDED_UPPER = "one-sided-upper"


@record
class CredibleInterval:
    """[lower, upper] holding ``mass`` probability; ``unique`` is False when
    the interval was a convention pick among equally valid ones."""

    lower: float
    upper: float
    mass: float
    kind: IntervalKind
    unique: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"interval endpoints out of order or range: "
                f"[{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


def posterior(prior: BetaParams, trials: TrialSummary) -> BetaParams:
    """Conjugate update: Beta(alpha + n, beta + N - n)."""
    return BetaParams(
        alpha=prior.alpha + trials.completions,
        beta=prior.beta + (trials.trials - trials.completions),
    )


def posterior_overflows(prior: BetaParams, n_trials: int) -> bool:
    """Whether ``prior`` updated on ``n_trials`` trials, whatever their
    completions, has an alpha + beta past the float range, so that no
    BetaParams can hold the posterior."""
    # An int past the largest float compares exactly, where a sum would overflow.
    return n_trials > sys.float_info.max or prior.alpha + prior.beta + n_trials == math.inf


def update_prior(history: Iterable[TrialSummary], initial: BetaParams) -> BetaParams:
    """Fold a sequence of trial summaries into the prior.

    By conjugacy this equals a single update on the pooled counts, in any
    order.
    """
    params = initial
    for trials in history:
        params = posterior(params, trials)
    return params


def beta_cdf(params: BetaParams, x: float) -> float:
    """CDF of Beta(alpha, beta) at x, i.e. the regularized incomplete beta."""
    return regularized_incomplete_beta(params.alpha, params.beta, x)


def beta_quantile(params: BetaParams, p: float) -> float:
    """Inverse CDF, by bracketed Newton on the incomplete beta."""
    return incomplete_beta_inverse(params.alpha, params.beta, p)


def _check_mass(mass: float) -> None:
    if not 0.0 < mass < 1.0:
        raise InvalidMass(f"interval mass must lie in (0, 1), got {mass}")


def _two_sided_z(mass: float) -> float:
    """The normal quantile at (1 + mass) / 2, or at the exact lower tail where that rounds to 1."""
    upper = 0.5 + 0.5 * mass
    return normal_quantile(upper) if upper < 1.0 else -normal_quantile(0.5 * (1.0 - mass))


def equal_tailed_interval(params: BetaParams, mass: float = 0.95) -> CredibleInterval:
    """Central interval leaving (1 - mass)/2 probability in each tail."""
    _check_mass(mass)
    half_tail = (1.0 - mass) / 2.0
    return CredibleInterval(
        lower=beta_quantile(params, half_tail),
        upper=beta_quantile(params, half_tail + mass),
        mass=mass,
        kind=IntervalKind.EQUAL_TAILED,
    )


def _log_ratio(x: float, m: float) -> float:
    """log(x / m), through log1p near x = m where the terms are large."""
    d = (x - m) / m
    return math.log1p(d) if abs(d) < 0.5 else math.log(x / m)


def _score(a: float, b: float, x: float) -> float:
    """d/dx log f(x) for Beta(a, b)."""
    return (a - 1.0) / x - (b - 1.0) / (1.0 - x)


def _below_mode(a: float, b: float, m: float, m_mirror: float, lam: float, start: float) -> float:
    """x in (0, m) where log f(x) - log f(m) = lam, for Beta(a, b) with mode
    m = 1 - m_mirror; Newton on the log density, no I_x call."""

    def residual(x: float) -> tuple[float, float]:
        level = (a - 1.0) * _log_ratio(x, m) + (b - 1.0) * _log_ratio(1.0 - x, m_mirror)
        return level - lam, _score(a, b, x)

    return newton_root(residual, 0.0, m, start)


def _hdi_interior(a: float, b: float, mass: float) -> tuple[float, float]:
    """Equal-density endpoints l < mode < u holding ``mass``; a, b > 1.

    The unknown is the level lam = log f(l) - log f(mode) = log f(u) -
    log f(mode). For a given lam, l is the point below the mode at that
    level and 1 - u the same point of the mirror image Beta(b, a), so each
    endpoint keeps its relative precision next to its own boundary. The
    outer Newton solves R(lam) = mass - (F(u) - F(l)) = 0, where
    R'(lam) = f(l) (1/s(l) - 1/s(u)) and s = (log f)'. The level stays well
    scaled even when an endpoint is pressed against 0 or 1 (a or b near 1).
    """
    m = (a - 1.0) / (a + b - 2.0)
    m_mirror = (b - 1.0) / (a + b - 2.0)
    log_peak = (a - 1.0) * math.log(m) + (b - 1.0) * math.log(m_mirror) - log_beta(a, b)
    # Normal approximation for the start: endpoints mode -/+ z sd, level -z^2/2.
    z = _two_sided_z(mass)
    sd = math.sqrt(a * b / (a + b + 1.0)) / (a + b)
    ends = [max(m - z * sd, 0.5 * m), max(m_mirror - z * sd, 0.5 * m_mirror)]

    def endpoints(lam: float) -> tuple[float, float]:
        ends[0] = _below_mode(a, b, m, m_mirror, lam, ends[0])
        ends[1] = _below_mode(b, a, m_mirror, m, lam, ends[1])
        return ends[0], 1.0 - ends[1]

    def residual(lam: float) -> tuple[float, float]:
        lower, upper = endpoints(lam)
        held = regularized_incomplete_beta(a, b, upper) - regularized_incomplete_beta(a, b, lower)
        spread = 1.0 / _score(a, b, lower) + 1.0 / _score(b, a, ends[1])
        return mass - held, math.exp(log_peak + lam) * spread

    # The density is log-concave, so the mass outside the level set
    # {f >= t f(mode)} is at most t: R <= 0 at t = 1 - mass.
    lam = newton_root(residual, math.log1p(-mass), 0.0, -0.5 * z * z, rtol=_LEVEL_RTOL)
    return endpoints(lam)


def hdi(params: BetaParams, mass: float = 0.95) -> CredibleInterval:
    """Highest density interval of a Beta distribution.

    For an interior-mode density (alpha > 1 and beta > 1) this is the
    narrowest interval holding ``mass``: its endpoints have equal density,
    and both conditions are solved directly by Newton (``_hdi_interior``).
    Densities peaking at a boundary yield the one-sided interval anchored
    there, and flat or U-shaped densities yield the central equal-tailed
    interval flagged ``unique=False``.
    """
    _check_mass(mass)
    a, b = params.alpha, params.beta

    if a > 1.0 and b > 1.0:
        lower, upper = _hdi_interior(a, b, mass)
        return CredibleInterval(lower=lower, upper=upper, mass=mass, kind=IntervalKind.HDI)
    if a <= 1.0 < b:
        return CredibleInterval(
            lower=0.0,
            upper=beta_quantile(params, mass),
            mass=mass,
            kind=IntervalKind.ONE_SIDED_LOWER,
        )
    if b <= 1.0 < a:
        return CredibleInterval(
            lower=beta_quantile(params, 1.0 - mass),
            upper=1.0,
            mass=mass,
            kind=IntervalKind.ONE_SIDED_UPPER,
        )
    # Flat or U-shaped: every (or no) interval qualifies; pick the central
    # one so callers still get a number, and flag the convention.
    central = equal_tailed_interval(params, mass)
    return CredibleInterval(central.lower, central.upper, mass, central.kind, unique=False)


@record
class BucsResult:
    """Posterior parameters, credible interval, and point summaries."""

    posterior: BetaParams
    interval: CredibleInterval
    mean: float
    mode: float | None


def bucs(
    prior: BetaParams, trials: TrialSummary, mass: float = 0.95
) -> BucsResult:
    """Posterior update plus the HDI report for task-completion data."""
    post = posterior(prior, trials)
    return BucsResult(
        posterior=post,
        interval=hdi(post, mass),
        mean=post.mean(),
        mode=post.mode(),
    )


def wald_ci(trials: TrialSummary, level: float = 0.95) -> CredibleInterval:
    """Frequentist Wald interval p_hat +/- z * sqrt(p_hat(1-p_hat)/N).

    Uses z = 1.959964 at the default 0.95 level; other levels derive z from
    the normal quantile. The interval is clamped to [0, 1] and collapses to
    zero width at p_hat in {0, 1}.
    """
    _check_mass(level)
    if trials.trials < 1:
        raise ZeroTrials("Wald interval needs at least one trial")
    p_hat = trials.completions / trials.trials
    z = _Z_95 if level == 0.95 else _two_sided_z(level)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials.trials)
    return CredibleInterval(
        lower=max(0.0, p_hat - half),
        upper=min(1.0, p_hat + half),
        mass=level,
        kind=IntervalKind.EQUAL_TAILED,
    )
