"""Seeded synthetic-session generator with known ground truth.

Serves as the oracle backbone for metric-recovery tests: every generator
knows the exact distribution, drift line, or completion probability it
samples from, so recovered metrics can be compared against truth.

Randomness comes from the standard library's ``random.Random`` seeded per
spec, and only through its ``random()`` method, whose sequence for a given
seed Python keeps the same across versions; identical specs therefore
produce identical output on every supported Python. Every other law is
built from those uniforms: rating codes by inverse CDF, task outcomes and
Binomial counts by comparing uniforms with p, and Gaussian noise by the
Box-Muller transform of uniform pairs.

:func:`gen_session_columns` draws a spec's sessions one period at a time,
as columns of session ids and row keys, so ``adux simulate`` writes them
as they are drawn; :func:`gen_ratings` collects the same draws into a
:class:`~adux.model.Dataset`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Iterator
from itertools import accumulate
from operator import getitem

from ._record import record
from .bayes import TrialSummary
from .drift import UsabilitySeries
from .model import Dataset, DiscreteDistribution, ResponseSpace, SessionObservation, five_point


@record
class GeneratorSpec:
    """Ground-truth parameters for one synthetic category.

    ``true_distribution`` is either a single rating distribution used for
    every period or a per-period tuple (one entry per period) for drifting
    response profiles; ``completion_p`` feeds the per-session task outcomes.
    The drift fields, the line ``true_beta0 + true_beta1 * t`` with
    ``noise_sd``, feed only :func:`gen_drift_series`: the session rows of
    :func:`gen_session_columns` never read them.
    """

    category: str
    true_distribution: DiscreteDistribution | tuple[DiscreteDistribution, ...]
    true_beta0: float
    true_beta1: float
    noise_sd: float
    completion_p: float
    periods: int
    sessions_per_period: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.completion_p <= 1.0:
            raise ValueError(f"completion_p must lie in [0, 1], got {self.completion_p}")
        if self.noise_sd < 0.0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        if self.sessions_per_period < 1:
            raise ValueError(
                f"sessions_per_period must be >= 1, got {self.sessions_per_period}"
            )
        if self.seed < 0:  # random.Random would draw -n's stream from n's
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if isinstance(self.true_distribution, tuple):
            if len(self.true_distribution) != self.periods:
                raise ValueError(
                    f"need one distribution per period: got "
                    f"{len(self.true_distribution)} for {self.periods} periods"
                )
            spaces = {d.space for d in self.true_distribution}
            if len(spaces) != 1:
                raise ValueError("per-period distributions must share one space")

    @property
    def space(self) -> ResponseSpace:
        if isinstance(self.true_distribution, tuple):
            return self.true_distribution[0].space
        return self.true_distribution.space

    def distribution_for(self, period: int) -> DiscreteDistribution:
        if isinstance(self.true_distribution, tuple):
            return self.true_distribution[period]
        return self.true_distribution


def _sample_codes(rng: random.Random, dist: DiscreteDistribution, size: int) -> list[int]:
    """Inverse-CDF sampling of ``size`` rating codes, one uniform each."""
    cum = list(accumulate(dist.probs))
    # cum may top out below 1.0: a uniform past it takes the last code.
    cum[-1] = math.inf
    codes, u = dist.space.codes, rng.random
    return [codes[bisect_right(cum, u())] for _ in range(size)]


def _box_muller(rng: random.Random, size: int) -> list[float]:
    """Standard normals via the Box-Muller transform of uniform pairs."""
    out: list[float] = []
    for _ in range((size + 1) // 2):
        radius = math.sqrt(-2.0 * math.log(1.0 - rng.random()))  # log never sees 0
        angle = 2.0 * math.pi * rng.random()
        out += (radius * math.cos(angle), radius * math.sin(angle))
    return out[:size]


def gen_session_columns(
    spec: GeneratorSpec,
) -> Iterator[tuple[list[str], list[tuple[str, int, int, bool]]]]:
    """Synthetic sessions, one period at a time, as columns: the period's
    session ids and a parallel list of row keys ``(category, period,
    rating, task_completed)``, one rated session per (period, session)
    cell.

    Ratings are drawn from the spec's (possibly per-period) distribution and
    each session gets a Bernoulli(completion_p) task outcome. The draws are
    made one period at a time, as the periods are consumed: first one
    uniform per session for the period's codes, then one per session for
    its outcomes. Rows with the same rating and outcome share one key
    object. Deterministic for a fixed seed.
    """
    rng = random.Random(spec.seed)
    u, p = rng.random, spec.completion_p
    category, size = spec.category, spec.sessions_per_period
    for t in range(spec.periods):
        codes = _sample_codes(rng, spec.distribution_for(t), size)
        completed = [u() < p for _ in range(size)]
        # Indexed by the outcome: False is 0, True is 1.
        keys_of = {code: ((category, t, code, False), (category, t, code, True))
                   for code in set(codes)}
        prefix = f"{category}-p{t}-s"
        yield ([f"{prefix}{i}" for i in range(size)],
               list(map(getitem, map(keys_of.__getitem__, codes), completed)))


def gen_ratings(spec: GeneratorSpec) -> Dataset:
    """The sessions of :func:`gen_session_columns` as a :class:`Dataset`."""
    observations = tuple(SessionObservation(s, *key) for ids, keys in gen_session_columns(spec)
                         for s, key in zip(ids, keys))
    return Dataset(space=spec.space, observations=observations)


def gen_drift_series(spec: GeneratorSpec) -> UsabilitySeries:
    """Usability series on the true drift line plus Gaussian noise.

    u(t) = true_beta0 + true_beta1 * t + noise, clamped to the rating scale
    so no synthetic mean leaves the admissible range.
    """
    noise = _box_muller(random.Random(spec.seed), spec.periods)
    lo, hi = float(spec.space.min_code), float(spec.space.max_code)
    points = []
    for t in range(spec.periods):
        u = spec.true_beta0 + spec.true_beta1 * t + spec.noise_sd * noise[t]
        points.append((t, min(max(u, lo), hi)))
    return UsabilitySeries(points=tuple(points))


def gen_trials(completion_p: float, n_trials: int, seed: int) -> TrialSummary:
    """Binomial(N, completion_p) draw of completion counts, seeded: the
    number of N uniforms that fall below completion_p."""
    if not 0.0 <= completion_p <= 1.0:
        raise ValueError(f"completion_p must lie in [0, 1], got {completion_p}")
    if n_trials < 0:
        raise ValueError(f"trial count must be >= 0, got {n_trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    u = random.Random(seed).random
    return TrialSummary(
        completions=sum(u() < completion_p for _ in range(n_trials)),
        trials=n_trials,
    )


def discretized_line_distributions(
    space: ResponseSpace,
    beta0: float,
    beta1: float,
    sd: float,
    periods: int,
) -> tuple[DiscreteDistribution, ...]:
    """Per-period rating distributions whose means drift along a line.

    Each period gets a Gaussian over the code axis centred on
    ``beta0 + beta1 * t`` (clamped to the scale) with spread ``sd``,
    discretized into code bins with the edge bins absorbing the tails.
    Useful for building drifting `GeneratorSpec` inputs.
    """
    if sd <= 0.0:
        raise ValueError(f"sd must be > 0, got {sd}")
    codes = space.codes
    lo, hi = float(codes[0]), float(codes[-1])

    def gauss_cdf(x: float, mu: float) -> float:
        return 0.5 * (1.0 + math.erf((x - mu) / (sd * math.sqrt(2.0))))

    dists = []
    for t in range(periods):
        mu = min(max(beta0 + beta1 * t, lo), hi)
        edges_lo = [(-math.inf if i == 0 else (codes[i - 1] + codes[i]) / 2.0)
                    for i in range(len(codes))]
        edges_hi = [((codes[i] + codes[i + 1]) / 2.0 if i < len(codes) - 1 else math.inf)
                    for i in range(len(codes))]
        probs = []
        for e_lo, e_hi in zip(edges_lo, edges_hi):
            p_lo = 0.0 if e_lo == -math.inf else gauss_cdf(e_lo, mu)
            p_hi = 1.0 if e_hi == math.inf else gauss_cdf(e_hi, mu)
            probs.append(p_hi - p_lo)
        total = sum(probs)
        dists.append(
            DiscreteDistribution(space=space, probs=tuple(p / total for p in probs))
        )
    return tuple(dists)


# Shipped synthetic presets for five common AI product categories. The
# rating spreads encode the qualitative profile of each category: broad
# for open-ended generation, moderate for personalised surfaces, highly
# concentrated for constrained assistive features. Magnitudes are
# illustrative; only the orderings they imply are load-bearing.
_PRESET_TABLE = (
    # name, probs over 1..5, beta0, beta1, noise_sd, completion_p
    ("conversational-assistant", (0.20, 0.20, 0.20, 0.20, 0.20), 3.0, 0.05, 0.30, 0.78),
    ("recommendation-engine", (0.02, 0.05, 0.13, 0.45, 0.35), 3.6, 0.08, 0.20, 0.85),
    ("generative-image", (0.24, 0.18, 0.16, 0.18, 0.24), 3.0, 0.04, 0.30, 0.70),
    ("voice-assistant", (0.10, 0.15, 0.30, 0.30, 0.15), 3.2, 0.00, 0.50, 0.65),
    ("form-autocomplete", (0.005, 0.005, 0.02, 0.07, 0.90), 4.5, 0.00, 0.10, 0.95),
)

DEFAULT_PRESET_SEED = 20240810


def category_presets(
    space: ResponseSpace | None = None,
    periods: int = 8,
    sessions_per_period: int = 40,
    seed: int = DEFAULT_PRESET_SEED,
) -> tuple[GeneratorSpec, ...]:
    """Generator specs for five synthetic AI product categories.

    Only defined on the default 1..5 scale, since the preset probability
    tables are five-level.
    """
    space = space if space is not None else five_point()
    if len(space) != 5:
        raise ValueError("category presets require a five-level response space")
    specs = []
    for i, (name, probs, beta0, beta1, noise_sd, completion_p) in enumerate(_PRESET_TABLE):
        specs.append(
            GeneratorSpec(
                category=name,
                true_distribution=DiscreteDistribution(space=space, probs=probs),
                true_beta0=beta0,
                true_beta1=beta1,
                noise_sd=noise_sd,
                completion_p=completion_p,
                periods=periods,
                sessions_per_period=sessions_per_period,
                seed=seed + i,
            )
        )
    return tuple(specs)
