"""Special-function numerics backing the Bayesian interval machinery.

Implemented in-repo so the numeric contracts stay fully testable:

* ``log_gamma`` — Lanczos approximation (g = 7, 9 coefficients), with the
  reflection formula below 0.5.
* ``log_beta`` — from three ``log_gamma`` values, memoised per (a, b): every
  I_x, density and quantile start of one distribution needs the same log B,
  and an interval makes dozens of them, so only its first costs the three
  Lanczos sums.
* ``regularized_incomplete_beta`` — continued fraction (modified Lentz
  algorithm), evaluated on whichever tail converges fast and reflected,
  giving absolute error well under 1e-10.
* Student-t and standard-normal CDFs/quantiles built on top, used for
  regression inference and frequentist comparison intervals.

Every quantile is a root of CDF(x) - p found by :func:`newton_root`: Newton
steps with the density as slope, from an asymptotic starting point, kept
inside a bracket that each evaluation narrows by the sign of the residual.
Steps that would leave the bracket, or stop converging, become bisection.
The t and normal quantiles are solved in the lower tail, where the CDF keeps
full relative accuracy.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ImpreciseShapes

# Lanczos coefficients for g = 7 (Godfrey's tabulation).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_CF_MAX_ITER = 500
_CF_EPS = 1e-16
_CF_TINY = 1e-300
# The tail of a shape past this is taken as 0. The continued fraction for
# it overflows, or, where 1 - x rounds to 1, returns any number at all; but
# log B is precise at such a shape only beside one below 3e-6, and the tail
# is then below 0.3 times that one, under the error log B already allows.
_CF_MAX_SHAPE = 1e15

_NEWTON_RTOL = 1e-12
_NEWTON_MAX_ITER = 100
_SMALLEST = math.ulp(0.0)
_SMALLEST_NORMAL = 2.0 ** -1022
# The largest error bound of log B: 1.5e-5 at Beta(1e9, 1e9) passes, 1.2e-4 at 1e10 not.
_LOG_BETA_MAX_ERROR = 1e-4
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < _SMALLEST_NORMAL:  # pi / sin(pi x) overflows; -ln x is exact here
        return -math.log(x)
    if x < 0.5:
        # Reflection keeps the Lanczos series in its accurate range.
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


@lru_cache(maxsize=32, typed=True)
def log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0.

    Memoised per (a, b), as (a, b) stays fixed while an interval or quantile
    calls I_x, the density and this dozens of times. A repeat returns the
    very float the first call computed, so results stay bit for bit as
    without the cache; ``typed=True`` keeps an int, a float and a numpy
    scalar apart, so each gets the result type of its own arithmetic. An
    error is not cached: ``log_beta(0, 1)`` raises on every call.

    Each log-gamma errs by about an ulp of its size. Where a + b rounds to
    the larger shape, two cancel exactly and drop about min(a, b) ln max(a, b).
    An error bound above ``_LOG_BETA_MAX_ERROR`` raises ImpreciseShapes.
    """
    la, lb, lab = log_gamma(a), log_gamma(b), log_gamma(a + b)
    if a + b == max(a, b):  # the larger shape's log-gamma and lab are one float
        small, value = (a, la) if a <= b else (b, lb)
        error = math.ulp(value) + small * max(math.log(a + b), 0.0)
    else:
        value = la + lb - lab
        error = math.ulp(abs(la) + abs(lb) + abs(lab))
    if not error <= _LOG_BETA_MAX_ERROR:
        raise ImpreciseShapes(f"Beta({a}, {b}) is past the precision of log B (error {error:.2g})")
    return value


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return h  # converged to float precision long before this in practice


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Parameters must satisfy a > 0, b > 0 and 0 <= x <= 1. The continued
    fraction is applied to the tail where it converges quickly
    (x < (a+1)/(a+b+2)) and reflected otherwise, which also preserves
    relative accuracy deep in either tail. The result lies in [0, 1]: a
    rounding past either end is clamped, and a fraction that overflows
    raises ImpreciseShapes.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        value = 0.0 if a > _CF_MAX_SHAPE else front * _beta_continued_fraction(a, b, x) / a
    else:
        value = 1.0 if b > _CF_MAX_SHAPE else (
            1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b)
    if 0.0 <= value <= 1.0:
        return value
    if not math.isfinite(value):
        raise ImpreciseShapes(f"I_x(Beta({a}, {b})) at x = {x} overflows its continued fraction")
    return 0.0 if value < 0.0 else 1.0


def log_beta_pdf(a: float, b: float, x: float) -> float:
    """Log density of Beta(a, b) at x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta(a, b)


def beta_pdf(a: float, b: float, x: float) -> float:
    """Density of Beta(a, b) at x in [0, 1]; boundary values use limits."""
    if x == 0.0:
        if a < 1.0:
            return math.inf
        return math.exp(-log_beta(a, b)) if a == 1.0 else 0.0
    if x == 1.0:
        if b < 1.0:
            return math.inf
        return math.exp(-log_beta(a, b)) if b == 1.0 else 0.0
    try:
        return math.exp(log_beta_pdf(a, b, x))
    except OverflowError:  # a tiny a or b: the density beyond any float
        return math.inf


def newton_root(f, lo: float, hi: float, x: float, rtol: float = _NEWTON_RTOL) -> float:
    """Root of an increasing function inside the bracket (lo, hi), from x.

    ``f(x)`` returns the residual and its derivative. The residual must be
    <= 0 at ``lo`` and >= 0 at ``hi``; neither end is evaluated, and the
    result always lies strictly inside. Each evaluation moves one end of
    the bracket to x by the sign of the residual. A Newton step that would
    leave the bracket, or that is more than half the step two before it
    (the safeguard of Numerical Recipes' ``rtsafe``), is replaced by
    bisection, geometric while the bracket spans more than a factor of 4
    above 0. The search stops once a Newton step is at most ``rtol * |x|``
    (convergence is quadratic by then, so the error left is far smaller
    than the step) or the bracket is at most twice that wide.
    """
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    prev = prev2 = hi - lo
    for _ in range(_NEWTON_MAX_ITER):
        value, slope = f(x)
        if value == 0.0:
            return x
        if value < 0.0:
            lo = x
        else:
            hi = x
        step = value / slope if 0.0 < slope < math.inf else math.inf
        nxt = x - step
        if abs(step) <= rtol * abs(x):
            return nxt if lo < nxt < hi else x
        if not lo < nxt < hi or abs(step) > 0.5 * abs(prev2):
            nxt = math.sqrt(lo) * math.sqrt(hi) if 0.0 < 4.0 * lo < hi else 0.5 * (lo + hi)
            if not lo < nxt < hi:  # the bracket is down to adjacent floats
                return x
            if hi - lo <= 2.0 * rtol * abs(nxt):
                return nxt
            step = x - nxt
        prev2, prev = prev, step
        x = nxt
    return x


def _normal_quantile_start(p: float) -> float:
    """Abramowitz & Stegun 26.2.23 normal quantile, |error| < 4.5e-4."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    return -z if p < 0.5 else z


def _beta_inverse_start(a: float, b: float, p: float) -> float:
    """Rough x with I_x(a, b) = p: Abramowitz & Stegun 26.5.22 when a, b >= 1,
    otherwise the power law of whichever tail holds p."""
    # I_x ~ x^a / (a B) near 0 and 1 - I_x ~ (1 - x)^b / (b B) near 1.
    # With a tiny a or b, a law can put its root past the far end; the
    # exponent is capped at 0, so the root stays in [0, 1].
    log_b = log_beta(a, b)
    lower_root = math.exp(min(0.0, (_log_product(a, p) + log_b) / a))
    upper_root = -math.expm1(min(0.0, (_log_product(b, 1.0 - p) + log_b) / b))
    if a >= 1.0 and b >= 1.0:
        y = -_normal_quantile_start(p)
        lam = (y * y - 3.0) / 6.0
        ra, rb = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
        h = 2.0 / (ra + rb)
        w = y * math.sqrt(h + lam) / h - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
        # Far in a tail the estimate overshoots, so its exponent is capped to
        # stay finite. With a, b >= 1 the power laws are bounds, I_x <= x^a /
        # (a B) and 1 - I_x <= (1 - x)^b / (b B), so the root lies between the
        # two tail roots, and so does the start.
        x = a / (a + b * math.exp(min(2.0 * w, 700.0)))
        return min(max(x, lower_root), upper_root)
    # The tail whose law holds more mass at the mean (compared in logs) is taken to hold p.
    log_total = math.log(a + b)
    log_lower, log_upper = (s * (math.log(s) - log_total) - math.log(s) for s in (a, b))
    return lower_root if math.log(p) + log_upper < math.log1p(-p) + log_lower else upper_root


def _log_product(u: float, v: float) -> float:
    """log(u v), from the two logs where the product is subnormal."""
    w = u * v
    return math.log(w) if w >= _SMALLEST_NORMAL else math.log(u) + math.log(v)


def incomplete_beta_inverse(a: float, b: float, p: float) -> float:
    """x with I_x(a, b) = p, by Newton on [0, 1] with the beta density as slope.

    A root nearer 1 is searched for as y = 1 - x, so that the search stops
    on a step that is small relative to the distance from 1. A start that
    underflows to 0 is raised to the smallest float, from which geometric
    bisection reaches any root in a few steps.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    x = _beta_inverse_start(a, b, p)
    if x <= 0.5:
        return newton_root(
            lambda t: (regularized_incomplete_beta(a, b, t) - p, beta_pdf(a, b, t)),
            0.0, 1.0, max(x, _SMALLEST),
        )
    return 1.0 - newton_root(
        lambda y: (p - regularized_incomplete_beta(a, b, 1.0 - y), beta_pdf(a, b, 1.0 - y)),
        0.0, 1.0, max(1.0 - x, _SMALLEST),
    )


def student_t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom.

    Uses the incomplete-beta identity: for x >= 0,
    F(x) = 1 - I_{df/(df+x^2)}(df/2, 1/2) / 2.
    """
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if x == 0.0:
        return 0.5
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, df / (df + x * x))
    return 1.0 - tail if x > 0.0 else tail


def student_t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t, by Newton on the lower-tail CDF.

    The start is the normal quantile's estimate; the far end of the bracket
    doubles from twice that until the CDF falls below p.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p > 0.5:
        return -student_t_quantile(1.0 - p, df)  # 1 - p is exact here
    if p == 0.5:
        return 0.0
    start = _normal_quantile_start(p)
    lo = 2.0 * start
    while student_t_cdf(lo, df) > p:  # ends by lo = -inf at the latest
        lo *= 2.0
    log_norm = log_beta(0.5 * df, 0.5) + 0.5 * math.log(df)

    def residual(x: float) -> tuple[float, float]:
        density = math.exp(-0.5 * (df + 1.0) * math.log1p(x * x / df) - log_norm)
        return student_t_cdf(x, df) - p, density

    return newton_root(residual, lo, 0.0, start)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function, which keeps
    full relative accuracy in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Standard normal quantile, by Newton on the lower-tail CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p > 0.5:
        return -normal_quantile(1.0 - p)  # 1 - p is exact here
    if p == 0.5:
        return 0.0
    return newton_root(
        lambda x: (normal_cdf(x) - p, math.exp(-0.5 * x * x - _LN_SQRT_2PI)),
        -40.0, 0.0, _normal_quantile_start(p),
    )
