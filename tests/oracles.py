"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the HDI oracle
minimises interval width over scipy's incomplete beta and its inverse, the
regression oracle solves the raw normal equations with numpy's linear
solver, the entropy oracle is direct summation over known probabilities,
the mean-of-sessions oracle adds session entropies as exact fractions,
and the session-CSV oracle renders a whole log at once with the csv module.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np
from scipy import optimize, special as sp


def min_width_hdi(a: float, b: float, mass: float = 0.95) -> tuple[float, float]:
    """The narrowest interval holding ``mass``, found by direct minimisation.

    Every interval of the given mass is fixed by its lower endpoint l; its
    upper endpoint is scipy's inverse incomplete beta at I_l(a, b) + mass.
    The width is minimised over l in [0, F^-1(1 - mass)] with scipy's
    bounded Brent search, which uses neither the equal-density condition
    nor any code of the library.
    """
    def upper(lo: float) -> float:
        return float(sp.betaincinv(a, b, min(sp.betainc(a, b, lo) + mass, 1.0)))

    found = optimize.minimize_scalar(
        lambda lo: upper(lo) - lo,
        bounds=(0.0, float(sp.betaincinv(a, b, 1.0 - mass))),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(found.x), upper(float(found.x))


def grid_equal_tailed(a: float, b: float, mass: float = 0.95, n_grid: int = 400_001):
    """Equal-tailed interval by inverse interpolation of a dense CDF table."""
    xs = np.linspace(0.0, 1.0, n_grid)
    cdf = sp.betainc(a, b, xs)
    half_tail = (1.0 - mass) / 2.0
    return (
        float(np.interp(half_tail, cdf, xs)),
        float(np.interp(half_tail + mass, cdf, xs)),
    )


def normal_equations_fit(ts, us) -> tuple[float, float]:
    """Closed-form OLS via the raw 2x2 normal equations, solved by numpy."""
    t = np.asarray(ts, dtype=float)
    u = np.asarray(us, dtype=float)
    n = len(t)
    lhs = np.array([[n, t.sum()], [t.sum(), (t * t).sum()]])
    rhs = np.array([u.sum(), (t * u).sum()])
    beta0, beta1 = np.linalg.solve(lhs, rhs)
    return float(beta0), float(beta1)


def entropy_bits_direct(probs) -> float:
    """Direct -sum(p log2 p) over known probabilities."""
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def mean_of_sessions_iei(rows, by_period: bool) -> dict:
    """Mean-of-sessions IEI of listed (session, category, period, rating)
    rows, keyed by category, or by (category, period) when ``by_period``.

    A session's ratings in a group make one distribution, whose entropy is
    :func:`entropy_bits_direct` of its levels' shares, the levels taken in
    ascending order. Those entropies are added as exact Fractions and the
    mean is rounded once, at the end.
    """
    ratings: dict = {}
    for session, category, period, rating in rows:
        group = (category, period) if by_period else category
        ratings.setdefault(group, {}).setdefault(session, []).append(rating)
    means = {}
    for group, sessions in ratings.items():
        values = [entropy_bits_direct([r.count(code) / len(r) for code in sorted(set(r))])
                  for r in sessions.values()]
        means[group] = float(sum(map(Fraction, values)) / len(values))
    return means


def session_csv(observations) -> str:
    """A session log in the CSV format, rendered whole.

    Every row goes through one ``csv.writer``; when the text holds a
    ``\r``, every row is rendered again by a ``\r\n``-terminated writer,
    which quotes a ``\r`` inside a cell, and its ending is made ``\n``.
    """
    def rows():
        yield ("session_id", "category", "period", "rating", "task_completed")
        for o in observations:
            task = {True: "true", False: "false", None: ""}[o.task_completed]
            yield (o.session_id, o.category, o.period, o.rating, task)

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows())
    text = buffer.getvalue()
    if "\r" not in text:
        return text
    lines = []
    for row in rows():
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(row)
        lines.append(line.getvalue()[:-2] + "\n")
    return "".join(lines)
