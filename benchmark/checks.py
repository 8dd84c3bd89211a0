"""Correctness checks for the benchmark's operations.

Every expected value is computed here from the generator's ground truth
(``expect.json``) with numpy and scipy, never from the program's code or
a stored copy of its output:

* IEI: -sum p log2 p over the generator's counts; mean-of-sessions IEI from
  the generator's per-session counts.
* TDC: numpy least squares on the generator's per-period means, with the
  interval from ``scipy.stats.t``.
* BUCS: the exact conjugate posterior, the interval mass by
  ``scipy.special.betainc``, and the HDI solved with scipy from its two
  defining conditions (equal density at both ends, mass inside).
* simulate: row count, schema and scale, and fixed-alpha multinomial and
  binomial tests of the written rows against the spec's parameters.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import optimize, special, stats

from gen import LEVELS, PROBE_BAD, PROBE_VALID

# Reported numbers carry 9 significant digits, so 1e-8 relative covers the
# rounding; the absolute term covers values that are 0 or nearly so.
REL_TOL = 1e-8
ABS_TOL = 1e-10
# The acceptance suite's interval contracts: endpoints within 1e-3 of an
# independent HDI, mass within 1e-6.
ENDPOINT_TOL = 1e-3
MASS_TOL = 1e-6
# |log f(lower) - log f(upper)| for an interior HDI. Near the ends of a
# 95% interval d(log f)/dx is about 2 / sd, so 0.01 corresponds to moving
# one endpoint by about half a percent of the posterior's standard
# deviation; unlike ENDPOINT_TOL it does not lapse when N is in the millions.
LOG_DENSITY_TOL = 1e-2
# Fixed significance level of the statistical tests on simulated rows.
ALPHA = 1e-6

PRIOR = (1.0, 1.0)
MASS = 0.95
SIM_HEADER = "session_id,category,period,rating,task_completed"


def _close(got, want) -> bool:
    return abs(float(got) - float(want)) <= REL_TOL * abs(float(want)) + ABS_TOL


def entropy_bits(counts) -> float:
    c = np.asarray(counts, dtype=float)
    p = c[c > 0] / c.sum()
    return float(max(-(p * np.log2(p)).sum(), 0.0))


def _log_pdf(a: float, b: float, x: float) -> float:
    return float(special.xlogy(a - 1.0, x) + special.xlog1py(b - 1.0, -x)
                 - special.betaln(a, b))


def hdi_oracle(a: float, b: float, mass: float) -> tuple[float, float]:
    """HDI of an interior-mode Beta(a, b), from its defining conditions."""
    mode = (a - 1.0) / (a + b - 2.0)
    top = 1.0 - 1e-16

    def upper_for(lower: float) -> float:
        target = _log_pdf(a, b, lower)
        if _log_pdf(a, b, top) >= target:
            return top
        return optimize.brentq(lambda u: _log_pdf(a, b, u) - target, mode, top,
                               xtol=1e-15, rtol=1e-15)

    def excess(lower: float) -> float:
        return special.betainc(a, b, upper_for(lower)) - special.betainc(a, b, lower) - mass

    lower = optimize.brentq(excess, 1e-300, mode, xtol=1e-15, rtol=1e-15)
    return lower, upper_for(lower)


def _ols(points: dict) -> dict:
    ts = np.array(sorted(int(t) for t in points), dtype=float)
    us = np.array([points[str(int(t))][0] / points[str(int(t))][1] for t in ts])
    design = np.column_stack([np.ones_like(ts), ts])
    (beta0, beta1), *_ = np.linalg.lstsq(design, us, rcond=None)
    n = len(ts)
    sse = float(((us - design @ np.array([beta0, beta1])) ** 2).sum())
    sst = float(((us - us.mean()) ** 2).sum())
    stderr = math.sqrt(sse / (n - 2)) / math.sqrt(float(((ts - ts.mean()) ** 2).sum()))
    tq = float(stats.t.ppf(0.975, n - 2))
    r2 = 0.0 if sst == 0.0 else min(max(1.0 - sse / sst, 0.0), 1.0)
    return {"beta0": beta0, "beta1": beta1, "stderr": stderr,
            "ci95": [beta1 - tq * stderr, beta1 + tq * stderr], "r2": r2, "n_points": n}


class Oracle:
    """Expected report entries for one generated input, HDIs solved once."""

    def __init__(self, truth: dict, aggregation: str = "pooled") -> None:
        self.truth = truth
        self.aggregation = aggregation
        self._hdi: dict[tuple, tuple[float, float]] = {}

    def hdi(self, a: float, b: float, mass: float) -> tuple[float, float]:
        key = (a, b, mass)
        if key not in self._hdi:
            self._hdi[key] = hdi_oracle(a, b, mass)
        return self._hdi[key]

    def check_entry(self, name: str, entry: dict) -> list[str]:
        cat = self.truth["categories"][name]
        out = []
        if self.aggregation == "pooled":
            bits = entropy_bits(cat["counts"])
        else:
            bits = float(np.mean([entropy_bits(s) for s in cat["sessions"]]))
        iei = entry["iei"]
        want = {"bits": bits, "normalized": min(max(bits / math.log2(len(LEVELS)), 0.0), 1.0),
                "n": sum(cat["counts"])}
        for key, value in want.items():
            if not _close(iei[key], value):
                out.append(f"{name}: iei.{key} = {iei[key]}, expected {value}")

        tdc = entry["tdc"]
        if len(cat["periods"]) < 5:
            if tdc != {"unavailable": "insufficient-periods"}:
                out.append(f"{name}: tdc should be unavailable, got {tdc}")
        elif "unavailable" in tdc:
            out.append(f"{name}: tdc unavailable ({tdc['unavailable']}) with "
                       f"{len(cat['periods'])} periods")
        else:
            fit = _ols(cat["periods"])
            for key in ("beta0", "beta1", "stderr", "r2", "n_points"):
                if not _close(tdc[key], fit[key]):
                    out.append(f"{name}: tdc.{key} = {tdc[key]}, expected {fit[key]}")
            for got, want_ci in zip(tdc["ci95"], fit["ci95"]):
                if not _close(got, want_ci):
                    out.append(f"{name}: tdc.ci95 = {tdc['ci95']}, expected {fit['ci95']}")
                    break

        out += self._check_bucs(name, cat["trials"], entry["bucs"])
        return out

    def _check_bucs(self, name: str, trials, got: dict) -> list[str]:
        if trials is None:
            if got != {"unavailable": "no-task-outcomes"}:
                return [f"{name}: bucs should be unavailable, got {got}"]
            return []
        if "unavailable" in got:
            return [f"{name}: bucs unavailable ({got['unavailable']}) with trials {trials}"]
        n, big_n = trials
        a, b = PRIOR[0] + n, PRIOR[1] + big_n - n
        post, iv = got["posterior"], got["interval"]
        out = []
        if (post["alpha"], post["beta"]) != (a, b):
            out.append(f"{name}: posterior ({post['alpha']}, {post['beta']}), expected ({a}, {b})")
            return out
        if not _close(got["mean"], a / (a + b)):
            out.append(f"{name}: mean {got['mean']}, expected {a / (a + b)}")
        if (iv["kind"], iv["unique"], iv["mass"]) != ("hdi", True, MASS):
            out.append(f"{name}: interval {iv['kind']}/{iv['unique']}/{iv['mass']}, "
                       f"expected hdi/True/{MASS}")
        inside = special.betainc(a, b, iv["upper"]) - special.betainc(a, b, iv["lower"])
        if abs(inside - MASS) > MASS_TOL:
            out.append(f"{name}: interval holds mass {inside}, expected {MASS}")
        lo, hi = self.hdi(a, b, MASS)
        if abs(iv["lower"] - lo) > ENDPOINT_TOL or abs(iv["upper"] - hi) > ENDPOINT_TOL:
            out.append(f"{name}: HDI [{iv['lower']}, {iv['upper']}], expected [{lo}, {hi}]")
        return out

    def check_document(self, categories: dict[str, dict]) -> list[str]:
        want = sorted(self.truth["categories"])
        if list(categories) != want:
            return [f"categories {list(categories)}, expected {want}"]
        out = []
        for name, entry in categories.items():
            try:
                out += self.check_entry(name, entry)
            except (KeyError, TypeError, ValueError) as exc:
                out.append(f"{name}: malformed entry ({exc!r})")
        return out


def _csv_number(text: str):
    return int(text) if text.lstrip("-").isdigit() else float(text)


def parse_report_csv(text: str) -> dict[str, dict]:
    """The CSV report as {category: entry}, entries shaped like the JSON report's."""
    out: dict[str, dict] = {}
    for row in csv.DictReader(io.StringIO(text)):
        entry = out.setdefault(row["category"], {})
        metric = row["metric"]
        if row["available"] != "true":
            entry[metric] = {"unavailable": row["reason"]}
        elif metric == "iei":
            entry["iei"] = {k: _csv_number(row[k]) for k in ("bits", "normalized", "n")}
        elif metric == "tdc":
            entry["tdc"] = {k: _csv_number(row[k])
                            for k in ("beta0", "beta1", "stderr", "r2", "n_points")}
            entry["tdc"]["ci95"] = [_csv_number(row["ci95_lower"]),
                                    _csv_number(row["ci95_upper"])]
        else:
            entry["bucs"] = {
                "posterior": {"alpha": _csv_number(row["alpha"]),
                              "beta": _csv_number(row["beta"])},
                "interval": {"lower": _csv_number(row["interval_lower"]),
                             "upper": _csv_number(row["interval_upper"]),
                             "mass": _csv_number(row["interval_mass"]),
                             "kind": row["interval_kind"],
                             "unique": row["interval_unique"] == "true"},
                "mean": _csv_number(row["mean"]),
            }
    return out


def check_report_csv(text: str, oracle: Oracle) -> list[str]:
    try:
        categories = parse_report_csv(text)
    except (KeyError, ValueError) as exc:
        return [f"unreadable CSV report: {exc!r}"]
    return oracle.check_document(categories)


def check_report_json(text: str, oracle: Oracle) -> list[str]:
    try:
        doc = json.loads(text)
        categories = {c["name"]: c for c in doc["categories"]}
        meta = doc["meta"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable JSON report: {exc!r}"]
    out = oracle.check_document(categories)
    want = {"rows": oracle.truth["rows"], "rejected": oracle.truth["bad_rows"],
            "aggregation": oracle.aggregation}
    for key, value in want.items():
        if meta.get(key) != value:
            out.append(f"meta.{key} = {meta.get(key)}, expected {value}")
    return out


def check_probe(text: str) -> tuple[bool, list[str]]:
    """(fails by the known double count, other failures) for the probe's report.

    Three of the probe's rows are invalid, so ``meta.rejected`` must be 3.
    Only 6, each bad row counted twice, is the known fault; any other
    wrong count is an ordinary failure.
    """
    try:
        meta = json.loads(text)["meta"]
        rows, rejected = meta.get("rows"), meta.get("rejected")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return False, [f"unreadable probe report: {exc!r}"]
    other = [] if rows == PROBE_VALID else [f"probe meta.rows = {rows}, expected {PROBE_VALID}"]
    known_fault = rejected == 2 * PROBE_BAD
    if rejected != PROBE_BAD and not known_fault:
        other.append(f"probe meta.rejected = {rejected}, expected {PROBE_BAD}")
    return known_fault, other


def check_simulate(text: str, truth: dict) -> list[str]:
    lines = text.split("\n")
    if lines[0] != SIM_HEADER or lines[-1] != "":
        return [f"header {lines[0]!r} or missing final newline"]
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != truth["rows"]:
        return [f"{len(rows)} rows, expected {truth['rows']}"]
    if any(len(r) != 5 for r in rows):
        return ["a row does not have 5 fields"]
    if len({r[0] for r in rows}) != len(rows):
        return ["session ids are not unique"]
    out = []
    by_cat: dict[str, list[list[str]]] = {}
    for r in rows:
        by_cat.setdefault(r[1], []).append(r)
    specs = {s["category"]: s for s in truth["specs"]}
    if sorted(by_cat) != sorted(specs):
        return [f"categories {sorted(by_cat)}, expected {sorted(specs)}"]
    for name, spec in specs.items():
        mine = by_cat[name]
        try:
            periods = np.array([int(r[2]) for r in mine])
            ratings = np.array([int(r[3]) for r in mine])
        except ValueError as exc:
            out.append(f"{name}: {exc}")
            continue
        done = [r[4] for r in mine]
        if not set(ratings.tolist()) <= set(LEVELS):
            out.append(f"{name}: rating off the 1..5 scale")
            continue
        per_period = np.bincount(periods, minlength=spec["periods"]) if periods.min() >= 0 else None
        if per_period is None or len(per_period) != spec["periods"] or \
                (per_period != spec["sessions_per_period"]).any():
            out.append(f"{name}: rows per period differ from the spec")
        if not set(done) <= {"true", "false"}:
            out.append(f"{name}: task_completed not true/false")
            continue
        counts = np.bincount(ratings - 1, minlength=len(LEVELS))
        expected = np.asarray(spec["probs"]) * len(mine)
        p_ratings = stats.chisquare(counts, expected).pvalue
        if p_ratings < ALPHA:
            out.append(f"{name}: rating counts {counts.tolist()} reject the spec "
                       f"probabilities (p = {p_ratings:.2e})")
        k = done.count("true")
        p_done = stats.binomtest(k, len(mine), spec["completion_p"]).pvalue
        if p_done < ALPHA:
            out.append(f"{name}: {k}/{len(mine)} completed rejects "
                       f"p = {spec['completion_p']} (p-value {p_done:.2e})")
    return out


def _interval_kind(a: float, b: float) -> tuple[str, bool]:
    if a > 1.0 and b > 1.0:
        return "hdi", True
    if a <= 1.0 < b:
        return "one-sided-lower", True
    if b <= 1.0 < a:
        return "one-sided-upper", True
    return "equal-tailed", False


def _check_interval(point: list, got: list) -> list[str]:
    """One `adux.bucs` result against the method's defining properties."""
    pa, pb, n, big_n, mass = point
    _, alpha, beta, lower, upper, got_mass, kind, unique, mean, mode = got
    a, b = pa + n, pb + big_n - n
    if (alpha, beta) != (a, b):
        return [f"posterior ({alpha}, {beta}), expected ({a}, {b})"]
    if (kind, unique) != _interval_kind(a, b) or got_mass != mass:
        return [f"interval {kind}/{unique}/{got_mass}, expected {_interval_kind(a, b)}/{mass}"]
    out = []
    if not _close(mean, a / (a + b)):
        out.append(f"mean {mean}, expected {a / (a + b)}")
    want_mode = (a - 1.0) / (a + b - 2.0) if kind == "hdi" else None
    if (mode is None) != (want_mode is None) or (mode is not None and not _close(mode, want_mode)):
        out.append(f"mode {mode}, expected {want_mode}")
    lo_mass, hi_mass = special.betainc(a, b, lower), special.betainc(a, b, upper)
    if abs(hi_mass - lo_mass - mass) > MASS_TOL:
        out.append(f"interval holds mass {hi_mass - lo_mass}")
    if kind == "hdi":
        gap = _log_pdf(a, b, lower) - _log_pdf(a, b, upper)
        if not abs(gap) <= LOG_DENSITY_TOL:
            out.append(f"log density differs by {gap} between the endpoints")
    elif kind == "one-sided-lower" and lower != 0.0:
        out.append(f"one-sided-lower interval starts at {lower}")
    elif kind == "one-sided-upper" and upper != 1.0:
        out.append(f"one-sided-upper interval ends at {upper}")
    elif kind == "equal-tailed" and abs(lo_mass - (1.0 - mass) / 2.0) > MASS_TOL:
        out.append(f"lower tail {lo_mass}, expected {(1.0 - mass) / 2.0}")
    return out


def check_bucs(results: list, grid: list) -> list[str]:
    """One pass of `adux.bucs` results: one message per wrong interval."""
    if len(results) != len(grid):
        return [f"{len(results)} results for {len(grid)} grid points"]
    out = []
    for point, got in zip(grid, results):
        failures = _check_interval(point, got)
        if failures:
            pa, pb, n, big_n, mass = point
            out.append(f"prior ({pa}, {pb}) n={n} N={big_n} mass={mass}: " + "; ".join(failures))
    return out
