"""Input generator for the benchmark workloads.

Run as its own process before anything is timed:

    python3 benchmark/gen.py --workload report-csv --seed 7 --out DIR [--tiny] [--rows N]

It writes the workload's input files into DIR, plus ``expect.json``: the
generator's own ground truth (rating counts, per-period sums, completion
counts, per-session rating counts, grid points). The checks in
``checks.py`` compute the expected metrics from that file with numpy and
scipy, never from the program's output.

Only numpy and the standard library are used here, and nothing of adux:
inputs and truth come from the generator alone.
"""

from __future__ import annotations

import argparse
import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

LEVELS = (1, 2, 3, 4, 5)

# The five shipped preset profiles (rating probabilities over 1..5 and the
# completion share), copied as data so the generator stays independent of
# the library it feeds.
PRESET_SHAPES = (
    ("conversational-assistant", (0.20, 0.20, 0.20, 0.20, 0.20), 0.78),
    ("recommendation-engine", (0.02, 0.05, 0.13, 0.45, 0.35), 0.85),
    ("generative-image", (0.24, 0.18, 0.16, 0.18, 0.24), 0.70),
    ("voice-assistant", (0.10, 0.15, 0.30, 0.30, 0.15), 0.65),
    ("form-autocomplete", (0.005, 0.005, 0.02, 0.07, 0.90), 0.95),
)
# Per-period exponential tilt towards high (or low) ratings, so TDC slopes differ.
PRESET_TILTS = (0.010, 0.006, -0.008, 0.0, 0.003)

# Workload sizes. FULL is what the benchmark measures; TINY is for the
# benchmark's own tests.
FULL = {
    "report-csv": {"periods": 40, "sessions_per_period": 1000},
    "report-jsonl-mixed": {"rows": 60_000, "categories": 30, "with_outcomes": 4,
                           "days": 21, "bad_every": 40},
    "simulate-csv": {"periods": 40, "sessions_per_period": 1000},
    "bucs-grid": {"n_max_exp": 7, "interior_per_cell": 4},
}
TINY = {
    "report-csv": {"periods": 8, "sessions_per_period": 50},
    "report-jsonl-mixed": {"rows": 1_200, "categories": 6, "with_outcomes": 2,
                           "days": 7, "bad_every": 40},
    "simulate-csv": {"periods": 6, "sessions_per_period": 50},
    "bucs-grid": {"n_max_exp": 3, "interior_per_cell": 1},
}

WORKLOADS = tuple(FULL)


def _tilted(probs, tilt: float, t: int) -> np.ndarray:
    w = np.asarray(probs) * np.exp(tilt * t * (np.asarray(LEVELS) - 3.0))
    return w / w.sum()


def _draw_levels(rng: np.random.Generator, probs: np.ndarray, size: int) -> np.ndarray:
    """Rating codes 1..5 by inverse-CDF sampling."""
    idx = np.searchsorted(np.cumsum(probs), rng.random(size), side="right")
    return np.minimum(idx, len(LEVELS) - 1) + 1


def _truth(names, cat_idx, periods, ratings, completed) -> dict:
    """Sufficient statistics per category, computed from the generator's arrays.

    ``completed`` holds 1, 0, or -1 for rows without a task outcome.
    """
    categories = {}
    for c, name in enumerate(names):
        mine = cat_idx == c
        if not mine.any():
            continue
        ts, rs, done = periods[mine], ratings[mine], completed[mine]
        uniq = np.unique(ts)
        sums = np.bincount(np.searchsorted(uniq, ts), weights=rs)
        cnts = np.bincount(np.searchsorted(uniq, ts))
        has = done >= 0
        categories[name] = {
            "counts": np.bincount(rs - 1, minlength=len(LEVELS)).tolist(),
            "periods": {str(t): [int(s), int(k)] for t, s, k in zip(uniq, sums, cnts)},
            "trials": [int(done[has].sum()), int(has.sum())] if has.any() else None,
        }
    return {"categories": categories}


def gen_report_csv(seed: int, size: dict, out: Path) -> None:
    """Five preset-shaped categories, explicit periods, strict-clean CSV."""
    rng = np.random.default_rng(seed)
    periods, per = size["periods"], size["sessions_per_period"]
    cat_col, per_col, rat_col, done_col = [], [], [], []
    for c, ((_, probs, completion_p), tilt) in enumerate(zip(PRESET_SHAPES, PRESET_TILTS)):
        for t in range(periods):
            cat_col.append(np.full(per, c))
            per_col.append(np.full(per, t))
            rat_col.append(_draw_levels(rng, _tilted(probs, tilt, t), per))
            done_col.append((rng.random(per) < completion_p).astype(np.int64))
    order = rng.permutation(len(PRESET_SHAPES) * periods * per)
    cats, pers, rats, done = (np.concatenate(col)[order]
                              for col in (cat_col, per_col, rat_col, done_col))
    names = [shape[0] for shape in PRESET_SHAPES]
    words = ("false", "true")
    lines = ["session_id,category,period,rating,task_completed"]
    lines += [f"s{row:07d},{names[c]},{t},{r},{words[d]}"
              for row, (c, t, r, d) in enumerate(zip(cats.tolist(), pers.tolist(),
                                                     rats.tolist(), done.tolist()))]
    (out / "sessions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    truth = _truth(names, cats, pers, rats, done)
    truth.update(rows=len(order), bad_rows=0)
    (out / "expect.json").write_text(json.dumps(truth), encoding="utf-8")


# Invalid-row kinds of the JSONL log; every rejection reason the loader has
# except the unparseable timestamp, which lives in the fixed probe below.
BAD_KINDS = (
    "bad-json",
    "not-object",
    "negative-period",
    "unknown-rating",
    "missing-session",
    "missing-rating",
    "missing-period-and-timestamp",
)
_EPOCH = datetime(2026, 3, 2, tzinfo=timezone.utc)
_OFFSETS = (timedelta(0), timedelta(hours=2), timedelta(hours=-5), timedelta(hours=5, minutes=30))


def _rfc3339(day: int, seconds: float, style: int) -> str:
    """The instant `seconds` into UTC day `day`, written with one of four offsets."""
    instant = _EPOCH + timedelta(days=day, seconds=seconds)
    offset = _OFFSETS[style % len(_OFFSETS)]
    local = instant.astimezone(timezone(offset))
    text = local.isoformat(timespec="milliseconds" if style % 3 == 0 else "seconds")
    return text.replace("+00:00", "Z") if style % 2 == 0 else text


def gen_report_jsonl(seed: int, size: dict, out: Path) -> None:
    """Timestamped multi-row sessions over many categories, with bad lines."""
    rng = np.random.default_rng(seed)
    n_rows, n_cat, days = size["rows"], size["categories"], size["days"]
    names = [f"cat-{i:02d}" for i in range(n_cat)]
    with_outcomes = set(names[: size["with_outcomes"]])
    profiles = rng.dirichlet(np.full(len(LEVELS), 1.5), size=n_cat)
    completion = rng.uniform(0.55, 0.95, size=n_cat)
    tilts = rng.uniform(-0.02, 0.02, size=n_cat)

    good: list[tuple[str, str, int, int, float, int, bool | None]] = []
    session = 0
    while len(good) < n_rows:
        c = int(rng.integers(n_cat))
        day = int(rng.integers(days))
        start = float(rng.uniform(0, 80_000))
        k = int(rng.integers(2, 7))
        ratings = _draw_levels(rng, _tilted(profiles[c], tilts[c], day), k)
        for j in range(k):
            completed = bool(rng.random() < completion[c]) if names[c] in with_outcomes else None
            good.append((f"u{session:06d}", names[c], day, int(ratings[j]),
                         start + 60.0 * j, int(rng.integers(12)), completed))
        session += 1

    lines: list[str] = []
    n_bad = 0
    for i, (sid, cat, day, rating, secs, style, completed) in enumerate(good):
        if i % size["bad_every"] == size["bad_every"] - 1:
            kind = BAD_KINDS[n_bad % len(BAD_KINDS)]
            n_bad += 1
            ts = _rfc3339(day, secs, style)
            if kind == "bad-json":
                lines.append('{"session_id": "broken", "category": ' + f'"{cat}", "rating": 3')
            elif kind == "not-object":
                lines.append(json.dumps([sid, cat, rating]))
            elif kind == "negative-period":
                lines.append(json.dumps({"session_id": "neg-" + sid, "category": cat,
                                         "period": -1 - day, "rating": rating}))
            elif kind == "unknown-rating":
                lines.append(json.dumps({"session_id": "bad-" + sid, "category": cat,
                                         "timestamp": ts, "rating": 9}))
            elif kind == "missing-session":
                lines.append(json.dumps({"category": cat, "timestamp": ts, "rating": rating}))
            elif kind == "missing-rating":
                lines.append(json.dumps({"session_id": "nr-" + sid, "category": cat,
                                         "timestamp": ts}))
            else:
                lines.append(json.dumps({"session_id": "np-" + sid, "category": cat,
                                         "rating": rating}))
        row = {"session_id": sid, "category": cat,
               "timestamp": _rfc3339(day, secs, style), "rating": rating}
        if completed is not None:
            row["task_completed"] = completed
        lines.append(json.dumps(row))
    (out / "sessions.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # Periods are the UTC day index minus the earliest day of the valid rows.
    origin = min(g[2] for g in good)
    cat_idx = np.array([names.index(g[1]) for g in good])
    truth = _truth(names, cat_idx, np.array([g[2] - origin for g in good]),
                   np.array([g[3] for g in good]),
                   np.array([-1 if g[6] is None else int(g[6]) for g in good]))
    sessions: dict[str, dict[str, list[int]]] = {}
    for sid, cat, _, rating, _, _, _ in good:
        counts = sessions.setdefault(cat, {}).setdefault(sid, [0] * len(LEVELS))
        counts[rating - 1] += 1
    for cat, by_session in sessions.items():
        truth["categories"][cat]["sessions"] = list(by_session.values())
    truth.update(rows=len(good), bad_rows=n_bad, lines=len(lines))
    (out / "expect.json").write_text(json.dumps(truth), encoding="utf-8")


# The fixed probe of report-jsonl-mixed: the same command over a small log
# that does not depend on the seed. Three of its rows have an empty period
# and an unparseable timestamp.
PROBE_VALID = 40
PROBE_BAD = 3


def write_probe(out: Path) -> None:
    lines = []
    for i in range(PROBE_VALID):
        day = i % 6
        lines.append(json.dumps({"session_id": f"p{i // 2}", "category": f"probe-{i % 2}",
                                 "timestamp": _rfc3339(day, 3600.0 + i, 0),
                                 "rating": 1 + (i * 7) % 5}))
    for i in range(PROBE_BAD):
        lines.append(json.dumps({"session_id": f"pt{i}", "category": "probe-0", "period": "",
                                 "timestamp": f"2026-13-{40 + i}T99:00:00Z", "rating": 3}))
    (out / "probe.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def simulate_specs(seed: int, size: dict) -> list[dict]:
    """The `adux simulate --config` specs: preset-shaped, one PRNG seed each."""
    rng = np.random.default_rng(seed)
    specs = []
    for name, probs, completion_p in PRESET_SHAPES:
        specs.append({
            "category": name,
            "probs": list(probs),
            "completion_p": completion_p,
            "periods": size["periods"],
            "sessions_per_period": size["sessions_per_period"],
            "seed": int(rng.integers(2**31)),
        })
    return specs


def gen_simulate(seed: int, size: dict, out: Path) -> None:
    specs = simulate_specs(seed, size)
    (out / "spec.json").write_text(json.dumps({"specs": specs}), encoding="utf-8")
    rows = sum(s["periods"] * s["sessions_per_period"] for s in specs)
    (out / "expect.json").write_text(json.dumps({"specs": specs, "rows": rows}),
                                     encoding="utf-8")


PRIORS = ((1.0, 1.0), (0.5, 0.5))
MASSES = (0.90, 0.95, 0.99)
INTERIOR_SHARES = (0.3, 0.9, 0.05, 0.6)


def bucs_grid(seed: int, size: dict) -> list[tuple[float, float, int, int, float]]:
    """(prior alpha, prior beta, n, N, mass) points of one grid pass.

    The grid is fixed; the seed only sets the order of the calls. Per prior:
    for every N = 10 .. 10^k, interior n at n/N = 0.05, 0.3, 0.6 and 0.9
    (interior HDIs; their cost depends on n/N); n = 0 and n = N at N = 1,
    10^2, 10^4, 10^6 (one-sided intervals); and N = 0 (flat or U-shaped).
    Masses cycle through 0.90, 0.95 and 0.99.
    """
    points = []
    for pa, pb in PRIORS:
        for e in range(1, size["n_max_exp"] + 1):
            big_n = 10**e
            for share in INTERIOR_SHARES[: size["interior_per_cell"]]:
                points.append((pa, pb, max(round(share * big_n), 1), big_n))
        for e in range(0, size["n_max_exp"], 2):
            big_n = 10**e
            points += [(pa, pb, 0, big_n), (pa, pb, big_n, big_n)]
        points.append((pa, pb, 0, 0))
    grid = [(pa, pb, n, big_n, MASSES[i % len(MASSES)])
            for i, (pa, pb, n, big_n) in enumerate(points)]
    order = np.random.default_rng(seed).permutation(len(grid))
    return [grid[i] for i in order]


def gen_bucs(seed: int, size: dict, out: Path) -> None:
    grid = bucs_grid(seed, size)
    (out / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
    (out / "expect.json").write_text(json.dumps({"grid": grid}), encoding="utf-8")


GENERATORS = {
    "report-csv": gen_report_csv,
    "report-jsonl-mixed": gen_report_jsonl,
    "simulate-csv": gen_simulate,
    "bucs-grid": gen_bucs,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--rows", type=int, default=None,
                        help="report-csv and simulate-csv: total rows, for reference figures")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    size = dict((TINY if args.tiny else FULL)[args.workload])
    if args.rows is not None:
        size["sessions_per_period"] = max(1, args.rows // (len(PRESET_SHAPES) * size["periods"]))
    GENERATORS[args.workload](args.seed, size, out)
    if args.workload == "report-jsonl-mixed":
        write_probe(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
