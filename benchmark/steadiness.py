"""Steadiness of the benchmark: two sets of runs of one commit, compared.

    python3 benchmark/steadiness.py

Each of the two sets runs every workload of BENCHMARK.json once per seed
(1000-1009 in the first set, 2000-2009 in the second), with the run length
from BENCHMARK.json and tracing off. For each workload and end-to-end
metric it prints both sets' medians, each set's spread (the distance
between the first and third quartile as a share of the median), the bound,
and whether the metric holds:

* both spreads are within the bound, and
* the second median is not worse than the first by more than the bound.

It also checks that the share of failed operations is the same in every
run of a workload. This is the evidence for the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (range(1000, 1010), range(2000, 2010))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = wall
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in SEEDS] for w in workloads}
    for s, seeds in enumerate(SEEDS):
        for seed in seeds:
            for w in workloads:
                r = run_once(w, seed, spec["run_seconds"])
                runs[w][s].append(r)
                print(f"set {s + 1} seed {seed} {w}: {r['run_wall_s']:.1f} s, "
                      f"{r['attempted']} ops, {r['failed']} failed, correct={r['correct']}",
                      file=sys.stderr, flush=True)

    ok = True
    header = f"{'workload':<20}{'metric':<14}" + "".join(
        f"{'median' + str(s + 1):>14}{'spread' + str(s + 1):>9}" for s in range(len(SEEDS)))
    print(header + f"{'worse':>8}{'bound':>7}  verdict")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for rs in runs[w] for r in rs}
        correct = all(r["correct"] for rs in runs[w] for r in rs)
        for m in spec["end_to_end"]:
            sets = [[r["metrics"][m["name"]]["value"] for r in rs] for rs in runs[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = worse_by(medians[0], medians[-1], m["better"])
            holds = worse <= m["bound"] and all(sp <= m["bound"] for sp in spreads)
            ok &= holds
            cells = "".join(f"{med:>14.6g}{sp:>9.2%}" for med, sp in zip(medians, spreads))
            print(f"{w:<20}{m['name']:<14}{cells}{worse:>8.2%}{m['bound']:>7.2f}  "
                  f"{'ok' if holds else 'OUT OF BOUND'}")
        walls = [r["run_wall_s"] for rs in runs[w] for r in rs]
        print(f"{w:<20}failed share {sorted(shares)}, correct={correct}, "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        ok &= len(shares) == 1 and correct
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
