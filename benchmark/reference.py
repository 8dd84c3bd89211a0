"""Reference figures at the ROADMAP's sizes, measured once and not gated.

    python3 benchmark/reference.py

For each of the ROADMAP's sizes, 10^4, 10^5 and 10^6 rows, it generates
a report-csv-shaped log and a simulate-csv spec of that many rows from
seed 1, runs one operation of each exactly as the benchmark does (its own
child process, timed with wait4), checks the output, and prints the wall
time, CPU time and peak RSS.
"""

from __future__ import annotations

import shutil

from run import HERE, Bench, Launcher, Tally

SIZES = (10_000, 100_000, 1_000_000)
SEED = 1


def main() -> int:
    launcher = Launcher()
    print(f"{'workload':<14}{'rows':>9}{'wall_s':>9}{'cpu_s':>8}{'peak_rss_mb':>13}  checks")
    for rows in SIZES:
        for workload in ("report-csv", "simulate-csv"):
            work = HERE / "_work" / f"reference-{workload}-{rows}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                bench = Bench(workload, SEED, False, work, launcher, rows=rows)
                bench.generate()
                tally = Tally()
                record = bench.cli_round(bench.cli_ops(), tally, traced=False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            verdict = "ok" if not tally.failures and not tally.failed else "; ".join(tally.failures)
            wall = tally.raw_walls[0] if tally.raw_walls else float("nan")
            rss = tally.rss[0] if tally.rss else float("nan")
            print(f"{workload:<14}{bench.truth['rows']:>9}{wall:>9.2f}{record['cpu_s']:>8.2f}"
                  f"{rss:>13.1f}  {verdict}", flush=True)
    launcher.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
