"""Benchmark of the adux pipeline: simulate -> report, and BUCS intervals.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; the program is imported from its
``src/``. The workloads, metrics and bounds are listed in BENCHMARK.json
and explained in benchmark/README.md.

One run:
1. generates the workload's inputs from the seed, in a separate process;
2. runs whole rounds of operations, one at a time (a closed loop with one
   client), until the rounds' wall time reaches --seconds. Each CLI
   operation is its own child process, timed with `os.wait4`; bucs-grid
   times `adux.bucs` calls inside one child process per round;
3. with --trace 0, times `import adux, adux.cli` in fresh interpreters
   started between the rounds (setup_s);
4. scales every timing to a fixed machine speed by a calibration timed
   just before and just after it (see CALIB_REF_S);
5. checks every operation's output against computations made apart from
   the program (checks.py), outside the timed span;
6. prints one JSON line: end-to-end metrics with --trace 0, and with
   --trace 1 per-layer metrics from traced rounds run alternately with
   untraced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

CLI_MAIN = "import sys; from adux.cli import main; sys.exit(main())"
SETUP_IMPORT = "import adux, adux.cli"
# setup_s is the median over fresh interpreters started between the rounds,
# SETUP_PER_ROUND before each round and at least SETUP_STARTS in all, so
# they sample the CPU's speed over the whole run as the operations do.
# One more start before them fills the page cache and writes bytecode.
SETUP_PER_ROUND = 1
SETUP_STARTS = 12
# On a shared virtual machine the speed of each virtual CPU drifts by a
# third over seconds to minutes, each CPU on its own (measured on a 2-vCPU
# Xeon guest). So the benchmark and every process it starts run on one CPU
# (pin_to_one_cpu), and each timing (an operation, an interpreter start, a
# bucs-grid call) lies between two runs of a fixed calibration work
# (child.calibrate, no adux code) on that CPU, made by the launcher or, within
# a bucs-grid pass, by the pass itself. It is multiplied by CALIB_REF_S over
# the geometric mean of the two calibration times. Timings are thus seconds
# at the speed where the calibration takes CALIB_REF_S, about its median on
# that guest.
CALIB_REF_S = 0.100

WORKLOADS = ("report-csv", "report-jsonl-mixed", "bucs-grid", "simulate-csv")


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stderr_bytes: int


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict:
    """Environment of every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Launcher:
    """Runs children through `child.py launcher` (see there for why).

    Create it before numpy or scipy is imported in this process.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "launcher"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), text=True)
        self.n = 0

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("benchmark: the launcher process ended")
        return json.loads(reply)

    def run(self, argv: list[str], cwd: Path) -> Proc:
        """Run a child to completion; its wall time, CPU time and peak RSS."""
        self.n += 1
        err_path = cwd / f"c{self.n}.stderr"
        reply = self._ask({"argv": argv, "cwd": str(cwd), "stdout": str(cwd / f"c{self.n}.stdout"),
                           "stderr": str(err_path)})
        return Proc(**reply, stderr_bytes=err_path.stat().st_size)

    def calibrate(self) -> float:
        """Wall time of the launcher's calibration work, in seconds."""
        return self._ask({"calibrate": True})["calib_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


@dataclass
class Op:
    """One operation of a round.

    ``check`` maps the output bytes to (fails by the known fault, other
    failures). Only ``timed`` operations feed the timing metrics. Every
    output of an ``identical`` operation must equal the run's first one.
    """

    name: str
    args: list[str]
    output: Path
    items: int
    timed: bool
    check: Callable[[bytes], tuple[bool, list[str]]]
    identical: bool = False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    calib: list[float] = field(default_factory=list)
    items: int = 0
    rss: list[float] = field(default_factory=list)
    rounds: list[dict] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    first_digest: dict = field(default_factory=dict)

    def judge(self, op: Op, output: bytes) -> None:
        """Check one operation's output and count it failed if a check fails.

        The checks run once per distinct content; an ``identical``
        operation's output that differs from the run's first one fails
        without them.
        """
        digest = hashlib.sha256(output).hexdigest()
        if op.identical and self.first_digest.setdefault(op.name, digest) != digest:
            self.failed += 1
            self.failures.append(f"{op.name}: output differs from the run's first output")
            return
        key = (op.name, digest)
        if key not in self.verdicts:
            self.verdicts[key] = op.check(output)
        known_fault, failures = self.verdicts[key]
        self.failed += bool(known_fault or failures)
        self.failures += failures


class Bench:
    def __init__(self, workload: str, seed: int, tiny: bool, work: Path,
                 launcher: Launcher, rows: int | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.rows = rows
        self.work = work
        self.launcher = launcher
        self.py = sys.executable
        self.child = str(HERE / "child.py")

    def _run(self, argv: list[str]) -> Proc:
        return self.launcher.run(argv, self.work)

    def generate(self) -> None:
        argv = [self.py, str(HERE / "gen.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--out", str(self.work)]
        if self.tiny:
            argv.append("--tiny")
        if self.rows is not None:
            argv += ["--rows", str(self.rows)]
        proc = self._run(argv)
        if proc.code != 0:
            raise SystemExit(f"input generation failed (exit {proc.code})")
        self.truth = json.loads((self.work / "expect.json").read_text(encoding="utf-8"))

    def calibrated(self, tally: Tally, run: Callable[[], object],
                   before: float | None = None) -> tuple[object, float, float]:
        """Call `run` between two calibrations.

        `before` is a calibration that ended just before, with nothing run
        since; it is measured here if not given. Returns the result of `run`,
        the time scale, and the closing calibration.
        """
        if before is None:
            before = self.launcher.calibrate()
            tally.calib.append(before)
        result = run()
        after = self.launcher.calibrate()
        tally.calib.append(after)
        return result, CALIB_REF_S / math.sqrt(before * after), after

    def setup_starts(self, tally: Tally, count: int) -> float | None:
        """Time `count` fresh interpreters importing adux (setup_s).

        Each start lies between two calibrations. Returns the last one.
        """
        after = None
        for _ in range(count):
            proc, scale, after = self.calibrated(
                tally, lambda: self._run([self.py, "-c", SETUP_IMPORT]), after)
            if proc.code != 0:
                raise SystemExit("`import adux, adux.cli` failed")
            tally.setup.append(proc.wall_s * scale)
        return after

    # -- CLI workloads -------------------------------------------------

    def cli_ops(self) -> list[Op]:
        import checks

        w = self.work
        if self.workload == "report-csv":
            oracle = checks.Oracle(self.truth, "pooled")
            return [Op("report", ["report", "--input", str(w / "sessions.csv"),
                                  "--report-format", "csv", "--no-meta",
                                  "--out", str(w / "report.csv")],
                       w / "report.csv", self.truth["rows"], True,
                       lambda b: (False, checks.check_report_csv(b.decode(), oracle)),
                       identical=True)]
        if self.workload == "report-jsonl-mixed":
            oracle = checks.Oracle(self.truth, "mean-of-sessions")
            flags = ["--format", "jsonl", "--skip-invalid", "--aggregation", "mean-of-sessions"]
            return [
                Op("report", ["report", "--input", str(w / "sessions.jsonl"), *flags,
                              "--out", str(w / "report.json")],
                   w / "report.json", self.truth["lines"], True,
                   lambda b: (False, checks.check_report_json(b.decode(), oracle))),
                Op("probe", ["report", "--input", str(w / "probe.jsonl"), *flags,
                             "--out", str(w / "probe.json")],
                   w / "probe.json", 0, False, lambda b: checks.check_probe(b.decode())),
            ]
        return [Op("simulate", ["simulate", "--config", str(w / "spec.json"),
                                "--out", str(w / "sessions.csv")],
                   w / "sessions.csv", self.truth["rows"], True,
                   lambda b: (False, checks.check_simulate(b.decode(), self.truth)),
                   identical=True)]

    def cli_round(self, ops: list[Op], tally: Tally, traced: bool,
                  before: float | None = None) -> dict:
        """Run one round; returns its record for the per-layer metrics.

        `before` is a calibration that ended just before the round.
        """
        record = {"wall_s": 0.0, "timed_s": 0.0, "cpu_s": 0.0, "stderr_bytes": 0, "traces": []}
        for op in ops:
            op.output.unlink(missing_ok=True)
            trace_path = self.work / f"trace-{op.name}.json"
            if traced:
                argv = [self.py, self.child, "cli", str(trace_path), "--", *op.args]
            else:
                argv = [self.py, "-c", CLI_MAIN, *op.args]
            if op.timed:
                proc, scale, _ = self.calibrated(tally, lambda: self._run(argv), before)
                record["timed_s"] += proc.wall_s * scale
            else:
                proc = self._run(argv)
            before = None
            record["wall_s"] += proc.wall_s
            record["cpu_s"] += proc.cpu_s
            record["stderr_bytes"] += proc.stderr_bytes
            tally.attempted += 1
            if proc.code != 0 or not op.output.exists():
                tally.failed += 1
                tally.failures.append(f"{op.name}: exit code {proc.code}")
                continue
            if traced:
                record["traces"].append(json.loads(trace_path.read_text(encoding="utf-8")))
            tally.judge(op, op.output.read_bytes())
            if op.timed and not traced:
                tally.walls.append(proc.wall_s * scale)
                tally.raw_walls.append(proc.wall_s)
                tally.items += op.items
                tally.rss.append(proc.rss_mb)
        return record

    # -- bucs-grid -----------------------------------------------------

    def bucs_round(self, tally: Tally, traced: bool) -> dict:
        """One pass over the grid in one child, which calibrates between calls."""
        import checks

        grid = self.truth["grid"]
        out, trace_path = self.work / "bucs-out.json", self.work / "trace-bucs.json"
        out.unlink(missing_ok=True)
        argv = [self.py, self.child, "bucs", str(self.work / "grid.json"), str(out)]
        proc = self._run(argv + ([str(trace_path)] if traced else []))
        record = {"wall_s": proc.wall_s, "timed_s": 0.0, "cpu_s": proc.cpu_s,
                  "stderr_bytes": proc.stderr_bytes, "traces": []}
        tally.attempted += len(grid)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"results": []}
        results = doc["results"]
        if proc.code != 0 or len(results) != len(grid):
            tally.failed += len(grid)
            tally.failures.append(f"bucs worker: exit code {proc.code}, "
                                  f"{len(results)} results for {len(grid)} grid points")
            return record
        if traced:
            record["traces"].append(json.loads(trace_path.read_text(encoding="utf-8")))
        values = json.dumps([r[1:] for r in results]).encode()
        key = ("bucs", hashlib.sha256(values).hexdigest())
        if key not in tally.verdicts:
            tally.verdicts[key] = checks.check_bucs(results, grid)
        tally.failed += len(tally.verdicts[key])
        tally.failures += tally.verdicts[key]
        scales = [CALIB_REF_S / math.sqrt(b * a) for b, a in doc["calib_s"]]
        tally.calib += [math.sqrt(b * a) for b, a in doc["calib_s"]]
        record["timed_s"] = sum(r[0] * scale for r, scale in zip(results, scales))
        record["cpu_s"] -= doc["calib_total_s"]
        if not traced:
            tally.walls += [r[0] * scale for r, scale in zip(results, scales)]
            tally.raw_walls += [r[0] for r in results]
            tally.items += len(results)
            tally.rss.append(proc.rss_mb)
        return record

    # -- runs --------------------------------------------------------------

    def rounds(self, seconds: float, trace: bool) -> Tally:
        """Whole rounds until their wall time reaches `seconds`.

        With tracing, untraced and traced rounds alternate, so the traced
        ones can be compared with untraced ones run under the same conditions.
        Without it, setup_s's interpreter starts come before each round,
        and on the CLI workloads their closing calibration also opens the
        round's first operation.
        """
        tally = Tally()
        ops = None if self.workload == "bucs-grid" else self.cli_ops()
        spent = 0.0
        modes = (False, True) if trace else (False,)
        if not trace:
            self.setup_starts(Tally(), 1)
        while spent < seconds:
            before = None if trace else self.setup_starts(tally, SETUP_PER_ROUND)
            for traced in modes:
                if ops is None:
                    record = self.bucs_round(tally, traced)
                else:
                    record = self.cli_round(ops, tally, traced, before)
                before = None
                record["traced"] = traced
                tally.rounds.append(record)
                spent += record["wall_s"]
        if not trace:
            self.setup_starts(tally, SETUP_STARTS - len(tally.setup))
        return tally


def end_to_end(tally: Tally) -> dict[str, float]:
    return {
        "setup_s": statistics.median(tally.setup),
        "items_per_s": tally.items / sum(tally.walls),
        "op_p50_ms": statistics.median(tally.walls) * 1e3,
        "peak_rss_mb": statistics.median(tally.rss),
    }


LAYER_MS = ("report.load_sessions", "model.validate_dataset", "report.evaluate",
            "entropy.iei_by_group", "drift.series_from_dataset", "drift.fit_tdc",
            "bayes.bucs", "report.emit_report", "synth.gen_ratings", "report.emit_sessions")
LAYER_CALLS = ("drift.series_from_dataset", "bayes.bucs")
LAYER_COUNTS = ("report.load_sessions.rows_in", "report.load_sessions.rows_kept",
                "report.load_sessions.rejections", "report.load_sessions.rss_growth_mb",
                "report.emit_report.bytes", "report.emit_sessions.bytes", "ibeta_in_bucs")


def per_layer(tally: Tally) -> tuple[dict[str, float], set[str]]:
    """Per-round layer figures, as medians over the run's rounds.

    Returns the values and the names whose wrapped function no longer exists.
    """
    traced = [r for r in tally.rounds if r["traced"]]
    plain = [r for r in tally.rounds if not r["traced"]]
    missing: set[str] = set()
    per_round: list[dict[str, float]] = []
    for r in traced:
        row = dict.fromkeys([label + ".ms" for label in LAYER_MS]
                            + [label + ".calls" for label in LAYER_CALLS]
                            + list(LAYER_COUNTS), 0.0)
        top_ms = 0.0
        for t in r["traces"]:
            missing.update(t["missing"])
            for label in LAYER_MS:
                row[label + ".ms"] += t["ms"].get(label, 0.0)
            for label in LAYER_CALLS:
                row[label + ".calls"] += t["calls"].get(label, 0)
            for name in LAYER_COUNTS:
                row[name] += t["counts"].get(name, 0.0)
            top_ms += t["top_ms"] + t.get("calib_ms", 0.0)
        row["cli.self_ms"] = r["wall_s"] * 1e3 - top_ms
        calls = row["bayes.bucs.calls"]
        row["special.ibeta_calls_per_interval"] = row["ibeta_in_bucs"] / calls if calls else 0.0
        per_round.append(row)
    values = {name: statistics.median(row[name] for row in per_round) for name in per_round[0]}
    values["cli.op_cpu_ms"] = statistics.median(r["cpu_s"] for r in plain) * 1e3
    values["cli.stderr_bytes"] = statistics.median(r["stderr_bytes"] for r in plain)
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(r["timed_s"] for r in traced)
        / statistics.median(r["timed_s"] for r in plain) - 1.0)
    missing_metrics = {name for name in values for label in missing
                       if name == label or name.startswith(label + ".")}
    return values, missing_metrics


def run_workload(workload: str, args: argparse.Namespace, spec: dict,
                 launcher: Launcher) -> int:
    """One run of one workload; prints its summary and its JSON line."""
    work = HERE / "_work" / f"{workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, args.seed, args.tiny, work, launcher)
        bench.generate()
        tally = bench.rounds(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in tally.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if not tally.walls:
        print(f"benchmark: no timed operation of {workload} succeeded", file=sys.stderr)
        return 1
    if args.trace:
        values, missing = per_layer(tally)
        wanted = spec["per_layer"]
    else:
        values, missing = end_to_end(tally), set()
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in missing:
            metrics[m["name"]] = {"value": None, "unit": m["unit"], "missing": True}
        else:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    summary = (f"{workload} seed={args.seed}: {len(tally.rounds)} rounds, "
               f"{tally.attempted} operations, {tally.failed} failed; unscaled op p50 "
               f"{statistics.median(tally.raw_walls) * 1e3:.1f} ms, calibration p50 "
               f"{statistics.median(tally.calib) * 1e3:.1f} ms (reference {CALIB_REF_S * 1e3:.0f})")
    print(summary + "".join(f"\n  {k} = {v['value']} {v['unit']}" for k, v in metrics.items()))
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="adux benchmark (see benchmark/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adux" / "cli.py").is_file():
        print(f"benchmark: no adux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pin_to_one_cpu()
    launcher = Launcher()
    try:
        return run_workload(args.workload, args, spec, launcher)
    finally:
        launcher.close()


if __name__ == "__main__":
    raise SystemExit(main())
