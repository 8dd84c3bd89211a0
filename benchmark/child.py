"""Child-process entry points for benchmark operations.

    python3 benchmark/child.py launcher
        Starts the processes the benchmark asks for (one JSON request per
        line on stdin) and answers each with its wall time and the CPU time
        and peak RSS from `wait4`. Linux carries the RSS high-water mark of
        the process that forks into its child's `ru_maxrss`, so children
        are started from this small process, not from the benchmark's own,
        which holds numpy and scipy. A request ``{"calibrate": true}``
        times the fixed calibration work (see `calibrate`) in this process.
    python3 benchmark/child.py cli TRACE_OUT -- ADUX_ARGS...
        One `adux` CLI call with the layer tracer installed; the trace is
        written to TRACE_OUT as JSON.
    python3 benchmark/child.py bucs GRID_JSON OUT_JSON [TRACE_OUT]
        One pass of in-process `adux.bucs` calls over the grid; per-call
        wall times, results and the calibrations around each call go to
        OUT_JSON. With TRACE_OUT the tracer is installed too.

Untraced CLI operations do not come through here: the benchmark runs them
exactly as the `adux` console script does.

The tracer wraps public functions in the module namespace their callers
look them up in (``adux.cli.load_sessions``, ``adux.report.bucs``, ...),
so nothing under ``src/`` is edited. A name that a later refactor removes
is reported as missing instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import defaultdict

# (module the caller resolves the name in, attribute, metric label).
# `adux.report.bucs` is what `evaluate` calls; `adux.bucs` is what
# bucs-grid calls.
TIMED = (
    ("adux.cli", "load_sessions", "report.load_sessions"),
    ("adux.report", "validate_dataset", "model.validate_dataset"),
    ("adux.cli", "evaluate", "report.evaluate"),
    ("adux.report", "iei_by_group", "entropy.iei_by_group"),
    ("adux.report", "series_from_dataset", "drift.series_from_dataset"),
    ("adux.report", "fit_tdc", "drift.fit_tdc"),
    ("adux.report", "bucs", "bayes.bucs"),
    ("adux", "bucs", "bayes.bucs"),
    ("adux.cli", "emit_report", "report.emit_report"),
    ("adux.cli", "gen_ratings", "synth.gen_ratings"),
    ("adux.cli", "emit_sessions", "report.emit_sessions"),
)
COUNTED = (
    ("adux.bayes", "regularized_incomplete_beta"),
    ("adux.special", "regularized_incomplete_beta"),
)
LABELS = tuple(dict.fromkeys(label for _, _, label in TIMED))


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _data_rows(path: str, fmt: str) -> int:
    with open(path, "rb") as handle:
        if fmt == "csv":
            return sum(1 for _ in handle) - 1
        return sum(1 for line in handle if line.strip())


class Tracer:
    """Spans and counters recorded around the wrapped functions."""

    def __init__(self) -> None:
        self.ms: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.top_ms = 0.0
        self.calib_ms = 0.0
        self.depth = 0
        self.in_bucs = 0
        self.missing: list[str] = []

    def install(self) -> None:
        found = set()
        for module_name, attr, label in TIMED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._timed(label, fn))
                found.add(label)
        self.missing = [label for label in LABELS if label not in found]
        counted = False
        for module_name, attr in COUNTED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._counted(fn))
                counted = True
        if not counted:
            self.missing.append("special.ibeta_calls_per_interval")

    def _timed(self, label: str, fn):
        def wrapper(*args, **kwargs):
            is_bucs = label == "bayes.bucs"
            rss_before = _max_rss_mb() if label == "report.load_sessions" else 0.0
            self.depth += 1
            self.in_bucs += is_bucs
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - t0) * 1e3
                self.depth -= 1
                self.in_bucs -= is_bucs
                self.ms[label] += elapsed
                self.calls[label] += 1
                if self.depth == 0:
                    self.top_ms += elapsed
            if label == "report.load_sessions":
                self._count_load(args, kwargs, result, rss_before)
            elif label in ("report.emit_report", "report.emit_sessions"):
                self.counts[label + ".bytes"] += len(result.encode("utf-8"))
            return result
        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            if self.in_bucs:
                self.counts["ibeta_in_bucs"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_load(self, args, kwargs, result, rss_before: float) -> None:
        prefix = "report.load_sessions."
        self.counts[prefix + "rss_growth_mb"] += _max_rss_mb() - rss_before
        self.counts[prefix + "rows_kept"] += len(result.dataset)
        self.counts[prefix + "rejections"] += len(result.rejections)
        source = args[0] if args else kwargs["source"]
        fmt = kwargs.get("fmt", args[1] if len(args) > 1 else "csv")
        if isinstance(source, str):
            self.counts[prefix + "rows_in"] += _data_rows(source, fmt)

    def write(self, path: str) -> None:
        doc = {"ms": dict(self.ms), "calls": dict(self.calls), "counts": dict(self.counts),
               "top_ms": self.top_ms, "calib_ms": self.calib_ms, "missing": self.missing}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def run_cli(trace_out: str, cli_args: list[str]) -> int:
    import adux.cli  # noqa: F401  (the tracer wraps names inside it)

    tracer = Tracer()
    tracer.install()
    code = sys.modules["adux.cli"].main(cli_args)
    tracer.write(trace_out)
    return code


def run_bucs(grid_path: str, out_path: str, trace_out: str | None) -> int:
    import adux

    tracer = None
    if trace_out is not None:
        tracer = Tracer()
        tracer.install()
    with open(grid_path, encoding="utf-8") as handle:
        grid = json.load(handle)
    results = []
    calib = [calibrate()]
    before = []  # per call, the index in `calib` of the calibration before it
    calibrated_at = time.perf_counter()
    for pa, pb, n, big_n, mass in grid:
        prior, trials = adux.BetaParams(pa, pb), adux.TrialSummary(n, big_n)
        t0 = time.perf_counter()
        r = adux.bucs(prior, trials, mass)
        elapsed = time.perf_counter() - t0
        iv = r.interval
        results.append([elapsed, r.posterior.alpha, r.posterior.beta, iv.lower, iv.upper,
                        iv.mass, iv.kind.value, iv.unique, r.mean, r.mode])
        before.append(len(calib) - 1)
        if time.perf_counter() - calibrated_at >= CALIB_EVERY_S or len(results) == len(grid):
            calib.append(calibrate())
            calibrated_at = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"results": results, "calib_s": [[calib[i], calib[i + 1]] for i in before],
                   "calib_total_s": sum(calib)}, handle)
    if tracer is not None:
        tracer.calib_ms = sum(calib) * 1e3
        tracer.write(trace_out)
    return 0


# Calibration: a fixed piece of pure-Python work (integer arithmetic, string
# formatting, dict stores) that runs no adux code. The benchmark times it just
# before and just after each timed child, on the same CPU, and scales the
# child's wall time by it (see CALIB_REF_S in run.py).
CALIB_LOOPS = 300_000
# A bucs-grid pass lasts about 6 s, so it also calibrates inside the pass:
# after the first call that ends CALIB_EVERY_S or more after the last one.
CALIB_EVERY_S = 0.5


def calibrate() -> float:
    """Wall time of the calibration work, in seconds."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(CALIB_LOOPS):
        total += i * i
        table[i & 1023] = str(i)
    return time.perf_counter() - t0


def serve_launches() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("calibrate"):
            print(json.dumps({"calib_s": calibrate()}), flush=True)
            continue
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}),
              flush=True)
    return 0


def main(argv: list[str]) -> int:
    if argv == ["launcher"]:
        return serve_launches()
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if len(argv) in (3, 4) and argv[0] == "bucs":
        return run_bucs(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
