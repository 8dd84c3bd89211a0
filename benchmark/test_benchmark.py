"""Tests of the benchmark itself: its checks catch wrong outputs, and tiny
runs of every workload finish with a result.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}


def _generate(workload: str, out: Path, seed: int = 5) -> dict:
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out), "--tiny"], check=True)
    return json.loads((out / "expect.json").read_text())


def _adux(*args: str) -> None:
    subprocess.run([sys.executable, "-c", run.CLI_MAIN, *args], env=ENV, check=True,
                   capture_output=True)


def _move_first(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


@pytest.fixture(scope="module")
def report_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("report-csv")
    truth = _generate("report-csv", out)
    _adux("report", "--input", str(out / "sessions.csv"), "--report-format", "csv",
          "--no-meta", "--out", str(out / "report.csv"))
    return (out / "report.csv").read_text(), checks.Oracle(truth, "pooled")


@pytest.fixture(scope="module")
def report_jsonl(tmp_path_factory):
    out = tmp_path_factory.mktemp("report-jsonl")
    truth = _generate("report-jsonl-mixed", out)
    flags = ["--format", "jsonl", "--skip-invalid", "--aggregation", "mean-of-sessions"]
    _adux("report", "--input", str(out / "sessions.jsonl"), *flags,
          "--out", str(out / "report.json"))
    return (out / "report.json").read_text(), checks.Oracle(truth, "mean-of-sessions")


def test_report_csv_check_catches_changed_iei_moved_endpoint_dropped_row(report_csv):
    text, oracle = report_csv
    assert checks.check_report_csv(text, oracle) == []
    rows = list(csv.DictReader(io.StringIO(text)))
    iei = next(r for r in rows if r["metric"] == "iei")
    bucs = next(r for r in rows if r["metric"] == "bucs" and r["available"] == "true")

    changed = _move_first(text, f",{iei['bits']},", f",{float(iei['bits']) + 1e-6!r},")
    assert checks.check_report_csv(changed, oracle)

    lower = float(bucs["interval_lower"])
    moved = _move_first(text, f",{bucs['interval_lower']},", f",{lower - 2e-3!r},")
    assert checks.check_report_csv(moved, oracle)

    lines = text.splitlines(keepends=True)
    dropped = "".join(line for line in lines if not line.startswith(f"{iei['category']},tdc,"))
    assert checks.check_report_csv(dropped, oracle)


def test_report_json_check_catches_extra_rejection_changed_iei_moved_endpoint(report_jsonl):
    text, oracle = report_jsonl
    assert checks.check_report_json(text, oracle) == []

    doc = json.loads(text)
    doc["meta"]["rejected"] += 1
    assert checks.check_report_json(json.dumps(doc), oracle)

    doc = json.loads(text)
    doc["categories"][0]["iei"]["bits"] += 1e-6
    assert checks.check_report_json(json.dumps(doc), oracle)

    doc = json.loads(text)
    with_bucs = next(c for c in doc["categories"] if "interval" in c["bucs"])
    with_bucs["bucs"]["interval"]["upper"] += 2e-3
    assert checks.check_report_json(json.dumps(doc), oracle)

    doc = json.loads(text)
    del doc["categories"][-1]
    assert checks.check_report_json(json.dumps(doc), oracle)


def test_probe_check_counts_only_the_rejected_count_as_the_known_fault():
    def report(rows, rejected):
        return json.dumps({"categories": [], "meta": {"rows": rows, "rejected": rejected}})

    assert checks.check_probe(report(gen.PROBE_VALID, gen.PROBE_BAD)) == (False, [])
    assert checks.check_probe(report(gen.PROBE_VALID, 2 * gen.PROBE_BAD)) == (True, [])
    for rows, rejected in ((gen.PROBE_VALID - 1, gen.PROBE_BAD), (gen.PROBE_VALID, 0),
                           (gen.PROBE_VALID, gen.PROBE_BAD + 1)):
        fault, other = checks.check_probe(report(rows, rejected))
        assert not fault and other
    fault, other = checks.check_probe(json.dumps({"meta": {}}))
    assert not fault and other


def test_a_changed_output_of_an_identical_operation_fails():
    op = run.Op("report", [], Path("report.csv"), 1, True, lambda b: (False, []), identical=True)
    tally = run.Tally()
    for output in (b"same\n", b"same\n", b"other\n"):
        tally.attempted += 1
        tally.judge(op, output)
    assert tally.failed == 1
    assert tally.failures == ["report: output differs from the run's first output"]


def test_simulate_check_catches_dropped_row_and_off_scale_rating(tmp_path):
    truth = _generate("simulate-csv", tmp_path)
    _adux("simulate", "--config", str(tmp_path / "spec.json"),
          "--out", str(tmp_path / "sessions.csv"))
    text = (tmp_path / "sessions.csv").read_text()
    assert checks.check_simulate(text, truth) == []

    lines = text.split("\n")
    assert checks.check_simulate("\n".join(lines[:5] + lines[6:]), truth)

    fields = lines[1].split(",")
    fields[3] = "6"
    assert checks.check_simulate("\n".join([lines[0], ",".join(fields)] + lines[2:]), truth)


def test_simulate_check_rejects_wrong_frequencies(tmp_path):
    truth = _generate("simulate-csv", tmp_path)
    spec = truth["specs"][0]
    lines = [checks.SIM_HEADER]
    for t in range(spec["periods"]):
        for i in range(spec["sessions_per_period"]):
            lines.append(f"{spec['category']}-p{t}-s{i},{spec['category']},{t},5,true")
    for other in truth["specs"][1:]:
        for t in range(other["periods"]):
            for i in range(other["sessions_per_period"]):
                lines.append(f"{other['category']}-p{t}-s{i},{other['category']},{t},5,true")
    failures = checks.check_simulate("\n".join(lines) + "\n", truth)
    assert any("reject the spec" in f for f in failures)


def test_bucs_check_catches_moved_endpoint_and_wrong_kind(tmp_path):
    truth = _generate("bucs-grid", tmp_path)
    subprocess.run([sys.executable, str(HERE / "child.py"), "bucs", str(tmp_path / "grid.json"),
                    str(tmp_path / "out.json")], env=ENV, check=True)
    results = json.loads((tmp_path / "out.json").read_text())["results"]
    grid = truth["grid"]
    assert checks.check_bucs(results, grid) == []
    kinds = {r[6] for r in results}
    assert {"hdi", "one-sided-lower", "one-sided-upper", "equal-tailed"} <= kinds

    i = next(k for k, r in enumerate(results) if r[6] == "hdi")
    moved = [list(r) for r in results]
    moved[i][3] -= 0.05 * (moved[i][4] - moved[i][3])
    assert checks.check_bucs(moved, grid)

    wrong = [list(r) for r in results]
    wrong[i][6] = "equal-tailed"
    assert checks.check_bucs(wrong, grid)


def test_hdi_oracle_matches_a_symmetric_case():
    lower, upper = checks.hdi_oracle(5.0, 5.0, 0.95)
    assert lower == pytest.approx(1.0 - upper, abs=1e-12)
    from scipy import special
    assert special.betainc(5.0, 5.0, upper) - special.betainc(5.0, 5.0, lower) == \
        pytest.approx(0.95, abs=1e-12)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_of_every_workload(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if workload == "report-jsonl-mixed":
        # Each round is the seeded report plus the fixed probe, which fails
        # while load_sessions counts one bad row twice.
        assert result["failed"] * 2 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "report-csv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_removed_name_is_reported_missing(monkeypatch):
    import child

    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(child, "TIMED", child.TIMED + (("adux.cli", "no_such_name", "gone.layer"),))
    monkeypatch.setattr(child, "LABELS", child.LABELS + ("gone.layer",))
    tracer = child.Tracer()
    tracer.install()
    assert tracer.missing == ["gone.layer"]

    trace = {"ms": {}, "calls": {}, "counts": {}, "top_ms": 0.0, "missing": ["drift.fit_tdc"]}
    tally = run.Tally(rounds=[
        {"traced": False, "wall_s": 1.0, "timed_s": 2.0, "cpu_s": 1.0, "stderr_bytes": 0,
         "traces": []},
        {"traced": True, "wall_s": 1.1, "timed_s": 2.2, "cpu_s": 1.1, "stderr_bytes": 0,
         "traces": [trace]},
    ])
    values, missing = run.per_layer(tally)
    assert missing == {"drift.fit_tdc.ms"}
    assert values["trace.overhead_pct"] == pytest.approx(10.0)


class _FakeLauncher:
    """Calibration times 0.2, 0.05, 0.2, ... and children of 1 s wall time."""

    def __init__(self) -> None:
        self.calibrations = iter([0.2, 0.05, 0.2, 0.05])

    def calibrate(self) -> float:
        return next(self.calibrations)

    def run(self, argv, cwd) -> run.Proc:
        return run.Proc(wall_s=1.0, cpu_s=1.0, rss_mb=30.0, code=0, stderr_bytes=0)


def test_timings_are_scaled_by_the_calibrations_around_them(tmp_path):
    bench = run.Bench("bucs-grid", 1, True, tmp_path, _FakeLauncher())
    tally = run.Tally()
    after = bench.setup_starts(tally, 2)
    # Each start lies between its own two calibrations; the second start
    # shares the first one's closing calibration.
    assert tally.setup == pytest.approx([run.CALIB_REF_S / 0.1] * 2)
    assert tally.calib == [0.2, 0.05, 0.2]
    _, scale, _ = bench.calibrated(tally, lambda: None, after)
    assert scale == pytest.approx(run.CALIB_REF_S / 0.1)
