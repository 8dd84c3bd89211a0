"""CLI contract: exit codes, reproducibility, atomic outputs."""

from __future__ import annotations

import csv
import errno
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from adux import output
from adux.cli import MAX_SCALE_LEVELS, _specs_from_config_file, main
from adux.model import Dataset
from adux.report import emit_sessions
from adux.synth import category_presets, gen_ratings
from oracles import session_csv

DATA = Path(__file__).parent / "data"

SESSIONS = """session_id,category,period,rating,task_completed
s1,chat,0,4,true
s2,chat,0,2,true
s3,chat,1,3,false
s4,chat,2,4,true
s5,chat,3,5,true
s6,chat,4,4,true
s7,search,0,3,
s8,search,1,3,
"""

FOUR_PERIODS = """session_id,category,period,rating
s1,chat,0,4
s2,chat,1,3
s3,chat,2,4
s4,chat,3,5
"""


@pytest.fixture
def sessions_csv(tmp_path):
    path = tmp_path / "sessions.csv"
    path.write_text(SESSIONS)
    return str(path)


@pytest.fixture
def four_periods_csv(tmp_path):
    path = tmp_path / "four.csv"
    path.write_text(FOUR_PERIODS)
    return str(path)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["--no-such-flag"]) == 64
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 64

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "adux" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["bucs", "--help"]) == 0

    def test_missing_input_file_is_data_error(self, capsys):
        assert main(["iei", "--input", "/nonexistent.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_prior_is_usage_error(self, capsys):
        assert main(["bucs", "--n", "1", "--N", "2", "--prior", "0,1"]) == 64

    def test_bad_scale_is_usage_error(self, capsys):
        # The second is one level over the cap, which refuses a scale before
        # any count is allocated (one of 10^8 levels ran out of memory).
        for scale in ("5..1", f"0..{MAX_SCALE_LEVELS}"):
            assert main(["iei", "--input", "x.csv", "--scale", scale]) == 64
            assert "argument --scale: " in capsys.readouterr().err

    def test_largest_scale_passes(self, capsys):
        # Past argument parsing: the missing input is a data error.
        assert main(["iei", "--input", "x.csv", "--scale", f"1..{MAX_SCALE_LEVELS}"]) == 2

    def test_n_exceeding_trials_is_usage_error(self, capsys):
        assert main(["bucs", "--n", "11", "--N", "10"]) == 64

    def test_n_beyond_float_range_is_usage_error(self, capsys):
        assert main(["bucs", "--n", "0", "--N", "1" + "0" * 400]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows a float" in captured.err

    def test_closed_stdin_is_data_error(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", None)  # as Python sets it when fd 0 is closed
        assert main(["report", "--input", "-"]) == 2
        assert capsys.readouterr().err == (
            "adux: error: cannot read standard input: it is closed\n")

    @pytest.mark.parametrize("args", [
        # The input does not exist: the closed output is found before any is read.
        ["iei", "--input", "/nonexistent.csv"],
        ["tdc", "--input", "/nonexistent.csv"],
        ["bucs", "--n", "7", "--N", "10"],
        ["report", "--input", "/nonexistent.csv"],
        ["plotdata", "--figure", "fig3", "--p-hat", "0.5"],
        ["simulate", "--preset", "all", "--seed", "7"],
    ])
    def test_closed_stdout_is_data_error(self, args, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", None)  # as Python sets it when fd 1 is closed
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "adux: error: cannot write standard output: it is closed\n")

    @pytest.mark.parametrize("prior", ["nan,1", "1,nan", "inf,1", "1,-inf", "1e308,1e308"])
    def test_non_finite_prior_is_usage_error(self, prior, sessions_csv, capsys):
        # A NaN prior would print NaN, which is not JSON (RFC 8259), and an
        # infinite one, or one whose alpha + beta is, has no posterior to
        # solve for.
        assert main(["bucs", "--n", "1", "--N", "2", "--prior", prior]) == 64
        assert main(["report", "--input", sessions_csv, "--no-meta",
                     "--prior", prior]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("argument --prior: bad prior") == 2


class TestBucsCommand:
    def test_seven_of_ten_prints_posterior(self, capsys):
        code = main(["bucs", "--n", "7", "--N", "10", "--prior", "1,1",
                     "--mass", "0.95"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["posterior"] == {"alpha": 8, "beta": 4}
        assert doc["interval"]["kind"] == "hdi"
        assert 0.0 < doc["interval"]["lower"] < doc["interval"]["upper"] < 1.0
        assert doc["mean"] == pytest.approx(2 / 3, abs=1e-9)

    def test_zero_trials(self, capsys):
        assert main(["bucs", "--n", "0", "--N", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["posterior"] == {"alpha": 1, "beta": 1}
        assert doc["interval"]["unique"] is False

    @pytest.mark.parametrize("args", [
        ["bucs", "--n", "0", "--N", "0", "--prior", "0.001,0.001"],
        ["bucs", "--n", "0", "--N", "5", "--prior", "0.00001,0.00001"],
        ["bucs", "--n", "0", "--N", "0", "--prior", "1e-300,1e-300"],
        ["report", "--input", "{log}", "--prior", "0.00001,0.00001"],
        ["plotdata", "--figure", "fig3", "--p-hat", "0", "--prior", "0.00001,0.00001"],
    ])
    def test_vague_prior_exits_zero(self, args, tmp_path, capsys):
        # Such a posterior's density overflows a float near 0 or 1, and its
        # quantiles' power-law starts overshot [0, 1].
        log = tmp_path / "all_failed.csv"
        log.write_text("session_id,category,period,rating,task_completed\n"
                       "s1,chat,0,4,false\ns2,chat,1,3,false\n")
        assert main([arg.format(log=log) for arg in args]) == 0
        assert capsys.readouterr().out


class TestTdcCommand:
    def test_four_periods_exits_two_and_mentions_minimum(self, four_periods_csv, capsys):
        assert main(["tdc", "--input", four_periods_csv]) == 2
        err = capsys.readouterr().err
        assert "5" in err

    def test_five_periods_fit(self, sessions_csv, capsys):
        # 'search' has 2 periods: drop it via a chat-only file instead
        code = main(["tdc", "--input", sessions_csv])
        assert code == 2  # search category blocks the batch

    def test_single_category_fit(self, tmp_path, capsys):
        path = tmp_path / "chat.csv"
        path.write_text("".join(
            line + "\n" for line in SESSIONS.splitlines() if not line.startswith("s7,")
            and not line.startswith("s8,")
        ))
        assert main(["tdc", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["categories"][0]["category"] == "chat"
        assert doc["categories"][0]["n_points"] == 5
        assert doc["categories"][0]["drift"] in ("positive", "negative", "indeterminate")


class TestIeiCommand:
    def test_per_category(self, sessions_csv, capsys):
        assert main(["iei", "--input", sessions_csv]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [g["category"] for g in doc["groups"]]
        assert names == ["chat", "search"]
        search = doc["groups"][1]
        assert search["bits"] == 0.0
        assert search["n"] == 2

    def test_per_category_period_grouping(self, sessions_csv, capsys):
        assert main(["iei", "--input", sessions_csv, "--group-by",
                     "category-period"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"category": "chat", "period": 0}.items() <= doc["groups"][0].items()

    def test_skip_invalid_reports_rejections(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(SESSIONS + "s9,chat,0,9,\n")
        assert main(["iei", "--input", str(path), "--skip-invalid"]) == 0
        captured = capsys.readouterr()
        assert "skipped row" in captured.err
        assert json.loads(captured.out)["rejected"] == 1

    def test_strict_default_fails_on_bad_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(SESSIONS + "s9,chat,0,9,\n")
        assert main(["iei", "--input", str(path)]) == 2


class TestReportCommand:
    def test_bad_timestamp_row_is_rejected_once(self, tmp_path, capsys):
        path = tmp_path / "stamped.csv"
        path.write_text(
            "session_id,category,period,rating,task_completed,timestamp\n"
            "s1,chat,,4,true,2024-05-01T10:00:00Z\n"
            "s2,chat,,3,false,2024-05-02T10:00:00Z\n"
            "s3,chat,,5,true,not-a-time\n"
        )
        assert main(["report", "--input", str(path), "--skip-invalid"]) == 0
        captured = capsys.readouterr()
        meta = json.loads(captured.out)["meta"]
        assert (meta["rows"], meta["rejected"]) == (2, 1)
        assert captured.err.count("skipped row") == 1

    def test_json_report_with_digest_on_stderr(self, sessions_csv, capsys):
        assert main(["report", "--input", sessions_csv]) == 0
        captured = capsys.readouterr()
        assert "config digest" in captured.err
        doc = json.loads(captured.out)
        assert [c["name"] for c in doc["categories"]] == ["chat", "search"]
        assert doc["meta"]["rows"] == 8

    @pytest.mark.parametrize("aggregation, digest", [
        ("pooled", "95e14f524799"), ("mean-of-sessions", "8aeac22c820a"),
    ])
    def test_digest_of_a_set_prior_and_mass(self, aggregation, digest, sessions_csv, capsys):
        # The sha256 of the scale, prior, mass and aggregation, cut to 12 digits.
        assert main(["report", "--input", sessions_csv, "--prior", "2,3", "--mass", "0.9",
                     "--aggregation", aggregation]) == 0
        assert capsys.readouterr().err == f"adux: config digest {digest}\n"

    def test_csv_report(self, sessions_csv, capsys):
        assert main(["report", "--input", sessions_csv, "--report-format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 2 * 3

    def test_out_file_written(self, sessions_csv, tmp_path):
        out = tmp_path / "report.json"
        assert main(["report", "--input", sessions_csv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["rows"] == 8

    def test_failure_leaves_no_output_file(self, four_periods_csv, tmp_path):
        out = tmp_path / "sub" / "report.json"
        assert main(["report", "--input", "/nonexistent.csv",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_unwritable_out_is_data_error_no_partial(self, sessions_csv, tmp_path):
        out = tmp_path / "missing-dir" / "report.json"
        assert main(["report", "--input", sessions_csv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("destination, code", [
        ("missing-dir/report.json", errno.ENOENT),
        ("a-directory", errno.EISDIR),
    ])
    def test_unwritable_out_names_destination_and_reason(
            self, destination, code, sessions_csv, tmp_path, capsys):
        (tmp_path / "a-directory").mkdir()
        out = tmp_path / destination
        before = sorted(tmp_path.rglob("*"))
        assert main(["report", "--input", sessions_csv, "--out", str(out)]) == 2
        # The OS reason, not the text of an exception that names the temp file.
        assert capsys.readouterr().err.endswith(
            f"adux: error: cannot write {out}: {os.strerror(code)}\n")
        assert sorted(tmp_path.rglob("*")) == before


BUCS_OUT = ["bucs", "--n", "7", "--N", "10", "--out"]


def _with_umask(mask, call):
    old = os.umask(mask)
    try:
        return call()
    finally:
        os.umask(old)


class TestOutFile:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_a_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        read = []
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        assert main([*BUCS_OUT, str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive(), "the reader of the FIFO got no end of file"
        assert json.loads(read[0])["posterior"] == {"alpha": 8, "beta": 4}
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["out.fifo"]

    @pytest.mark.parametrize("dangling", [False, True])
    def test_a_symlink_is_written_through(self, dangling, tmp_path):
        # As a shell's `>` does: the target gets the text and keeps its own
        # mode, a dangling link's target is made, and the link stays a link.
        target = tmp_path / "target" / "bucs.json"
        target.parent.mkdir()
        if not dangling:
            target.write_text("old\n")
            target.chmod(0o604)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert _with_umask(0o022, lambda: main([*BUCS_OUT, str(link)])) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["posterior"] == {"alpha": 8, "beta": 4}
        assert stat.S_IMODE(os.stat(target).st_mode) == (0o644 if dangling else 0o604)
        assert sorted(os.listdir(target.parent)) == ["bucs.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout_on_a_pipe_is_written_in_place(self):
        # /dev/stdout links to the pipe's fd, whose link names no real path:
        # the text goes to the pipe, not to a temp file beside that name.
        proc = subprocess.run([*ADUX, *BUCS_OUT, "/dev/stdout"], env=_adux_env(False),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["posterior"] == {"alpha": 8, "beta": 4}

    def test_an_unwritable_symlink_target_names_the_link(self, tmp_path, capsys):
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "missing-dir" / "bucs.json")
        assert main([*BUCS_OUT, str(link)]) == 2
        assert capsys.readouterr().err.endswith(
            f"adux: error: cannot write {link}: {os.strerror(errno.ENOENT)}\n")
        assert link.is_symlink() and not link.exists()

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_a_new_file_gets_the_mode_the_umask_gives(self, mask, mode, tmp_path):
        out = tmp_path / "bucs.json"
        assert _with_umask(mask, lambda: main([*BUCS_OUT, str(out)])) == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == mode

    @pytest.mark.parametrize("mode", [0o644, 0o640, 0o604])
    def test_a_rewritten_file_keeps_its_mode(self, mode, tmp_path):
        out = tmp_path / "bucs.json"
        out.write_text("old\n")
        out.chmod(mode)
        assert _with_umask(0o077, lambda: main([*BUCS_OUT, str(out)])) == 0
        assert json.loads(out.read_text())["posterior"] == {"alpha": 8, "beta": 4}
        assert stat.S_IMODE(os.stat(out).st_mode) == mode


# Categories that a CSV cell must quote: a delimiter, a quote, a line feed
# and a carriage return.
QUOTED_CATEGORIES = ("a,b", 'say "hi"', "new\nline", "car\rriage")
# Python 3.10's csv module neither writes nor reads a NUL inside a cell.
CATEGORY_TEXT = st.text(min_size=1, max_size=6).filter(
    lambda text: sys.version_info >= (3, 11) or "\0" not in text)


class TestCsvTablesReadBack:
    """The CSV report and plot data, read back by csv.reader, give the JSON
    report's category names whole, on every supported Python."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=CATEGORY_TEXT)
    @example(drawn="\r")
    def test_categories_come_back_whole(self, drawn, tmp_path):
        categories = sorted({*QUOTED_CATEGORIES, drawn})
        periods = range(5)
        log = tmp_path / "log.jsonl"
        log.write_text("".join(
            json.dumps({"session_id": f"s{c}-{t}-{j}", "category": category, "period": t,
                        "rating": 1 + (3 * c + t * t + j) % 5, "task_completed": j == 0})
            + "\n"
            for c, category in enumerate(categories) for t in periods for j in range(2)),
            encoding="utf-8")

        def run(*args) -> Path:
            out = tmp_path / "out"
            assert main([*args, "--input", str(log), "--format", "jsonl",
                         "--out", str(out)]) == 0
            return out

        def table(*args) -> list[list[str]]:
            with open(run(*args), newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            assert all(len(row) == len(rows[0]) for row in rows)
            return rows[1:]

        doc = json.loads(run("report", "--no-meta").read_text(encoding="utf-8"))
        names = [entry["name"] for entry in doc["categories"]]
        assert sorted(names) == categories
        assert [row[:2] for row in table("report", "--report-format", "csv")] == [
            [name, metric] for name in names for metric in ("iei", "tdc", "bucs")]
        assert [row[0] for row in table("plotdata", "--figure", "fig1")] == names
        assert [row[:2] for row in table("plotdata", "--figure", "fig2")] == [
            [name, str(t)] for name in names for t in periods]


class TestNulInACategory:
    """csv before Python 3.11 cannot write a NUL. A category holding one is
    written and read back whole, or refused with one error line; never a
    traceback."""

    @pytest.mark.parametrize("args", [
        ["report", "--report-format", "csv", "--no-meta"],
        ["plotdata", "--figure", "fig1"],
        ["plotdata", "--figure", "fig2"],
        ["simulate"],
    ], ids=["report", "fig1", "fig2", "simulate"])
    def test_written_whole_or_refused(self, args, tmp_path, capsys):
        category = "a\0b"
        if args[0] == "simulate":
            config = tmp_path / "spec.json"
            config.write_text(json.dumps({"category": category, "probs": [0.2] * 5,
                                          "periods": 5, "sessions_per_period": 2}))
            args = [*args, "--config", str(config)]
        else:
            log = tmp_path / "log.jsonl"
            log.write_text("".join(
                json.dumps({"session_id": f"s{t}", "category": category, "period": t,
                            "rating": 1 + t, "task_completed": t % 2 == 0}) + "\n"
                for t in range(5)), encoding="utf-8")
            args = [*args, "--input", str(log), "--format", "jsonl"]
        out = tmp_path / "out.csv"
        code = main([*args, "--out", str(out)])
        err = capsys.readouterr().err
        if code == 2:
            errors = [line for line in err.splitlines() if line.startswith("adux: error: ")]
            # The cell named is the first that holds the NUL.
            assert len(errors) == 1 and "cannot write the CSV cell" in errors[0]
            assert "\\x00" in errors[0]
            assert not out.exists()
            return
        assert code == 0, err
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
        assert {row[rows[0].index("category")] for row in rows[1:]} == {category}


def _adux_env(unbuffered):
    """The environment of an ``adux`` process run from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


ADUX = [sys.executable, "-c", "from adux.cli import run; run()"]


def _run_adux(args, stderr, unbuffered=False):
    """``adux ARGS`` in a new process, its stderr "open", "closed" or
    "read-only": its exit code and stdout bytes."""
    with open(os.devnull, "rb") as read_only:
        proc = subprocess.run(
            [*ADUX, *args], env=_adux_env(unbuffered), stdout=subprocess.PIPE, timeout=60,
            stderr=read_only if stderr == "read-only" else subprocess.DEVNULL,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args, lines_read, err_before", [
    # About 1 MB, far more than a pipe holds: the write fails mid-stream.
    (["simulate", "--preset", "all", "--seed", "7", "--periods", "20",
      "--sessions-per-period", "400"], 1, "adux: simulated 40000 sessions (seed 7)\n"),
    # A few hundred bytes, which a buffered stdout holds until it is flushed.
    (["bucs", "--n", "7", "--N", "10"], 0, ""),
], ids=["simulate-after-one-line", "bucs-before-any"])
def test_a_reader_gone_away_is_one_error_line(args, lines_read, err_before, unbuffered):
    proc = subprocess.Popen([*ADUX, *args], env=_adux_env(unbuffered),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (
        2, err_before + "adux: error: cannot write standard output: [Errno 32] Broken pipe\n")


def _run_to_the_end(args, log=None):
    """``adux ARGS`` in a new process, with LOG standing for ``log``: its exit
    code, stdout and stderr. It must end in a result or in one error line."""
    proc = subprocess.run([*ADUX, *(str(log) if a == "LOG" else a for a in args)],
                          env=_adux_env(False), capture_output=True, text=True, timeout=60)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("adux: error:") == (proc.returncode == 2)
    assert proc.returncode in (0, 2)
    return proc.returncode, proc.stdout, proc.stderr


class TestEdgesOfTheFloatRange:
    """Inputs at the ends of the float range give an answer, or one error
    line and exit 2; never a traceback."""

    LARGEST_BELOW_1 = "0.9999999999999999"  # 1 - 2**-53, where (1 + mass) / 2 rounds to 1

    @pytest.mark.parametrize("args", [
        ["bucs", "--n", "3", "--N", "10"],
        ["report", "--input", "LOG", "--no-meta"],
        ["plotdata", "--figure", "fig3", "--p-hat", "0.5"],
    ], ids=["bucs", "report", "plotdata"])
    def test_the_largest_mass_below_1(self, args, sessions_csv):
        code, out, _ = _run_to_the_end([*args, "--mass", self.LARGEST_BELOW_1], sessions_csv)
        assert code == 0
        if args[0] == "plotdata":
            widths = [float(w) for row in out.splitlines()[1:] for w in row.split(",")[1:]]
            assert widths and all(0.0 < w <= 1.0 for w in widths)
            return
        doc = json.loads(out)
        intervals = [doc["interval"]] if args[0] == "bucs" else [
            category["bucs"]["interval"] for category in doc["categories"]
            if "interval" in category["bucs"]]
        assert intervals and all(0.0 < i["lower"] < i["upper"] <= 1.0 for i in intervals)

    @pytest.mark.parametrize("args, code", [
        (["bucs", "--n", "50000000000000000000", "--N", "100000000000000000000"], 2),
        (["plotdata", "--figure", "fig3", "--p-hat", "0.5",
          "--N-list", "100000000000000000000"], 2),
        (["bucs", "--n", "0", "--N", "0", "--prior", "1e100,1e100"], 2),
        (["bucs", "--n", "0", "--N", "0", "--prior", "5e-324,1"], 0),
        (["bucs", "--n", "0", "--N", "0", "--prior", "1e-300,1e300"], 0),
    ], ids=["bucs-1e20", "plotdata-1e20", "prior-1e100", "prior-5e-324", "prior-1e-300-1e300"])
    def test_beta_shapes_at_the_ends(self, args, code):
        got, out, err = _run_to_the_end(args)
        assert got == code
        if code == 2:
            assert "past the precision of log B" in err
            return
        interval = json.loads(out)["interval"]
        # Both posteriors hold all but a float's worth of mass below 5e-324.
        assert 0.0 <= interval["lower"] <= interval["upper"] <= 5e-324

    OVERFLOWS = "a trial count is too large: the posterior's alpha + beta overflows a float"

    @pytest.mark.parametrize("args, error", [
        (["--p-hat", "0.5", "--N-list", "1" + "0" * 400], OVERFLOWS),
        (["--p-hat", "0.5", "--prior", "1,1e308", "--N-list", str(int(1.5e308))], OVERFLOWS),
        (["--p-hat", "0.5", "--N-list", "10,1" + "0" * 400], OVERFLOWS),
        # p_hat * N is a float: 1 * (2**53 + 3) rounds past N, to 2**53 + 4.
        # All N trials complete, so the posterior is Beta(1 + 2**53 + 3, 1).
        (["--p-hat", "1", "--N-list", str(2**53 + 3)],
         "Beta(9007199254740996.0, 1.0) is past the precision of log B"),
    ], ids=["N-past-every-float", "alpha-plus-beta-overflows", "after-a-good-count",
            "completions-round-past-N"])
    def test_a_fig3_count_past_the_float_range(self, args, error, capsys):
        code = main(["plotdata", "--figure", "fig3", *args])
        out, err = capsys.readouterr()
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("adux: error: " + error)


BIG_PERIOD_ROW = {"session_id": "s9", "category": "chat", "period": int("9" * 400),
                  "rating": 3, "task_completed": True}


def _log_lines(fmt, rows):
    if fmt == "jsonl":
        return "".join(json.dumps(row) + "\n" for row in rows)
    return "session_id,category,period,rating,task_completed\n" + "".join(
        f"{r['session_id']},{r['category']},{r['period']},{r['rating']},"
        f"{'' if r['task_completed'] is None else str(r['task_completed']).lower()}\n"
        for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("command", [["tdc"], ["report", "--no-meta"],
                                     ["plotdata", "--figure", "fig2"]],
                         ids=["tdc", "report", "plotdata"])
def test_a_period_beyond_2_53_is_a_malformed_row(fmt, command, tmp_path, capsys):
    rows = [dict(zip(["session_id", "category", "period", "rating", "task_completed"],
                     [s, c, int(p), int(r), {"true": True, "false": False}.get(t)]))
            for s, c, p, r, t in (line.split(",") for line in SESSIONS.splitlines()[1:])
            if c == "chat"]  # the one category with the five periods TDC needs
    clean, dirty = tmp_path / f"clean.{fmt}", tmp_path / f"dirty.{fmt}"
    clean.write_text(_log_lines(fmt, rows))
    dirty.write_text(_log_lines(fmt, [*rows[:2], BIG_PERIOD_ROW, *rows[2:]]))
    args = [*command, "--format", fmt, "--input"]
    number = 3 if fmt == "jsonl" else 4
    assert main([*args, str(dirty)]) == 2
    assert capsys.readouterr().err == (
        f"adux: error: row {number}: period must be <= 2**53, got {'9' * 400}\n")
    assert main([*args, str(clean)]) == 0
    expected = capsys.readouterr().out
    assert main([*args, str(dirty), "--skip-invalid"]) == 0
    out, err = capsys.readouterr()
    # The row is dropped: only tdc's count of rejected rows tells the runs apart.
    assert out == expected.replace('"rejected": 0', '"rejected": 1')
    assert f"skipped row {number}: period must be <= 2**53" in err


class TestUnwritableStderr:
    """With stderr closed, or open where a write fails, every command drops
    its diagnostics and prints the same stdout, with the same exit code, as
    with stderr open. Python makes sys.stderr None for a closed fd 2; for
    one it cannot write it makes a stream whose writes raise, and a buffer
    left unflushed at exit changes the exit code."""

    @pytest.mark.parametrize("args", [
        ["iei", "--input", "LOG", "--skip-invalid"],
        ["tdc", "--input", "LOG", "--skip-invalid"],
        ["bucs", "--n", "7", "--N", "10"],
        ["report", "--input", "LOG", "--skip-invalid", "--no-meta"],
        ["plotdata", "--figure", "fig1", "--input", "LOG", "--skip-invalid"],
        ["simulate", "--preset", "all", "--seed", "7"],
        ["report", "--input", "LOG"],  # strict: exit 2 on the bad row
        ["report", "--no-such-flag"],  # exit 64
    ], ids=["iei", "tdc", "bucs", "report", "plotdata", "simulate", "data-error",
            "usage-error"])
    def test_same_stdout_and_exit_code(self, args, tmp_path):
        log = tmp_path / "sessions.csv"
        log.write_text(SESSIONS + "s9,chat,5,9,true\n")
        args = [str(log) if arg == "LOG" else arg for arg in args]
        expected = _run_adux(args, "open")
        assert _run_adux(args, "closed") == expected
        for unbuffered in (False, True):
            assert _run_adux(args, "read-only", unbuffered) == expected

    def test_main_leaves_a_failing_stderr_in_place(self, tmp_path, capsys, monkeypatch):
        class Unwritable:
            def write(self, text):
                raise OSError(errno.EBADF, "Bad file descriptor")

        log = tmp_path / "sessions.csv"
        log.write_text(SESSIONS + "s9,chat,5,9,true\n")
        args = ["report", "--input", str(log), "--skip-invalid", "--no-meta"]
        assert main(args) == 0
        expected = capsys.readouterr().out
        broken = Unwritable()
        monkeypatch.setattr(sys, "stderr", broken)
        assert main(args) == 0
        assert main(["report", "--no-such-flag"]) == 64
        assert sys.stderr is broken
        assert capsys.readouterr().out == expected


class TestSimulateCommand:
    def test_flag_driven_spec(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--category", "chat",
                     "--probs", "0.2,0.2,0.2,0.2,0.2",
                     "--periods", "3", "--sessions-per-period", "4",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "session_id,category,period,rating,task_completed"
        assert len(lines) == 1 + 3 * 4

    def test_deterministic_for_same_seed(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["simulate", "--category", "chat",
                  "--probs", "0.5,0.1,0.1,0.1,0.2", "--seed", "11",
                  "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_preset_all(self, tmp_path):
        out = tmp_path / "presets.csv"
        assert main(["simulate", "--preset", "all", "--out", str(out)]) == 0
        text = out.read_text()
        assert "conversational-assistant" in text
        assert "form-autocomplete" in text

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["simulate", "--preset", "smart-toaster"]) == 64

    def test_missing_spec_is_usage_error(self, capsys):
        assert main(["simulate"]) == 64

    def test_bad_probs_is_usage_error(self, capsys):
        assert main(["simulate", "--category", "c", "--probs", "0.9,0.9"]) == 64

    @pytest.mark.parametrize("probs", ["nan,0.2,0.2,0.2,0.2", "0.2,0.2,inf,0.2,0.2"])
    def test_non_finite_probs_is_usage_error(self, probs, capsys):
        # NaN passes both the sign and the sum check unless refused first.
        assert main(["simulate", "--category", "c", "--probs", probs, "--seed", "3"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("adux: usage error: non-finite probability in (")

    @pytest.mark.parametrize("flag, value, message", [
        ("--periods", "0", "periods must be >= 1, got 0"),
        ("--sessions-per-period", "-1", "sessions_per_period must be >= 1, got -1"),
    ])
    def test_bad_preset_size_is_usage_error(self, flag, value, message, capsys):
        assert main(["simulate", "--preset", "all", flag, value]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"adux: usage error: {message}\n"

    def test_negative_seed_is_usage_error(self, capsys):
        # random.Random would draw the stream of -1 from 1.
        assert main(["simulate", "--preset", "all", "--seed", "-1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "adux: usage error: seed must be >= 0, got -1\n"

    def test_flags_and_config_share_defaults(self, tmp_path, capsys):
        probs = [0.1, 0.2, 0.3, 0.2, 0.2]
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"category": "c", "probs": probs}))
        assert main(["simulate", "--config", str(config)]) == 0
        from_config = capsys.readouterr()
        assert main(["simulate", "--category", "c",
                     "--probs", ",".join(map(str, probs))]) == 0
        assert capsys.readouterr() == from_config
        assert from_config.err == "adux: simulated 320 sessions (seed 42)\n"

    def test_config_file(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "specs": [
                {"category": "alpha", "probs": [0.5, 0.5, 0, 0, 0], "periods": 2,
                 "sessions_per_period": 3},
                {"category": "beta", "probs": [0, 0, 0, 0.5, 0.5], "periods": 2,
                 "sessions_per_period": 3, "seed": 99},
            ]
        }))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 3

    @pytest.mark.parametrize("payload", [
        '{"specs": [{"category": "x"}]}',
        '"hello"',
        '7',
        '{"specs": "x"}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "scale": [1, 5]}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "scale": 15}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "scale": "1..102"}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "periods": 1e400}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "seed": 1e400}',
        '{"category": "c", "probs": [NaN, 0.2, 0.2, 0.2, 0.2]}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, Infinity]}',
        '{"category": null, "probs": [0.2, 0.2, 0.2, 0.2, 0.2]}',
        '{"category": "", "probs": [0.2, 0.2, 0.2, 0.2, 0.2]}',
        '{"category": 7, "probs": [0.2, 0.2, 0.2, 0.2, 0.2]}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "periods": 1.5}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "periods": 2.0}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "periods": true}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "sessions_per_period": "3"}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "seed": 1.5}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "completion_p": "0.5"}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "completion_p": true}',
        '{"category": "c", "probs": [0.2, 0.2, 0.2, 0.2, 0.2], "completion_p": null}',
    ], ids=["missing-probs", "string", "number", "specs-string", "scale-list",
            "scale-number", "scale-too-many-levels", "periods-inf", "seed-inf",
            "probs-nan", "probs-inf", "category-null", "category-empty",
            "category-number", "periods-fraction", "periods-float", "periods-bool",
            "sessions-string", "seed-fraction", "completion-string", "completion-bool",
            "completion-null"])
    def test_bad_config_is_usage_error(self, payload, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(payload)
        assert main(["simulate", "--config", str(config)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"adux: usage error: bad simulate config {config}: ")

    def test_integer_completion_p_is_a_number(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"category": "c", "probs": [0.2] * 5,
                                      "completion_p": 1, "periods": 1,
                                      "sessions_per_period": 2}))
        assert main(["simulate", "--config", str(config)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",true") for row in rows)

    @pytest.mark.parametrize("entries, seeds", [
        ([{}, {}], "seed 42"),
        ([{"seed": 42}, {"seed": 43}], "seed 42"),
        ([{"seed": 1}], "seed 1"),
        ([{"seed": 1}, {"seed": 7}], "seeds 1, 7"),
        ([{}, {"seed": 7}, {}], "seeds 42, 7, 44"),
    ], ids=["defaults", "defaults-spelled-out", "one-own", "two-own", "mixed"])
    def test_summary_names_the_seeds_that_made_the_file(self, entries, seeds, tmp_path,
                                                        capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps([
            {"category": f"c{i}", "probs": [0.2] * 5, "periods": 1, "sessions_per_period": 2,
             **entry} for i, entry in enumerate(entries)]))
        assert main(["simulate", "--config", str(config)]) == 0
        assert capsys.readouterr().err == (
            f"adux: simulated {2 * len(entries)} sessions ({seeds})\n")

    def test_empty_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"specs": []}))
        assert main(["simulate", "--config", str(config)]) == 64
        assert "no specs" in capsys.readouterr().err


def _merged(specs):
    datasets = [gen_ratings(spec) for spec in specs]
    observations = tuple(o for ds in datasets for o in ds.observations)
    return Dataset(space=datasets[0].space, observations=observations)


class TestSimulateStreaming:
    """`simulate` writes rows as it draws them; the bytes must be those of
    the whole log rendered at once."""

    def _both_outputs(self, args, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        captured = capsys.readouterr()
        text = out.read_bytes().decode("utf-8")
        assert captured.out == text
        return text, captured.err

    def test_presets_match_merged_datasets(self, tmp_path, capsys):
        text, err = self._both_outputs(
            ["simulate", "--preset", "all", "--seed", "90210"], tmp_path, capsys)
        merged = _merged(category_presets(seed=90210))
        assert text == emit_sessions(merged)
        assert text == session_csv(merged.observations)
        assert err == "adux: simulated 1600 sessions (seed 90210)\n"

    def test_awkward_categories_match_merged_datasets(self, tmp_path, capsys):
        # The first category fills more than one write chunk before a
        # category holding "\r" appears; the "\r" must still be quoted.
        names = ["plain", "a,b", 'say "hi"', "car\rriage", "new\nline"]
        entries = [{"category": name, "probs": [0.1, 0.2, 0.3, 0.2, 0.2],
                    "periods": 3, "sessions_per_period": 3000 if i == 0 else 7,
                    "seed": 5 + i}
                   for i, name in enumerate(names)]
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"specs": entries}))
        args = ["simulate", "--config", str(config)]
        text, _ = self._both_outputs(args, tmp_path, capsys)
        merged = _merged(_specs_from_config_file(str(config), 42))
        assert text == emit_sessions(merged)
        assert text == session_csv(merged.observations)
        assert '"car\rriage"' in text

    def test_periods_longer_than_a_chunk_match_merged_datasets(self, tmp_path, capsys,
                                                                monkeypatch):
        # Periods of 25 rows are written in slices of 7, and short periods
        # gathered into chunks; a chunk holding a quoted category falls
        # inside a period.
        monkeypatch.setattr(output, "_CHUNK_ROWS", 7)
        entries = [{"category": name, "probs": [0.1, 0.2, 0.3, 0.2, 0.2], "periods": 3,
                    "sessions_per_period": size, "seed": 5 + i}
                   for i, (name, size) in enumerate([("plain", 25), ("a,b", 25), ("few", 3)])]
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"specs": entries}))
        text, _ = self._both_outputs(["simulate", "--config", str(config)], tmp_path, capsys)
        merged = _merged(_specs_from_config_file(str(config), 42))
        assert text == session_csv(merged.observations)
        assert '"a,b"' in text

    def test_mixed_scales_write_nothing(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"specs": [
            {"category": "five", "probs": [0.2] * 5},
            {"category": "seven", "probs": [1 / 7] * 7, "scale": "1..7"},
        ]}))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 64
        assert main(["simulate", "--config", str(config)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "share one scale" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_every_command_and_generator_runs_without_numpy(tmp_path):
    log = tmp_path / "sessions.csv"
    log.write_text(SESSIONS)
    simulated = tmp_path / "simulated.csv"
    script = f"""
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import adux, adux.cli
assert adux.cli.main(["report", "--input", {str(log)!r}, "--no-meta"]) == 0
assert adux.cli.main(["bucs", "--n", "7", "--N", "10"]) == 0
assert adux.cli.main(["simulate", "--preset", "all", "--out", {str(simulated)!r}]) == 0
spec = adux.category_presets()[0]
assert len(adux.gen_ratings(spec)) == 8 * 40
assert len(adux.gen_drift_series(spec).points) == 8
assert adux.gen_trials(0.5, 100, seed=1).trials == 100
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(simulated.read_text().splitlines()) == 1 + 5 * 8 * 40


def test_report_loads_no_openssl(tmp_path):
    # Nor dataclasses and inspect: the record types are built without them,
    # since dataclasses compiles source at run time for every class. And each
    # command loads only the adux modules it runs: every process compiles
    # those from source when it cannot use bytecode caches.
    log = tmp_path / "sessions.csv"
    log.write_text(SESSIONS)
    out = tmp_path / "simulated.csv"
    script = f"""
import sys
import adux, adux.cli
def unloaded(names):
    loaded = set(names) & set(sys.modules)
    assert not loaded, f"loaded {{sorted(loaded)}}"
EVALUATION = ["adux.ingest", "adux.report", "adux.entropy"]
COMMANDS = EVALUATION + ["adux.bayes", "adux.special", "adux.drift", "adux.synth"]
unloaded(["dataclasses", "inspect", *COMMANDS])
assert adux.cli.main(["--version"]) == 0
assert adux.cli.main(["--no-such-flag"]) == 64
assert adux.cli.main(["report", "--input"]) == 64
unloaded(COMMANDS)
assert adux.cli.main(["bucs", "--n", "7", "--N", "10"]) == 0
unloaded(["adux.report", "adux.ingest", "adux.entropy", "adux.drift"])
assert adux.cli.main(["simulate", "--category", "c", "--probs", "0.2,0.2,0.2,0.2,0.2",
                      "--out", {str(out)!r}]) == 0
unloaded(EVALUATION)
assert adux.cli.main(["report", "--input", {str(log)!r}]) == 0
assert "_hashlib" not in sys.modules, "hashlib's OpenSSL module loaded"
unloaded(["dataclasses", "inspect"])
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "adux: config digest " in proc.stderr


def test_benchmark_tracer_finds_every_name(tmp_path):
    # benchmark/child.py times each layer by rebinding these names with
    # setattr, and reports a name that no longer resolves as a missing metric.
    log = tmp_path / "sessions.csv"
    log.write_text(SESSIONS)
    root = Path(__file__).resolve().parents[1]
    script = f"""
import importlib, sys
sys.path.insert(0, {str(root / "benchmark")!r})
import child
import adux.cli
for module, name, *_ in child.TIMED + child.COUNTED:
    assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
tracer = child.Tracer()
tracer.install()
assert sys.modules["adux.cli"].main(["report", "--input", {str(log)!r}, "--no-meta"]) == 0
assert tracer.missing == [], tracer.missing
for label in ("report.evaluate", "report.emit_report", "bayes.bucs"):
    assert tracer.calls[label] > 0, label
assert tracer.counts["ibeta_in_bucs"] > 0
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestPlotdataCommand:
    def test_fig3_defaults(self, capsys):
        assert main(["plotdata", "--figure", "fig3", "--p-hat", "0.7"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "N,bucs_hdi_width,wald_width"
        assert len(lines) == 5

    def test_fig3_requires_p_hat(self, capsys):
        assert main(["plotdata", "--figure", "fig3"]) == 64

    @pytest.mark.parametrize("args, message", [
        (["--p-hat", "2"], "p_hat must lie in [0, 1], got 2.0"),
        (["--p-hat", "nan"], "p_hat must lie in [0, 1], got nan"),
        (["--p-hat", "0.5", "--N-list", "0"],
         "trial_counts must be a non-empty list of positive counts"),
    ])
    def test_bad_fig3_spec_is_usage_error(self, args, message, capsys):
        assert main(["plotdata", "--figure", "fig3"] + args) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"adux: usage error: {message}\n"

    def test_fig1_requires_input(self, capsys):
        assert main(["plotdata", "--figure", "fig1"]) == 64

    def test_fig1_from_sessions(self, sessions_csv, capsys):
        assert main(["plotdata", "--figure", "fig1", "--input", sessions_csv]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "category,iei_bits,iei_normalized"
        assert len(lines) == 3

    def test_fig2_from_sessions(self, sessions_csv, capsys):
        assert main(["plotdata", "--figure", "fig2", "--input", sessions_csv]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "category,t,u,fitted_u"

    def test_invalid_earliest_row_does_not_move_periods(self, capsys):
        # The earliest timestamped row has rating 9 and is dropped; the six
        # valid rows, one a day, must take periods 0..5, not 1..6.
        path = DATA / "period_origin.jsonl"
        assert main(["plotdata", "--figure", "fig2", "--input", str(path),
                     "--format", "jsonl", "--skip-invalid"]) == 0
        captured = capsys.readouterr()
        periods = [line.split(",")[1] for line in captured.out.strip().split("\n")[1:]]
        assert periods == ["0", "1", "2", "3", "4", "5"]
        assert captured.err == (
            "adux: skipped row 1: rating code 9 not in response space (1, 2, 3, 4, 5)\n"
        )


class TestPipelineDeterminism:
    def test_simulate_report_emit_twice_is_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("run1", "run2"):
            sim = tmp_path / f"{tag}-sessions.csv"
            rep = tmp_path / f"{tag}-report.json"
            assert main(["simulate", "--preset", "all", "--seed", "2024",
                         "--out", str(sim)]) == 0
            assert main(["report", "--input", str(sim), "--no-meta",
                         "--out", str(rep)]) == 0
            blobs.append(sim.read_bytes() + rep.read_bytes())
        assert blobs[0] == blobs[1]
