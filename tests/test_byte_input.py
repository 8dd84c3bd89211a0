"""Any bytes given to `adux report` end in a report or a typed error.

Rows that cannot be read are rejected like any invalid row. A byte that is
not UTF-8 is read into its row as a lone surrogate, from a file or from
standard input alike, whatever the locale, and checked there like any
other character: a category holding one is an invalid row. Input that
cannot be read at all (a CSV field over ``csv.field_size_limit()``) exits
2 in both strictness modes and names the line. Never a traceback.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adux.cli import main
from adux.errors import IoFailure, MalformedRow
from adux.ingest import load_sessions

MODES = ("--strict", "--skip-invalid")
CSV_HEADER = b"session_id,category,period,rating,task_completed,timestamp\n"
GOOD_JSONL = [
    json.dumps({"session_id": f"s{i}", "category": "chat", "period": i % 3,
                "rating": 1 + i % 5, "task_completed": i % 2 == 0})
    for i in range(6)
]


def _report(path, fmt, mode, capsys):
    code = main(["report", "--input", str(path), "--format", fmt, mode, "--no-meta"])
    return code, capsys.readouterr()


def _stdin(monkeypatch, data, errors="strict"):
    # Python decodes standard input strictly under a UTF-8 locale, and with
    # surrogateescape under the POSIX locale (PEP 538/540); adux reads the
    # bytes beneath either.
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                       errors=errors))
    return "-"


@pytest.mark.parametrize("bad_line", [
    # Out of datetime's range once converted to UTC.
    json.dumps({"session_id": "x", "category": "chat", "period": "",
                "timestamp": "0001-01-01T00:00:00+05:00", "rating": 3}),
    # Nested deeper than json.loads can recurse.
    "[" * 200_000,
])
def test_jsonl_row_fault_is_a_rejection(tmp_path, capsys, bad_line):
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(GOOD_JSONL[:3] + [bad_line] + GOOD_JSONL[3:]) + "\n")
    code, captured = _report(path, "jsonl", "--strict", capsys)
    assert code == 2
    assert captured.err.startswith("adux: error: row 4: ")
    code, captured = _report(path, "jsonl", "--skip-invalid", capsys)
    assert code == 0
    assert json.loads(captured.out)["categories"][0]["iei"]["n"] == 6
    assert captured.err.startswith("adux: skipped row 4: ")
    code = main(["iei", "--input", str(path), "--format", "jsonl", "--skip-invalid"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["rejected"] == 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fmt, data", [
    ("csv", CSV_HEADER + b"s1,chat,0,4,true,\ns2,ch\xffat,0,3,false,\n"),
    ("jsonl", GOOD_JSONL[0].encode() + b"\n" + GOOD_JSONL[1].encode()[:-1]
     + b', "note": "\xff"}\n'),
])
def test_a_byte_that_is_not_utf8_is_read_into_its_row(tmp_path, capsys, fmt, data, mode):
    path = tmp_path / f"log.{fmt}"
    path.write_bytes(data)
    code, captured = _report(path, fmt, mode, capsys)
    if fmt == "jsonl":  # in a "note" field, which no metric reads
        assert code == 0
        assert json.loads(captured.out)["categories"][0]["iei"]["n"] == 2
        assert "skipped" not in captured.err
        return
    detail = "row 3: category 'ch\\udcffat' is not UTF-8 text\n"
    if mode == "--strict":
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"adux: error: {detail}"
    else:
        assert code == 0
        assert json.loads(captured.out)["categories"][0]["iei"]["n"] == 1
        assert captured.err.startswith(f"adux: skipped {detail}")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad_row", [2, 420, 590])
@pytest.mark.parametrize("from_stdin", [False, True])
def test_an_invalid_row_before_undecodable_bytes_comes_first(tmp_path, monkeypatch, capsys,
                                                             mode, bad_row, from_stdin):
    # The bad byte lies some 11 KB in: past the first 8 KB block, which
    # holds rows 2 and 420, and inside the lines the distinct-line count
    # reads. Row 590 shares the bad byte's block. Wherever it lies, the
    # invalid row comes first, and the bad byte's row 603 after it.
    rows = [f"s{i},chat,{i % 4},{1 + i % 5},true\n" for i in range(601)]
    rows[bad_row - 2] = "s1,chat,0,9,true\n"
    data = (b"session_id,category,period,rating,task_completed\n" + "".join(rows).encode()
            + b"s2,ch\xffat,0,3,false\n")
    path = tmp_path / "log.csv"
    path.write_bytes(data)
    if from_stdin:
        path = _stdin(monkeypatch, data)
    code, captured = _report(path, "csv", mode, capsys)
    rating = f"row {bad_row}: rating code 9 not in response space (1, 2, 3, 4, 5)\n"
    if mode == "--strict":
        assert code == 2
        assert captured.err == f"adux: error: {rating}"
    else:
        assert code == 0
        assert captured.err.startswith(
            f"adux: skipped {rating}"
            "adux: skipped row 603: category 'ch\\udcffat' is not UTF-8 text\n")


def _surrogate_jsonl(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(GOOD_JSONL[:2] + [
        '{"session_id": "x", "category": "\\ud800", "period": 0, "rating": 4}'
    ] + GOOD_JSONL[2:]) + "\n")
    return ["--input", str(path), "--format", "jsonl"], "\ud800"


def _surrogate_stdin(tmp_path, monkeypatch):
    data = CSV_HEADER + b"s0,chat,0,4,true,\ns1,ch\xffat,0,4,true,\ns2,chat,1,5,false,\n"
    return ["--input", _stdin(monkeypatch, data, "surrogateescape")], "ch\udcffat"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("source", [_surrogate_jsonl, _surrogate_stdin])
def test_a_category_that_is_not_utf8_is_an_invalid_row(tmp_path, monkeypatch, capsys, mode,
                                                        source):
    args, category = source(tmp_path, monkeypatch)
    out = tmp_path / "report.csv"
    code = main(["report", *args, mode, "--no-meta", "--report-format", "csv",
                 "--out", str(out)])
    err = capsys.readouterr().err
    detail = f"row 3: category {category!r} is not UTF-8 text\n"
    if mode == "--strict":
        assert code == 2
        assert err == f"adux: error: {detail}"
        assert not out.exists()
    else:
        assert code == 0
        assert err.startswith(f"adux: skipped {detail}")
        assert out.read_text().startswith("category,")


@pytest.mark.parametrize("mode", MODES)
def test_csv_field_over_the_size_limit_exits_two(tmp_path, capsys, mode):
    path = tmp_path / "log.csv"
    huge = "x" * (csv.field_size_limit() + 1)
    for row in (f"s2,{huge},0,3", f"{huge},chat,0,3"):  # the category, the session id
        path.write_text(f"session_id,category,period,rating\ns1,chat,0,4\n{row}\n")
        code, captured = _report(path, "csv", mode, capsys)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("adux: error: line 3: unreadable CSV: field larger")


# Arbitrary bytes, and arbitrary bytes after a valid CSV header or a
# valid JSON line, so that some examples get past the first line.
_BYTES = st.one_of(
    st.binary(max_size=400),
    st.binary(max_size=400).map(lambda b: CSV_HEADER + b),
    st.binary(max_size=400).map(lambda b: GOOD_JSONL[0].encode() + b"\n" + b),
)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fmt", ("csv", "jsonl"))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_BYTES)
def test_any_bytes_give_a_report_or_exit_two(tmp_path, capsys, fmt, mode, data):
    path = tmp_path / f"fuzz.{fmt}"
    path.write_bytes(data)
    code, _ = _report(path, fmt, mode, capsys)
    assert code in (0, 2)
    out = tmp_path / "report.csv"
    code = main(["report", "--input", str(path), "--format", fmt, mode, "--no-meta",
                 "--report-format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert code in (0, 2)


# Valid logs of both formats, with line feeds or lone carriage returns,
# and with bytes that are not UTF-8 or lone carriage returns spliced in.
_CSV_LOG = CSV_HEADER + b"".join(
    f"s{i},chat,{i % 3},{1 + i % 5},{str(i % 2 == 0).lower()},\n".encode() for i in range(6))
_JSONL_LOG = b"".join(line.encode() + b"\n" for line in GOOD_JSONL)


@st.composite
def _spliced_logs(draw):
    log = draw(st.sampled_from((_CSV_LOG, _JSONL_LOG)))
    if draw(st.booleans()):
        log = log.replace(b"\n", b"\r")
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(log)))
        log = log[:at] + draw(st.sampled_from((b"\xff", b"\r"))) + log[at:]
    return log


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fmt", ("csv", "jsonl"))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(_BYTES, _spliced_logs()))
def test_a_file_and_stdin_give_the_same_report(tmp_path, monkeypatch, capsys, fmt, mode, data):
    path = tmp_path / f"same.{fmt}"
    path.write_bytes(data)
    from_file = _report(path, fmt, mode, capsys)
    for errors in ("strict", "surrogateescape"):
        assert _report(_stdin(monkeypatch, data, errors), fmt, mode, capsys) == from_file



BOM = b"\xef\xbb\xbf"
BOM_LOGS = {
    "csv": b"session_id,category,period,rating\ns0,chat,0,3\n" + BOM + b"s1,chat,1,4\n",
    "jsonl": b'{"session_id": "s0", "category": "chat", "period": 0, "rating": 3}\n'
             + BOM + b'{"session_id": "s1", "category": "chat", "period": 1, "rating": 4}\n',
}


@pytest.mark.parametrize("from_stdin", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_byte_order_mark_is_dropped_only_at_the_start(tmp_path, monkeypatch, capsys, fmt,
                                                       from_stdin):
    log = BOM + BOM_LOGS[fmt]
    path = tmp_path / f"log.{fmt}"
    path.write_bytes(log)
    source = _stdin(monkeypatch, log) if from_stdin else path
    code = main(["iei", "--input", str(source), "--format", fmt, "--skip-invalid"])
    captured = capsys.readouterr()
    assert code == 0
    if fmt == "csv":  # the second mark is the start of a session id
        assert captured.err == ""
        assert json.loads(captured.out)["groups"][0]["n"] == 2
        ids = [o.session_id for o in load_sessions(path).dataset.observations]
        assert ids == ["s0", "\ufeffs1"]
    else:  # a line that starts with the second mark is not JSON
        assert captured.err.startswith("adux: skipped row 2: ")
        assert json.loads(captured.out)["groups"][0]["n"] == 1


def test_a_text_handle_keeps_its_byte_order_mark():
    with pytest.raises(MalformedRow, match="missing required column"):
        load_sessions(io.StringIO((BOM + BOM_LOGS["csv"]).decode("utf-8")))


def test_an_unreadable_handle_is_named_by_its_name():
    class Unreadable(io.RawIOBase):
        name = "<stdin>"

        def readable(self):
            return True

        def readinto(self, buffer):
            raise OSError(errno.EBADF, "Bad file descriptor")

    with pytest.raises(IoFailure, match=r"^cannot read <stdin>: \[Errno 9\] Bad file"):
        load_sessions(Unreadable())
