"""Any bytes given to `adux report` end in a report or a typed error.

Rows that cannot be read are rejected like any invalid row; input that
cannot be read at all (bytes that are not UTF-8, a CSV field over
``csv.field_size_limit()``) exits 2 in both strictness modes and names the
line. Never a traceback.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adux.cli import main

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
def test_bytes_that_are_not_utf8_exit_two(tmp_path, capsys, fmt, data, mode):
    path = tmp_path / f"log.{fmt}"
    path.write_bytes(data)
    code, captured = _report(path, fmt, mode, capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"adux: error: line {2 if fmt == 'jsonl' else 3}: "
        "not UTF-8 text (invalid start byte)\n"
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad_row", [2, 420, 590])
@pytest.mark.parametrize("from_stdin", [False, True])
def test_an_invalid_row_before_undecodable_bytes_comes_first(tmp_path, monkeypatch, capsys,
                                                             mode, bad_row, from_stdin):
    # The bad byte lies some 11 KB in: past the first 8 KB block, which
    # holds rows 2 and 420, and inside the lines the count reads. Row 590
    # shares the bad byte's block, which fails to decode as a whole, so
    # there the bytes come first, as they do row by row. Standard input
    # here decodes strictly, as it does under a UTF-8 locale.
    rows = [f"s{i},chat,{i % 4},{1 + i % 5},true\n" for i in range(601)]
    rows[bad_row - 2] = "s1,chat,0,9,true\n"
    data = (b"session_id,category,period,rating,task_completed\n" + "".join(rows).encode()
            + b"s2,ch\xffat,0,3,false\n")
    path = tmp_path / "log.csv"
    path.write_bytes(data)
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        path = "-"
    code, captured = _report(path, "csv", mode, capsys)
    assert code == 2
    assert captured.err == (
        f"adux: error: row {bad_row}: rating code 9 not in response space (1, 2, 3, 4, 5)\n"
        if mode == "--strict" and bad_row < 590 else
        f"adux: error: {'input' if from_stdin else 'line 603'}: not UTF-8 text "
        "(invalid start byte)\n")


def _surrogate_jsonl(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(GOOD_JSONL[:2] + [
        '{"session_id": "x", "category": "\\ud800", "period": 0, "rating": 4}'
    ] + GOOD_JSONL[2:]) + "\n")
    return ["--input", str(path), "--format", "jsonl"], "\ud800"


def _surrogate_stdin(tmp_path, monkeypatch):
    # Standard input decodes a byte that is not UTF-8 to a lone surrogate
    # under the POSIX locale (surrogateescape).
    data = CSV_HEADER + b"s0,chat,0,4,true,\ns1,ch\xffat,0,4,true,\ns2,chat,1,5,false,\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    return ["--input", "-"], "ch\udcffat"


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
