"""Any bytes given to `adux report` end in a report or a typed error.

Rows that cannot be read are rejected like any invalid row; input that
cannot be read at all (bytes that are not UTF-8, a CSV field over
``csv.field_size_limit()``) exits 2 in both strictness modes and names the
line. Never a traceback.
"""

from __future__ import annotations

import csv
import json

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
def test_csv_field_over_the_size_limit_exits_two(tmp_path, capsys, mode):
    path = tmp_path / "log.csv"
    huge = "x" * (csv.field_size_limit() + 1)
    path.write_text(f"session_id,category,period,rating\ns1,chat,0,4\ns2,{huge},0,3\n")
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
