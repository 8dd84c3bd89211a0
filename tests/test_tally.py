"""Count-based ingestion: `tally_sessions` against `load_sessions`.

`tally_sessions` streams a log into `SessionCounts` without building row
objects. These tests hold it to the row-object path on generated logs that
mix valid rows with every kind of invalid one: the same counts, the same
rejections, the same strict-mode error and the same report bytes.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from adux import ingest
from adux.cli import main
from adux.entropy import MEAN_OF_SESSIONS, POOLED, iei_by_group
from adux.errors import AduxError
from adux.ingest import _FIELDS, _csv_records, load_sessions, tally_sessions
from adux.model import (
    Dataset,
    RowValidator,
    SKIP_INVALID,
    STRICT,
    SessionCounts,
    SessionObservation,
    five_point,
)
from adux.report import EvalConfig, emit_report, emit_sessions, evaluate

ABSENT = object()  # a JSON key left out, not set to null

# Raw cell values: valid ones and every kind of invalid one.
CSV_VALUES = {
    "session_id": ["s1", "s2", "s3", "s4", ""],
    "category": ["a", "b", "a", ""],
    "period": ["0", "1", "2", "3", "4", "5", " 2", "+3", "-1", "x", "1.5", ""],
    "rating": ["1", "2", "3", "4", "5", " 4", "0", "9", "x", "4.0", ""],
    "task_completed": ["true", "false", "", "yes", "No", "0", "1", "TRUE", "maybe"],
    "timestamp": ["2024-03-01T10:00:00Z", "2024-03-03T23:30:00-05:00",
                  "2024-03-05T01:00:00+02:00", "2024-03-08T12:00:00", "not-a-time", ""],
}
JSON_VALUES = {
    "session_id": ["s1", "s2", "s3", 7, "", None, ABSENT],
    "category": ["a", "b", "a", 0, "", None, ABSENT],
    "period": [0, 1, 2, 3, 4, 5, "3", 2.0, 2.5, -0.0, -1, True, "", None, ABSENT, [1]],
    "rating": [1, 2, 3, 4, 5, "4", 4.0, 4.5, 9, True, "", None, ABSENT, {"v": 4}],
    "task_completed": [True, False, 1, 0, 1.0, 0.0, -0.0, "1", "true", "no", 2, "",
                       None, ABSENT],
    "timestamp": CSV_VALUES["timestamp"] + [0, None, ABSENT],
}


@st.composite
def csv_logs(draw):
    # The four required columns and any of the optional ones, in any order.
    optional = draw(st.lists(st.sampled_from(_FIELDS[4:]), unique=True))
    header = draw(st.permutations(list(_FIELDS[:4]) + optional))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "short", "long"]))
        if kind == "blank":
            buffer.write("\n")
            continue
        cells = [draw(st.sampled_from(CSV_VALUES[name])) for name in header]
        if kind == "short":
            cells = cells[: draw(st.integers(1, len(cells) - 1))]
        elif kind == "long":
            cells.append("extra")
        writer.writerow(cells)
    return buffer.getvalue(), "csv"


@st.composite
def jsonl_logs(draw):
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["object"] * 8 + ["blank", "broken", "array"]))
        if kind == "blank":
            lines.append("")
        elif kind == "broken":
            lines.append('{"session_id": "s1", "rating": 3')
        elif kind == "array":
            lines.append('["s1", "a", 0, 3]')
        else:
            obj = {}
            for name, values in JSON_VALUES.items():
                value = draw(st.sampled_from(values))
                if value is not ABSENT:
                    obj[name] = value
            lines.append(json.dumps(obj))
    return "".join(line + "\n" for line in lines), "jsonl"


logs = st.one_of(csv_logs(), jsonl_logs())
aggregations = st.sampled_from([POOLED, MEAN_OF_SESSIONS])


def _same_counts(a: SessionCounts, b: SessionCounts) -> bool:
    """Equal counts, with sessions in the same order (the mean sums in it)."""
    return a == b and list(a.sessions) == list(b.sessions)


def _outcome(call):
    try:
        return call()
    except AduxError as exc:
        return type(exc), str(exc)


class TestTallyMatchesLoad:
    @given(log=logs, aggregation=aggregations)
    @settings(max_examples=150, deadline=None)
    def test_counts_and_rejections(self, log, aggregation):
        text, fmt = log
        loaded = load_sessions(io.StringIO(text), fmt=fmt, strictness=SKIP_INVALID)
        counts, rejections = tally_sessions(io.StringIO(text), fmt=fmt,
                                            strictness=SKIP_INVALID,
                                            aggregation=aggregation)
        assert _same_counts(counts, loaded.dataset.counts(aggregation))
        assert [(r.row, r.reason, r.detail) for r in rejections] == [
            (r.row, r.reason, r.detail) for r in loaded.rejections
        ]
        assert len(counts) + len(rejections) == len(loaded.dataset) + len(loaded.rejections)

    @given(log=logs, aggregation=aggregations)
    @settings(max_examples=150, deadline=None)
    def test_strict_mode_raises_alike(self, log, aggregation):
        text, fmt = log
        from_load = _outcome(lambda: load_sessions(
            io.StringIO(text), fmt=fmt, strictness=STRICT).dataset.counts(aggregation))
        from_tally = _outcome(lambda: tally_sessions(
            io.StringIO(text), fmt=fmt, strictness=STRICT, aggregation=aggregation)[0])
        if isinstance(from_load, SessionCounts):
            assert _same_counts(from_tally, from_load)
        else:
            assert from_tally == from_load

    @given(log=logs, aggregation=aggregations)
    @settings(max_examples=100, deadline=None)
    def test_same_report_bytes(self, log, aggregation):
        text, fmt = log
        loaded = load_sessions(io.StringIO(text), fmt=fmt, strictness=SKIP_INVALID)
        counts, rejections = tally_sessions(io.StringIO(text), fmt=fmt,
                                            strictness=SKIP_INVALID,
                                            aggregation=aggregation)
        config = EvalConfig(aggregation=aggregation)
        from_rows = _outcome(lambda: evaluate(loaded.dataset, config, len(loaded.rejections)))
        from_counts = _outcome(lambda: evaluate(counts, config, len(rejections)))
        if isinstance(from_rows, tuple):
            assert from_counts == from_rows
            return
        for report_format in ("json", "csv"):
            assert emit_report(from_counts, report_format, no_meta=True) == emit_report(
                from_rows, report_format, no_meta=True)

    @given(log=csv_logs())
    @settings(max_examples=100, deadline=None)
    def test_csv_rows_read_as_dict_reader_reads_them(self, log):
        text, _ = log
        reader = csv.DictReader(io.StringIO(text))
        expected = [(reader.line_num, tuple(row.get(f) for f in _FIELDS)) for row in reader]
        assert list(_csv_records(io.StringIO(text))) == expected

    def test_long_record_under_a_header_without_optional_columns(self):
        text = "session_id,category,period,rating\ns1,chat,0,4,true\ns2,chat,1,5\n"
        assert list(_csv_records(io.StringIO(text))) == [
            (2, ("s1", "chat", "0", "4", None, None)),
            (3, ("s2", "chat", "1", "5", None, None)),
        ]
        counts, rejections = tally_sessions(io.StringIO(text))
        assert len(counts) == 2 and rejections == ()
        assert _same_counts(counts, load_sessions(io.StringIO(text)).dataset.counts())


class TestSessionCounts:
    def _dataset(self, ratings):
        return Dataset(five_point(), tuple(
            SessionObservation(f"s{i % 3}", "ab"[i % 2], i % 4, r, (None, True, False)[i % 3])
            for i, r in enumerate(ratings)
        ))

    def test_mean_of_sessions_needs_per_session_counts(self):
        counts = self._dataset([1, 2, 3]).counts(POOLED)
        with pytest.raises(ValueError, match="per session"):
            iei_by_group(counts, aggregation=MEAN_OF_SESSIONS)

    def test_with_periods_adds_counts_that_land_together(self):
        counts = self._dataset([1, 2, 3, 4, 5, 5]).counts()
        folded = counts.with_periods(lambda p: 0)
        assert sorted(folded.levels) == [("a", 0), ("b", 0)]
        assert sum(sum(n) for n in folded.levels.values()) == 6
        assert folded.trials == counts.trials


ids = st.text(min_size=1, max_size=8)


@given(st.lists(st.tuples(ids, ids, st.integers(0, 60), st.integers(1, 5),
                          st.sampled_from([True, False, None])), max_size=25))
@settings(max_examples=150, deadline=None)
@example(rows=[("\r", "a\rb", 0, 1, None), ("s\n", '"q"', 1, 2, True)])
def test_csv_round_trip(rows):
    ds = Dataset(five_point(), tuple(SessionObservation(*row) for row in rows))
    assert load_sessions(io.StringIO(emit_sessions(ds))).dataset == ds


def test_report_builds_no_row_objects(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sessions.csv"
    path.write_text("session_id,category,period,rating,task_completed\n"
                    + "".join(f"s{t},chat,{t},{1 + t % 5},true\n" for t in range(6)))
    made = []
    built = SessionObservation.__post_init__

    def counting(self):
        made.append(self)
        built(self)

    monkeypatch.setattr(SessionObservation, "__post_init__", counting)
    assert main(["report", "--input", str(path), "--no-meta"]) == 0
    for figure in ("fig1", "fig2"):
        assert main(["plotdata", "--figure", figure, "--input", str(path)]) == 0
    assert main(["iei", "--input", str(path), "--aggregation", "mean-of-sessions"]) == 0
    assert main(["tdc", "--input", str(path)]) == 0
    assert made == []
    load_sessions(path)  # the row-object path, to show the count works
    assert len(made) == 6


# Clean logs in the layout `adux simulate` writes: session_id first, over a
# few distinct rows, so `tally_sessions` counts their distinct lines. Each
# takes at most one fault, which must hand the log to the ordered loop.
CLEAN_CELLS = {
    "category": ["a", "b", "chat bot"],
    "period": ["0", "1", "7"],
    "rating": ["1", "3", "5"],
    "task_completed": ["true", "false", ""],
    "timestamp": ["", "2024-03-01T10:00:00Z"],
}
FAULTS = ["bad rating", "empty session id", "blank line", "quoted field", "crlf ending",
          "short record", "long record", "bucketed by timestamp", "surrogate category",
          "carriage return in a session id", "quoted session id holding a comma"]


@st.composite
def clean_csv_logs(draw, faults=FAULTS):
    """A clean log, as (text, number of data lines, the fault or None)."""
    header = ["session_id", *draw(st.permutations(
        ["category", "period", "rating", *draw(st.lists(
            st.sampled_from(["task_completed", "timestamp"]), unique=True))]))]
    distinct = draw(st.lists(st.tuples(*(st.sampled_from(CLEAN_CELLS[name])
                                         for name in header[1:])),
                             min_size=1, max_size=4, unique=True))
    rows = [[draw(st.sampled_from(["s1", "s2", "s3"])), *draw(st.sampled_from(distinct))]
            for _ in range(draw(st.integers(1, 60)))]
    lines = [",".join(row) + "\n" for row in rows]
    fault = draw(st.sampled_from([None, *faults]))
    if fault is not None:
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        if fault == "bad rating":
            row[header.index("rating")] = "9"
        elif fault == "empty session id":
            row[0] = ""
        elif fault == "quoted field":
            row[1] = f'"{row[1]}"'
        elif fault == "short record":
            row.pop()
        elif fault == "long record":
            row.append("extra")
        elif fault == "bucketed by timestamp":
            row[header.index("period")] = ""
            if "timestamp" in header:
                row[header.index("timestamp")] = "2024-03-02T10:00:00Z"
        elif fault == "surrogate category":
            row[header.index("category")] = "a\udcff"
        elif fault == "carriage return in a session id":
            row[0] = "s\r1"
        elif fault == "quoted session id holding a comma":
            # The quote takes in the next cell, so the record is short.
            row[:2] = [f'"{row[0]},{row[1]}"']
        lines[at] = ",".join(row) + ("\r\n" if fault == "crlf ending" else "\n")
        if fault == "blank line":
            lines.insert(at, "\n")
    return ",".join(header) + "\n" + "".join(lines), len(lines), fault


class _Spy:
    """Counts `RowValidator.check` calls and what the distinct-line count read."""

    def __init__(self, patch):
        self.checks = 0
        self.counted = []
        check, count = RowValidator.check, ingest._count_distinct_lines

        def counting_check(validator, *args):
            self.checks += 1
            return check(validator, *args)

        def counting_count(*args):
            read, rest = count(*args)
            self.counted.append(read)
            return read, rest

        patch.setattr(RowValidator, "check", counting_check)
        patch.setattr(ingest, "_count_distinct_lines", counting_count)


class TestDistinctLineCount:
    """`tally_sessions` counts a clean CSV log by its distinct lines; any
    fault hands it to the ordered loop, with the same outcome either way."""

    @given(log=clean_csv_logs(), aggregation=aggregations, chunk=st.sampled_from([1, 40, 200]),
           strictness=st.sampled_from([STRICT, SKIP_INVALID]), from_path=st.booleans())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # Two faults that a pooled count, which never parses the session id,
    # would read as a valid row: csv refuses the first, and reads the
    # second as a short record.
    @example(log=("session_id,category,period,rating\ns1,a,0,4\ns\r1,a,0,4\n", 2,
                  "carriage return in a session id"),
             aggregation=POOLED, chunk=200, strictness=SKIP_INVALID, from_path=False)
    @example(log=('session_id,category,period,rating\ns1,a,0,4\n"s2,a",0,4\n', 2,
                  "quoted session id holding a comma"),
             aggregation=POOLED, chunk=200, strictness=SKIP_INVALID, from_path=False)
    def test_same_outcome_as_the_ordered_loop(self, tmp_path, monkeypatch, log, aggregation,
                                              chunk, strictness, from_path):
        text, _, fault = log
        if from_path:
            path = tmp_path / "log.csv"
            # A surrogate category reaches a file as the byte it escapes.
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            open_log = lambda: path  # noqa: E731
        else:
            open_log = lambda: io.StringIO(text)  # noqa: E731

        def load():
            loaded = load_sessions(open_log(), strictness=strictness)
            return loaded.dataset.counts(aggregation), loaded.rejections

        expected = _outcome(load)
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_CHUNK_CHARS", chunk)
            patch.setattr(ingest, "_STEP_LINES", 1)
            got = _outcome(lambda: tally_sessions(open_log(), strictness=strictness,
                                                  aggregation=aggregation))
        if isinstance(expected[0], SessionCounts):
            assert _same_counts(got[0], expected[0])
            assert [(r.row, r.reason, r.detail) for r in got[1]] == [
                (r.row, r.reason, r.detail) for r in expected[1]]
        else:
            assert got == expected
        if fault is None:
            assert isinstance(expected[0], SessionCounts) and expected[1] == ()

    @given(log=clean_csv_logs(faults=[]), aggregation=aggregations,
           chunk=st.sampled_from([1, 40, 200]))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_clean_logs_are_counted_by_distinct_lines(self, monkeypatch, log, aggregation,
                                                      chunk):
        text, lines, _ = log
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_CHUNK_CHARS", chunk)
            patch.setattr(ingest, "_STEP_LINES", 1)
            spy = _Spy(patch)
            counts, _ = tally_sessions(io.StringIO(text), aggregation=aggregation)
        distinct = set(text.splitlines()[1:])
        # Sessions are counted one by one only in the ordered loop.
        assert spy.counted == ([lines] if aggregation == POOLED else [])
        if aggregation == POOLED:
            assert spy.checks <= len(distinct)
        assert len(counts) == lines

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_a_log_of_many_distinct_lines_hands_off(self, monkeypatch, repeats):
        # Unique timestamps make the lines distinct; each repeated in a row,
        # they still hold more distinct keys than the count keeps.
        text = "session_id,category,period,rating,timestamp\n" + "".join(
            f"s{i % 3},chat,{i % 4},{1 + i % 5},2024-03-01T10:{i // 60:02d}:{i % 60:02d}Z\n"
            for i in range(120) for _ in range(repeats))
        monkeypatch.setattr(ingest, "_CHUNK_CHARS", 200)
        monkeypatch.setattr(ingest, "_STEP_LINES", 1)
        monkeypatch.setattr(ingest, "_MAX_KEYS", 16)
        spy = _Spy(monkeypatch)
        counts, _ = tally_sessions(io.StringIO(text))
        assert spy.counted[0] <= 16 * repeats
        assert _same_counts(counts, load_sessions(io.StringIO(text)).dataset.counts())

    @pytest.mark.parametrize("header", ["category,session_id,period,rating",
                                        "session_id,category,period,rating,session_id"])
    def test_a_header_without_session_id_first_is_read_in_order(self, monkeypatch, header):
        # A repeated column name means its last column.
        text = header + "\n" + "chat,s1,0,4,s1\n" * 3 + "mail,s2,1,5,s2\n"
        spy = _Spy(monkeypatch)
        counts, _ = tally_sessions(io.StringIO(text))
        assert spy.counted == []
        assert _same_counts(counts, load_sessions(io.StringIO(text)).dataset.counts())

    def test_a_late_fault_keeps_its_row_number(self):
        lines = [f"s{i},chat,{i % 3},{1 + i % 5},true\n" for i in range(5000)]
        lines[4000] = "s4000,chat,1,9,true\n"
        text = "session_id,category,period,rating,task_completed\n" + "".join(lines)
        with pytest.raises(AduxError, match="^row 4002: rating code 9 not in"):
            tally_sessions(io.StringIO(text))
        counts, rejections = tally_sessions(io.StringIO(text), strictness=SKIP_INVALID)
        assert [(r.row, r.reason) for r in rejections] == [(4002, "unknown-rating")]
        assert _same_counts(counts, load_sessions(
            io.StringIO(text), strictness=SKIP_INVALID).dataset.counts())

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 3), st.integers(1, 5),
                              st.sampled_from([True, False, None]), st.integers(1, 4)),
                    max_size=12), aggregations)
    def test_a_weighted_add_is_that_many_adds(self, rows, aggregation):
        weighted = SessionCounts.for_aggregation(five_point(), aggregation)
        repeated = SessionCounts.for_aggregation(five_point(), aggregation)
        for category, period, rating, task, n in rows:
            weighted.add("s", category, period, rating, task, n)
            for _ in range(n):
                repeated.add("s", category, period, rating, task)
        assert _same_counts(weighted, repeated)


def _jsonl_by_loads(handle):
    """The JSON-lines reader with one json.loads per line: the reference
    that the raw_decode fast path must read alike."""
    for line_num, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            yield line_num, f"invalid JSON: {exc.msg}"
            continue
        except RecursionError:
            yield line_num, "invalid JSON: nested too deeply"
            continue
        except ValueError:
            yield line_num, "invalid JSON: integer too long"
            continue
        if not isinstance(obj, dict):
            yield line_num, "JSON line is not an object"
            continue
        yield line_num, tuple(map(obj.get, _FIELDS))


def _jsonl_outcomes(text):
    """What `tally_sessions` makes of a JSON-lines log, in every mode."""
    outcomes = []
    for newline in (None, ""):  # as stdin reads it, and as a file does
        for strictness in (STRICT, SKIP_INVALID):
            for aggregation in (POOLED, MEAN_OF_SESSIONS):
                def run():
                    counts, rejections = tally_sessions(
                        io.StringIO(text, newline=newline), fmt="jsonl",
                        strictness=strictness, aggregation=aggregation)
                    return counts, list(counts.sessions), [
                        (r.row, r.reason, r.detail) for r in rejections]
                outcomes.append(_outcome(run))
    return outcomes


def _assert_read_as_by_loads(text, patch):
    got = _jsonl_outcomes(text)
    patch.setattr(ingest, "_jsonl_records", _jsonl_by_loads)
    assert got == _jsonl_outcomes(text)


GOOD_LINE = '{"session_id": "s1", "category": "a", "period": 0, "rating": 4}'
DEEP = "[" * 100_000 + "]" * 100_000
TOO_LONG = "1" * (getattr(sys, "get_int_max_str_digits", lambda: 4300)() + 1)
JSON_FRAGMENTS = [
    "{", "}", "[", "]", ":", ",", " ", "\t", "\f", "\ufeff", "\u00a0", "\r", "x",
    '"session_id"', '"category"', '"period"', '"rating"', '"timestamp"', '"task_completed"',
    '"s1"', '""', '"a"', '"s\\u0031"', '"\\ud800"', "0", "3", "-0.0", "4.0", "1e400",
    "NaN", "Infinity", "-Infinity", "true", "null", '"2024-03-01T10:00:00Z"',
]
EDGES = ["", "", "", " ", "\t", "\f", "\u00a0", "\ufeff", "\r", " x", "{}", "]"]


@st.composite
def jsonl_fragment_logs(draw):
    """Lines of JSON fragments, or objects with odd characters around them."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            body = "".join(draw(st.lists(st.sampled_from(JSON_FRAGMENTS), max_size=12)))
        else:
            obj = {name: draw(st.sampled_from(values)) for name, values in JSON_VALUES.items()}
            body = json.dumps({k: v for k, v in obj.items() if v is not ABSENT},
                              separators=draw(st.sampled_from([(", ", ": "), (",", ":")])))
            body = draw(st.sampled_from(EDGES)) + body + draw(st.sampled_from(EDGES))
        lines.append(body + draw(st.sampled_from(["\n", "\r\n", "\r", ""])))
    return "".join(lines)


class TestJsonLinesFastPath:
    """A JSON line is read with one raw_decode when that reads it as
    json.loads would; every other line takes json.loads."""

    @given(text=jsonl_fragment_logs())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reads_as_json_loads_reads(self, monkeypatch, text):
        with monkeypatch.context() as patch:
            _assert_read_as_by_loads(text, patch)

    @pytest.mark.parametrize("line", [
        "\ufeff" + GOOD_LINE,
        " " + GOOD_LINE,
        "\t" + GOOD_LINE,
        "\f" + GOOD_LINE,
        "\u00a0" + GOOD_LINE,
        GOOD_LINE + " ",
        GOOD_LINE + "\t",
        GOOD_LINE + "\f",
        GOOD_LINE + "\u00a0",
        GOOD_LINE + " x",
        GOOD_LINE + GOOD_LINE,
        GOOD_LINE + "\r",
        "",
        "   ",
        "\f",
        '{"session_id": "s1", "category": "a", "period": 0, "rating": 1, "rating": 4}',
        '{"session_id": "s1", "category": "a", "period": 0, "rating": 4, '
        '"context": {"tools": [1, {"name": "search"}, []], "ui": {}}}',
        '{"session_id": "s1", "category": "a", "period": 0, "rating": {"value": [4]}}',
        '{"session_id": "s1", "category": "a", "period": 0, "rating": NaN}',
        '{"session_id": "s1", "category": "a", "period": Infinity, "rating": 4}',
        '{"session_id": "s1", "category": "a", "timestamp": -Infinity, "rating": 4}',
        '{"session_id": "s1", "category": "a", "period": 0, "rating": ' + TOO_LONG + "}",
        '{"session_id": "s1", "category": "a", "period": 0, "rating": 4, "x": ' + DEEP + "}",
        DEEP,
        '{"session_id": "", "category": "a", "period": 0, "rating": 4}',
        '{"session_id": "s\\u0031\\"\\n", "category": "a", "period": 0, "rating": 4}',
        '{"session_id": "\\ud800", "category": "a", "period": 0, "rating": 4}',
        '["s1", "a", 0, 4]',
        '"s1"',
    ], ids=["bom", "lead-space", "lead-tab", "lead-formfeed", "lead-nbsp", "trail-space",
            "trail-tab", "trail-formfeed", "trail-nbsp", "extra-data", "two-objects",
            "lone-cr", "empty", "spaces", "formfeed", "duplicate-keys", "nested",
            "nested-rating", "nan", "infinity", "minus-infinity", "integer-too-long",
            "deep-inside", "deep", "empty-session", "escaped-session", "surrogate-session",
            "array", "string"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_named_lines_read_as_json_loads_reads(self, monkeypatch, line, ending):
        text = "".join(x + ending for x in (GOOD_LINE, line, GOOD_LINE.replace("s1", "s2")))
        _assert_read_as_by_loads(text, monkeypatch)

    def test_a_clean_object_line_takes_no_json_loads(self, monkeypatch):
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
        text = GOOD_LINE + "\r\n" + GOOD_LINE + "\n" + " " + GOOD_LINE + "\n"
        counts, rejections = tally_sessions(io.StringIO(text, newline=""), fmt="jsonl",
                                            strictness=SKIP_INVALID)
        # json.loads, not raw_decode, skips leading JSON whitespace.
        assert len(counts) == 3 and rejections == ()
        assert calls == [(" " + GOOD_LINE + "\n",)]


def _utc_day_by_astimezone(text):
    """The UTC day as the reader once took it, through astimezone.

    A fraction of the time shorter than six digits is padded first, since
    Python 3.10's fromisoformat reads none but three or six. The offset is
    read from the text, since fromisoformat drops the microseconds of one
    whose hours, minutes and seconds are all zero. Fed only RFC 3339
    shapes, and strings that no supported Python reads.
    """
    t = re.sub(r"(:\d\d\.)(\d{1,5})(?!\d)", lambda m: m[1] + m[2].ljust(6, "0"),
               text.strip(), count=1)
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    offset = re.search(r"([+-])(\d\d):(\d\d)(?::(\d\d)(?:\.(\d{6}))?)?$", t)
    if offset is not None:
        sign, hours, minutes, seconds, micro = offset.groups(default="0")
        delta = timedelta(hours=int(hours), minutes=int(minutes), seconds=int(seconds),
                          microseconds=int(micro))
        dt = dt.replace(tzinfo=timezone(-delta if sign == "-" else delta))
    return dt.astimezone(timezone.utc).date().toordinal()


def _day_outcome(day_of, text):
    try:
        return day_of(text)
    except (ValueError, OverflowError) as exc:
        return type(exc)


OUT_OF_RANGE = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]

# How every supported Python reads a timestamp: RFC 3339's date-time, with
# its fraction of any length, no offset read as UTC and an offset with
# seconds as isoformat() writes it; nothing else that some Python's
# fromisoformat would take.
READINGS = {
    "2024-03-01T10:00:00.5Z": date(2024, 3, 1),  # Python 3.10 read no 1-digit fraction
    "2024-03-01T23:59:59.99-00:00": date(2024, 3, 1),
    "2024-03-01T23:59:59.9999999+00:00": date(2024, 3, 1),  # cut, not rounded up
    "2024-03-01T23:59:59.5-00:00:01": date(2024, 3, 2),
    "2024-03-02T00:00:00+00:00:00.000001": date(2024, 3, 1),  # fromisoformat reads +00:00
    "2024-03-01T23:59:59.999999-00:00:00.000001": date(2024, 3, 2),
    "2024-03-01t23:30:00-05:00": date(2024, 3, 2),
    "2024-03-01 10:00:00z": date(2024, 3, 1),
    "2024-03-01T10:00:00": date(2024, 3, 1),
    "20240302T100000Z": ValueError,  # ISO 8601 basic form, read by Python 3.11+
    "2024-03-01": ValueError,
    "2024-03-01T10:00Z": ValueError,
    "2024-03-01T10Z": ValueError,
    "2024-03-01X10:00:00": ValueError,  # Python 3.10 took any separator
    "2024-03-01T10:00:00,5Z": ValueError,
    "2024-03-01T10:00:00.Z": ValueError,
    "2024-03-01T10:00:00+0100": ValueError,
    "2024-03-01T10:00:00+01": ValueError,
    "2024-03-01T10:00:00+01:75": ValueError,
    "2024-03-01T10:00:00+01:00:00.5": ValueError,
    "2024-03-01T10:00:00+01:00Z": ValueError,
    "2024-W09-5T10:00:00Z": ValueError,
    "\u0662\u0660\u0662\u0664-03-01T10:00:00Z": ValueError,  # Arabic-Indic digits
    "2024-03-01T24:00:00Z": ValueError,
    "2024-03-01T23:59:60Z": ValueError,
    "2023-02-29T10:00:00Z": ValueError,
}


class TestUtcDay:
    @pytest.mark.parametrize("text", [
        "2024-03-01T23:30:00-05:00",  # the next UTC day
        "2024-03-02T01:00:00+02:00",  # the previous UTC day
        "2024-12-31T23:00:00-01:00",  # the next UTC year
        "2024-03-01T00:00:00+00:00",
        "2024-03-01T10:00:00Z",
        "2024-03-01T10:00:00z",
        " 2024-03-01T10:00:00Z\n",
        "2024-03-08T12:00:00",  # naive: read as UTC
        "2024-03-08T23:59:59.999999",
        "2024-03-01T23:59:59.999999-00:00:01",
        "2024-03-01T23:59:30.5-00:00:45",
        "2024-03-02T00:00:30+00:00:45",
        "2024-03-02T00:00:00+00:00:00.000001",
        "0001-01-01T00:00:00-01:00",
        "9999-12-31T23:59:59+01:00",
        *OUT_OF_RANGE,
        "not-a-time",
        "",
        "Z",
        "2024-03-01T10:00:00+24:00",
    ])
    def test_matches_astimezone(self, text):
        assert _day_outcome(ingest._utc_day, text) == _day_outcome(_utc_day_by_astimezone, text)

    @given(moment=st.datetimes(), offset=st.integers(-86_399_999_999, 86_399_999_999),
           zulu=st.booleans())
    def test_matches_astimezone_at_any_offset(self, moment, offset, zulu):
        zone = timezone(timedelta(microseconds=offset))
        text = moment.replace(tzinfo=zone).isoformat()
        if zulu:
            text = moment.isoformat() + "Z"
        assert _day_outcome(ingest._utc_day, text) == _day_outcome(_utc_day_by_astimezone, text)

    @pytest.mark.parametrize("text", list(READINGS))
    def test_reads_alike_on_every_python(self, text):
        day = READINGS[text]
        expected = day if isinstance(day, type) else day.toordinal()
        assert _day_outcome(ingest._utc_day, text) == expected

    def test_fraction_and_basic_form_in_a_log(self):
        lines = [
            {"session_id": "s1", "category": "a", "timestamp": "2024-03-01T10:00:00.5Z",
             "rating": 4},
            {"session_id": "s2", "category": "a", "timestamp": "20240302T100000Z",
             "rating": 5},
        ]
        text = "".join(json.dumps(line) + "\n" for line in lines)
        counts, rejections = tally_sessions(io.StringIO(text), fmt="jsonl",
                                            strictness=SKIP_INVALID)
        assert len(counts) == 1
        assert [(r.row, r.detail) for r in rejections] == [
            (2, "invalid RFC 3339 timestamp '20240302T100000Z'")]

    @pytest.mark.parametrize("stamp", OUT_OF_RANGE)
    def test_out_of_range_in_utc_is_an_invalid_timestamp(self, stamp):
        line = json.dumps({"session_id": "s1", "category": "a", "timestamp": stamp,
                           "rating": 4})
        detail = f"invalid RFC 3339 timestamp {stamp!r}"
        counts, rejections = tally_sessions(io.StringIO(line + "\n" + GOOD_LINE + "\n"),
                                            fmt="jsonl", strictness=SKIP_INVALID)
        assert len(counts) == 1
        assert [(r.row, r.reason, r.detail) for r in rejections] == [
            (1, "malformed-row", detail)]
        with pytest.raises(AduxError) as raised:
            tally_sessions(io.StringIO(line + "\n"), fmt="jsonl")
        assert str(raised.value) == f"row 1: {detail}"
