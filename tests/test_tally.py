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

import pytest
from hypothesis import example, given, settings, strategies as st

from adux.cli import main
from adux.entropy import MEAN_OF_SESSIONS, POOLED, iei_by_group
from adux.errors import AduxError
from adux.ingest import _FIELDS, _csv_records, load_sessions, tally_sessions
from adux.model import (
    Dataset,
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

    @given(st.lists(st.integers(1, 5), max_size=30), st.lists(st.integers(1, 5), max_size=30),
           aggregations)
    def test_merge_is_the_tally_of_the_joined_rows(self, first, second, aggregation):
        a, b = self._dataset(first), self._dataset(second)
        joined = Dataset(five_point(), a.observations + b.observations)
        merged = a.counts(aggregation) + b.counts(aggregation)
        assert _same_counts(merged, joined.counts(aggregation))
        assert len(merged) == len(first) + len(second)

    def test_merge_refuses_other_kinds(self):
        ds = self._dataset([1, 2, 3])
        with pytest.raises(ValueError):
            ds.counts(MEAN_OF_SESSIONS) + ds.counts(POOLED)

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
