"""Ingestion, evaluation, and emission: formats, reason codes, determinism."""

from __future__ import annotations

import csv
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from adux.bayes import BetaParams, bucs
from adux.drift import fit_tdc, series_from_dataset
from adux.entropy import MEAN_OF_SESSIONS, POOLED, iei_by_group
from adux.errors import (
    EmptyDataset,
    ImpreciseShapes,
    IoFailure,
    MalformedRow,
    UnknownFormat,
    UnknownRating,
)
from adux.model import (
    Dataset, SKIP_INVALID, STRICT, SessionCounts, SessionObservation, five_point,
)
from adux import output as output_module
from adux.report import (
    emit_plot_data,
    emit_report,
    emit_sessions,
    evaluate,
    fig3_rows,
    load_sessions,
    open_output,
    report_document,
)
from oracles import session_csv

CSV_3ROWS = """session_id,category,period,rating,task_completed
s1,chat,0,4,true
s2,chat,0,5,
s3,search,1,2,false
"""

JSONL_3ROWS = "\n".join(
    [
        '{"session_id": "s1", "category": "chat", "period": 0, "rating": 4, "task_completed": true}',
        '{"session_id": "s2", "category": "chat", "period": 0, "rating": 5}',
        '{"session_id": "s3", "category": "search", "period": 1, "rating": 2, "task_completed": false}',
    ]
) + "\n"


def _csv(text, **kwargs):
    return load_sessions(io.StringIO(text), fmt="csv", **kwargs)


def _jsonl(text, **kwargs):
    return load_sessions(io.StringIO(text), fmt="jsonl", **kwargs)


class TestLoadSessions:
    def test_wellformed_csv(self):
        result = _csv(CSV_3ROWS)
        assert len(result.dataset) == 3
        assert result.rejections == ()
        first = result.dataset.observations[0]
        assert first.session_id == "s1"
        assert first.task_completed is True
        assert result.dataset.observations[1].task_completed is None

    def test_missing_rating_value_names_line(self):
        text = CSV_3ROWS.replace("s2,chat,0,5,", "s2,chat,0,,")
        with pytest.raises(MalformedRow, match="row 3"):
            _csv(text)

    def test_jsonl_equivalent_to_csv(self):
        assert _jsonl(JSONL_3ROWS).dataset == _csv(CSV_3ROWS).dataset

    def test_json_lines_alias(self):
        result = load_sessions(io.StringIO(JSONL_3ROWS), fmt="json-lines")
        assert len(result.dataset) == 3

    def test_missing_header_column_rejected(self):
        with pytest.raises(MalformedRow, match="rating"):
            _csv("session_id,category,period\ns1,chat,0\n")

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            load_sessions(io.StringIO(""), fmt="xml")

    def test_missing_file_is_io_failure(self):
        with pytest.raises(IoFailure):
            load_sessions("/nonexistent/sessions.csv")

    def test_strict_raises_on_bad_rating_with_line(self):
        text = CSV_3ROWS.replace("s3,search,1,2,false", "s3,search,1,9,false")
        with pytest.raises(UnknownRating, match="row 4"):
            _csv(text, strictness=STRICT)

    def test_skip_invalid_logs_and_drops(self):
        text = CSV_3ROWS.replace("s3,search,1,2,false", "s3,search,1,9,false")
        result = _csv(text, strictness=SKIP_INVALID)
        assert len(result.dataset) == 2
        assert len(result.rejections) == 1
        assert result.rejections[0].row == 4
        assert result.rejections[0].reason == "unknown-rating"

    def test_bad_jsonl_line_logged_with_line_number(self):
        text = JSONL_3ROWS + "not json at all\n"
        result = _jsonl(text, strictness=SKIP_INVALID)
        assert len(result.dataset) == 3
        assert result.rejections[0].row == 4
        assert "JSON" in result.rejections[0].detail

    def test_jsonl_non_object_line(self):
        result = _jsonl('[1, 2, 3]\n', strictness=SKIP_INVALID)
        assert result.rejections[0].reason == "malformed-row"


class TestTimestampBucketing:
    def test_day_buckets_relative_to_earliest(self):
        text = (
            "session_id,category,period,rating,timestamp\n"
            "s1,chat,,4,2024-03-02T09:30:00Z\n"
            "s2,chat,,5,2024-03-01T23:59:00Z\n"
            "s3,chat,,3,2024-03-04T00:00:01Z\n"
        )
        ds = _csv(text).dataset
        assert [o.period for o in ds.observations] == [1, 0, 3]

    def test_explicit_period_wins_over_timestamp(self):
        text = (
            "session_id,category,period,rating,timestamp\n"
            "s1,chat,7,4,2024-03-02T09:30:00Z\n"
        )
        assert _csv(text).dataset.observations[0].period == 7

    def test_offset_timestamps_normalize_to_utc(self):
        # 2024-03-02T01:00+05:00 is 2024-03-01T20:00 UTC: same UTC day as s2
        text = (
            "session_id,category,period,rating,timestamp\n"
            "s1,chat,,4,2024-03-02T01:00:00+05:00\n"
            "s2,chat,,5,2024-03-01T10:00:00Z\n"
        )
        ds = _csv(text).dataset
        assert [o.period for o in ds.observations] == [0, 0]

    def test_periods_count_from_earliest_valid_row(self):
        text = (
            "session_id,category,period,rating,timestamp\n"
            "s0,chat,,9,2024-03-01T10:00:00Z\n"
            "s1,chat,,4,2024-03-02T10:00:00Z\n"
            "s2,chat,,5,2024-03-04T10:00:00Z\n"
            "s3,chat,7,3,\n"
        )
        ds = _csv(text, strictness=SKIP_INVALID).dataset
        assert [o.period for o in ds.observations] == [0, 2, 7]

    def test_bad_timestamp_rejected_with_line(self):
        text = (
            "session_id,category,period,rating,timestamp\n"
            "s1,chat,,4,yesterday-ish\n"
        )
        with pytest.raises(MalformedRow, match="row 2"):
            _csv(text)

    def test_no_period_and_no_timestamp_is_malformed(self):
        text = "session_id,category,period,rating\ns1,chat,,4\n"
        with pytest.raises(MalformedRow, match="period"):
            _csv(text)


def _obs(session, category, period, rating, task=None):
    return SessionObservation(session, category, period, rating, task)


def _five_period_dataset():
    observations = []
    for t in range(5):
        observations.append(_obs(f"a{t}", "chat", t, 3 + (t % 2), task=t % 2 == 0))
        observations.append(_obs(f"b{t}", "chat", t, 4))
    for t in range(4):
        observations.append(_obs(f"c{t}", "search", t, 2))
    return Dataset(five_point(), tuple(observations))


def _five_period_counts(aggregation=POOLED):
    return _five_period_dataset().counts(aggregation)


class TestEvaluate:
    def test_category_with_four_periods_has_tdc_unavailable(self):
        report = evaluate(_five_period_counts())
        by_name = {c.name: c for c in report.categories}
        assert by_name["search"].tdc is None
        assert by_name["search"].tdc_reason == "insufficient-periods"
        assert by_name["chat"].tdc is not None

    def test_identical_ratings_give_zero_iei(self):
        report = evaluate(_five_period_counts())
        by_name = {c.name: c for c in report.categories}
        assert by_name["search"].iei.value == 0.0

    def test_no_task_outcomes_bucs_unavailable_but_others_present(self):
        report = evaluate(_five_period_counts())
        by_name = {c.name: c for c in report.categories}
        assert by_name["search"].bucs is None
        assert by_name["search"].bucs_reason == "no-task-outcomes"
        assert by_name["search"].iei is not None
        assert by_name["chat"].bucs is not None

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            evaluate(SessionCounts(five_point()))

    def test_every_category_appears_exactly_once(self):
        report = evaluate(_five_period_counts())
        names = [c.name for c in report.categories]
        assert names == sorted(set(names)) == ["chat", "search"]

    def test_metrics_equal_direct_module_calls(self):
        ds = _five_period_dataset()
        counts = ds.counts(MEAN_OF_SESSIONS)
        report = evaluate(counts, BetaParams(2, 2), 0.9)
        by_name = {c.name: c for c in report.categories}

        grouped = dict(iei_by_group(counts))
        assert by_name["chat"].iei == grouped["chat"]

        fit = fit_tdc(series_from_dataset(counts, "chat"))
        assert by_name["chat"].tdc == fit

        outcomes = [o.task_completed for o in ds.observations
                    if o.category == "chat" and o.task_completed is not None]
        direct = bucs(BetaParams(2, 2),
                      by_name["chat"].trials.__class__(sum(outcomes), len(outcomes)),
                      0.9)
        assert by_name["chat"].bucs == direct

    def test_deterministic_modulo_timestamp(self):
        counts = _five_period_counts()
        r1, r2 = evaluate(counts), evaluate(counts)
        assert emit_report(r1, no_meta=True) == emit_report(r2, no_meta=True)

    def test_rejected_count_flows_to_meta(self):
        report = evaluate(_five_period_counts(), n_rejected=3)
        assert report.meta.rejected == 3
        assert report.meta.rows == 14


class TestEmitReport:
    def test_json_roundtrip_is_structurally_equal(self):
        report = evaluate(_five_period_counts())
        text = emit_report(report, fmt="json")
        assert json.loads(text) == report_document(report)

    def test_schema_key_order(self):
        report = evaluate(_five_period_counts())
        doc = json.loads(emit_report(report, fmt="json"))
        assert list(doc) == ["scale", "categories", "meta"]
        assert list(doc["categories"][0]) == ["name", "iei", "tdc", "bucs"]
        assert list(doc["categories"][0]["iei"]) == ["bits", "normalized", "n"]

    def test_unavailable_metrics_carry_reason_codes(self):
        report = evaluate(_five_period_counts())
        doc = json.loads(emit_report(report, fmt="json"))
        search = [c for c in doc["categories"] if c["name"] == "search"][0]
        assert search["tdc"] == {"unavailable": "insufficient-periods"}
        assert search["bucs"] == {"unavailable": "no-task-outcomes"}

    def test_no_meta_drops_meta_block(self):
        report = evaluate(_five_period_counts())
        doc = json.loads(emit_report(report, fmt="json", no_meta=True))
        assert "meta" not in doc

    def test_csv_has_three_rows_per_category(self):
        report = evaluate(_five_period_counts())
        lines = emit_report(report, fmt="csv").strip().split("\n")
        assert len(lines) == 1 + 3 * len(report.categories)

    def test_csv_and_json_agree_to_nine_digits(self):
        report = evaluate(_five_period_counts())
        doc = json.loads(emit_report(report, fmt="json"))
        csv_lines = emit_report(report, fmt="csv").strip().split("\n")
        header = csv_lines[0].split(",")
        rows = {}
        for line in csv_lines[1:]:
            cells = dict(zip(header, line.split(",")))
            rows[(cells["category"], cells["metric"])] = cells
        for cat in doc["categories"]:
            iei_cells = rows[(cat["name"], "iei")]
            assert float(iei_cells["bits"]) == cat["iei"]["bits"]
            assert float(iei_cells["normalized"]) == cat["iei"]["normalized"]
            if "unavailable" not in cat["tdc"]:
                tdc_cells = rows[(cat["name"], "tdc")]
                assert float(tdc_cells["beta1"]) == cat["tdc"]["beta1"]
                assert float(tdc_cells["ci95_lower"]) == cat["tdc"]["ci95"][0]
            if "unavailable" not in cat["bucs"]:
                bucs_cells = rows[(cat["name"], "bucs")]
                assert float(bucs_cells["interval_lower"]) == cat["bucs"]["interval"]["lower"]
                assert float(bucs_cells["mean"]) == cat["bucs"]["mean"]

    def test_unknown_format_rejected(self):
        with pytest.raises(UnknownFormat):
            emit_report(evaluate(_five_period_counts()), fmt="yaml")

    def test_atomic_write_failure_leaves_no_file(self, tmp_path):
        text = emit_report(evaluate(_five_period_counts()))
        target = tmp_path / "missing-dir" / "report.json"
        with pytest.raises(IoFailure):
            with open_output(target) as handle:
                handle.write(text)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_failure_inside_open_output_leaves_no_file(self, tmp_path):
        target = tmp_path / "sessions.csv"
        with pytest.raises(RuntimeError):
            with open_output(target) as handle:
                handle.write("session_id,category,period,rating\n")
                raise RuntimeError("generator failed mid-stream")
        assert list(tmp_path.iterdir()) == []

    def test_open_output_replaces_only_when_done(self, tmp_path):
        target = tmp_path / "sessions.csv"
        target.write_text("old\n")
        with open_output(target) as handle:
            handle.write("new\n")
            assert target.read_text() == "old\n"
        assert target.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sessions.csv"]

    def test_write_to_path(self, tmp_path):
        text = emit_report(evaluate(_five_period_counts()))
        target = tmp_path / "report.json"
        with open_output(target) as handle:
            handle.write(text)
        assert target.read_text() == text
        assert not [p for p in tmp_path.iterdir() if p.name != "report.json"]


def _rendered(render, *args):
    """The text a renderer returns, or the csv.Error it raises (Python 3.10
    refuses a NUL in a cell)."""
    try:
        return render(*args)
    except csv.Error as exc:
        return ("csv.Error", str(exc))


# Mostly plain cells, so that with small chunks clean chunks and chunks
# that need quoting alternate.
_AWKWARD_TEXT = st.text(
    st.sampled_from(["a", "7", ",", '"', "\r", "\n", "\0", " "]) | st.characters(), max_size=5)
_CELL_TEXT = st.one_of(st.text("abc-0123456789", max_size=6), _AWKWARD_TEXT)
_OBSERVATIONS = st.lists(
    st.builds(SessionObservation, _CELL_TEXT, _CELL_TEXT, st.integers(0, 40),
              st.integers(1, 5), st.sampled_from([True, False, None])),
    max_size=12)
# Runs of rows that share a category and a period, so that rows repeat a
# tail and chunk boundaries fall inside runs; some ids are not text.
_OBSERVATION_RUNS = st.lists(
    st.tuples(_CELL_TEXT, st.integers(0, 40), st.lists(
        st.tuples(_CELL_TEXT | st.none(), st.integers(1, 5),
                  st.sampled_from([True, False, None])),
        min_size=1, max_size=6)),
    max_size=4,
).map(lambda runs: [SessionObservation(s, c, p, r, t)
                    for c, p, rows in runs for s, r, t in rows])


class TestEmitSessions:
    def test_roundtrip_through_loader(self):
        ds = _five_period_dataset()
        text = emit_sessions(ds)
        assert load_sessions(io.StringIO(text)).dataset == ds

    @settings(max_examples=300, deadline=None)
    @given(observations=_OBSERVATIONS | _OBSERVATION_RUNS, chunk_rows=st.integers(1, 4))
    def test_matches_csv_writer_oracle(self, observations, chunk_rows):
        ds = Dataset(space=five_point(), observations=tuple(observations))
        with mock.patch.object(output_module, "_CHUNK_ROWS", chunk_rows):
            assert _rendered(emit_sessions, ds) == _rendered(session_csv, ds.observations)

    def test_none_session_id_is_an_empty_cell(self):
        ds = Dataset(space=five_point(), observations=(
            SessionObservation("s1", "chat", 0, 4, True),
            SessionObservation(None, "chat", 1, 2, None),
        ))
        text = emit_sessions(ds)
        assert text == session_csv(ds.observations)
        assert text.endswith("\ns1,chat,0,4,true\n,chat,1,2,\n")


class TestPlotData:
    def test_fig1_rows(self):
        report = evaluate(_five_period_counts())
        lines = emit_plot_data(report, "fig1").strip().split("\n")
        assert lines[0] == "category,iei_bits,iei_normalized"
        assert len(lines) == 1 + len(report.categories)
        assert lines[1].startswith("chat,")

    def test_fig2_rows_include_fit_when_available(self):
        report = evaluate(_five_period_counts())
        lines = emit_plot_data(report, "fig2").strip().split("\n")
        assert lines[0] == "category,t,u,fitted_u"
        chat_rows = [l for l in lines[1:] if l.startswith("chat,")]
        search_rows = [l for l in lines[1:] if l.startswith("search,")]
        assert len(chat_rows) == 5 and len(search_rows) == 4
        assert all(r.split(",")[3] != "" for r in chat_rows)
        assert all(r.split(",")[3] == "" for r in search_rows)

    def test_fig3_widths_decrease_and_edge_case(self):
        rows = list(fig3_rows(p_hat=0.7, trial_counts=(10, 50, 200, 1000)))
        assert rows[0] == ("N", "bucs_hdi_width", "wald_width")
        widths = [bucs_width for _, bucs_width, _ in rows[1:]]
        assert all(b < a for a, b in zip(widths, widths[1:]))

        [(_, bucs_width, wald_width)] = list(fig3_rows(p_hat=1.0, trial_counts=(10,)))[1:]
        assert wald_width == 0.0
        assert bucs_width > 0.0

    def test_unknown_figure(self):
        with pytest.raises(UnknownFormat):
            emit_plot_data(evaluate(_five_period_counts()), "fig9")

    def test_report_has_no_fig3_table(self):
        # fig3 is fig3_rows's own: a report has no interval-width table.
        report = evaluate(_five_period_counts())
        with pytest.raises(UnknownFormat, match=r"'fig3' \(expected fig1 or fig2\)"):
            emit_plot_data(report, "fig3")

    def test_fig3_spec_validation(self):
        with pytest.raises(ValueError, match=r"p_hat must lie in \[0, 1\], got 1.5"):
            fig3_rows(p_hat=1.5, trial_counts=(10,))
        with pytest.raises(ValueError, match="trial_counts must be a non-empty list"):
            fig3_rows(p_hat=0.5, trial_counts=())

    def test_fig3_computes_each_row_as_it_is_read(self):
        # So that the command line tells a bad argument from a failed computation.
        rows = fig3_rows(p_hat=0.5, trial_counts=(10, 10**400))
        assert next(rows) == ("N", "bucs_hdi_width", "wald_width")
        assert next(rows)[0] == 10
        with pytest.raises(ImpreciseShapes, match="overflows a float"):  # past any float
            next(rows)
