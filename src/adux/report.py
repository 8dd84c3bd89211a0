"""Session-log ingestion, full per-category evaluation, and file emission.

This module wires the metric modules into a batch pipeline: parse a CSV or
JSON-lines session log, evaluate IEI / TDC / BUCS per product category, and
emit a machine-readable report plus plot-data tables. Metrics that cannot
be computed for a category are reported with a machine-readable reason code
instead of being silently dropped.

File writes are atomic (write to a temp file, then rename), so a failed run
never leaves a partially written output behind.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, IO

from .bayes import BetaParams, BucsResult, TrialSummary, bucs, hdi, posterior, wald_ci
from .drift import MIN_POINTS, TdcFit, UsabilitySeries, fit_tdc, series_from_dataset
from .entropy import EntropyBits, POOLED, PER_CATEGORY, iei_by_group
from .errors import (
    EmptyDataset,
    IoFailure,
    MalformedRow,
    MissingInput,
    NegativePeriod,
    UnknownFormat,
    UnknownRating,
)
from .model import (
    Dataset,
    Rejection,
    ResponseSpace,
    STRICT,
    ValidationResult,
    validate_dataset,
)
from .version import __version__

REASON_INSUFFICIENT_PERIODS = "insufficient-periods"
REASON_NO_TASK_OUTCOMES = "no-task-outcomes"

FORMAT_CSV = "csv"
FORMAT_JSONL = "jsonl"
_FORMAT_ALIASES = {"csv": FORMAT_CSV, "jsonl": FORMAT_JSONL, "json-lines": FORMAT_JSONL}

_REQUIRED_COLUMNS = ("session_id", "category", "period", "rating")

_EXC_BY_REASON = {
    "unknown-rating": UnknownRating,
    "negative-period": NegativePeriod,
    "malformed-row": MalformedRow,
}


# ---------------------------------------------------------------------------
# ingestion


def _parse_rfc3339(text: str) -> datetime:
    """RFC 3339 timestamp to an aware UTC datetime."""
    t = text.strip()
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _window_ordinal(dt: datetime, window: str) -> int:
    """Index of the (UTC) calendar window containing dt, on an absolute axis."""
    if window == "day":
        return dt.date().toordinal()
    if window == "hour":
        return dt.date().toordinal() * 24 + dt.hour
    if window == "week":
        monday = dt.date().toordinal() - dt.date().weekday()
        return monday // 7
    raise ValueError(f"unknown bucketing window {window!r}")


def _read_raw_rows(
    handle: IO[str], fmt: str
) -> tuple[list[tuple[int, dict[str, Any]]], list[Rejection]]:
    """Parse the container format into (line number, mapping) pairs."""
    rows: list[tuple[int, dict[str, Any]]] = []
    errors: list[Rejection] = []
    if fmt == FORMAT_CSV:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise MalformedRow("line 1: empty input, expected a CSV header")
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise MalformedRow(
                f"line 1: header is missing required column(s): {', '.join(missing)}"
            )
        for row in reader:
            rows.append((reader.line_num, dict(row)))
        return rows, errors
    # json-lines
    for line_num, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(Rejection(line_num, "malformed-row", f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(obj, dict):
            errors.append(
                Rejection(line_num, "malformed-row", "JSON line is not an object")
            )
            continue
        rows.append((line_num, obj))
    return rows, errors


def _resolve_periods(
    rows: list[tuple[int, dict[str, Any]]], window: str
) -> list[Rejection]:
    """Fill missing periods from timestamps, bucketed by the given window.

    Periods are counted relative to the earliest timestamp among the rows
    that needed one. Mutates the row mappings in place and returns the
    rejections for unparseable timestamps.
    """
    errors: list[Rejection] = []
    pending: list[tuple[int, dict[str, Any], datetime]] = []
    for line_num, row in rows:
        has_period = row.get("period") not in (None, "")
        ts = row.get("timestamp")
        if has_period or ts in (None, ""):
            continue
        try:
            pending.append((line_num, row, _parse_rfc3339(str(ts))))
        except ValueError:
            errors.append(
                Rejection(line_num, "malformed-row", f"invalid RFC 3339 timestamp {ts!r}")
            )
    if pending:
        origin = min(_window_ordinal(ts, window) for _, _, ts in pending)
        for _, row, ts in pending:
            row["period"] = _window_ordinal(ts, window) - origin
    return errors


def load_sessions(
    source: str | Path | IO[str],
    fmt: str = FORMAT_CSV,
    space: ResponseSpace | None = None,
    strictness: str = STRICT,
    window: str = "day",
) -> ValidationResult:
    """Parse a session log into a validated dataset plus rejection log.

    ``fmt`` is ``csv`` or ``jsonl`` (alias ``json-lines``); both carry the
    same fields. Rows whose ``period`` is empty fall back to bucketing their
    ``timestamp`` into UTC calendar windows (default: day). Strict mode
    raises on the first invalid row; skip-invalid mode drops and logs.
    """
    from .model import five_point

    fmt_key = _FORMAT_ALIASES.get(fmt)
    if fmt_key is None:
        raise UnknownFormat(f"unsupported input format {fmt!r} (expected csv or jsonl)")
    space = space if space is not None else five_point()

    try:
        if hasattr(source, "read"):
            raw_rows, format_errors = _read_raw_rows(source, fmt_key)
        else:
            with open(source, "r", encoding="utf-8", newline="") as handle:
                raw_rows, format_errors = _read_raw_rows(handle, fmt_key)
    except OSError as exc:
        raise IoFailure(f"cannot read {source}: {exc}") from exc

    period_errors = _resolve_periods(raw_rows, window)
    if period_errors:  # rejected once here, so not again by validate_dataset
        dropped = {r.row for r in period_errors}
        raw_rows = [(line, row) for line, row in raw_rows if line not in dropped]
        format_errors.extend(period_errors)

    result = validate_dataset(
        [row for _, row in raw_rows],
        space,
        strictness="skip-invalid",
        row_numbers=[line for line, _ in raw_rows],
    )
    rejections = sorted(format_errors + list(result.rejections), key=lambda r: r.row)
    if strictness == STRICT and rejections:
        first = rejections[0]
        raise _EXC_BY_REASON[first.reason](f"row {first.row}: {first.detail}")
    return ValidationResult(dataset=result.dataset, rejections=tuple(rejections))


def emit_sessions(
    dataset: Dataset, destination: str | Path | IO[str] | None = None
) -> str:
    """Render a dataset back to the session CSV format (round-trips with
    :func:`load_sessions`)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("session_id", "category", "period", "rating", "task_completed"))
    for o in dataset.observations:
        writer.writerow(
            (o.session_id, o.category, o.period, o.rating, _cell(o.task_completed))
        )
    text = buffer.getvalue()
    if destination is not None:
        _write_text(destination, text)
    return text


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation options applied uniformly across categories."""

    prior: BetaParams = BetaParams(1.0, 1.0)
    mass: float = 0.95
    aggregation: str = POOLED

    def digest(self, space: ResponseSpace) -> str:
        payload = json.dumps(
            {
                "scale": [[lv.code, lv.label] for lv in space.levels],
                "prior": [self.prior.alpha, self.prior.beta],
                "mass": self.mass,
                "aggregation": self.aggregation,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class CategoryResult:
    """All three metrics for one category; unavailable ones carry a reason."""

    name: str
    iei: EntropyBits
    series: UsabilitySeries
    tdc: TdcFit | None
    tdc_reason: str | None
    bucs: BucsResult | None
    bucs_reason: str | None
    trials: TrialSummary | None


@dataclass(frozen=True)
class ReportMeta:
    rows: int
    rejected: int
    config_digest: str
    aggregation: str
    prior: BetaParams
    mass: float
    version: str
    generated_at: str


@dataclass(frozen=True)
class AduxReport:
    scale: ResponseSpace
    categories: tuple[CategoryResult, ...]
    meta: ReportMeta


def evaluate(
    dataset: Dataset,
    config: EvalConfig | None = None,
    n_rejected: int = 0,
) -> AduxReport:
    """Run the full three-metric evaluation for every category.

    IEI is always computed. TDC needs at least five populated periods and is
    otherwise reported unavailable with reason ``insufficient-periods``.
    BUCS needs task outcomes and is otherwise reported unavailable with
    reason ``no-task-outcomes``.
    """
    config = config if config is not None else EvalConfig()
    if len(dataset) == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")

    grouped = dict(
        iei_by_group(dataset, grouping=PER_CATEGORY, aggregation=config.aggregation).results
    )

    categories = []
    for name in dataset.categories():
        series = series_from_dataset(dataset, name)
        if len(series) >= MIN_POINTS:
            tdc_fit, tdc_reason = fit_tdc(series), None
        else:
            tdc_fit, tdc_reason = None, REASON_INSUFFICIENT_PERIODS

        outcomes = [
            o.task_completed
            for o in dataset.for_category(name)
            if o.task_completed is not None
        ]
        if outcomes:
            trials = TrialSummary(completions=sum(outcomes), trials=len(outcomes))
            bucs_result, bucs_reason = bucs(config.prior, trials, config.mass), None
        else:
            trials, bucs_result, bucs_reason = None, None, REASON_NO_TASK_OUTCOMES

        categories.append(
            CategoryResult(
                name=name,
                iei=grouped[name],
                series=series,
                tdc=tdc_fit,
                tdc_reason=tdc_reason,
                bucs=bucs_result,
                bucs_reason=bucs_reason,
                trials=trials,
            )
        )

    meta = ReportMeta(
        rows=len(dataset),
        rejected=n_rejected,
        config_digest=config.digest(dataset.space),
        aggregation=config.aggregation,
        prior=config.prior,
        mass=config.mass,
        version=__version__,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    return AduxReport(scale=dataset.space, categories=tuple(categories), meta=meta)


# ---------------------------------------------------------------------------
# emission


def _num(x: float) -> float | int:
    """Round to at most 9 significant decimals for stable serialization."""
    if isinstance(x, bool) or not isinstance(x, float):
        return x
    rounded = float(f"{x:.9g}")
    return rounded + 0.0  # normalizes -0.0 to 0.0


def report_document(report: AduxReport, no_meta: bool = False) -> dict[str, Any]:
    """The report as a JSON-ready dict with fixed key order."""
    doc: dict[str, Any] = {
        "scale": {
            "levels": [{"code": lv.code, "label": lv.label} for lv in report.scale.levels]
        },
        "categories": [],
    }
    for cat in report.categories:
        entry: dict[str, Any] = {
            "name": cat.name,
            "iei": {
                "bits": _num(cat.iei.value),
                "normalized": _num(cat.iei.normalized),
                "n": cat.iei.n_ratings,
            },
        }
        if cat.tdc is not None:
            entry["tdc"] = {
                "beta0": _num(cat.tdc.beta0),
                "beta1": _num(cat.tdc.beta1),
                "stderr": _num(cat.tdc.stderr_beta1),
                "ci95": [_num(cat.tdc.ci95_beta1[0]), _num(cat.tdc.ci95_beta1[1])],
                "r2": _num(cat.tdc.r_squared),
                "n_points": cat.tdc.n_points,
            }
        else:
            entry["tdc"] = {"unavailable": cat.tdc_reason}
        if cat.bucs is not None:
            entry["bucs"] = {
                "posterior": {
                    "alpha": _num(cat.bucs.posterior.alpha),
                    "beta": _num(cat.bucs.posterior.beta),
                },
                "interval": {
                    "lower": _num(cat.bucs.interval.lower),
                    "upper": _num(cat.bucs.interval.upper),
                    "mass": _num(cat.bucs.interval.mass),
                    "kind": cat.bucs.interval.kind.value,
                    "unique": cat.bucs.interval.unique,
                },
                "mean": _num(cat.bucs.mean),
            }
        else:
            entry["bucs"] = {"unavailable": cat.bucs_reason}
        doc["categories"].append(entry)
    if not no_meta:
        doc["meta"] = {
            "version": report.meta.version,
            "config_digest": report.meta.config_digest,
            "aggregation": report.meta.aggregation,
            "prior": {
                "alpha": _num(report.meta.prior.alpha),
                "beta": _num(report.meta.prior.beta),
            },
            "mass": _num(report.meta.mass),
            "rows": report.meta.rows,
            "rejected": report.meta.rejected,
            "generated_at": report.meta.generated_at,
        }
    return doc


_CSV_COLUMNS = (
    "category", "metric", "available", "reason",
    "bits", "normalized", "n",
    "beta0", "beta1", "stderr", "ci95_lower", "ci95_upper", "r2", "n_points",
    "alpha", "beta", "interval_lower", "interval_upper", "interval_mass",
    "interval_kind", "interval_unique", "mean",
)


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(_num(value))
    return str(value)


def _report_csv_rows(report: AduxReport) -> list[dict[str, Any]]:
    rows = []
    for cat in report.categories:
        rows.append(
            {
                "category": cat.name,
                "metric": "iei",
                "available": True,
                "bits": cat.iei.value,
                "normalized": cat.iei.normalized,
                "n": cat.iei.n_ratings,
            }
        )
        tdc_row: dict[str, Any] = {"category": cat.name, "metric": "tdc"}
        if cat.tdc is not None:
            tdc_row.update(
                available=True,
                beta0=cat.tdc.beta0,
                beta1=cat.tdc.beta1,
                stderr=cat.tdc.stderr_beta1,
                ci95_lower=cat.tdc.ci95_beta1[0],
                ci95_upper=cat.tdc.ci95_beta1[1],
                r2=cat.tdc.r_squared,
                n_points=cat.tdc.n_points,
            )
        else:
            tdc_row.update(available=False, reason=cat.tdc_reason)
        rows.append(tdc_row)
        bucs_row: dict[str, Any] = {"category": cat.name, "metric": "bucs"}
        if cat.bucs is not None:
            bucs_row.update(
                available=True,
                alpha=cat.bucs.posterior.alpha,
                beta=cat.bucs.posterior.beta,
                interval_lower=cat.bucs.interval.lower,
                interval_upper=cat.bucs.interval.upper,
                interval_mass=cat.bucs.interval.mass,
                interval_kind=cat.bucs.interval.kind.value,
                interval_unique=cat.bucs.interval.unique,
                mean=cat.bucs.mean,
            )
        else:
            bucs_row.update(available=False, reason=cat.bucs_reason)
        rows.append(bucs_row)
    return rows


def _render_report(report: AduxReport, fmt: str, no_meta: bool) -> str:
    if fmt == "json":
        return json.dumps(report_document(report, no_meta=no_meta), indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in _report_csv_rows(report):
            writer.writerow([_cell(row.get(col)) for col in _CSV_COLUMNS])
        return buffer.getvalue()
    raise UnknownFormat(f"unsupported report format {fmt!r} (expected json or csv)")


def _write_text(destination: str | Path | IO[str], text: str) -> None:
    """Write to a file-like directly, or to a path atomically."""
    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def emit_report(
    report: AduxReport,
    fmt: str = "json",
    destination: str | Path | IO[str] | None = None,
    no_meta: bool = False,
) -> str:
    """Serialize a report as JSON or CSV; returns the rendered text.

    ``no_meta`` drops the run-metadata block (which carries the only
    timestamp), making the output byte-stable across reruns.
    """
    text = _render_report(report, fmt, no_meta)
    if destination is not None:
        _write_text(destination, text)
    return text


# ---------------------------------------------------------------------------
# plot data


@dataclass(frozen=True)
class Fig3Spec:
    """Interval-width experiment: fixed completion share across sample sizes."""

    p_hat: float
    trial_counts: tuple[int, ...]
    prior: BetaParams = BetaParams(1.0, 1.0)
    mass: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"p_hat must lie in [0, 1], got {self.p_hat}")
        if not self.trial_counts or any(n < 1 for n in self.trial_counts):
            raise ValueError("trial_counts must be a non-empty list of positive counts")


FIGURES = ("fig1", "fig2", "fig3")


def plot_data_rows(source: AduxReport | Fig3Spec, figure: str) -> tuple[tuple, ...]:
    """Plot-data table for one figure, as (header, row, row, ...)."""
    if figure == "fig1":
        if not isinstance(source, AduxReport):
            raise MissingInput("fig1 needs an evaluated report")
        header = ("category", "iei_bits", "iei_normalized")
        return (header,) + tuple(
            (c.name, _num(c.iei.value), _num(c.iei.normalized))
            for c in source.categories
        )
    if figure == "fig2":
        if not isinstance(source, AduxReport):
            raise MissingInput("fig2 needs an evaluated report")
        header = ("category", "t", "u", "fitted_u")
        rows: list[tuple] = []
        for c in source.categories:
            for t, u in c.series.points:
                fitted = (
                    _num(c.tdc.beta0 + c.tdc.beta1 * t) if c.tdc is not None else None
                )
                rows.append((c.name, t, _num(u), fitted))
        return (header,) + tuple(rows)
    if figure == "fig3":
        if not isinstance(source, Fig3Spec):
            raise MissingInput(
                "fig3 needs an experiment spec (p_hat, trial counts, prior, mass)"
            )
        header = ("N", "bucs_hdi_width", "wald_width")
        rows = []
        for n_trials in source.trial_counts:
            trials = TrialSummary(
                completions=round(source.p_hat * n_trials), trials=n_trials
            )
            post = posterior(source.prior, trials)
            bayes_width = hdi(post, source.mass).width
            wald_width = wald_ci(trials, source.mass).width
            rows.append((n_trials, _num(bayes_width), _num(wald_width)))
        return (header,) + tuple(rows)
    raise UnknownFormat(f"unknown figure {figure!r} (expected fig1, fig2 or fig3)")


def emit_plot_data(
    source: AduxReport | Fig3Spec,
    figure: str,
    destination: str | Path | IO[str] | None = None,
) -> str:
    """Write one figure's plot-data table as headered CSV."""
    rows = plot_data_rows(source, figure)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(["" if v is None else _cell(v) for v in row])
    text = buffer.getvalue()
    if destination is not None:
        _write_text(destination, text)
    return text
