"""Full per-category evaluation, and file emission.

This module wires the metric modules into a batch pipeline: read a CSV or
JSON-lines session log (:mod:`adux.ingest`), evaluate IEI / TDC / BUCS per
product category, and emit a machine-readable report plus plot-data
tables. Metrics that cannot be computed for a category are reported with a
machine-readable reason code instead of being silently dropped.

Every metric needs only counts, so the pipeline streams: one pass reads,
validates and counts each row (:func:`~adux.ingest.tally_sessions`), and
:func:`evaluate` works from those counts, or tallies a :class:`Dataset`
of row objects first. Session logs are written the same way:
:func:`write_sessions` renders rows as they come, a chunk at a time, for
``adux simulate`` and for :func:`emit_sessions` alike.

Every file is written through :func:`open_output`: a temp file that
replaces the destination only once the write has finished, so a failed
run never leaves a partially written output behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Any, IO

try:
    # hashlib loads OpenSSL, several MB of memory for one short digest;
    # the built-in module computes the same sha256 without it.
    from _sha256 import sha256  # Python 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

from .bayes import BetaParams, BucsResult, TrialSummary, bucs, hdi, posterior, wald_ci
from .drift import MIN_POINTS, TdcFit, UsabilitySeries, fit_tdc, series_from_dataset
from .entropy import EntropyBits, POOLED, PER_CATEGORY, iei_by_group
from .errors import EmptyDataset, IoFailure, MissingInput, UnknownFormat
# Re-exported, so that code importing them from adux.report keeps working
# (benchmark/child.py times validate_dataset under this name).
from .ingest import FORMAT_CSV, FORMAT_JSONL, load_sessions  # noqa: F401
from .model import Dataset, ResponseSpace, SessionCounts, validate_dataset  # noqa: F401
from .version import __version__

REASON_INSUFFICIENT_PERIODS = "insufficient-periods"
REASON_NO_TASK_OUTCOMES = "no-task-outcomes"


# ---------------------------------------------------------------------------
# session logs


_SESSION_COLUMNS = ("session_id", "category", "period", "rating", "task_completed")
_TASK_CELL = {True: "true", False: "false", None: ""}
_CHUNK_ROWS = 8192
_row_of = attrgetter(*_SESSION_COLUMNS)


def _cr_quoted(rows: list[tuple]) -> str:
    # A "\n"-terminated writer leaves a "\r" inside a cell unquoted, and
    # the reader refuses that line; a "\r\n"-terminated writer quotes it.
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")
    parts = []
    for row in rows:
        line.seek(0)
        line.truncate()
        writer.writerow(row)
        parts.append(line.getvalue()[:-2] + "\n")
    return "".join(parts)


def write_sessions(
    rows: Iterable[tuple[str, str, int, int, bool | None]], handle: IO[str]
) -> None:
    """Write session rows to an open text handle in the session CSV format.

    Rows are rendered and written a chunk at a time as they are consumed,
    so memory holds one chunk, not the log. Every row ends in a line feed;
    a cell holding a carriage return is quoted.
    """
    cells = ((s, c, p, r, _TASK_CELL[t]) for s, c, p, r, t in rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    handle.write(",".join(_SESSION_COLUMNS) + "\n")
    while chunk := list(islice(cells, _CHUNK_ROWS)):
        buffer.seek(0)
        buffer.truncate()
        writer.writerows(chunk)
        text = buffer.getvalue()
        handle.write(_cr_quoted(chunk) if "\r" in text else text)


def emit_sessions(
    dataset: Dataset, destination: str | Path | IO[str] | None = None
) -> str:
    """Render a dataset back to the session CSV format (round-trips with
    :func:`load_sessions`)."""
    buffer = io.StringIO()
    write_sessions(map(_row_of, dataset.observations), buffer)
    text = buffer.getvalue()
    if destination is not None:
        with open_output(destination) as handle:
            handle.write(text)
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
        return sha256(payload.encode("utf-8")).hexdigest()[:12]


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
    dataset: Dataset | SessionCounts,
    config: EvalConfig | None = None,
    n_rejected: int = 0,
) -> AduxReport:
    """Run the full three-metric evaluation for every category.

    Reads only counts: a :class:`Dataset` is tallied once first, and
    :func:`~adux.ingest.tally_sessions` gives the counts of a log without
    one. IEI is always computed. TDC needs at least five populated periods
    and is otherwise reported unavailable with reason ``insufficient-periods``.
    BUCS needs task outcomes and is otherwise reported unavailable with
    reason ``no-task-outcomes``.
    """
    config = config if config is not None else EvalConfig()
    counts = SessionCounts.of(dataset, config.aggregation)
    if len(counts) == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")

    grouped = dict(
        iei_by_group(counts, grouping=PER_CATEGORY, aggregation=config.aggregation).results
    )

    categories = []
    for name in counts.categories():
        series = series_from_dataset(counts, name)
        if len(series) >= MIN_POINTS:
            tdc_fit, tdc_reason = fit_tdc(series), None
        else:
            tdc_fit, tdc_reason = None, REASON_INSUFFICIENT_PERIODS

        outcomes = counts.trials.get(name)
        if outcomes is not None:
            trials = TrialSummary(completions=outcomes[0], trials=outcomes[1])
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
        rows=len(counts),
        rejected=n_rejected,
        config_digest=config.digest(counts.space),
        aggregation=config.aggregation,
        prior=config.prior,
        mass=config.mass,
        version=__version__,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    return AduxReport(scale=counts.space, categories=tuple(categories), meta=meta)


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


@contextmanager
def open_output(destination: str | Path | IO[str]) -> Iterator[IO[str]]:
    """A text handle on the destination: a file-like itself, or for a path
    a temporary file in its directory that replaces the path only when the
    block ends without error, so a failed write leaves no partial file."""
    if hasattr(destination, "write"):
        yield destination
        return
    path = Path(destination)
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                yield handle
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
        with open_output(destination) as handle:
            handle.write(text)
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
        with open_output(destination) as handle:
            handle.write(text)
    return text
