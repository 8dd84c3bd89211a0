"""Full per-category evaluation, and report emission.

This module wires the metric modules into a batch pipeline: read a CSV or
JSON-lines session log (:mod:`adux.ingest`), evaluate IEI / TDC / BUCS per
product category, and emit a machine-readable report plus plot-data
tables. Metrics that cannot be computed for a category are reported with a
machine-readable reason code instead of being silently dropped.

Every metric needs only counts, so the pipeline streams: one pass reads,
validates and counts each row (:func:`~adux.ingest.tally_sessions`), and
:func:`evaluate` works from those counts, or tallies a :class:`Dataset`
of row objects first. The CSV report, the plot data and the session log
that :func:`emit_sessions` writes back from a dataset all print through
the one CSV writer in :mod:`adux.output`, and every file is written
through :func:`adux.output.open_output`, so a failed run never leaves a
partially written output behind.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterator
from datetime import datetime, timezone
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

from ._record import record
from .bayes import BetaParams, BucsResult, TrialSummary
from .bayes import bucs, hdi, posterior, wald_ci
from .drift import MIN_POINTS, TdcFit, UsabilitySeries, fit_tdc, series_from_dataset
from .entropy import EntropyBits, POOLED, PER_CATEGORY, iei_by_group
from .errors import EmptyDataset, MissingInput, UnknownFormat
# Re-exported, so that code importing them from adux.report keeps working
# (benchmark/child.py times validate_dataset under this name).
from .ingest import FORMAT_CSV, FORMAT_JSONL, load_sessions  # noqa: F401
from .model import Dataset, ResponseSpace, SessionCounts, validate_dataset  # noqa: F401
from .output import _CHUNK_ROWS, _csv_lines, _write_text, write_session_columns
from .output import _bucs_fields, _iei_fields, _json_text, _num, _tdc_fields
from .output import open_output  # noqa: F401
from .version import __version__

REASON_INSUFFICIENT_PERIODS = "insufficient-periods"
REASON_NO_TASK_OUTCOMES = "no-task-outcomes"


# ---------------------------------------------------------------------------
# session logs


_key_of = attrgetter("category", "period", "rating", "task_completed")


def emit_sessions(
    dataset: Dataset, destination: str | Path | IO[str] | None = None
) -> str:
    """Render a dataset back to the session CSV format (round-trips with
    :func:`load_sessions`)."""
    rows = dataset.observations
    chunks = (rows[start:start + _CHUNK_ROWS] for start in range(0, len(rows), _CHUNK_ROWS))
    buffer = io.StringIO()
    write_session_columns(
        (([o.session_id for o in chunk], list(map(_key_of, chunk))) for chunk in chunks),
        buffer)
    return _write_text(buffer.getvalue(), destination)


# ---------------------------------------------------------------------------
# evaluation


@record(frozen=True)
class EvalConfig:
    """Evaluation options applied uniformly across categories."""

    prior: BetaParams = BetaParams(1.0, 1.0)
    mass: float = 0.95
    aggregation: str = POOLED

    def digest(self, space: ResponseSpace) -> str:
        payload = json.dumps(
            {
                "scale": [[code, str(code)] for code in space.codes],
                "prior": [self.prior.alpha, self.prior.beta],
                "mass": self.mass,
                "aggregation": self.aggregation,
            },
            sort_keys=True,
        )
        return sha256(payload.encode("utf-8")).hexdigest()[:12]


@record(frozen=True)
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


@record(frozen=True)
class ReportMeta:
    rows: int
    rejected: int
    config_digest: str
    aggregation: str
    prior: BetaParams
    mass: float
    version: str
    generated_at: str


@record(frozen=True)
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


def report_document(report: AduxReport, no_meta: bool = False) -> dict[str, Any]:
    """The report as a JSON-ready dict with fixed key order."""
    doc: dict[str, Any] = {
        "scale": {
            "levels": [{"code": code, "label": str(code)} for code in report.scale.codes]
        },
        "categories": [],
    }
    for cat in report.categories:
        entry: dict[str, Any] = {"name": cat.name, "iei": _iei_fields(cat.iei)}
        if cat.tdc is not None:
            entry["tdc"] = _tdc_fields(cat.tdc)
            del entry["tdc"]["residual_sd"]
        else:
            entry["tdc"] = {"unavailable": cat.tdc_reason}
        if cat.bucs is not None:
            entry["bucs"] = _bucs_fields(cat.bucs)
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


def _report_csv_table(doc: dict[str, Any]) -> Iterator[tuple]:
    """The CSV report of a report document: one row per (category, metric),
    its nested fields flattened into the columns."""
    yield _CSV_COLUMNS
    for entry in doc["categories"]:
        for metric in ("iei", "tdc", "bucs"):
            cells = dict(entry[metric])
            if "unavailable" in cells:
                cells = {"available": False, "reason": cells["unavailable"]}
            else:
                cells["available"] = True
                cells.update(cells.pop("posterior", {}))
                cells.update((f"interval_{k}", v) for k, v in cells.pop("interval", {}).items())
                cells["ci95_lower"], cells["ci95_upper"] = cells.pop("ci95", (None, None))
            yield (entry["name"], metric, *map(cells.get, _CSV_COLUMNS[2:]))


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
    if fmt == "json":
        text = _json_text(report_document(report, no_meta=no_meta))
    elif fmt == "csv":
        text = _csv_lines(_report_csv_table(report_document(report, no_meta=True)))
    else:
        raise UnknownFormat(f"unsupported report format {fmt!r} (expected json or csv)")
    return _write_text(text, destination)


# ---------------------------------------------------------------------------
# plot data


@record(frozen=True)
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
    if figure in ("fig1", "fig2") and not isinstance(source, AduxReport):
        raise MissingInput(f"{figure} needs an evaluated report")
    if figure == "fig1":
        header = ("category", "iei_bits", "iei_normalized")
        fields = [(c.name, _iei_fields(c.iei)) for c in source.categories]
        return (header,) + tuple((name, f["bits"], f["normalized"]) for name, f in fields)
    if figure == "fig2":
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
    return _write_text(_csv_lines(plot_data_rows(source, figure)), destination)
