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
``adux simulate`` and for :func:`emit_sessions` alike. Each chunk is one
join of its rows' cells; a chunk that ``csv.writer`` would render
otherwise (a cell holding a comma, a quote, a line break or a NUL, or one
that is not a ``str``, ``int`` or ``bool``) is rendered by it instead.

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
from datetime import datetime, timezone
from itertools import chain, islice
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
from .bayes import BetaParams, BucsResult, CredibleInterval, TrialSummary
from .bayes import bucs, hdi, posterior, wald_ci
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
_PLAIN_CELLS = frozenset((str, int, bool))
_row_of = attrgetter(*_SESSION_COLUMNS)


def _csv_lines(rows: list[tuple]) -> str:
    # A "\n"-terminated writer leaves a "\r" inside a cell unquoted, and
    # the reader refuses that line; a "\r\n"-terminated writer quotes it.
    # Other cells come out as a "\n"-terminated writer renders them.
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

    A chunk is rendered by one join of its rows' cells. When csv would
    render it otherwise (a cell holding a comma, a quote or a line break,
    or a cell that is not a ``str``, ``int`` or ``bool``, such as ``None``)
    or refuse it (a NUL, before Python 3.11), the chunk is rendered by
    ``csv.writer`` instead.
    """
    rows = iter(rows)
    handle.write(",".join(_SESSION_COLUMNS) + "\n")
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        text = "".join([f"{s},{c},{p},{r},{_TASK_CELL[t]}\n" for s, c, p, r, t in chunk])
        n = len(chunk)
        if (text.count(",") != 4 * n or text.count("\n") != n
                or '"' in text or "\r" in text or "\0" in text
                or not _PLAIN_CELLS.issuperset(
                    map(type, chain.from_iterable(islice(zip(*chunk), 4))))):
            text = _csv_lines([(s, c, p, r, _TASK_CELL[t]) for s, c, p, r, t in chunk])
        handle.write(text)


def emit_sessions(
    dataset: Dataset, destination: str | Path | IO[str] | None = None
) -> str:
    """Render a dataset back to the session CSV format (round-trips with
    :func:`load_sessions`)."""
    buffer = io.StringIO()
    write_sessions(map(_row_of, dataset.observations), buffer)
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


def _num(x: float) -> float | int:
    """Round to at most 9 significant decimals for stable serialization."""
    if isinstance(x, bool) or not isinstance(x, float):
        return x
    rounded = float(f"{x:.9g}")
    return rounded + 0.0  # normalizes -0.0 to 0.0


# One field function per result type: every output that prints a result
# (the JSON and CSV reports, plot data, `adux iei`, `tdc` and `bucs`) takes
# its fields, their order and their rounding from these.


def _iei_fields(entropy: EntropyBits) -> dict[str, Any]:
    return {
        "bits": _num(entropy.value),
        "normalized": _num(entropy.normalized),
        "n": entropy.n_ratings,
    }


def _tdc_fields(fit: TdcFit) -> dict[str, Any]:
    return {
        "beta0": _num(fit.beta0),
        "beta1": _num(fit.beta1),
        "stderr": _num(fit.stderr_beta1),
        "ci95": [_num(fit.ci95_beta1[0]), _num(fit.ci95_beta1[1])],
        "residual_sd": _num(fit.residual_sd),
        "r2": _num(fit.r_squared),
        "n_points": fit.n_points,
    }


def _bucs_fields(
    result: BucsResult, with_mode: bool = False, wald: CredibleInterval | None = None
) -> dict[str, Any]:
    """The BUCS fields; ``adux bucs`` adds the mode (null when the density
    peaks on a boundary) and, when it has one, the Wald interval."""
    fields: dict[str, Any] = {
        "posterior": {
            "alpha": _num(result.posterior.alpha),
            "beta": _num(result.posterior.beta),
        },
        "interval": {
            "lower": _num(result.interval.lower),
            "upper": _num(result.interval.upper),
            "mass": _num(result.interval.mass),
            "kind": result.interval.kind.value,
            "unique": result.interval.unique,
        },
        "mean": _num(result.mean),
    }
    if with_mode:
        fields["mode"] = _num(result.mode)
    if wald is not None:
        fields["wald"] = {"lower": _num(wald.lower), "upper": _num(wald.upper)}
    return fields


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


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_text(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(rows: Iterable[Iterable[Any]]) -> str:
    """A CSV table; its floats must arrive rounded by :func:`_num`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(map(_cell, row))
    return buffer.getvalue()


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


def _write_text(text: str, destination: str | Path | IO[str] | None) -> str:
    """Write the text to the destination, if given one; returns the text."""
    if destination is not None:
        with open_output(destination) as handle:
            handle.write(text)
    return text


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
        text = _csv_text(_report_csv_table(report_document(report, no_meta=True)))
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
    return _write_text(_csv_text(plot_data_rows(source, figure)), destination)
