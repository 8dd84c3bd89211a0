"""Session-log ingestion: read a CSV or JSON-lines log in one validating pass.

Each row goes through the one :class:`~adux.model.RowValidator`, in file
order. :func:`tally_sessions` keeps only the counts every metric needs,
so its memory grows with the distinct (category, period) pairs, not with
the rows; :func:`load_sessions` makes the same pass into a
:class:`~adux.model.Dataset` of row objects.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable, Iterator
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Any, IO

from .errors import IoFailure, MalformedRow, UnknownFormat
from .model import (
    POOLED,
    Dataset,
    Rejection,
    ResponseSpace,
    RowValidator,
    STRICT,
    SessionCounts,
    SessionObservation,
    ValidationResult,
    five_point,
)

FORMAT_CSV = "csv"
FORMAT_JSONL = "jsonl"
_FORMAT_ALIASES = {"csv": FORMAT_CSV, "jsonl": FORMAT_JSONL, "json-lines": FORMAT_JSONL}

_REQUIRED_COLUMNS = ("session_id", "category", "period", "rating")


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


# What a reader passes on per row: the raw value of each field (None when
# absent), or the reason the row could not be read at all.
_FIELDS = ("session_id", "category", "period", "rating", "task_completed", "timestamp")
_RawRecord = tuple[int, "tuple[Any, ...] | str"]


def _csv_records(handle: IO[str]) -> Iterator[_RawRecord]:
    """CSV rows by header position, read the way ``csv.DictReader`` reads them.

    Blank records are skipped, a short record reads its missing cells as
    None, a repeated column name means its last column, and a row is
    numbered by the reader's line count at its end.
    """
    reader = csv.reader(handle)
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow("line 1: empty input, expected a CSV header")
        missing = [c for c in _REQUIRED_COLUMNS if c not in header]
        if missing:
            raise MalformedRow(
                f"line 1: header is missing required column(s): {', '.join(missing)}"
            )
        width = len(header)
        column = {name: i for i, name in enumerate(header)}
        # An absent field reads the None appended after the last cell.
        pick = itemgetter(*(column.get(name, width) for name in _FIELDS))
        for row in reader:
            if len(row) == width:
                row.append(None)
            elif not row:
                continue
            else:
                # Short records pad with None; long ones drop the extra cells,
                # which DictReader files under its restkey, never a field.
                row = row[:width] + [None] * max(1, width + 1 - len(row))
            yield reader.line_num, pick(row)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRow(f"line {reader.line_num}: unreadable CSV: {exc}") from None


def _jsonl_records(handle: IO[str]) -> Iterator[_RawRecord]:
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
        except ValueError:  # an integer longer than sys.get_int_max_str_digits()
            yield line_num, "invalid JSON: integer too long"
            continue
        if not isinstance(obj, dict):
            yield line_num, "JSON line is not an object"
            continue
        yield line_num, tuple(map(obj.get, _FIELDS))


def _scan(
    handle: IO[str],
    fmt: str,
    validator: RowValidator,
    window: str,
    keep: Callable[[str, str, int, int, bool | None], None],
) -> int | None:
    """Validate each row in file order and pass the valid ones to ``keep``.

    A row whose period is empty takes it from its timestamp, bucketed into
    UTC calendar windows. Such periods count from the earliest valid
    timestamped row, which is known only at the end, so until then ``keep``
    gets ``~w`` (that is, ``-1 - w``) for window ordinal w; no valid
    explicit period is negative. Returns the earliest ordinal, or None.
    """
    records = _csv_records(handle) if fmt == FORMAT_CSV else _jsonl_records(handle)
    origin = None
    for number, values in records:
        if values.__class__ is str:
            validator.reject(number, MalformedRow(values))
            continue
        session_id, category, period, rating, task, ts = values
        if ts is not None and ts != "" and (period is None or period == ""):
            try:
                stamp = _parse_rfc3339(str(ts))
            except (ValueError, OverflowError):  # OverflowError: out of range in UTC
                validator.reject(number, MalformedRow(f"invalid RFC 3339 timestamp {ts!r}"))
                continue
            ordinal = _window_ordinal(stamp, window)
            row = validator.check(number, session_id, category, 0, rating, task)
            if row is not None:
                origin = ordinal if origin is None else min(origin, ordinal)
                keep(row[0], row[1], ~ordinal, row[3], row[4])
            continue
        row = validator.check(number, session_id, category, period, rating, task)
        if row is not None:
            keep(*row)
    return origin


def _undecodable_line(path: str | Path) -> int | None:
    """Number of the first line of a file that is not UTF-8, counting lines
    as the readers do."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        for number, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")  # an undecodable byte reads as a lone surrogate
            except UnicodeEncodeError:
                return number
    return None


def _ingest(
    source: str | Path | IO[str],
    fmt: str,
    space: ResponseSpace,
    strictness: str,
    window: str,
    keep: Callable[[str, str, int, int, bool | None], None],
) -> tuple[tuple[Rejection, ...], Callable[[int], int]]:
    """One validating pass over a session log; see :func:`load_sessions`.

    Returns the rejections and the map from the periods given to ``keep``
    to the rows' periods.
    """
    fmt_key = _FORMAT_ALIASES.get(fmt)
    if fmt_key is None:
        raise UnknownFormat(f"unsupported input format {fmt!r} (expected csv or jsonl)")
    validator = RowValidator(space, strictness)
    try:
        if hasattr(source, "read"):
            origin = _scan(source, fmt_key, validator, window, keep)
        else:
            with open(source, "r", encoding="utf-8", newline="") as handle:
                origin = _scan(handle, fmt_key, validator, window, keep)
    except OSError as exc:
        raise IoFailure(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = None if hasattr(source, "read") else _undecodable_line(source)
        where = "input" if line is None else f"line {line}"
        raise MalformedRow(f"{where}: not UTF-8 text ({exc.reason})") from None

    def period_of(period: int) -> int:
        return period if period >= 0 else ~period - origin

    return tuple(validator.rejections), period_of


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
    ``timestamp`` into UTC calendar windows (default: day). Those periods
    count from the window of the earliest valid timestamped row, apart from
    any explicit ``period`` values in the same log, and rows that fail
    validation do not move them. Strict mode raises on the first invalid
    row in file order; skip-invalid mode drops and logs.

    :func:`tally_sessions` makes the same pass into counts, without
    building a row object.
    """
    space = space if space is not None else five_point()
    rows: list[tuple[str, str, int, int, bool | None]] = []
    rejections, period_of = _ingest(
        source, fmt, space, strictness, window, lambda *row: rows.append(row)
    )
    observations = tuple(
        SessionObservation(s, c, period_of(p), r, t) for s, c, p, r, t in rows
    )
    return ValidationResult(dataset=Dataset(space, observations), rejections=rejections)


def tally_sessions(
    source: str | Path | IO[str],
    fmt: str = FORMAT_CSV,
    space: ResponseSpace | None = None,
    strictness: str = STRICT,
    window: str = "day",
    aggregation: str = POOLED,
) -> tuple[SessionCounts, tuple[Rejection, ...]]:
    """The counts of a session log and its rejection log, in one pass.

    Reads, validates and rejects exactly as :func:`load_sessions` does, so
    ``tally_sessions(..., aggregation=a)[0]`` equals
    ``load_sessions(...).dataset.counts(a)``, but keeps only counts: memory
    grows with the distinct (category, period) pairs, not with the rows.
    Sessions are counted one by one only for ``aggregation="mean-of-sessions"``.
    """
    counts = SessionCounts.for_aggregation(
        space if space is not None else five_point(), aggregation
    )
    rejections, period_of = _ingest(source, fmt, counts.space, strictness, window, counts.add)
    if any(p < 0 for _, p in counts.levels):
        counts = counts.with_periods(period_of)
    return counts, rejections
