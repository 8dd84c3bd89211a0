"""Session-log ingestion: read a CSV or JSON-lines log in one validating pass.

Every row passes the checks of the one :class:`~adux.model.RowValidator`.
:func:`tally_sessions` keeps only the counts every metric needs,
so its memory grows with the distinct (category, period) pairs, not with
the rows; :func:`load_sessions` makes the same pass into a
:class:`~adux.model.Dataset` of row objects.

A clean CSV log holds few distinct lines once each line's session id is
cut off. When its header puts ``session_id`` first, as ``adux simulate``
writes it, and sessions are pooled, :func:`tally_sessions` therefore
counts its lines by their text, validates each distinct line once and
adds it with its count as weight (:func:`_count_distinct_lines`). From the
first chunk of lines that holds anything else, and for a log whose lines
rarely repeat, it falls back to the ordered loop, numbering rows as
before: counts, session order, rejections and strict mode's first error
are the same either way. JSON lines, mean-of-sessions counts and
:func:`load_sessions` always take the ordered loop.

JSON lines rarely repeat, as each carries its own timestamp, so they are
read one by one. Each takes one ``raw_decode``; a line that decodes to an
object followed by nothing but JSON whitespace is read from that alone.
Any other line (blank, not an object, or not JSON from its first
character to its last) falls back to ``json.loads``, which gives it the
reason and detail it always had.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from collections.abc import Callable, Iterator
from datetime import datetime, timedelta
from itertools import chain, islice
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import Any, IO

from .errors import AduxError, IoFailure, MalformedRow, UnknownFormat
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


# RFC 3339's date-time (section 5.6) with its fraction of any length, and
# two allowances: no offset, which reads as UTC, and an offset with seconds
# as Python's isoformat() writes it. Whatever else datetime.fromisoformat
# takes differs between Python versions, so the shape is checked first.
_RFC3339 = re.compile(
    r"\d{4}-\d\d-\d\d[Tt ]\d\d:\d\d:\d\d(?:\.\d+)?"
    r"(?:[Zz]|([+-])\d\d:[0-5]\d(?::[0-5]\d(?:\.(\d{6}))?)?)?",
    re.ASCII,
)


def _utc_day(text: str) -> int:
    """Ordinal of the UTC day of an RFC 3339 timestamp; a naive one is UTC.

    The same day as ``astimezone(timezone.utc).date().toordinal()``, and
    the same OverflowError where the UTC time falls outside years 1-9999,
    but with every microsecond of the offset kept. A fraction past six
    digits is cut, which never moves the day.
    """
    t = text.strip()
    shape = _RFC3339.fullmatch(t)
    if shape is None:
        raise ValueError(f"not an RFC 3339 date-time: {text!r}")
    if t[-1] in "Zz":  # UTC, as a time without an offset is read
        t = t[:-1]
    try:
        dt = datetime.fromisoformat(t)
    except ValueError:
        # Before Python 3.11 fromisoformat reads a fraction of 3 or 6 digits
        # only; the first fraction is the time's, or an offset's 6 digits.
        six = re.sub(r"\.(\d+)", lambda m: "." + m[1][:6].ljust(6, "0"), t, count=1)
        dt = datetime.fromisoformat(six)
    zone = dt.tzinfo  # a fixed-offset timezone: utcoffset needs no moment
    if zone is None:
        return dt.toordinal()
    offset = zone.utcoffset(None)
    if not offset and shape[2]:
        # fromisoformat drops the microseconds of an offset whose hours,
        # minutes and seconds are all zero (+00:00:00.000001 reads as 0).
        micro = int(shape[2])
        offset = timedelta(microseconds=micro if shape[1] == "+" else -micro)
    return (dt - offset).toordinal()


# What a reader passes on per row: the raw value of each field (None when
# absent), or the reason the row could not be read at all.
_FIELDS = ("session_id", "category", "period", "rating", "task_completed", "timestamp")
_RawRecord = tuple[int, "tuple[Any, ...] | str"]


# The distinct-line count reads about this many characters of whole lines
# at a time, taking at most _STEP_LINES lines from the handle per call so
# that a sudden run of long lines overshoots by little. It hands off once
# it holds more than _MAX_KEYS distinct lines, so its memory stays bounded.
_CHUNK_CHARS = 16_384
_STEP_LINES = 64
_MAX_KEYS = 4096
# Stands in for the session id that the count cuts off each line; lines
# whose session id is empty never reach the count.
_ANY_SESSION = "-"


def _read_chunk(handle: IO[str], lines: list[str]) -> None:
    """Extend ``lines`` with whole lines of ``handle``, up to about
    _CHUNK_CHARS characters.

    The lines are taken one by one, as the ordered loop takes them, so if
    the handle's bytes fail to decode, ``lines`` holds every line that
    the ordered loop would have read before the error.
    """
    chars = 0
    while chars < _CHUNK_CHARS:
        n = len(lines)
        lines.extend(islice(handle, _STEP_LINES))
        if len(lines) == n:
            return
        chars += sum(map(len, lines[n:]))


def _raising(exc: Exception) -> Iterator[str]:
    """Lines that end in ``exc``: a decoding error met while counting,
    which the ordered loop meets where it would have met it."""
    raise exc
    yield


def _count_distinct_lines(
    handle: IO[str], width: int, pick: Callable[[list], tuple], counts: SessionCounts
) -> tuple[int, Iterator[str]]:
    """Count the CSV lines after the header by their text, up to the first
    chunk that needs the ordered loop; return how many lines were counted
    and the lines that the ordered loop reads next.

    A line's key is its text after the first comma, and the counting runs
    in C. Each key is parsed and validated when first seen, and added to
    ``counts`` once, weighted by its count, in first-seen order. A chunk
    hands off, uncounted, when it holds a quote, a carriage return or a
    NUL (csv refuses it before Python 3.11), a line that starts with ``,``
    (an empty session id) or is longer than the CSV field limit, or a new
    key that is blank, of the wrong width, unreadable or invalid (a row to
    bucket by its timestamp has no period). It also hands off when it
    brings the distinct keys over _MAX_KEYS, as a log whose lines rarely
    repeat gains nothing. A chunk cut short by bytes that are not UTF-8
    hands off too, and the decoding error follows its lines.
    """
    probe = RowValidator(counts.space)  # strict: an invalid key raises
    rows: dict[str, tuple[str, str, int, int, bool | None]] = {}

    def valid(key: str) -> bool:
        try:
            row = next(csv.reader((key,)))
            if len(row) != width - 1:
                return False
            session_id, category, period, rating, task, _ = pick([_ANY_SESSION, *row, None])
            rows[key] = probe.check(0, session_id, category, period, rating, task)
        except (csv.Error, AduxError):
            return False
        return True

    def keys(lines: list[str]) -> Iterator[str]:
        return map(itemgetter(2), map(tail, lines))

    tail = methodcaller("partition", ",")
    seen: Counter[str] = Counter()
    read = 0
    limit = csv.field_size_limit()
    rest: Iterator[str] = handle
    while True:
        lines: list[str] = []
        try:
            _read_chunk(handle, lines)
        except UnicodeDecodeError as exc:
            rest = _raising(exc)
            break
        if not lines:
            break
        text = "".join(lines)
        if ('"' in text or "\r" in text or "\0" in text or text[0] == "," or "\n," in text
                or (len(text) > limit and max(map(len, lines)) > limit)):
            break
        known = len(seen)
        seen.update(keys(lines))
        fresh = list(islice(reversed(seen), len(seen) - known))
        if len(seen) > _MAX_KEYS or not all(map(valid, reversed(fresh))):
            seen.subtract(keys(lines))
            for key in fresh:
                del seen[key]
            break
        read += len(lines)
    for key, n in seen.items():
        counts.add(*rows[key], n)
    return read, chain(lines, rest)


def _csv_records(handle: IO[str], counts: SessionCounts | None = None) -> Iterator[_RawRecord]:
    """CSV rows by header position, read the way ``csv.DictReader`` reads them.

    Blank records are skipped, a short record reads its missing cells as
    None, a repeated column name means its last column, and a row is
    numbered by the reader's line count at its end.

    Given pooled ``counts``, and a header whose first column is
    ``session_id``, the lines are first counted into ``counts`` by
    :func:`_count_distinct_lines`; only the lines that count leaves are
    yielded, numbered as they would be without it.
    """
    reader = csv.reader(handle)
    counted = 0
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
        if counts is not None and not counts.per_session and column["session_id"] == 0:
            counted, rest = _count_distinct_lines(handle, width, pick, counts)
            counted += reader.line_num
            reader = csv.reader(rest)
        for row in reader:
            if len(row) == width:
                row.append(None)
            elif not row:
                continue
            else:
                # Short records pad with None; long ones drop the extra cells,
                # which DictReader files under its restkey, never a field.
                row = row[:width] + [None] * max(1, width + 1 - len(row))
            yield counted + reader.line_num, pick(row)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRow(f"line {counted + reader.line_num}: unreadable CSV: {exc}") from None


# json.loads reads an object followed by nothing but these characters as
# raw_decode reads it; see the module docstring.
_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def _jsonl_records(handle: IO[str]) -> Iterator[_RawRecord]:
    for line_num, line in enumerate(handle, start=1):
        try:
            obj, end = _raw_decode(line)
        except (ValueError, RecursionError):
            pass  # json.loads below names the fault
        else:
            if isinstance(obj, dict) and not line[end:].strip(_JSON_SPACE):
                yield line_num, tuple(map(obj.get, _FIELDS))
                continue
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
    keep: Callable[[str, str, int, int, bool | None], None],
    counts: SessionCounts | None = None,
) -> int | None:
    """Validate each row in file order and pass the valid ones to ``keep``.

    Given ``counts``, which ``keep`` adds to, a CSV log may be counted by
    its distinct lines first (:func:`_count_distinct_lines`).

    A row whose period is empty takes it from its timestamp, bucketed by
    UTC day. Such periods count from the earliest valid timestamped row,
    which is known only at the end, so until then ``keep`` gets ``~d``
    (that is, ``-1 - d``) for the day's ordinal d; no valid explicit
    period is negative. Returns the earliest ordinal, or None.
    """
    records = _csv_records(handle, counts) if fmt == FORMAT_CSV else _jsonl_records(handle)
    origin = None
    for number, values in records:
        if values.__class__ is str:
            validator.reject(number, MalformedRow(values))
            continue
        session_id, category, period, rating, task, ts = values
        if ts is not None and ts != "" and (period is None or period == ""):
            try:
                ordinal = _utc_day(str(ts))
            except (ValueError, OverflowError):  # OverflowError: out of range in UTC
                validator.reject(number, MalformedRow(f"invalid RFC 3339 timestamp {ts!r}"))
                continue
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
    keep: Callable[[str, str, int, int, bool | None], None],
    counts: SessionCounts | None = None,
) -> tuple[tuple[Rejection, ...], Callable[[int], int]]:
    """One validating pass over a session log; see :func:`load_sessions`.

    Returns the rejections and the map from the periods given to ``keep``
    to the rows' periods. ``counts`` is what ``keep`` adds to, if it is
    :meth:`SessionCounts.add`; it lets a CSV log be counted by its lines.
    """
    fmt_key = _FORMAT_ALIASES.get(fmt)
    if fmt_key is None:
        raise UnknownFormat(f"unsupported input format {fmt!r} (expected csv or jsonl)")
    validator = RowValidator(space, strictness)
    try:
        if hasattr(source, "read"):
            origin = _scan(source, fmt_key, validator, keep, counts)
        else:
            with open(source, "r", encoding="utf-8", newline="") as handle:
                origin = _scan(handle, fmt_key, validator, keep, counts)
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
) -> ValidationResult:
    """Parse a session log into a validated dataset plus rejection log.

    ``fmt`` is ``csv`` or ``jsonl`` (alias ``json-lines``); both carry the
    same fields. Rows whose ``period`` is empty fall back to bucketing their
    ``timestamp`` by UTC day. Those periods count from the day of the
    earliest valid timestamped row, apart from any explicit ``period``
    values in the same log, and rows that fail validation do not move them.
    Strict mode raises on the first invalid row in file order; skip-invalid
    mode drops and logs.

    :func:`tally_sessions` makes the same pass into counts, without
    building a row object.
    """
    space = space if space is not None else five_point()
    rows: list[tuple[str, str, int, int, bool | None]] = []
    rejections, period_of = _ingest(
        source, fmt, space, strictness, lambda *row: rows.append(row)
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
    rejections, period_of = _ingest(
        source, fmt, counts.space, strictness, counts.add, counts
    )
    if any(p < 0 for _, p in counts.levels):
        counts = counts.with_periods(period_of)
    return counts, rejections
