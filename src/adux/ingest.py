"""Session-log ingestion: read a CSV or JSON-lines log in one validating pass.

Bytes become text here alone: a path or a binary handle, standard input
included, is read as UTF-8 whatever the locale, its lines ending at ``\n``,
``\r\n`` or ``\r``; a UTF-8 byte-order mark at its very start is dropped,
and one anywhere else is text of its line. A byte that is not UTF-8
reaches its row as a lone surrogate (``surrogateescape``), where a
category holding one is rejected like any invalid row. A caller's text
handle is read as it is.

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
read one by one, in the same loop that validates them. Each takes one
call of the JSON decoder's ``scan_once``, the scanner behind
``raw_decode``; a line that decodes to an object followed by nothing but
JSON whitespace is read from that alone, its fields taken straight from
the object. Any other line (blank, not an object, or not JSON from its
first character to its last) falls back to ``json.loads``, which gives it
the reason and detail it always had. CSV and JSON-lines rows then pass one
rule that takes a row's period from its timestamp when it has none.

:func:`tally_sessions` then moves each (category, period)'s counts to
its final period as they are, without a copy: its count list and, under
mean-of-sessions, its dict of sessions' count lists. Timestamp days map
one to one onto periods, so only a log that mixes explicit periods with
timestamps can put two groups on one period, and then the second is added
into the first, its new sessions after the first's.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import ExitStack
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


# What the CSV reader passes on per row: the raw value of each field, None
# when absent.
_FIELDS = ("session_id", "category", "period", "rating", "task_completed", "timestamp")


# The distinct-line count reads whole lines, about this many characters at
# a time. It hands off once it holds more than _MAX_KEYS distinct lines, so
# its memory stays bounded.
_CHUNK_CHARS = 16_384
_MAX_KEYS = 4096
# Stands in for the session id that the count cuts off each line; lines
# whose session id is empty never reach the count.
_ANY_SESSION = "-"


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
    repeat gains nothing.
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
    while lines := handle.readlines(_CHUNK_CHARS):
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
    return read, chain(lines, handle)


def _csv_records(
    handle: IO[str], counts: SessionCounts | None = None
) -> Iterator[tuple[int, tuple[Any, ...]]]:
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
        if counts is not None and counts.aggregation == POOLED and column["session_id"] == 0:
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
# the decoder's scan_once reads it; see the module docstring. scan_once is
# what raw_decode calls, without raw_decode's Python wrapper; it raises
# StopIteration where raw_decode raises JSONDecodeError "Expecting value".
_scan_once = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _json_object(line: str) -> dict | str | None:
    """A JSON line that one scan_once does not read whole, read by
    ``json.loads``: its object, the reason it is not one, or None when the
    line is blank."""
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg}"
    except RecursionError:
        return "invalid JSON: nested too deeply"
    except ValueError:  # an integer longer than sys.get_int_max_str_digits()
        return "invalid JSON: integer too long"
    return obj if isinstance(obj, dict) else "JSON line is not an object"


def _scan(
    handle: IO[str],
    fmt: str,
    validator: RowValidator,
    keep: Callable[[str, str, int, int, bool | None], None],
    counts: SessionCounts | None = None,
) -> int | None:
    """Validate each row in file order and pass the valid ones to ``keep``.

    Given ``counts``, which ``keep`` adds to, a CSV log may be counted by
    its distinct lines first (:func:`_count_distinct_lines`). A JSON line's
    fields are read straight from its object.

    A row whose period is empty takes it from its timestamp, bucketed by
    UTC day. Such periods count from the earliest valid timestamped row,
    which is known only at the end, so until then ``keep`` gets ``~d``
    (that is, ``-1 - d``) for the day's ordinal d; no valid explicit
    period is negative. Returns the earliest ordinal, or None.
    """
    check = validator.check
    origin = None

    def stamped(number: int, session_id: Any, category: Any, rating: Any, task: Any,
                ts: Any) -> None:
        # The one place where a row's period comes from its timestamp; both
        # loops send a row here when its period is empty and its timestamp not.
        nonlocal origin
        try:
            ordinal = _utc_day(str(ts))
        except (ValueError, OverflowError):  # OverflowError: out of range in UTC
            validator.reject(number, MalformedRow(f"invalid RFC 3339 timestamp {ts!r}"))
            return
        row = check(number, session_id, category, 0, rating, task)
        if row is not None:
            if origin is None or ordinal < origin:
                origin = ordinal
            keep(row[0], row[1], ~ordinal, row[3], row[4])

    if fmt == FORMAT_CSV:
        for number, (session_id, category, period, rating, task, ts) in _csv_records(
                handle, counts):
            if ts is not None and ts != "" and (period is None or period == ""):
                stamped(number, session_id, category, rating, task, ts)
                continue
            row = check(number, session_id, category, period, rating, task)
            if row is not None:
                keep(*row)
        return origin
    for number, line in enumerate(handle, start=1):
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            obj = None  # _json_object names the fault
        if obj.__class__ is not dict or line[end:].strip(_JSON_SPACE):
            obj = _json_object(line)
            if obj.__class__ is not dict:
                if obj is not None:
                    validator.reject(number, MalformedRow(obj))
                continue
        get = obj.get
        period = get("period")
        ts = get("timestamp")
        if ts is not None and ts != "" and (period is None or period == ""):
            stamped(number, get("session_id"), get("category"), get("rating"),
                    get("task_completed"), ts)
            continue
        row = check(number, get("session_id"), get("category"), period, get("rating"),
                    get("task_completed"))
        if row is not None:
            keep(*row)
    return origin


def _ingest(
    source: str | Path | IO[str] | IO[bytes],
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
        with ExitStack() as stack:
            handle = source
            if not hasattr(handle, "read"):
                handle = stack.enter_context(open(handle, "rb"))
            if not isinstance(handle, io.TextIOBase):
                handle = io.TextIOWrapper(handle, encoding="utf-8-sig",
                                          errors="surrogateescape", newline="")
                # Hands the bytes back when the scan ends, so that the
                # wrapper never closes a caller's handle or standard input.
                stack.callback(handle.detach)
            origin = _scan(handle, fmt_key, validator, keep, counts)
    except OSError as exc:
        name = getattr(source, "name", source) if hasattr(source, "read") else source
        raise IoFailure(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a caller's text handle that decodes strictly
        raise MalformedRow(f"input: not UTF-8 text ({exc.reason})") from None

    def period_of(period: int) -> int:
        return period if period >= 0 else ~period - origin

    return tuple(validator.rejections), period_of


def load_sessions(
    source: str | Path | IO[str] | IO[bytes],
    fmt: str = FORMAT_CSV,
    space: ResponseSpace | None = None,
    strictness: str = STRICT,
) -> ValidationResult:
    """Parse a session log into a validated dataset plus rejection log.

    ``source`` is a path, or a binary or text handle, read as the module
    docstring says; a handle is left open. ``fmt`` is ``csv`` or ``jsonl``
    (alias ``json-lines``); both carry the same fields. Rows whose
    ``period`` is empty fall back to bucketing their ``timestamp`` by UTC
    day. Those periods count from the day of the earliest valid timestamped
    row, apart from any explicit ``period`` values in the same log, and
    rows that fail validation do not move them. Strict mode raises on the
    first invalid row in file order; skip-invalid mode drops and logs.

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
    source: str | Path | IO[str] | IO[bytes],
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
    The counts carry ``aggregation``, which every IEI of them is computed
    under; sessions are counted one by one only for ``"mean-of-sessions"``,
    and any value but that and ``"pooled"`` is a ValueError.
    """
    counts = SessionCounts(space if space is not None else five_point(), aggregation)
    rejections, period_of = _ingest(
        source, fmt, counts.space, strictness, counts.add, counts
    )
    if any(p < 0 for _, p in counts.levels):
        _move_periods(counts, period_of)
    return counts, rejections


def _move_periods(counts: SessionCounts, period_of: Callable[[int], int]) -> None:
    """Move each period p of ``counts`` to ``period_of(p)``, in place.

    The counts become those of the same rows with their periods moved.
    Only the (category, period) keys are made anew, in the order their new
    keys are first seen; what each key holds, a count list or a dict of
    sessions' count lists, moves as it is, without a copy. One whose new
    key is already taken is added into that one (:func:`_add_into`).
    """

    def moved(table: dict[tuple[str, int], Any]) -> dict[tuple[str, int], Any]:
        new: dict[tuple[str, int], Any] = {}
        for (c, p), n in table.items():
            mine = new.setdefault((c, period_of(p)), n)
            if mine is not n:
                _add_into(mine, n)
        return new

    counts.levels = moved(counts.levels)
    counts.sessions = moved(counts.sessions)


def _add_into(mine: list[int] | dict[str, list[int]],
              more: list[int] | dict[str, list[int]]) -> None:
    """Add a count list into ``mine``, or a dict of them session by session:
    a session new to ``mine`` moves in as it is, after those already there."""
    if isinstance(more, dict):
        for session_id, n in more.items():
            theirs = mine.setdefault(session_id, n)
            if theirs is not n:
                _add_into(theirs, n)
    else:
        for i, c in enumerate(more):
            mine[i] += c
