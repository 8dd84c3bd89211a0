"""Output files and the session-CSV writer.

Every file adux writes goes through :func:`open_output`: a temp file that
replaces the destination only once the write has finished, so a failed run
never leaves a partially written output behind.

:func:`write_sessions` renders session rows as they come, a chunk at a
time, for ``adux simulate`` and for :func:`adux.report.emit_sessions`
alike. Each chunk is one join of its rows' cells; a chunk that
``csv.writer`` would render otherwise (a cell holding a comma, a quote, a
line break or a NUL, or one that is not a ``str``, ``int`` or ``bool``) is
rendered by it instead.

This module imports none of the metric modules, so ``adux simulate`` writes
its log without loading the evaluation stack.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import IO

from .errors import IoFailure

_SESSION_COLUMNS = ("session_id", "category", "period", "rating", "task_completed")
_TASK_CELL = {True: "true", False: "false", None: ""}
_CHUNK_ROWS = 8192
_PLAIN_CELLS = frozenset((str, int, bool))


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
