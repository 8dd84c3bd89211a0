"""Output files, the one CSV writer and the result serializers.

Every file adux writes goes through :func:`open_output`: a temp file that
replaces the destination only once the write has finished, so a failed run
never leaves a partially written output behind. The emitters in
:mod:`adux.report` only return text; the command line writes it through
:func:`open_output`, and so can a library caller.

:func:`_csv_lines` is the one CSV writer: the CSV report, the plot-data
tables and the session log all print through it, with one cell rule (``None``
is an empty cell, a boolean ``true`` or ``false``), and a carriage return
inside a cell is quoted on every Python. :func:`write_session_columns` is
the session-CSV renderer. It takes rows as columns, session ids and parallel
row keys ``(category, period, rating, task_completed)``, and writes them a
chunk at a time, each row as its session id plus its key's tail, rendered
once per distinct key in the chunk. ``adux simulate`` hands it each drawn
period, and :func:`adux.report.emit_sessions` a dataset's observations a
chunk at a time. A chunk that the writer would render otherwise (a cell
holding a comma, a quote, a line break or a NUL, or one that is not text,
an integer or a boolean) is rendered by it instead.

This module imports none of the metric modules, so ``adux simulate`` writes
its log, and ``adux bucs`` prints its interval, without loading the
ingestion and evaluation stack.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from operator import add
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from .errors import IoFailure

if TYPE_CHECKING:
    from .bayes import BucsResult, CredibleInterval
    from .drift import TdcFit
    from .entropy import EntropyBits

_SESSION_COLUMNS = ("session_id", "category", "period", "rating", "task_completed")
_CHUNK_ROWS = 8192
# What csv quotes in a cell, or refuses (a NUL, before Python 3.11).
_CSV_SPECIALS = (",", '"', "\r", "\n", "\0")


def _cell(value: Any) -> Any:
    """A cell as every CSV table prints it: ``None`` is empty and a boolean
    ``true`` or ``false``; csv writes any other value as ``str`` does."""
    if value is None:
        return ""
    if value is True or value is False:
        return "true" if value else "false"
    return value


def _csv_lines(rows: Iterable[Iterable[Any]]) -> str:
    """The CSV lines of these rows, each ended by a line feed; floats must
    arrive rounded by :func:`_num`. A cell that csv refuses to write (a NUL,
    before Python 3.11) raises :class:`~adux.errors.IoFailure` naming it."""
    # A "\n"-terminated writer leaves a "\r" inside a cell unquoted before
    # Python 3.13, and the reader splits that line; a "\r\n"-terminated
    # writer quotes it. Other cells come out as a "\n"-terminated writer
    # renders them.
    line = io.StringIO()
    writer = csv.writer(line, lineterminator="\r\n")
    parts = []
    for row in rows:
        line.seek(0)
        line.truncate()
        cells = list(map(_cell, row))
        try:
            writer.writerow(cells)
        except csv.Error as exc:  # a cell holding a NUL, before Python 3.11
            for cell in cells:
                try:
                    writer.writerow((cell,))
                except csv.Error:
                    raise IoFailure(f"cannot write the CSV cell {cell!r}: {exc}") from None
            raise
        parts.append(line.getvalue()[:-2] + "\n")
    return "".join(parts)


def _plain(text: str) -> bool:
    return not any(special in text for special in _CSV_SPECIALS)


def _tail(key: tuple) -> str | None:
    """The text after the session id of a row with this key, or None when
    csv would render the key's cells otherwise."""
    category, period, rating, task = key
    if (type(category) is not str or not _plain(category)
            or type(period) is not int or type(rating) is not int
            or not (task is True or task is False or task is None)):
        return None
    return f",{category},{period},{rating},{_cell(task)}\n"


def _session_lines(ids: list, keys: list[tuple]) -> str:
    """The CSV lines of one chunk of rows, given as their session ids and
    their keys ``(category, period, rating, task_completed)``."""
    try:
        tails = {key: _tail(key) for key in set(keys)}
        plain = None not in tails.values() and _plain("".join(ids))
    except TypeError:  # an unhashable cell, or a session id that is not a str
        plain = False
    if plain:
        return "".join(map(add, ids, map(tails.__getitem__, keys)))
    return _csv_lines((session_id, *key) for session_id, key in zip(ids, keys))


def write_session_columns(
    columns: Iterable[tuple[list[str], list[tuple[str, int, int, bool | None]]]],
    handle: IO[str],
) -> None:
    """Write session rows, given in runs of columns, to an open text handle
    in the session CSV format.

    Each run is a list of session ids and a parallel list of row keys
    ``(category, period, rating, task_completed)``. Runs are gathered and
    written a chunk of rows at a time, and a run longer than a chunk is
    written in slices, so memory holds one run and one chunk of text, not
    the log. Every row ends in a line feed; a cell holding a carriage
    return is quoted.

    A row's text is its session id followed by its key's tail, rendered
    once per distinct key in the chunk. When csv would render a chunk
    otherwise (a cell holding a comma, a quote or a line break, or a cell
    that is not text, an integer or a boolean, such as ``None``) or refuse
    it (a NUL, before Python 3.11), the chunk is rendered by
    :func:`_csv_lines` instead.
    """
    handle.write(",".join(_SESSION_COLUMNS) + "\n")
    ids: list = []
    keys: list = []
    for run_ids, run_keys in columns:
        ids += run_ids
        keys += run_keys
        whole = len(ids) - len(ids) % _CHUNK_ROWS
        for start in range(0, whole, _CHUNK_ROWS):
            end = start + _CHUNK_ROWS
            handle.write(_session_lines(ids[start:end], keys[start:end]))
        del ids[:whole], keys[:whole]
    if ids:
        handle.write(_session_lines(ids, keys))


@contextmanager
def open_output(destination: str | Path | IO[str]) -> Iterator[IO[str]]:
    """A text handle on the destination: a file-like itself, or for a path
    a temporary file in its directory that replaces the path only when the
    block ends without error, so a failed write leaves no partial file.
    The file keeps the mode of the one it replaces, or takes the umask's,
    as a shell's ``>`` gives. A symbolic link is written through, as ``>``
    writes it: its target is replaced (or made, for a dangling link) and
    the link stays. A FIFO, a device or any other path that is not a
    regular file is written in place, so its reader gets the text.
    """
    if hasattr(destination, "write"):
        yield destination
        return
    given = Path(destination)
    try:
        try:
            mode = os.stat(given).st_mode  # follows links, /dev/stdout's too
        except FileNotFoundError:  # a new regular file, as the umask makes it
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | (0o666 & ~umask)
        if not stat.S_ISREG(mode):
            with open(given, "w", encoding="utf-8") as handle:
                yield handle
            return
        # Resolved only for a regular or missing file: a link to a pipe,
        # such as /dev/stdout, resolves to a name that does not exist.
        path = Path(os.path.realpath(given))
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            os.fchmod(fd, mode & 0o777)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                yield handle
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError as exc:
        # The OS reason alone: the exception's own text names the temp file.
        raise IoFailure(f"cannot write {given}: {exc.strerror or exc}") from exc


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


def _json_text(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"
