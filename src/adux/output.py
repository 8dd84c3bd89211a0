"""Output files, the session-CSV writer and the result serializers.

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
its log, and ``adux bucs`` prints its interval, without loading the
ingestion and evaluation stack.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from .errors import IoFailure

if TYPE_CHECKING:
    from .bayes import BucsResult, CredibleInterval
    from .drift import TdcFit
    from .entropy import EntropyBits

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
