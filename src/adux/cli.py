"""Command-line front end: `adux` with batch subcommands.

Exit codes follow the usual conventions: 0 on success, 2 on data or
validation failures, 64 on usage errors. Results go to stdout or ``--out``;
diagnostics go to stderr. Output files are written atomically, so a failed
run never leaves a partial file behind.

``simulate`` checks its specs, then writes each period's sessions as they
are drawn, so its memory holds one period's rows, not the log.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from itertools import chain
from typing import TYPE_CHECKING, Any, NoReturn

from .errors import AduxError, IoFailure
from .model import (
    MAX_SCALE_LEVELS,
    MEAN_OF_SESSIONS,
    POOLED,
    SKIP_INVALID,
    STRICT,
    DiscreteDistribution,
    ResponseSpace,
)
from .version import __version__

if TYPE_CHECKING:
    from .bayes import BetaParams
    from .synth import GeneratorSpec

# The names the commands use from the modules that do their work. Each
# module is imported when a command first reads one of its names, as an
# attribute of this module (`_cli.evaluate`, through __getattr__ below),
# so `adux --version` or `adux simulate` never loads what only `report`
# runs. A name bound here is read at call time, so a wrapper bound over it
# (benchmark/child.py times evaluate and emit_report so) is the one called.
_COMMAND_NAMES = {
    "bayes": ("BetaParams", "TrialSummary", "bucs", "posterior_overflows", "wald_ci"),
    "drift": ("classify_drift", "fit_tdc", "series_from_dataset"),
    "entropy": ("PER_CATEGORY", "PER_CATEGORY_PER_PERIOD", "iei_by_group"),
    # load_sessions, gen_ratings and emit_sessions are not called here;
    # benchmark/child.py times them under these names and reads 0 for them,
    # as it does for every other span a command skips.
    "ingest": ("load_sessions", "tally_sessions"),
    "output": ("open_output", "write_session_columns", "_csv_lines",
               "_bucs_fields", "_iei_fields", "_json_text", "_tdc_fields"),
    "report": ("emit_plot_data", "emit_report", "emit_sessions", "evaluate", "fig3_rows"),
    "synth": ("GeneratorSpec", "category_presets", "gen_ratings", "gen_session_columns"),
}
_SOURCE = {name: module for module, names in _COMMAND_NAMES.items() for name in names}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__package__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64

DEFAULT_SEED = 42


def _to_stderr(text: str) -> None:
    """Write a diagnostic to stderr in one write, or drop it when stderr is
    gone: None, as Python sets it when fd 2 is closed at start, or a stream
    whose writes raise OSError, as when fd 2 is open but not writable."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(text)
    except OSError:
        pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors with exit code 64."""

    def error(self, message: str) -> NoReturn:
        _to_stderr(f"{self.format_usage()}{self.prog}: error: {message}\n")
        self.exit(EXIT_USAGE)


class _UsageError(Exception):
    """Raised by handlers for flag combinations argparse cannot check."""


def _scale_arg(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI with integer bounds, got {text!r}"
        ) from None
    if lo >= hi:
        raise argparse.ArgumentTypeError(f"scale bounds must satisfy lo < hi: {text!r}")
    try:
        ResponseSpace.from_range(lo, hi)  # refuses a scale too large to count
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lo, hi


def _prior_arg(text: str) -> BetaParams:
    try:
        a_text, b_text = text.split(",", 1)
        return _cli.BetaParams(float(a_text), float(b_text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad prior {text!r}: {exc}") from None


def _mass_arg(text: str) -> float:
    try:
        mass = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad mass {text!r}") from None
    if not 0.0 < mass < 1.0:
        raise argparse.ArgumentTypeError(f"mass must lie in (0, 1), got {text}")
    return mass


def _int_list_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _probs_arg(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad probability list {text!r}") from None


def _add_input_options(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--input", required=required, help="session log path, or - for stdin")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                   help="input format (default csv)")
    p.add_argument("--scale", type=_scale_arg, default=(1, 5), metavar="LO..HI",
                   help=f"rating scale bounds (default 1..5; at most "
                        f"{MAX_SCALE_LEVELS} levels)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--strict", dest="strictness", action="store_const",
                       const=STRICT, default=STRICT,
                       help="fail on the first invalid row (default)")
    group.add_argument("--skip-invalid", dest="strictness", action="store_const",
                       const=SKIP_INVALID, help="drop invalid rows, log each rejection")


def _add_bayes_options(p: argparse.ArgumentParser) -> None:
    # argparse runs a string default through the type only when it is used,
    # so building the parser does not import bayes.
    p.add_argument("--prior", type=_prior_arg, default="1,1",
                   metavar="A,B", help="Beta prior parameters (default 1,1)")
    p.add_argument("--mass", type=_mass_arg, default=0.95,
                   help="credible mass (default 0.95)")


def _add_out_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: stdout)")


def _tally(args: argparse.Namespace, aggregation: str = POOLED):
    if args.input == "-" and sys.stdin is None:  # as Python sets it when fd 0 is closed
        raise IoFailure("cannot read standard input: it is closed")
    source = sys.stdin.buffer if args.input == "-" else args.input  # ingest decodes bytes
    space = ResponseSpace.from_range(*args.scale)
    counts, rejections = _cli.tally_sessions(source, fmt=args.format, space=space,
                                             strictness=args.strictness,
                                             aggregation=aggregation)
    if rejections:
        _to_stderr("".join(f"adux: skipped row {rejection.row}: {rejection.detail}\n"
                           for rejection in rejections))
    return counts, rejections


def _emit(args: argparse.Namespace, text: str) -> None:
    with _cli.open_output(args.out or sys.stdout) as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_iei(args: argparse.Namespace) -> int:
    counts, rejections = _tally(args, args.aggregation)
    grouping = (_cli.PER_CATEGORY if args.group_by == "category"
                else _cli.PER_CATEGORY_PER_PERIOD)
    rows = []
    for key, entry in _cli.iei_by_group(counts, grouping=grouping):
        group = (
            {"category": key} if isinstance(key, str)
            else {"category": key[0], "period": key[1]}
        )
        rows.append({**group, **_cli._iei_fields(entry)})
    _emit(args, _cli._json_text({"groups": rows, "rejected": len(rejections)}))
    return EXIT_OK


def _cmd_tdc(args: argparse.Namespace) -> int:
    counts, rejections = _tally(args)
    rows = []
    for category in counts.categories():
        series = _cli.series_from_dataset(counts, category)
        fit = _cli.fit_tdc(series)
        rows.append({"category": category, **_cli._tdc_fields(fit),
                     "drift": _cli.classify_drift(fit).value})
    _emit(args, _cli._json_text({"categories": rows, "rejected": len(rejections)}))
    return EXIT_OK


def _cmd_bucs(args: argparse.Namespace) -> int:
    if args.N < 0:
        raise _UsageError(f"--N must be >= 0, got {args.N}")
    if args.n < 0:
        raise _UsageError(f"--n must be >= 0, got {args.n}")
    if args.n > args.N:
        raise _UsageError(f"--n ({args.n}) cannot exceed --N ({args.N})")
    if _cli.posterior_overflows(args.prior, args.N):
        raise _UsageError("--N is too large: the posterior's alpha + beta overflows a float")
    trials = _cli.TrialSummary(completions=args.n, trials=args.N)
    result = _cli.bucs(args.prior, trials, args.mass)
    wald = _cli.wald_ci(trials, args.mass) if args.N >= 1 else None
    _emit(args, _cli._json_text(_cli._bucs_fields(result, with_mode=True, wald=wald)))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    # Read before the tally, so that the evaluation modules load before the
    # tally grows the heap: loaded after it, they raised the peak RSS of a
    # 200k-row report by 0.5%.
    evaluate = _cli.evaluate
    counts, rejections = _tally(args, args.aggregation)
    report = evaluate(counts, args.prior, args.mass, n_rejected=len(rejections))
    _to_stderr(f"adux: config digest {report.meta.config_digest}\n")
    text = _cli.emit_report(report, fmt=args.report_format, no_meta=args.no_meta)
    _emit(args, text)
    return EXIT_OK


# The simulate flags' defaults, and a config entry's for the keys it leaves
# out; the keys are the flags' argparse dests.
_SPEC_DEFAULTS: dict[str, Any] = {
    "scale": (1, 5), "completion_p": 0.8, "periods": 8, "sessions_per_period": 40,
}


def _spec(fields: dict[str, Any], seed: int) -> GeneratorSpec:
    """One generator spec from simulate flags or a config entry."""
    fields = {**_SPEC_DEFAULTS, **fields, "seed": seed}
    category = fields["category"]
    if not isinstance(category, str) or not category:
        raise ValueError(f"category must be a non-empty string, got {category!r}")
    for key in ("periods", "sessions_per_period", "seed"):
        # int() would cut 1.5 to 1, and take true for 1, without a word.
        if type(fields[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {fields[key]!r}")
    if type(fields["completion_p"]) not in (int, float):  # float() takes "0.5" and true
        raise ValueError(f"completion_p must be a number, got {fields['completion_p']!r}")
    space = ResponseSpace.from_range(*fields["scale"])
    return _cli.GeneratorSpec(
        category=category,
        true_distribution=DiscreteDistribution(space=space, probs=tuple(fields["probs"])),
        # The drift line feeds only gen_drift_series, which simulate never runs.
        true_beta0=3.0,
        true_beta1=0.0,
        noise_sd=0.0,
        completion_p=float(fields["completion_p"]),
        periods=fields["periods"],
        sessions_per_period=fields["sessions_per_period"],
        seed=fields["seed"],
    )


def _specs_from_config_file(path: str, default_seed: int) -> list[GeneratorSpec]:
    with open(path, "rb") as handle:
        payload = json.load(handle)
    entries = payload.get("specs", [payload]) if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise TypeError('expected a spec object, a list of them or {"specs": [...]}')
    specs = []
    for i, entry in enumerate(entries):
        if "scale" in entry:
            if not isinstance(entry["scale"], str):
                raise TypeError(f"scale must be a string LO..HI, got {entry['scale']!r}")
            entry = {**entry, "scale": _scale_arg(entry["scale"])}
        specs.append(_spec(entry, entry.get("seed", default_seed + i)))
    return specs


def _cmd_simulate(args: argparse.Namespace) -> int:
    seed = args.seed
    try:
        if args.config:
            specs = _specs_from_config_file(args.config, seed)
        elif args.preset:
            presets = _cli.category_presets(seed=seed, periods=args.periods,
                                            sessions_per_period=args.sessions_per_period)
            specs = [s for s in presets if args.preset in ("all", s.category)]
            if not specs:
                names = ", ".join(s.category for s in presets)
                raise _UsageError(f"unknown preset {args.preset!r} (have: {names}, all)")
        elif not args.category or args.probs is None:
            raise _UsageError("simulate needs --category and --probs "
                              "(or --preset / --config)")
        else:
            specs = [_spec(vars(args), seed)]
    except (KeyError, TypeError, ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
        # A config entry can also miss a key, give a value of the wrong type
        # or a number that JSON reads as infinity (1e400).
        prefix = f"bad simulate config {args.config}: " if args.config else ""
        raise _UsageError(f"{prefix}{exc}") from None

    if not specs:
        raise _UsageError("simulate config holds no specs")
    if any(spec.space != specs[0].space for spec in specs):
        raise _UsageError("all simulated categories must share one scale")
    rows = sum(spec.periods * spec.sessions_per_period for spec in specs)
    seeds = [spec.seed for spec in specs]
    if seeds == list(range(seed, seed + len(specs))):  # spec i drew from seed + i
        named = f"seed {seed}"
    else:  # a config entry set its own seed
        named = ("seed " if len(seeds) == 1 else "seeds ") + ", ".join(map(str, seeds))
    _to_stderr(f"adux: simulated {rows} sessions ({named})\n")
    with _cli.open_output(args.out or sys.stdout) as handle:
        _cli.write_session_columns(
            chain.from_iterable(map(_cli.gen_session_columns, specs)), handle)
    return EXIT_OK


def _cmd_plotdata(args: argparse.Namespace) -> int:
    if args.figure in ("fig1", "fig2"):
        if not args.input:
            raise _UsageError(f"{args.figure} needs --input")
        counts, rejections = _tally(args, args.aggregation)
        report = _cli.evaluate(counts, args.prior, args.mass, n_rejected=len(rejections))
        _emit(args, _cli.emit_plot_data(report, args.figure))
        return EXIT_OK
    if args.p_hat is None:
        raise _UsageError("fig3 needs --p-hat (and optionally --N-list)")
    try:  # only the argument checks: the rows are computed as they are read
        rows = _cli.fig3_rows(args.p_hat, args.N_list, args.prior, args.mass)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _emit(args, _cli._csv_lines(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="adux",
                     description="Usability metrics for AI-interface session logs: "
                                 "rating entropy (IEI), usability drift (TDC), and "
                                 "Bayesian task-completion intervals (BUCS).")
    parser.add_argument("--version", action="version", version=f"adux {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_iei = sub.add_parser("iei", help="rating entropy per group")
    _add_input_options(p_iei)
    p_iei.add_argument("--group-by", choices=("category", "category-period"),
                       default="category")
    p_iei.add_argument("--aggregation", choices=(POOLED, MEAN_OF_SESSIONS),
                       default=POOLED)
    _add_out_option(p_iei)
    p_iei.set_defaults(func=_cmd_iei)

    p_tdc = sub.add_parser("tdc", help="usability drift slope per category")
    _add_input_options(p_tdc)
    _add_out_option(p_tdc)
    p_tdc.set_defaults(func=_cmd_tdc)

    p_bucs = sub.add_parser("bucs", help="Bayesian completion interval from counts")
    p_bucs.add_argument("--n", type=int, required=True, help="completion count")
    p_bucs.add_argument("--N", type=int, required=True, help="trial count")
    _add_bayes_options(p_bucs)
    _add_out_option(p_bucs)
    p_bucs.set_defaults(func=_cmd_bucs)

    p_report = sub.add_parser("report", help="full per-category evaluation report")
    _add_input_options(p_report)
    _add_bayes_options(p_report)
    p_report.add_argument("--aggregation", choices=(POOLED, MEAN_OF_SESSIONS),
                          default=POOLED)
    p_report.add_argument("--report-format", choices=("json", "csv"), default="json")
    p_report.add_argument("--no-meta", action="store_true",
                          help="omit run metadata (timestamps) for byte-stable output")
    _add_out_option(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_sim = sub.add_parser("simulate", help="write a synthetic session CSV")
    p_sim.add_argument("--category", help="category label for flag-driven specs")
    p_sim.add_argument("--probs", type=_probs_arg, metavar="P1,P2,...",
                       help="true rating distribution")
    p_sim.add_argument("--completion-p", type=float)
    p_sim.add_argument("--periods", type=int)
    p_sim.add_argument("--sessions-per-period", type=int)
    p_sim.add_argument("--scale", type=_scale_arg, metavar="LO..HI",
                       help=f"rating scale bounds (default 1..5; at most "
                            f"{MAX_SCALE_LEVELS} levels)")
    p_sim.add_argument("--preset", help="use a shipped category preset, or 'all'")
    p_sim.add_argument("--config", help="JSON file with one spec or {'specs': [...]}")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"PRNG seed (default {DEFAULT_SEED})")
    _add_out_option(p_sim)
    p_sim.set_defaults(func=_cmd_simulate, **_SPEC_DEFAULTS)

    p_plot = sub.add_parser("plotdata", help="CSV tables behind the standard figures")
    p_plot.add_argument("--figure", choices=("fig1", "fig2", "fig3"), required=True)
    _add_input_options(p_plot, required=False)  # fig1 and fig2 only
    p_plot.add_argument("--aggregation", choices=(POOLED, MEAN_OF_SESSIONS),
                        default=POOLED)
    _add_bayes_options(p_plot)
    p_plot.add_argument("--p-hat", type=float, default=None,
                        help="completion share for fig3")
    p_plot.add_argument("--N-list", type=_int_list_arg, default=(10, 50, 200, 1000),
                        metavar="N1,N2,...", help="sample sizes for fig3")
    _add_out_option(p_plot)
    p_plot.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the adux command line on ``argv`` (default ``sys.argv[1:]``) and
    return its exit code.

    Diagnostics go to ``sys.stderr``, which is left as it was; one that
    cannot be written is dropped, but a buffered stream may keep its bytes,
    and a flush that fails at exit makes the exit code 120. :func:`run`,
    the ``adux`` command, sees to that.

    Standard output is flushed before returning. When its reader has gone
    away, the command fails as a data error, and the process's standard
    output, fd 1 included, is pointed at the null device for the rest.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    if not getattr(args, "command", None):
        _to_stderr(parser.format_usage())
        return EXIT_USAGE
    try:
        if args.out is None and sys.stdout is None:  # as Python sets it when fd 1 is closed
            raise IoFailure("cannot write standard output: it is closed")
        code = args.func(args)
        if args.out is None:
            sys.stdout.flush()
        return code
    except _UsageError as exc:
        _to_stderr(f"adux: usage error: {exc}\n")
        return EXIT_USAGE
    except (AduxError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and args.out is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            exc = f"cannot write standard output: {exc}"
        _to_stderr(f"adux: error: {exc}\n")
        return EXIT_DATA


def run() -> NoReturn:
    """The ``adux`` command: exit with the code of :func:`main`.

    A standard error that cannot take the bytes it holds is set to None
    first, so that Python's flush of it at exit does not fail and turn the
    exit code into 120.
    """
    code = main()
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        sys.stderr = None
    raise SystemExit(code)


if __name__ == "__main__":
    run()
