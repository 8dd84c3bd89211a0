"""Command-line front end: `adux` with batch subcommands.

Exit codes follow the usual conventions: 0 on success, 2 on data or
validation failures, 64 on usage errors. Results go to stdout or ``--out``;
diagnostics go to stderr. Output files are written atomically, so a failed
run never leaves a partial file behind.

``simulate`` checks its specs, then writes each session row as it is
drawn, so its memory holds one period's rows, not the log.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain
from typing import Any, NoReturn

from .bayes import BetaParams, TrialSummary, bucs, wald_ci
from .drift import classify_drift, fit_tdc, series_from_dataset
from .entropy import MEAN_OF_SESSIONS, PER_CATEGORY, PER_CATEGORY_PER_PERIOD, POOLED, iei_by_group
from .errors import AduxError
# load_sessions is not called here; benchmark/child.py times it under this
# name and reads 0 for it, as it does for every other span a command skips.
from .ingest import load_sessions, tally_sessions  # noqa: F401
from .model import MAX_SCALE_LEVELS, DiscreteDistribution, ResponseSpace, SKIP_INVALID, STRICT
from .report import (
    EvalConfig,
    Fig3Spec,
    emit_plot_data,
    emit_report,
    evaluate,
    open_output,
    write_sessions,
    _bucs_fields,
    _iei_fields,
    _json_text,
    _tdc_fields,
    _write_text,
)
# Nor are these: `simulate` streams its rows through write_sessions.
from .report import emit_sessions  # noqa: F401
from .synth import GeneratorSpec, category_presets, gen_session_rows
from .synth import gen_ratings  # noqa: F401
from .version import __version__

EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64

DEFAULT_SEED = 42


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors with exit code 64."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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
        return BetaParams(float(a_text), float(b_text))
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
    p.add_argument("--prior", type=_prior_arg, default=BetaParams(1.0, 1.0),
                   metavar="A,B", help="Beta prior parameters (default 1,1)")
    p.add_argument("--mass", type=_mass_arg, default=0.95,
                   help="credible mass (default 0.95)")


def _add_out_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: stdout)")


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ADUX_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"ADUX_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _tally(args: argparse.Namespace, aggregation: str = POOLED):
    source = sys.stdin if args.input == "-" else args.input
    space = ResponseSpace.from_range(*args.scale)
    counts, rejections = tally_sessions(source, fmt=args.format, space=space,
                                        strictness=args.strictness,
                                        aggregation=aggregation)
    for rejection in rejections:
        print(f"adux: skipped row {rejection.row}: {rejection.detail}", file=sys.stderr)
    return counts, rejections


def _emit(args: argparse.Namespace, text: str) -> None:
    _write_text(text, args.out or sys.stdout)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_iei(args: argparse.Namespace) -> int:
    counts, rejections = _tally(args, args.aggregation)
    grouping = PER_CATEGORY if args.group_by == "category" else PER_CATEGORY_PER_PERIOD
    grouped = iei_by_group(counts, grouping=grouping, aggregation=args.aggregation)
    rows = []
    for key, entry in grouped.results:
        group = (
            {"category": key} if isinstance(key, str)
            else {"category": key[0], "period": key[1]}
        )
        rows.append({**group, **_iei_fields(entry)})
    _emit(args, _json_text({"groups": rows, "rejected": len(rejections)}))
    return EXIT_OK


def _cmd_tdc(args: argparse.Namespace) -> int:
    counts, rejections = _tally(args)
    rows = []
    for category in counts.categories():
        series = series_from_dataset(counts, category)
        fit = fit_tdc(series)
        rows.append({"category": category, **_tdc_fields(fit),
                     "drift": classify_drift(fit).value})
    _emit(args, _json_text({"categories": rows, "rejected": len(rejections)}))
    return EXIT_OK


def _cmd_bucs(args: argparse.Namespace) -> int:
    if args.N < 0:
        raise _UsageError(f"--N must be >= 0, got {args.N}")
    if args.n < 0:
        raise _UsageError(f"--n must be >= 0, got {args.n}")
    if args.n > args.N:
        raise _UsageError(f"--n ({args.n}) cannot exceed --N ({args.N})")
    if args.N > sys.float_info.max or math.isinf(args.prior.alpha + args.prior.beta + args.N):
        raise _UsageError("--N is too large: the posterior's alpha + beta overflows a float")
    trials = TrialSummary(completions=args.n, trials=args.N)
    result = bucs(args.prior, trials, args.mass)
    wald = wald_ci(trials, args.mass) if args.N >= 1 else None
    _emit(args, _json_text(_bucs_fields(result, with_mode=True, wald=wald)))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    counts, rejections = _tally(args, args.aggregation)
    config = EvalConfig(prior=args.prior, mass=args.mass, aggregation=args.aggregation)
    report = evaluate(counts, config, n_rejected=len(rejections))
    print(f"adux: config digest {report.meta.config_digest}", file=sys.stderr)
    text = emit_report(report, fmt=args.report_format, no_meta=args.no_meta)
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
    return GeneratorSpec(
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
    with open(path, "r", encoding="utf-8") as handle:
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
    seed = _resolve_seed(args)
    try:
        if args.config:
            specs = _specs_from_config_file(args.config, seed)
        elif args.preset:
            presets = category_presets(seed=seed, periods=args.periods,
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
    print(f"adux: simulated {rows} sessions ({named})", file=sys.stderr)
    with open_output(args.out or sys.stdout) as handle:
        write_sessions(chain.from_iterable(map(gen_session_rows, specs)), handle)
    return EXIT_OK


def _cmd_plotdata(args: argparse.Namespace) -> int:
    if args.figure in ("fig1", "fig2"):
        if not args.input:
            raise _UsageError(f"{args.figure} needs --input")
        counts, rejections = _tally(args, args.aggregation)
        config = EvalConfig(prior=args.prior, mass=args.mass,
                            aggregation=args.aggregation)
        report = evaluate(counts, config, n_rejected=len(rejections))
        _emit(args, emit_plot_data(report, args.figure))
        return EXIT_OK
    if args.p_hat is None:
        raise _UsageError("fig3 needs --p-hat (and optionally --N-list)")
    try:
        spec = Fig3Spec(p_hat=args.p_hat, trial_counts=args.N_list,
                        prior=args.prior, mass=args.mass)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _emit(args, emit_plot_data(spec, "fig3"))
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
    p_sim.add_argument("--seed", type=int, default=None,
                       help="PRNG seed (default: $ADUX_SEED or 42)")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"adux: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AduxError as exc:
        print(f"adux: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"adux: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
