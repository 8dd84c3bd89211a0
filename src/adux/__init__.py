"""adux: statistics for evaluating AI-mediated user experience.

Three metrics over recorded interaction-session logs:

* IEI — Shannon entropy (bits) of the satisfaction-rating distribution.
* TDC — OLS slope of mean usability over time periods, with inference.
* BUCS — Beta-Binomial posterior over task completion, reported as a
  highest density interval.

Plus a seeded synthetic-session generator for validating each metric
against known ground truth, and a report pipeline / CLI for batch runs.

Each public name is imported from its submodule when it is first read
(``adux.bucs``, ``from adux import evaluate``), and so is each submodule
(``adux.special``). Every ``adux`` command is a fresh process, and a process
that cannot use bytecode caches compiles every module it imports from
source. Importing all 13 modules up front, ``import adux, adux.cli`` took
34 ms over a bare interpreter, 23 ms of it in ``compile``; deferred, it runs
6 modules and takes 18 ms (medians of 21 starts, Python 3.11, one CPU of a
shared 2-vCPU VM). ``adux simulate``, ``adux --version`` and a caller of
``adux.bucs`` alone never load the ingestion and report modules.
"""

from importlib import import_module as _import_module

from .version import __version__

# Each public name, under the submodule it is imported from.
_EXPORTS = {
    "errors": (
        "AduxError", "DegenerateTime", "EmptyDataset", "EmptyInput",
        "ImpreciseShapes", "InsufficientData", "InvalidMass", "IoFailure", "MalformedRow",
        "NegativePeriod", "UnknownCategory", "UnknownFormat", "UnknownRating", "ZeroTrials",
    ),
    "model": (
        "Dataset", "DiscreteDistribution", "Rejection",
        "ResponseSpace", "STRICT", "SKIP_INVALID", "SessionCounts",
        "SessionObservation", "ValidationResult", "build_distribution", "five_point",
        "validate_dataset",
    ),
    "entropy": (
        "EntropyBits", "MEAN_OF_SESSIONS", "PER_CATEGORY",
        "PER_CATEGORY_PER_PERIOD", "POOLED", "iei", "iei_by_group", "iei_of_ratings",
    ),
    "drift": (
        "DriftDirection", "TdcFit", "UsabilitySeries", "classify_drift",
        "fit_tdc", "series_from_dataset",
    ),
    "bayes": (
        "BetaParams", "BucsResult", "CredibleInterval", "IntervalKind",
        "TrialSummary", "beta_cdf", "beta_quantile", "bucs",
        "equal_tailed_interval", "hdi", "posterior", "update_prior", "wald_ci",
    ),
    "synth": (
        "GeneratorSpec", "category_presets", "discretized_line_distributions",
        "gen_drift_series", "gen_ratings", "gen_trials",
    ),
    "report": (
        "AduxReport", "CategoryResult", "emit_plot_data", "emit_report",
        "emit_sessions", "evaluate", "fig3_rows", "report_document",
    ),
    "ingest": ("load_sessions", "tally_sessions"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(
    ("_record", "bayes", "cli", "drift", "entropy", "errors", "ingest", "model",
     "output", "report", "special", "synth", "version")
)

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
