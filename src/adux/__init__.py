"""adux: statistics for evaluating AI-mediated user experience.

Three metrics over recorded interaction-session logs:

* IEI — Shannon entropy (bits) of the satisfaction-rating distribution.
* TDC — OLS slope of mean usability over time periods, with inference.
* BUCS — Beta-Binomial posterior over task completion, reported as a
  highest density interval.

Plus a seeded synthetic-session generator for validating each metric
against known ground truth, and a report pipeline / CLI for batch runs.
"""

from .version import __version__

from .errors import (
    AduxError,
    DegenerateTime,
    EmptyDataset,
    EmptyInput,
    InsufficientData,
    InvalidMass,
    IoFailure,
    MalformedRow,
    MissingInput,
    NegativePeriod,
    UnknownCategory,
    UnknownFormat,
    UnknownRating,
    ZeroTrials,
)
from .model import (
    Dataset,
    DiscreteDistribution,
    RatingLevel,
    Rejection,
    ResponseSpace,
    STRICT,
    SKIP_INVALID,
    SessionCounts,
    SessionObservation,
    ValidationResult,
    build_distribution,
    five_point,
    validate_dataset,
)
from .entropy import (
    EntropyBits,
    GroupedEntropy,
    MEAN_OF_SESSIONS,
    PER_CATEGORY,
    PER_CATEGORY_PER_PERIOD,
    POOLED,
    iei,
    iei_by_group,
    iei_of_ratings,
)
from .drift import (
    DriftDirection,
    TdcFit,
    UsabilitySeries,
    classify_drift,
    fit_tdc,
    series_from_dataset,
)
from .bayes import (
    BetaParams,
    BucsResult,
    CredibleInterval,
    IntervalKind,
    TrialSummary,
    beta_cdf,
    beta_quantile,
    bucs,
    equal_tailed_interval,
    hdi,
    posterior,
    update_prior,
    wald_ci,
)
from .synth import (
    GeneratorSpec,
    category_presets,
    discretized_line_distributions,
    gen_drift_series,
    gen_ratings,
    gen_session_rows,
    gen_trials,
)
from .report import (
    AduxReport,
    CategoryResult,
    EvalConfig,
    Fig3Spec,
    emit_plot_data,
    emit_report,
    emit_sessions,
    evaluate,
    report_document,
)
from .ingest import load_sessions, tally_sessions

__all__ = [
    "__version__",
    # errors
    "AduxError", "DegenerateTime", "EmptyDataset", "EmptyInput",
    "InsufficientData", "InvalidMass", "IoFailure", "MalformedRow",
    "MissingInput", "NegativePeriod", "UnknownCategory", "UnknownFormat",
    "UnknownRating", "ZeroTrials",
    # core model
    "Dataset", "DiscreteDistribution", "RatingLevel", "Rejection",
    "ResponseSpace", "STRICT", "SKIP_INVALID", "SessionCounts",
    "SessionObservation", "ValidationResult", "build_distribution", "five_point",
    "validate_dataset",
    # entropy
    "EntropyBits", "GroupedEntropy", "MEAN_OF_SESSIONS", "PER_CATEGORY",
    "PER_CATEGORY_PER_PERIOD", "POOLED", "iei", "iei_by_group", "iei_of_ratings",
    # drift
    "DriftDirection", "TdcFit", "UsabilitySeries", "classify_drift",
    "fit_tdc", "series_from_dataset",
    # bayes
    "BetaParams", "BucsResult", "CredibleInterval", "IntervalKind",
    "TrialSummary", "beta_cdf", "beta_quantile", "bucs",
    "equal_tailed_interval", "hdi", "posterior", "update_prior", "wald_ci",
    # synth
    "GeneratorSpec", "category_presets", "discretized_line_distributions",
    "gen_drift_series", "gen_ratings", "gen_session_rows", "gen_trials",
    # report
    "AduxReport", "CategoryResult", "EvalConfig", "Fig3Spec",
    "emit_plot_data", "emit_report", "emit_sessions", "evaluate",
    "report_document",
    # ingestion
    "load_sessions", "tally_sessions",
]
