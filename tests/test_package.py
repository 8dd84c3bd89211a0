"""The package namespace: every public name, each imported on first use."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adux

SRC = Path(__file__).resolve().parents[1] / "src"

# adux.__all__ as the package printed it when it imported every module up front,
# less the names removed since (MissingInput, EvalConfig and Fig3Spec), plus fig3_rows.
PUBLIC_NAMES = [
    "__version__", "AduxError", "DegenerateTime", "EmptyDataset", "EmptyInput",
    "ImpreciseShapes", "InsufficientData", "InvalidMass", "IoFailure", "MalformedRow",
    "NegativePeriod", "UnknownCategory", "UnknownFormat", "UnknownRating",
    "ZeroTrials", "Dataset", "DiscreteDistribution", "Rejection", "ResponseSpace",
    "STRICT", "SKIP_INVALID", "SessionCounts", "SessionObservation",
    "ValidationResult", "build_distribution", "five_point", "validate_dataset",
    "EntropyBits", "MEAN_OF_SESSIONS", "PER_CATEGORY",
    "PER_CATEGORY_PER_PERIOD", "POOLED", "iei", "iei_by_group", "iei_of_ratings",
    "DriftDirection", "TdcFit", "UsabilitySeries", "classify_drift", "fit_tdc",
    "series_from_dataset", "BetaParams", "BucsResult", "CredibleInterval",
    "IntervalKind", "TrialSummary", "beta_cdf", "beta_quantile", "bucs",
    "equal_tailed_interval", "hdi", "posterior", "update_prior", "wald_ci",
    "GeneratorSpec", "category_presets", "discretized_line_distributions",
    "gen_drift_series", "gen_ratings", "gen_trials", "AduxReport",
    "CategoryResult", "emit_plot_data", "emit_report", "emit_sessions", "evaluate",
    "fig3_rows", "report_document", "load_sessions", "tally_sessions",
]

SUBMODULES = ("bayes", "drift", "entropy", "errors", "ingest", "model", "output",
              "report", "special", "synth", "version")


def test_public_names_are_unchanged():
    assert adux.__all__ == PUBLIC_NAMES


def test_every_name_is_the_object_its_submodules_hold():
    modules = [importlib.import_module(f"adux.{name}") for name in SUBMODULES]
    for name in adux.__all__:
        value = getattr(adux, name)
        holders = [m for m in modules if name in vars(m)]
        assert holders, name
        assert all(vars(m)[name] is value for m in holders), name


def test_dir_and_star_import_cover_every_name():
    assert set(adux.__all__) <= set(dir(adux))
    namespace: dict = {}
    exec("from adux import *", namespace)
    assert all(namespace[name] is getattr(adux, name) for name in adux.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'adux' has no attribute 'no_such_name'"):
        adux.no_such_name
    assert not hasattr(adux, "no_such_name")


def test_names_and_submodules_load_on_first_use():
    script = """
import sys
import adux
assert "adux.special" not in sys.modules and "adux.bayes" not in sys.modules
assert abs(adux.special.log_gamma(2.0)) < 1e-12
assert adux.bucs is sys.modules["adux.bayes"].bucs
assert "adux.report" not in sys.modules
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
