"""Exception types raised by the adux library.

Every error the library raises deliberately derives from :class:`AduxError`,
so callers (and the CLI) can catch one base class for data/validation
failures and let genuine bugs propagate.
"""

from __future__ import annotations


class AduxError(Exception):
    """Base class for all adux data and validation errors."""


class EmptyInput(AduxError):
    """An operation received an empty collection where data is required."""


class EmptyDataset(AduxError):
    """Counts of zero rows were passed to an evaluator."""


class UnknownRating(AduxError):
    """A rating code is not part of the configured response space."""


class NegativePeriod(AduxError):
    """A time period index is negative."""


class MalformedRow(AduxError):
    """A raw input row is structurally invalid (missing or unparseable fields)."""


class UnknownCategory(AduxError):
    """A requested category does not occur in the dataset."""


class InsufficientData(AduxError):
    """Too few points for a statistically meaningful fit."""


class DegenerateTime(AduxError):
    """The time variable has zero variance, so no slope can be estimated."""


class InvalidMass(AduxError):
    """A credible mass outside the open interval (0, 1)."""


class ImpreciseShapes(AduxError):
    """Beta shapes so large, or so far apart, that log B(a, b) loses its precision."""


class ZeroTrials(AduxError):
    """A trial summary with no trials cannot yield a frequentist interval."""


class UnknownFormat(AduxError):
    """An unsupported input or output format name."""


class IoFailure(AduxError):
    """Reading or writing a file failed."""
