"""Temporal drift fitting: exact lines, the 5-point gate, OLS properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adux.drift import (
    DriftDirection,
    TdcFit,
    UsabilitySeries,
    classify_drift,
    fit_tdc,
    series_from_dataset,
)
from adux.errors import InsufficientData, UnknownCategory
from adux.model import Dataset, SessionObservation, five_point
from oracles import normal_equations_fit


def _series(us, ts=None):
    ts = range(len(us)) if ts is None else ts
    return UsabilitySeries(tuple((t, float(u)) for t, u in zip(ts, us)))


class TestUsabilitySeries:
    def test_rejects_non_increasing_periods(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _series([3.0, 3.0], ts=[1, 1])

    def test_rejects_negative_periods(self):
        with pytest.raises(ValueError, match="non-negative"):
            _series([3.0, 3.0], ts=[-1, 0])


class TestSeriesFromDataset:
    def test_per_period_means(self):
        ds = Dataset(five_point(), (
            SessionObservation("s1", "chat", 0, 4),
            SessionObservation("s2", "chat", 0, 4),
            SessionObservation("s3", "chat", 1, 2),
        ))
        series = series_from_dataset(ds.counts(), "chat")
        assert series.points == ((0, 4.0), (1, 2.0))

    def test_single_period_series_fits_later_fail(self):
        ds = Dataset(five_point(), (SessionObservation("s1", "chat", 3, 4),))
        series = series_from_dataset(ds.counts(), "chat")
        assert len(series) == 1
        with pytest.raises(InsufficientData):
            fit_tdc(series)

    def test_unknown_category(self):
        ds = Dataset(five_point(), (SessionObservation("s1", "chat", 0, 4),))
        with pytest.raises(UnknownCategory, match="'email'"):
            series_from_dataset(ds.counts(), "email")

    def test_gaps_are_skipped_not_imputed(self):
        ds = Dataset(five_point(), (
            SessionObservation("s1", "chat", 0, 2),
            SessionObservation("s2", "chat", 7, 4),
        ))
        assert series_from_dataset(ds.counts(), "chat").points == ((0, 2.0), (7, 4.0))


class TestFitTdc:
    def test_exact_rising_line(self):
        fit = fit_tdc(_series([2.0, 2.5, 3.0, 3.5, 4.0]))
        assert fit.beta1 == 0.5
        assert fit.beta0 == 2.0
        assert fit.residual_sd == 0.0
        assert fit.r_squared == 1.0
        assert fit.stderr_beta1 == 0.0
        assert fit.ci95_beta1 == (0.5, 0.5)
        assert fit.n_points == 5

    def test_constant_series(self):
        fit = fit_tdc(_series([3.0] * 5))
        assert fit.beta1 == 0.0
        assert fit.r_squared == 0.0  # defined as 0 when SST is 0

    def test_four_points_insufficient(self):
        with pytest.raises(InsufficientData, match="5"):
            fit_tdc(_series([2.0, 2.5, 3.0, 3.5]))

    def test_matches_normal_equations_oracle_on_noisy_series(self):
        rng = np.random.default_rng(314)
        ts = list(range(9))
        us = [3.0 + 0.2 * t + rng.normal(0, 0.3) for t in ts]
        fit = fit_tdc(_series(us, ts))
        beta0, beta1 = normal_equations_fit(ts, us)
        assert fit.beta1 == pytest.approx(beta1, abs=1e-9)
        assert fit.beta0 == pytest.approx(beta0, abs=1e-9)

    def test_stderr_formula(self):
        # residual_sd / sqrt(Sxx) recomputed by hand
        us = [2.0, 2.7, 2.9, 3.6, 4.1, 4.2]
        fit = fit_tdc(_series(us))
        ts = np.arange(6.0)
        resid = np.array(us) - (fit.beta0 + fit.beta1 * ts)
        sd = np.sqrt((resid ** 2).sum() / 4)
        sxx = ((ts - ts.mean()) ** 2).sum()
        assert fit.residual_sd == pytest.approx(sd, rel=1e-12)
        assert fit.stderr_beta1 == pytest.approx(sd / np.sqrt(sxx), rel=1e-12)

    def test_fit_validation(self):
        with pytest.raises(ValueError, match="contain"):
            TdcFit(beta0=0.0, beta1=1.0, stderr_beta1=0.1, ci95_beta1=(2.0, 3.0),
                   residual_sd=0.1, r_squared=0.5, n_points=5)


class TestClassifyDrift:
    def test_exact_rising_line_positive(self):
        assert classify_drift(fit_tdc(_series([2.0, 2.5, 3.0, 3.5, 4.0]))) \
            is DriftDirection.POSITIVE

    def test_exact_falling_line_negative(self):
        assert classify_drift(fit_tdc(_series([4.0, 3.5, 3.0, 2.5, 2.0]))) \
            is DriftDirection.NEGATIVE

    def test_flat_noisy_series_indeterminate(self):
        rng = np.random.default_rng(77)
        us = [3.0 + rng.normal(0, 0.4) for _ in range(8)]
        fit = fit_tdc(_series(us))
        lo, hi = fit.ci95_beta1
        assert lo < 0.0 < hi  # seed chosen blind; CI straddles the true slope 0
        assert classify_drift(fit) is DriftDirection.INDETERMINATE


@st.composite
def noisy_series(draw):
    n = draw(st.integers(min_value=5, max_value=20))
    us = draw(st.lists(
        st.floats(min_value=-100.0, max_value=100.0), min_size=n, max_size=n))
    return _series(us)


class TestFitProperties:
    @given(noisy_series(), st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=100)
    def test_shift_in_u_moves_intercept_only(self, series, c):
        base = fit_tdc(series)
        shifted = fit_tdc(UsabilitySeries(
            tuple((t, u + c) for t, u in series.points)))
        assert shifted.beta1 == pytest.approx(base.beta1, rel=1e-9, abs=1e-9)
        assert shifted.beta0 == pytest.approx(base.beta0 + c, rel=1e-9, abs=1e-9)

    @given(noisy_series(), st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=100)
    def test_scaling_u_scales_slope(self, series, k):
        base = fit_tdc(series)
        scaled = fit_tdc(UsabilitySeries(
            tuple((t, u * k) for t, u in series.points)))
        assert scaled.beta1 == pytest.approx(base.beta1 * k, rel=1e-9, abs=1e-9)

    @given(noisy_series())
    @settings(max_examples=100)
    def test_time_reversal_negates_slope(self, series):
        base = fit_tdc(series)
        reversed_series = UsabilitySeries(tuple(
            (t, u) for t, u in zip(
                (t for t, _ in series.points),
                reversed([u for _, u in series.points]),
            )
        ))
        flipped = fit_tdc(reversed_series)
        assert flipped.beta1 == pytest.approx(-base.beta1, rel=1e-9, abs=1e-9)

    @given(noisy_series())
    @settings(max_examples=100)
    def test_r_squared_in_unit_interval(self, series):
        assert 0.0 <= fit_tdc(series).r_squared <= 1.0
