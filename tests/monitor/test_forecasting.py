"""Tests for the NWS-style forecaster suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.forecasting import (
    AdaptiveEnsembleForecaster,
    ARForecaster,
    LastValueForecaster,
    ModelBackedForecaster,
    SlidingMeanForecaster,
    SlidingMedianForecaster,
    make_forecaster,
)
from repro.telemetry.spans import Tracer, activate
from repro.util.errors import MonitorError

ALL_KINDS = ["last", "mean", "median", "ar", "adaptive", "model"]


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestCommonContract:
    def test_empty_history_raises(self, kind):
        with pytest.raises(MonitorError):
            make_forecaster(kind).forecast()

    def test_single_value_echoed(self, kind):
        f = make_forecaster(kind)
        f.update(0.42)
        assert f.forecast() == pytest.approx(0.42)

    def test_constant_series_predicted_exactly(self, kind):
        f = make_forecaster(kind)
        for _ in range(30):
            f.update(7.5)
        assert f.forecast() == pytest.approx(7.5)


class TestLastValue:
    def test_tracks_latest(self):
        f = LastValueForecaster()
        for v in (1.0, 5.0, 2.0):
            f.update(v)
        assert f.forecast() == 2.0


class TestSlidingMean:
    def test_window_limits_memory(self):
        f = SlidingMeanForecaster(window=3)
        for v in (100.0, 1.0, 2.0, 3.0):
            f.update(v)
        assert f.forecast() == pytest.approx(2.0)

    def test_bad_window(self):
        with pytest.raises(MonitorError):
            SlidingMeanForecaster(0)


class TestSlidingMedian:
    def test_robust_to_spike(self):
        f = SlidingMedianForecaster(window=5)
        for v in (1.0, 1.0, 50.0, 1.0, 1.0):
            f.update(v)
        assert f.forecast() == 1.0

    def test_bad_window(self):
        with pytest.raises(MonitorError):
            SlidingMedianForecaster(-1)


class TestAR:
    def test_mean_reversion_prediction(self):
        """An alternating series has rho ~ -1: forecast flips toward mean."""
        f = ARForecaster(window=20)
        for i in range(20):
            f.update(1.0 if i % 2 == 0 else -1.0)
        # Last value was -1 (i=19); AR(1) with rho=-1 predicts +1.
        assert f.forecast() == pytest.approx(1.0, abs=0.15)

    def test_trending_series_follows(self):
        f = ARForecaster(window=10)
        for v in np.linspace(0, 1, 10):
            f.update(float(v))
        assert f.forecast() > 0.5

    def test_bad_window(self):
        with pytest.raises(MonitorError):
            ARForecaster(window=2)


class TestAdaptiveEnsemble:
    def test_picks_last_value_for_random_walk(self):
        """On a random walk, last-value has the lowest one-step error."""
        rng = np.random.default_rng(0)
        f = AdaptiveEnsembleForecaster()
        x = 0.0
        for _ in range(200):
            x += float(rng.normal(0, 1))
            f.update(x)
        assert isinstance(f.members[f.best_member_index()], LastValueForecaster)

    def test_picks_robust_member_for_spiky_series(self):
        """Occasional huge spikes favour the median over last-value."""
        rng = np.random.default_rng(1)
        f = AdaptiveEnsembleForecaster()
        for i in range(300):
            v = 1.0 + float(rng.normal(0, 0.01))
            if rng.random() < 0.1:
                v = 100.0
            f.update(v)
        best = f.members[f.best_member_index()]
        assert isinstance(best, SlidingMedianForecaster)

    def test_empty_members_rejected(self):
        with pytest.raises(MonitorError):
            AdaptiveEnsembleForecaster(members=[])


class TestModelBacked:
    def test_tracks_linear_ramp(self):
        f = ModelBackedForecaster(window=10)
        for v in np.linspace(0.1, 1.0, 10):
            f.update(float(v))
        # Extrapolates the fitted trend one step past the last value.
        assert f.forecast() > 1.0

    def test_cold_degrades_to_last_value(self):
        f = ModelBackedForecaster(min_points=4)
        f.update(0.3)
        f.update(0.7)
        assert f.forecast() == pytest.approx(0.7)

    def test_cold_degrade_emits_event(self):
        tracer = Tracer()
        f = ModelBackedForecaster(min_points=4)
        f.update(0.5)
        with activate(tracer):
            f.forecast()
        cold = [e for e in tracer.events if e.name == "forecast.cold"]
        assert len(cold) == 1
        assert cold[0].attributes["forecaster"] == "ModelBackedForecaster"
        assert cold[0].attributes["have"] == 1

    def test_warm_forecast_emits_nothing(self):
        tracer = Tracer()
        f = ModelBackedForecaster()
        for v in np.linspace(0.1, 1.0, 10):
            f.update(float(v))
        with activate(tracer):
            f.forecast()
        assert not any(e.name == "forecast.cold" for e in tracer.events)

    def test_bad_params(self):
        with pytest.raises(MonitorError):
            ModelBackedForecaster(window=2)
        with pytest.raises(MonitorError):
            ModelBackedForecaster(min_points=2)

    def test_empty_still_raises(self):
        with pytest.raises(MonitorError):
            ModelBackedForecaster().forecast()


def test_unknown_kind_rejected():
    with pytest.raises(MonitorError):
        make_forecaster("oracle")


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=100)
@given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_forecast_stays_near_observed_range(kind, values):
    """Forecasts stay within (for averaging predictors) or near (for the
    AR extrapolator) the observed range -- the bound that keeps capacity
    fractions well-formed downstream."""
    f = make_forecaster(kind)
    for v in values:
        f.update(v)
    pred = f.forecast()
    lo, hi = min(values), max(values)
    if kind in ("last", "mean", "median"):
        assert lo - 1e-9 <= pred <= hi + 1e-9
    else:
        # AR(1) may extrapolate past the extremes, but never further than
        # one range-width (|forecast - mean| <= |last - mean| <= range).
        span = hi - lo
        assert lo - span - 1e-9 <= pred <= hi + span + 1e-9
