"""Least-squares cost/capacity model tests (repro.learn.models)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learn import (
    OnlineLinearModel,
    OnlineMeanModel,
    TransientCapacityModel,
)
from repro.util.errors import ExperimentError

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestOnlineLinear:
    def test_recovers_exact_line(self):
        m = OnlineLinearModel()
        for x in range(10):
            m.observe(x, 3.0 + 2.0 * x)
        assert not m.is_cold
        assert m.slope == pytest.approx(2.0)
        assert m.intercept == pytest.approx(3.0)
        assert m.predict(20.0) == pytest.approx(43.0)
        assert m.residual_variance() == pytest.approx(0.0, abs=1e-9)

    def test_matches_numpy_polyfit(self, rng):
        xs = rng.uniform(0, 100, size=50)
        ys = 1.5 + 0.25 * xs + rng.normal(0, 0.5, size=50)
        m = OnlineLinearModel()
        for x, y in zip(xs, ys):
            m.observe(x, y)
        slope, intercept = np.polyfit(xs, ys, 1)
        assert m.slope == pytest.approx(slope, rel=1e-9)
        assert m.intercept == pytest.approx(intercept, rel=1e-9)

    def test_cold_below_min_points(self):
        m = OnlineLinearModel(min_points=4)
        for x in range(3):
            m.observe(x, float(x))
        assert m.is_cold
        assert m.predict(99.0) == pytest.approx(1.0)  # running mean

    def test_degenerate_x_stays_cold(self):
        m = OnlineLinearModel()
        for _ in range(10):
            m.observe(5.0, 1.0)
        assert m.is_cold

    def test_nonfinite_observation_dropped(self):
        m = OnlineLinearModel()
        m.observe(float("nan"), 1.0)
        m.observe(1.0, float("inf"))
        assert m.n == 0

    def test_interval_covers_truth_on_noisy_fit(self, rng):
        m = OnlineLinearModel()
        for x in range(40):
            m.observe(x, 2.0 + 0.5 * x + rng.normal(0, 0.1))
        lo, hi = m.slope_interval()
        assert lo < 0.5 < hi

    def test_min_points_validated(self):
        with pytest.raises(ExperimentError):
            OnlineLinearModel(min_points=2)

    @given(
        points=st.lists(
            st.tuples(finite, finite), min_size=0, max_size=30
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_serialize_roundtrip_identical(self, points):
        """fit -> to_dict -> from_dict -> identical answers, bit-exact."""
        m = OnlineLinearModel()
        for x, y in points:
            m.observe(x, y)
        restored = OnlineLinearModel.from_dict(m.to_dict())
        assert restored.is_cold == m.is_cold
        assert restored.slope == m.slope
        assert restored.intercept == m.intercept
        assert restored.predict(12.5) == m.predict(12.5)
        assert restored.to_dict() == m.to_dict()

    @given(
        points=st.lists(
            st.tuples(finite, finite), min_size=0, max_size=30
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_json_roundtrip_refit_identical(self, points):
        """The dict survives an actual JSON encode/decode unchanged."""
        import json

        m = OnlineLinearModel()
        for x, y in points:
            m.observe(x, y)
        restored = OnlineLinearModel.from_dict(
            json.loads(json.dumps(m.to_dict()))
        )
        assert restored.to_dict() == m.to_dict()
        # Continue fitting both: they must stay in lockstep.
        m.observe(1.0, 2.0)
        restored.observe(1.0, 2.0)
        assert restored.slope == m.slope


class TestOnlineMean:
    def test_mean_and_interval(self):
        m = OnlineMeanModel()
        for v in (1.0, 2.0, 3.0, 4.0):
            m.observe(v)
        assert not m.is_cold
        assert m.mean == pytest.approx(2.5)
        lo, hi = m.interval()
        assert lo < 2.5 < hi

    def test_cold_interval_infinite(self):
        m = OnlineMeanModel(min_points=3)
        m.observe(1.0)
        assert m.is_cold
        assert m.interval() == (-math.inf, math.inf)

    @given(values=st.lists(finite, min_size=0, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_serialize_roundtrip(self, values):
        m = OnlineMeanModel()
        for v in values:
            m.observe(v)
        restored = OnlineMeanModel.from_dict(m.to_dict())
        assert restored.to_dict() == m.to_dict()
        assert restored.mean == m.mean


class TestTransientCapacity:
    def test_predicts_linear_drift(self):
        m = TransientCapacityModel(num_nodes=2, window=8)
        # Node 0 ramps down, node 1 up; vectors renormalized on predict.
        for t in range(6):
            m.observe(float(t), [0.6 - 0.02 * t, 0.4 + 0.02 * t])
        assert not m.is_cold
        pred = m.predict(8.0)
        assert pred is not None
        assert pred.sum() == pytest.approx(1.0)
        assert pred[1] > pred[0] - 0.2  # node 1 catching up
        assert m.drift_rate() == pytest.approx(0.02, rel=0.05)

    def test_cold_returns_last_vector(self):
        m = TransientCapacityModel(num_nodes=2, window=8, min_points=4)
        assert m.predict(1.0) is None
        m.observe(0.0, [0.7, 0.3])
        pred = m.predict(5.0)
        assert pred == pytest.approx([0.7, 0.3])
        assert m.is_cold

    def test_floor_prevents_negative_capacity(self):
        m = TransientCapacityModel(num_nodes=2, window=8, floor=1e-3)
        for t in range(6):
            m.observe(float(t), [0.5 - 0.09 * t, 0.5 + 0.09 * t])
        pred = m.predict(50.0)  # extrapolates node 0 far below zero
        assert pred is not None
        assert (pred > 0.0).all()
        assert pred.sum() == pytest.approx(1.0)

    def test_window_evicts_old_observations(self):
        m = TransientCapacityModel(num_nodes=1, window=4)
        for t in range(10):
            m.observe(float(t), [1.0])
        assert len(m) == 4

    def test_serialize_roundtrip(self):
        m = TransientCapacityModel(num_nodes=3, window=6)
        rng = np.random.default_rng(0)
        for t in range(6):
            m.observe(float(t), rng.uniform(0.1, 0.5, size=3))
        restored = TransientCapacityModel.from_dict(m.to_dict())
        assert restored.to_dict() == m.to_dict()
        assert restored.predict(9.0) == pytest.approx(m.predict(9.0))

    def test_bad_shapes_rejected(self):
        m = TransientCapacityModel(num_nodes=2)
        with pytest.raises(ExperimentError):
            m.observe(0.0, [1.0, 2.0, 3.0])
        with pytest.raises(ExperimentError):
            TransientCapacityModel(num_nodes=0)
