"""Tests for the Richardson-extrapolation refinement criterion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.flagging import richardson_indicator
from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.amr.regrid import RegridParams, build_initial_hierarchy
from repro.kernels.advection import AdvectionKernel
from repro.util.errors import GeometryError
from repro.util.geometry import Box
from tests.conftest import bounding_box


@pytest.fixture
def kernel() -> AdvectionKernel:
    return AdvectionKernel(
        velocity=(1.0, 0.0), pulse_center=(16.0, 8.0), pulse_width=2.0
    )


class TestRichardsonIndicator:
    def test_smooth_field_low_error(self, kernel):
        """A constant field has zero truncation error everywhere."""
        u = np.full((1, 16, 16), 3.0)
        ind = richardson_indicator(kernel, u, dx=1.0)
        np.testing.assert_allclose(ind, 0.0, atol=1e-14)

    def test_sharp_feature_flagged(self, kernel):
        """A discontinuity produces a localized error spike."""
        u = np.zeros((1, 32, 8))
        u[0, :16] = 1.0
        ind = richardson_indicator(kernel, u, dx=1.0)
        assert ind.shape == (32, 8)
        edge = ind[14:18, :].max()
        far = ind[4:8, :].max()
        assert edge > 10 * max(far, 1e-12)

    def test_static_field_zero(self):
        k = AdvectionKernel(velocity=(0.0, 0.0))
        u = np.random.default_rng(0).random((1, 8, 8))
        ind = richardson_indicator(k, u, dx=1.0)
        np.testing.assert_allclose(ind, 0.0, atol=1e-14)

    def test_tiny_array_returns_zeros(self, kernel):
        ind = richardson_indicator(kernel, np.ones((1, 1, 1)), dx=1.0)
        np.testing.assert_array_equal(ind, 0.0)

    def test_odd_extent_fringe_padded(self, kernel):
        u = np.zeros((1, 9, 9))
        u[0, :4] = 1.0
        ind = richardson_indicator(kernel, u, dx=1.0)
        assert ind.shape == (9, 9)  # fringe included via edge padding

    def test_bad_shape_rejected(self, kernel):
        with pytest.raises(GeometryError):
            richardson_indicator(kernel, np.ones(8), dx=1.0)


class TestRichardsonRegrid:
    def test_hierarchy_refines_moving_pulse(self, kernel):
        h = GridHierarchy(Box((0, 0), (32, 16)), kernel, max_levels=2)
        params = RegridParams(flag_threshold=1e-4, criterion="richardson")
        build_initial_hierarchy(h, params)
        assert h.num_levels == 2
        assert h.proper_nesting_ok()
        # Refinement hugs the pulse at x=16.
        frame = bounding_box(h.levels[1].boxes)
        center_x = (frame.lower[0] + frame.upper[0]) / 4
        assert 10 < center_x < 22

    def test_integration_runs_under_richardson(self, kernel):
        h = GridHierarchy(Box((0, 0), (32, 16)), kernel, max_levels=2)
        integ = BergerOligerIntegrator(
            h,
            regrid_interval=3,
            regrid_params=RegridParams(
                flag_threshold=1e-4, criterion="richardson"
            ),
        )
        integ.setup()
        integ.run(6)
        assert h.proper_nesting_ok()
        assert h.num_levels == 2

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            RegridParams(criterion="psychic")
