"""Tests for prolongation/restriction and flagging."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.amr.flagging import buffer_flags, flag_patch
from repro.amr.intergrid import prolong, restrict
from repro.kernels.advection import AdvectionKernel
from repro.util.errors import GeometryError


class TestProlong:
    def test_shape_and_values_2d(self):
        coarse = np.arange(4, dtype=float).reshape(1, 2, 2)
        fine = prolong(coarse, 2)
        assert fine.shape == (1, 4, 4)
        assert fine[0, 0, 0] == fine[0, 1, 1] == 0.0
        assert fine[0, 2, 2] == fine[0, 3, 3] == 3.0

    def test_3d_factor_3(self):
        coarse = np.ones((2, 2, 2, 2))
        fine = prolong(coarse, 3)
        assert fine.shape == (2, 6, 6, 6)
        assert (fine == 1.0).all()

    def test_guards(self):
        with pytest.raises(GeometryError):
            prolong(np.ones((1, 2)), 1)
        with pytest.raises(GeometryError):
            prolong(np.ones(4), 2)


class TestRestrict:
    def test_mean_of_children(self):
        fine = np.zeros((1, 2, 2))
        fine[0] = [[1.0, 2.0], [3.0, 4.0]]
        coarse = restrict(fine, 2)
        assert coarse.shape == (1, 1, 1)
        assert coarse[0, 0, 0] == pytest.approx(2.5)

    def test_indivisible_rejected(self):
        with pytest.raises(GeometryError):
            restrict(np.ones((1, 3, 4)), 2)

    def test_guards(self):
        with pytest.raises(GeometryError):
            restrict(np.ones((1, 4)), 0)
        with pytest.raises(GeometryError):
            restrict(np.ones(4), 2)


@settings(max_examples=60)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([2, 3]),
)
def test_restrict_prolong_adjoint_conserves(nf, a, b, factor):
    """restrict(prolong(x)) == x and both conserve the integral."""
    rng = np.random.default_rng(a * 100 + b)
    coarse = rng.random((nf, a, b))
    fine = prolong(coarse, factor)
    np.testing.assert_allclose(restrict(fine, factor), coarse)
    # Conservation: fine integral (with cell volume 1/factor^ndim) matches.
    assert fine.sum() / factor**2 == pytest.approx(coarse.sum())


class TestFlagging:
    def test_flag_patch_thresholds_gradient(self):
        k = AdvectionKernel(velocity=(1.0, 0.0))
        u = np.zeros((1, 8, 8))
        u[0, :, :4] = 1.0  # sharp edge at column 4
        flags = flag_patch(k, u, dx=1.0, threshold=0.25)
        assert flags.shape == (8, 8)
        assert flags[:, 3:5].all()
        assert not flags[:, 0].any() and not flags[:, 7].any()

    def test_negative_threshold_rejected(self):
        k = AdvectionKernel(velocity=(1.0, 0.0))
        with pytest.raises(GeometryError):
            flag_patch(k, np.zeros((1, 4, 4)), 1.0, -0.1)

    def test_buffer_dilates(self):
        flags = np.zeros((9, 9), dtype=bool)
        flags[4, 4] = True
        out = buffer_flags(flags, 2)
        assert out[2:7, 2:7].all()
        assert out.sum() == 25
        assert not out[0, 0]

    def test_buffer_zero_identity(self):
        flags = np.zeros((4, 4), dtype=bool)
        flags[1, 1] = True
        assert buffer_flags(flags, 0) is flags

    def test_buffer_negative_rejected(self):
        with pytest.raises(GeometryError):
            buffer_flags(np.zeros((2, 2), dtype=bool), -1)


def reference_buffer(flags: np.ndarray, k: int) -> np.ndarray:
    """Per cell: any flag in the ``(2k+1)^ndim`` window around it, with
    nothing flagged outside the mask."""
    out = np.zeros_like(flags)
    for idx in np.ndindex(flags.shape):
        window = tuple(slice(max(0, i - k), i + k + 1) for i in idx)
        out[idx] = flags[window].any()
    return out


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        bool,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=7),
        elements=st.booleans(),
    ),
    st.integers(0, 4),
)
def test_buffer_matches_brute_force_window(flags, k):
    """Covers 1-3-D masks, k = 0..4 and k at or beyond an axis length."""
    out = buffer_flags(flags, k)
    assert out.dtype == bool and out.shape == flags.shape
    np.testing.assert_array_equal(out, reference_buffer(flags, k))
