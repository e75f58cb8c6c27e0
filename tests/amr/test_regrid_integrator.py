"""Integration tests: regridding and Berger-Oliger time stepping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.amr.hierarchy import GridHierarchy
from repro.amr.integrator import BergerOligerIntegrator
from repro.amr.regrid import build_initial_hierarchy, regrid_hierarchy
from repro.kernels.advection import AdvectionKernel
from repro.util.errors import KernelError
from repro.util.geometry import Box


def make_hierarchy(max_levels: int = 3, size: int = 32) -> GridHierarchy:
    k = AdvectionKernel(
        velocity=(1.0, 0.5), pulse_center=(8.0, 8.0), pulse_width=2.0
    )
    return GridHierarchy(Box((0, 0), (size, size)), k, max_levels=max_levels)


class TestRegrid:
    def test_build_initial_hierarchy_reaches_max_levels(self):
        h = make_hierarchy()
        build_initial_hierarchy(h)
        assert h.num_levels == 3
        assert h.proper_nesting_ok()
        # Refined levels hug the pulse at (8, 8).
        for lvl in h.levels[1:]:
            frame = lvl.boxes.bounding_box()
            scale = 2**lvl.level
            center = tuple((l + u) / (2 * scale) for l, u in zip(frame.lower, frame.upper))
            assert abs(center[0] - 8) < 6 and abs(center[1] - 8) < 6

    def test_regrid_tracks_feature(self):
        """After overwriting the solution with a pulse elsewhere, regrid
        moves the fine levels to the new location."""
        h = make_hierarchy()
        build_initial_hierarchy(h)
        k = h.kernel
        # Overwrite level-0 with a pulse at (24, 24) and regrid.
        k2 = AdvectionKernel(
            velocity=(1.0, 0.5), pulse_center=(24.0, 24.0), pulse_width=2.0
        )
        h.levels[0].patches[0].interior = k2.initial_condition(h.domain, 1.0)
        # Clear fine data too so old flags vanish.
        for lvl in h.levels[1:]:
            for p in lvl:
                p.interior = np.zeros_like(p.interior)
        regrid_hierarchy(h)
        assert h.proper_nesting_ok()
        frame = h.levels[1].boxes.bounding_box()
        center_x = (frame.lower[0] + frame.upper[0]) / 4  # /2 for level scale
        assert center_x > 16  # moved toward (24, 24)

    def test_no_flags_removes_fine_levels(self):
        h = make_hierarchy()
        build_initial_hierarchy(h)
        assert h.num_levels > 1
        # Flatten the solution: nothing left to refine.
        h.levels[0].patches[0].interior = np.zeros((1, 32, 32))
        for lvl in h.levels[1:]:
            for p in lvl:
                p.interior = np.zeros_like(p.interior)
        regrid_hierarchy(h)
        assert h.num_levels == 1

    def test_max_levels_respected(self):
        h = make_hierarchy(max_levels=2)
        build_initial_hierarchy(h)
        assert h.num_levels <= 2


class TestIntegrator:
    def test_setup_fires_regrid_hook(self):
        h = make_hierarchy()
        seen = []
        integ = BergerOligerIntegrator(h, on_regrid=lambda hh: seen.append(hh.num_levels))
        integ.setup()
        assert seen and seen[-1] == h.num_levels

    def test_param_guards(self):
        h = make_hierarchy()
        with pytest.raises(KernelError):
            BergerOligerIntegrator(h, cfl=0.0)
        with pytest.raises(KernelError):
            BergerOligerIntegrator(h, cfl=1.5)
        with pytest.raises(KernelError):
            BergerOligerIntegrator(h, cfl=math.nan)
        with pytest.raises(KernelError):
            BergerOligerIntegrator(h, regrid_interval=-1)

    def test_advance_before_setup_rejected(self):
        integ = BergerOligerIntegrator(make_hierarchy())
        with pytest.raises(KernelError):
            integ.advance()

    def test_stable_dt_respects_finest_level(self):
        h = make_hierarchy()
        integ = BergerOligerIntegrator(h)
        integ.setup()
        dt = integ.stable_dt()
        # Finest level (2) has dx = 0.25; with speed 1 and cfl 0.4 its local
        # limit is 0.1, times subcycle scale 4 -> 0.4 at level 0.
        assert dt == pytest.approx(0.4)

    def test_steps_advance_time_and_counters(self):
        h = make_hierarchy()
        integ = BergerOligerIntegrator(h, regrid_interval=2)
        integ.setup()
        regrids_before = integ.num_regrids
        integ.run(5)
        assert h.step_count == 5
        assert h.time == pytest.approx(5 * 0.4)
        assert integ.num_regrids == regrids_before + 2  # at steps 2 and 4

    def test_pulse_advects_and_peak_survives(self):
        """The refined pulse moves at the right speed and AMR keeps its
        amplitude better than the coarse-only run (the point of refining)."""
        h = make_hierarchy()
        integ = BergerOligerIntegrator(h, regrid_interval=2)
        integ.setup()
        for _ in range(10):
            integ.advance()
        t = h.time
        expect = (8.0 + 1.0 * t, 8.0 + 0.5 * t)
        # Locate the maximum on the composite grid via level 0.
        u0 = h.levels[0].patches[0].interior[0]
        peak = np.unravel_index(np.argmax(u0), u0.shape)
        assert abs(peak[0] + 0.5 - expect[0]) <= 2.0
        assert abs(peak[1] + 0.5 - expect[1]) <= 2.0
        assert u0.max() > 0.35  # first-order coarse-only decays much harder

    def test_regrid_disabled(self):
        h = make_hierarchy()
        integ = BergerOligerIntegrator(h, regrid_interval=0)
        integ.setup()
        n = integ.num_regrids
        integ.run(4)
        assert integ.num_regrids == n

    def test_mass_conservation_periodic(self):
        """Total level-0 'mass' is conserved under periodic advection
        (upwind + restriction are conservative on the torus)."""
        h = make_hierarchy()
        integ = BergerOligerIntegrator(h, regrid_interval=3)
        integ.setup()
        m0 = h.levels[0].patches[0].interior.sum()
        integ.run(6)
        m1 = h.levels[0].patches[0].interior.sum()
        assert m1 == pytest.approx(m0, rel=0.02)
