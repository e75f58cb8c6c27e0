"""Berger-Oliger time integration with subcycling.

The recursive scheme of section 3: each level advances with its own time
step (``dt_level = dt0 / refine_factor**level``); a fine level takes
``refine_factor`` substeps per parent step, after which fine data is
restricted onto the parent.  Ghost frames are refilled before every kernel
application (periodically wrapped or outflow-replicated at the physical
boundary, prolonged from coarser data at internal fine-grid boundaries).

The integrator also owns the regrid cadence: the paper's experiments regrid
every few iterations ("the application regrid[s] every 5 iterations"), which
is exactly when the partitioner is invoked in the full runtime.
"""

from __future__ import annotations

from typing import Callable

from repro.amr.ghost import GhostFiller
from repro.amr.hierarchy import GridHierarchy
from repro.amr.regrid import RegridParams, build_initial_hierarchy, regrid_hierarchy
from repro.util.errors import KernelError

__all__ = ["BergerOligerIntegrator"]


class BergerOligerIntegrator:
    """Drives a hierarchy + kernel through adaptive time steps.

    Parameters
    ----------
    hierarchy:
        The grid hierarchy (need not be initialized yet; see :meth:`setup`).
    cfl:
        Courant number for the stable-step computation.
    regrid_interval:
        Regrid every this many coarse steps (paper experiments use 5);
        0 disables regridding.
    regrid_params:
        Flagging/clustering knobs.
    on_regrid:
        Optional callback invoked after each regrid with the hierarchy --
        the hook the partitioning runtime attaches to.
    """

    def __init__(
        self,
        hierarchy: GridHierarchy,
        cfl: float = 0.4,
        regrid_interval: int = 5,
        regrid_params: RegridParams | None = None,
        on_regrid: Callable[[GridHierarchy], None] | None = None,
    ):
        if not 0 < cfl <= 1:
            raise KernelError(f"cfl must be in (0, 1], got {cfl}")
        if regrid_interval < 0:
            raise KernelError(f"negative regrid_interval {regrid_interval}")
        self.hierarchy = hierarchy
        self.cfl = cfl
        self.regrid_interval = regrid_interval
        self.regrid_params = regrid_params or RegridParams()
        self.on_regrid = on_regrid
        self.filler = GhostFiller(hierarchy)
        self.num_regrids = 0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Build the initial hierarchy from the kernel's initial condition."""
        build_initial_hierarchy(self.hierarchy, self.regrid_params)
        self.num_regrids += 1
        if self.on_regrid is not None:
            self.on_regrid(self.hierarchy)

    def stable_dt(self) -> float:
        """Largest level-0 step for which every level is CFL-stable."""
        h = self.hierarchy
        dt = float("inf")
        for lvl in h.levels:
            dx = h.cell_width(lvl.level)
            scale = h.refine_factor**lvl.level
            for patch in lvl:
                local = h.kernel.stable_dt(patch.interior, dx, self.cfl)
                dt = min(dt, local * scale)
        if dt <= 0 or dt != dt:  # non-positive or NaN
            raise KernelError(f"unusable stable dt {dt}")
        return dt

    # ------------------------------------------------------------------
    def advance(self, dt: float | None = None) -> float:
        """Take one coarse (level-0) step; returns the dt used.

        Regridding happens *before* the step whenever the step counter hits
        the regrid interval (and after setup has created step 0 state).
        """
        h = self.hierarchy
        if not h.levels:
            raise KernelError("hierarchy not initialized; call setup() first")
        if (
            self.regrid_interval
            and h.step_count > 0
            and h.step_count % self.regrid_interval == 0
        ):
            self.regrid()
        if dt is None:
            dt = self.stable_dt()
            if dt == float("inf"):
                dt = self.cfl * h.cell_width(0)  # static field: nominal step
        self._advance_level(0, dt)
        h.time += dt
        h.step_count += 1
        return dt

    def run(self, num_steps: int) -> None:
        """Advance ``num_steps`` coarse steps."""
        for _ in range(num_steps):
            self.advance()

    def regrid(self) -> None:
        """Rebuild the refined levels and fire the regrid hook."""
        regrid_hierarchy(self.hierarchy, self.regrid_params)
        self.num_regrids += 1
        if self.on_regrid is not None:
            self.on_regrid(self.hierarchy)

    # ------------------------------------------------------------------
    def _advance_level(self, level: int, dt: float) -> None:
        h = self.hierarchy
        dx = h.cell_width(level)
        self.filler.fill_level_ghosts(level)
        for patch in h.levels[level]:
            updated = h.kernel.step(patch.data, dt, dx)
            if updated.shape != patch.data.shape:
                raise KernelError(
                    f"kernel.step changed the array shape: {patch.data.shape}"
                    f" -> {updated.shape}"
                )
            g = patch.ghost_width
            if g:
                sl = (slice(None),) + (slice(g, -g),) * patch.box.ndim
                patch.interior = updated[sl]
            else:
                patch.data[...] = updated
        if level + 1 < h.num_levels:
            sub_dt = dt / h.refine_factor
            for _ in range(h.refine_factor):
                self._advance_level(level + 1, sub_dt)
            h.restrict_level(level + 1)
