"""Synthetic SAMR workload traces.

Running the real RM3D kernel at the paper's 128x32x32 / 3-level scale in
pure Python costs minutes per step; the partitioning experiments, however,
consume only the *sequence of bounding-box lists* the hierarchy produces at
each regrid (plus per-box work weights derivable from level and size).  A
:class:`SyntheticWorkload` is exactly that sequence, generated
deterministically to match the qualitative dynamics of the real
application: a refined slab tracking the shocked interface, with a growing
population of instability "fingers" at the deepest level.

The trace generator below produces hierarchies that satisfy the same
structural invariants as real regrids (per-level disjointness, proper
nesting, domain containment), which the test suite verifies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList

__all__ = [
    "SyntheticWorkload",
    "paper_rm3d_trace",
    "record_workload",
]


@dataclass(frozen=True, slots=True)
class SyntheticWorkload:
    """A pre-computed sequence of per-regrid bounding-box lists.

    ``box_lists[r]`` is the flattened hierarchy (all levels) after regrid
    ``r``; the runtime replays these instead of time-stepping a kernel.
    """

    name: str
    domain: Box
    refine_factor: int
    box_lists: tuple[BoxList, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.box_lists:
            raise GeometryError(f"workload {self.name!r} has no epochs")
        for bl in self.box_lists:
            if len(bl) == 0:
                raise GeometryError(f"workload {self.name!r} has an empty epoch")

    @property
    def num_regrids(self) -> int:
        return len(self.box_lists)

    def __iter__(self) -> Iterator[BoxList]:
        return iter(self.box_lists)

    def __len__(self) -> int:
        return len(self.box_lists)

    def epoch(self, r: int) -> BoxList:
        return self.box_lists[r]

    def work_of(self, r: int) -> int:
        """Work units of epoch ``r`` (cells weighted by time subcycling)."""
        arr = self.box_lists[r].array
        return int((arr.num_cells() * self.refine_factor**arr.level).sum())

    # ------------------------------------------------------------------
    # Persistence (record once with a real kernel, replay anywhere)
    # ------------------------------------------------------------------
    def to_json(self, path: str | Path) -> None:
        """Serialize the trace to a JSON file."""
        payload = {
            "name": self.name,
            "refine_factor": self.refine_factor,
            "domain": {
                "lower": list(self.domain.lower),
                "upper": list(self.domain.upper),
            },
            "epochs": [
                [
                    {
                        "lower": list(b.lower),
                        "upper": list(b.upper),
                        "level": b.level,
                    }
                    for b in bl
                ]
                for bl in self.box_lists
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=1))

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticWorkload":
        """Load a trace written by :meth:`to_json`."""
        try:
            payload = json.loads(Path(path).read_text())
            domain = Box(
                tuple(payload["domain"]["lower"]),
                tuple(payload["domain"]["upper"]),
            )
            epochs = tuple(
                BoxList(
                    Box(tuple(b["lower"]), tuple(b["upper"]), b["level"])
                    for b in epoch
                )
                for epoch in payload["epochs"]
            )
            return cls(
                name=payload["name"],
                domain=domain,
                refine_factor=int(payload["refine_factor"]),
                box_lists=epochs,
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise GeometryError(f"invalid workload file {path}: {exc}") from exc


def record_workload(integrator, num_steps: int, name: str | None = None) -> SyntheticWorkload:
    """Capture a real AMR run's hierarchy dynamics as a replayable trace.

    Drives ``integrator`` (a set-up or fresh
    :class:`~repro.amr.integrator.BergerOligerIntegrator`) for
    ``num_steps`` coarse steps, recording the flattened bounding-box list
    at every regrid.  The result plugs straight into
    :class:`~repro.runtime.engine.SamrRuntime`: solve once with the real
    kernel, then sweep partitioners/clusters/sensing policies over the
    recorded trace without re-paying kernel FLOPs -- the same record-replay
    methodology the built-in :func:`paper_rm3d_trace` emulates
    analytically.
    """
    hierarchy = integrator.hierarchy
    epochs: list[BoxList] = []

    previous_hook = integrator.on_regrid

    def capture(h) -> None:
        epochs.append(h.box_list())
        if previous_hook is not None:
            previous_hook(h)

    integrator.on_regrid = capture
    try:
        if not hierarchy.levels:
            integrator.setup()
        elif not epochs:
            epochs.append(hierarchy.box_list())
        for _ in range(num_steps):
            integrator.advance()
    finally:
        integrator.on_regrid = previous_hook
    return SyntheticWorkload(
        name=name or f"recorded-{type(hierarchy.kernel).__name__}",
        domain=hierarchy.domain,
        refine_factor=hierarchy.refine_factor,
        box_lists=tuple(epochs),
    )


def _chop(box: Box, axis: int, pieces: int) -> list[Box]:
    """Split a box into ``pieces`` near-equal chunks along one axis."""
    if pieces <= 1 or box.shape[axis] < 2 * pieces:
        return [box]
    out = []
    extent = box.shape[axis]
    step = extent // pieces
    lo = box.lower[axis]
    rest = box
    for _ in range(pieces - 1):
        cut = lo + step
        a, rest = rest.split(axis, cut)
        out.append(a)
        lo = cut
    out.append(rest)
    return out


def paper_rm3d_trace(
    num_regrids: int = 8,
    base_shape: tuple[int, int, int] = (128, 32, 32),
    max_levels: int = 3,
    refine_factor: int = 2,
    slab_half_width: int = 8,
    max_fingers: int = 6,
) -> SyntheticWorkload:
    """Hierarchy dynamics of the paper's RM3D run.

    Epoch ``r``: the shocked interface sits at ``x = (0.4 + 0.35 f) nx``
    (``f`` the progress fraction); level 1 is a slab of half-width
    ``slab_half_width`` base cells around it (chopped into chunks so the
    partitioner has multiple units), level 2 holds ``1 + f*(max_fingers-1)``
    instability fingers inside the slab, spread across the transverse plane.
    Total refined work *grows* over the run, as the real instability's
    mixing zone does.
    """
    if num_regrids < 1:
        raise GeometryError(f"num_regrids must be >= 1, got {num_regrids}")
    if max_levels < 1:
        raise GeometryError(f"max_levels must be >= 1, got {max_levels}")
    nx, ny, nz = base_shape
    domain = Box((0, 0, 0), base_shape)
    epochs: list[BoxList] = []
    for r in range(num_regrids):
        frac = r / max(1, num_regrids - 1)
        cx = int((0.40 + 0.35 * frac) * nx)
        boxes: list[Box] = [domain]
        slab_coarse = None
        if max_levels >= 2:
            lo = max(0, cx - slab_half_width)
            hi = min(nx, cx + slab_half_width)
            slab_coarse = Box((lo, 0, 0), (hi, ny, nz))
            slab_fine = slab_coarse.refine(refine_factor)
            boxes.extend(_chop(slab_fine, axis=1, pieces=4))
        if max_levels >= 3 and slab_coarse is not None:
            # Fixed transverse slots; the instability *fills more of them*
            # as it grows, so deepest-level work increases monotonically.
            fingers = 1 + int(round(frac * (max_fingers - 1)))
            finger_half = max(2, slab_half_width // 2)
            f_lo_x = max(slab_coarse.lower[0], cx - finger_half)
            f_hi_x = min(slab_coarse.upper[0], cx + finger_half)
            slot = max(2, ny // max_fingers)
            z0, z1 = nz // 4, max(nz // 4 + 2, 3 * nz // 4)
            z1 = min(z1, nz)
            for j in range(fingers):
                y0 = j * slot + 1
                y1 = min((j + 1) * slot - 1, ny)
                if y1 <= y0:
                    continue
                finger = Box((f_lo_x, y0, z0), (f_hi_x, y1, z1))
                nested = finger.intersection(slab_coarse)
                if nested is None:
                    continue
                fine2 = nested.refine(refine_factor).refine(refine_factor)
                boxes.append(fine2)
        epochs.append(BoxList(boxes))
    return SyntheticWorkload(
        name="rm3d-trace",
        domain=domain,
        refine_factor=refine_factor,
        box_lists=tuple(epochs),
    )
