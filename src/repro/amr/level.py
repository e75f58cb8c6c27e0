"""Grid levels: the set of patches at one refinement depth."""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.amr.patch import GridPatch
from repro.util.errors import GeometryError
from repro.util.geometry import Box, BoxList

__all__ = ["GridLevel"]


class GridLevel:
    """All patches of one refinement level.

    Invariants: every patch carries the level's index; patch boxes are
    pairwise disjoint (they may touch).  Both are enforced on mutation.
    """

    __slots__ = ("level", "patches")

    def __init__(self, level: int, patches: Sequence[GridPatch] = ()):
        if level < 0:
            raise GeometryError(f"negative level {level}")
        self.level = level
        self.patches: list[GridPatch] = []
        for p in patches:
            self.add_patch(p)

    def add_patch(self, patch: GridPatch) -> None:
        if patch.level != self.level:
            raise GeometryError(
                f"patch at level {patch.level} added to GridLevel {self.level}"
            )
        for existing in self.patches:
            if existing.box.intersects(patch.box):
                raise GeometryError(
                    f"patch {patch.box} overlaps existing {existing.box}"
                )
        self.patches.append(patch)

    def __iter__(self) -> Iterator[GridPatch]:
        return iter(self.patches)

    def __len__(self) -> int:
        return len(self.patches)

    @property
    def boxes(self) -> BoxList:
        return BoxList(p.box for p in self.patches)

    @property
    def total_cells(self) -> int:
        return sum(p.box.num_cells for p in self.patches)

    def covers(self, box: Box) -> bool:
        """True if the union of patch boxes covers every cell of ``box``."""
        remaining = [box]
        for p in self.patches:
            nxt: list[Box] = []
            for r in remaining:
                nxt.extend(r.difference(p.box))
            remaining = nxt
            if not remaining:
                return True
        return not remaining
