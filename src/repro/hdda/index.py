"""Hierarchical index space for the HDDA.

Maps every (level, coordinate) pair and every bounding box of the adaptive
grid hierarchy to a single integer key on one global space-filling curve.
Construction: promote coordinates to the finest-level index space (multiply
by ``refine_factor`` per remaining level), encode with the chosen curve, then
append the level number in the low bits so co-located entities on different
levels get distinct keys while staying adjacent on the curve -- this is how
the HDDA keeps inter-level locality (a fine patch hashes next to the coarse
region it refines).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.util.errors import GeometryError, HDDAError
from repro.util.geometry import Box, BoxList
from repro.util.sfc import (
    hilbert_encode,
    hilbert_encode_many,
    morton_encode,
    morton_encode_many,
)

__all__ = ["HierarchicalIndexSpace"]


class HierarchicalIndexSpace:
    """SFC-based global index space over an adaptive grid hierarchy.

    Parameters
    ----------
    domain:
        The level-0 computational domain (a single box with lower corner at
        the origin).
    max_levels:
        Number of refinement levels the space must address (level indices
        ``0 .. max_levels-1``).
    refine_factor:
        Refinement ratio between consecutive levels.
    curve:
        ``"hilbert"`` (default, better locality) or ``"morton"``.
    """

    def __init__(
        self,
        domain: Box,
        max_levels: int = 4,
        refine_factor: int = 2,
        curve: str = "hilbert",
    ):
        if domain.level != 0:
            raise HDDAError("index-space domain must be a level-0 box")
        if any(l != 0 for l in domain.lower):
            raise HDDAError("index-space domain must start at the origin")
        if max_levels < 1:
            raise HDDAError(f"max_levels must be >= 1, got {max_levels}")
        if refine_factor < 2:
            raise HDDAError(f"refine_factor must be >= 2, got {refine_factor}")
        if curve not in ("hilbert", "morton"):
            raise HDDAError(f"unknown curve {curve!r}")
        self.domain = domain
        self.max_levels = max_levels
        self.refine_factor = refine_factor
        self.curve = curve

        self._finest = max_levels - 1
        finest_extent = max(domain.shape) * refine_factor**self._finest
        bits = 1
        while (1 << bits) < finest_extent:
            bits += 1
        self._bits = bits
        self._level_bits = max(1, (max_levels - 1).bit_length())
        if (bits * domain.ndim + self._level_bits) > 62:
            raise HDDAError(
                "domain too large to index with 62-bit keys: "
                f"bits={bits}, ndim={domain.ndim}, level_bits={self._level_bits}"
            )

    # ------------------------------------------------------------------
    @property
    def bits_per_axis(self) -> int:
        """Bits used per axis at the finest level."""
        return self._bits

    def _encode(self, coords: Sequence[int]) -> int:
        if self.curve == "hilbert":
            return hilbert_encode(coords, self._bits)
        return morton_encode(coords, self._bits)

    def _promote(self, coords: Sequence[int], level: int) -> tuple[int, ...]:
        scale = self.refine_factor ** (self._finest - level)
        return tuple(c * scale for c in coords)

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.max_levels:
            raise HDDAError(
                f"level {level} outside [0, {self.max_levels}) for this space"
            )

    # ------------------------------------------------------------------
    def key_for_point(self, coords: Sequence[int], level: int) -> int:
        """Global key of a single cell at ``level``."""
        self._check_level(level)
        try:
            promoted = self._promote(coords, level)
            curve_key = self._encode(promoted)
        except GeometryError as exc:
            raise HDDAError(f"point {tuple(coords)} not addressable: {exc}") from exc
        return (curve_key << self._level_bits) | level

    def key_for_box(self, box: Box) -> int:
        """Global key of a box: the key of its lower corner at its level.

        Lower-corner keys give a locality-preserving total order over blocks;
        two boxes may share a corner only across levels, and the level bits
        keep those distinct.
        """
        self._check_level(box.level)
        return self.key_for_point(box.lower, box.level)

    def keys_for_boxes(self, boxes: BoxList) -> list[int]:
        """:meth:`key_for_box` of every box, encoded in one batch over the
        lower-corner columns."""
        arr = boxes.array
        if len(arr) and int(arr.level.max()) < self.max_levels:
            scale = self.refine_factor ** (self._finest - arr.level)
            corners = arr.lower * scale[:, None]
            if corners.min() >= 0 and corners.max() < (1 << self._bits):
                encode = (
                    hilbert_encode_many
                    if self.curve == "hilbert"
                    else morton_encode_many
                )
                keys = encode(corners, self._bits) << self._level_bits
                return (keys | arr.level).tolist()
        # Nothing to encode, or a box is unaddressable: the scalar walk
        # raises for the first offender.
        return [self.key_for_box(b) for b in boxes]

    def level_of_key(self, key: int) -> int:
        """Recover the refinement level from a key."""
        if key < 0:
            raise HDDAError(f"negative key {key}")
        level = key & ((1 << self._level_bits) - 1)
        if level >= self.max_levels:
            raise HDDAError(f"key {key} encodes invalid level {level}")
        return level

    def order_boxes(self, boxes: Iterable[Box]) -> BoxList:
        """Boxes sorted by their global key (the HDDA storage order)."""
        return BoxList(sorted(boxes, key=self.key_for_box))

    def span_for_boxes(self, boxes: Iterable[Box]) -> tuple[int, int]:
        """Inclusive (min_key, max_key) span covered by a set of boxes."""
        keys = [self.key_for_box(b) for b in boxes]
        if not keys:
            raise HDDAError("span of an empty box set")
        return min(keys), max(keys)
