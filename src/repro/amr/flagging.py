"""Error estimation and cell tagging (regrid step 1).

The regrid operation starts by "flagging regions needing refinement based
on an application specific error criterion".  The criterion itself lives in
the kernel (:meth:`repro.amr.api.AmrKernel.error_indicator`); this module
turns indicator fields into flag masks and collects flags across a level,
with optional buffering so features cannot escape the refined region
between regrids.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.amr.api import AmrKernel
from repro.amr.level import GridLevel
from repro.util.errors import GeometryError
from repro.util.geometry import Box

__all__ = [
    "flag_patch",
    "flag_level",
    "buffer_flags",
    "richardson_indicator",
    "coverage_mask",
]


def richardson_indicator(
    kernel: AmrKernel,
    data: np.ndarray,
    dx: float,
    factor: int = 2,
    cfl: float = 0.4,
) -> np.ndarray:
    """Richardson-extrapolation truncation-error estimate (Berger-Oliger).

    Advance the data twice with step ``dt`` on the given grid and once with
    ``factor * dt`` on a ``factor``-times coarsened copy; where the scheme
    is resolving the solution the two agree to the scheme's order, so their
    pointwise difference estimates the local truncation error.  This is the
    paper-era alternative to gradient-based criteria: it flags wherever the
    *numerics* struggle, not merely where gradients are large.

    ``data`` has shape ``(num_fields, *spatial)``; spatial extents not
    divisible by ``factor`` are handled by estimating on the aligned core
    and edge-padding the fringe.  Returns a non-negative per-cell scalar.
    """
    from repro.amr.intergrid import prolong, restrict  # avoid import cycle

    if data.ndim < 2:
        raise GeometryError("expected (num_fields, *spatial) data")
    spatial = data.shape[1:]
    core = tuple((s // factor) * factor for s in spatial)
    if any(c < factor for c in core):
        return np.zeros(spatial)  # too small to coarsen: nothing to flag
    core_sl = (slice(None),) + tuple(slice(0, c) for c in core)
    u = data[core_sl]
    dt = kernel.stable_dt(u, dx, cfl)
    if not np.isfinite(dt):
        return np.zeros(spatial)  # static field: no truncation error
    fine = kernel.step(kernel.step(u, dt, dx), dt, dx)
    coarse = kernel.step(restrict(u, factor), factor * dt, factor * dx)
    diff = np.abs(fine - prolong(coarse, factor)).sum(axis=0)
    out = np.zeros(spatial)
    out[tuple(slice(0, c) for c in core)] = diff
    # Edge-pad the unaligned fringe with the nearest estimated value.
    for axis, (s, c) in enumerate(zip(spatial, core)):
        if s > c:
            src = [slice(None)] * len(spatial)
            dst = [slice(None)] * len(spatial)
            src[axis] = slice(c - 1, c)
            dst[axis] = slice(c, s)
            out[tuple(dst)] = out[tuple(src)]
    return out


def flag_patch(
    kernel: AmrKernel, interior: np.ndarray, dx: float, threshold: float
) -> np.ndarray:
    """Boolean flag mask for one patch's interior data."""
    if threshold < 0:
        raise GeometryError(f"negative flag threshold {threshold}")
    indicator = kernel.error_indicator(interior, dx)
    if indicator.shape != interior.shape[1:]:
        raise GeometryError(
            f"error indicator shape {indicator.shape} does not match the "
            f"patch spatial shape {interior.shape[1:]}"
        )
    return indicator > threshold


def buffer_flags(flags: np.ndarray, buffer_cells: int) -> np.ndarray:
    """Dilate the flag mask by ``buffer_cells`` so moving features stay
    inside the refined region until the next regrid.

    A cell ends up flagged when a flagged cell lies within
    ``buffer_cells`` of it along every axis (a ``(2k+1)^ndim`` cube;
    nothing outside the mask counts).  The cube is separable, so the
    dilation is one pass of shifted ORs per axis.
    """
    if buffer_cells < 0:
        raise GeometryError(f"negative flag buffer {buffer_cells}")
    if buffer_cells == 0 or not flags.any():
        return flags
    out = flags.astype(bool)
    for axis in range(out.ndim):
        src = out.copy()
        lead = (slice(None),) * axis
        for shift in range(1, buffer_cells + 1):
            out[lead + (slice(shift, None),)] |= src[lead + (slice(None, -shift),)]
            out[lead + (slice(None, -shift),)] |= src[lead + (slice(shift, None),)]
    return out


def coverage_mask(level: GridLevel, frame: Box) -> np.ndarray:
    """Boolean mask over ``frame``: True where the level has patches."""
    mask = np.zeros(frame.shape, dtype=bool)
    for patch in level:
        region = patch.box.intersection(frame)
        if region is not None:
            mask[region.slices(origin=frame.lower)] = True
    return mask


def flag_level(
    kernel: AmrKernel,
    level: GridLevel,
    dx: float,
    threshold: float,
    buffer_cells: int = 1,
    bounding: Box | None = None,
    fetch=None,
    indicator_fn=None,
) -> tuple[np.ndarray, Box] | None:
    """Collect flags over a level into one mask.

    Returns ``(mask, frame)`` where ``frame`` is the bounding box (in the
    level's index space) that the mask covers, or ``None`` when nothing is
    flagged.  ``bounding`` clips flags to a region (the domain).

    When ``fetch`` (a composite-grid reader, e.g.
    :meth:`repro.amr.ghost.GhostFiller.fetch`) is given, the error
    indicator is evaluated once on the composite data of the frame (grown
    by one cell where the domain allows, so gradients at internal patch
    edges are two-sided).  This makes flagging independent of the patch
    layout -- the property that lets a partitioner re-tile the hierarchy
    without perturbing the numerics.  Without ``fetch``, indicators are
    computed per patch (one-sided at patch edges).

    ``indicator_fn(data, dx) -> spatial array`` overrides the kernel's own
    error indicator on the composite path (e.g. a
    :func:`richardson_indicator` closure).
    """
    if len(level) == 0:
        return None
    frame = functools.reduce(Box.bounding_union, (p.box for p in level))
    if bounding is not None:
        clipped = frame.intersection(bounding)
        if clipped is None:
            return None
        frame = clipped
    if fetch is not None:
        read_frame = frame.grow(1)
        if bounding is not None:
            read_frame = read_frame.intersection(bounding)
        data = fetch(read_frame, frame.level)
        if indicator_fn is not None:
            indicator = indicator_fn(data, dx)
        else:
            indicator = kernel.error_indicator(data, dx)
        sl = frame.slices(origin=read_frame.lower)
        mask = indicator[sl] > threshold
    else:
        mask = np.zeros(frame.shape, dtype=bool)
        for patch in level:
            region = patch.box.intersection(frame)
            if region is None:
                continue
            flags = flag_patch(kernel, patch.interior, dx, threshold)
            patch_sl = region.slices(origin=patch.box.lower)
            frame_sl = region.slices(origin=frame.lower)
            mask[frame_sl] |= flags[patch_sl]
    # Only cells the level actually covers are refinable (keeps children
    # nested when the level footprint is sparse).
    mask &= coverage_mask(level, frame)
    if not mask.any():
        return None
    mask = buffer_flags(mask, buffer_cells)
    mask &= coverage_mask(level, frame)
    return mask, frame
