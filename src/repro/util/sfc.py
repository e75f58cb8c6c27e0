"""Space-filling curves: Morton (Z-order) and Hilbert.

GrACE's HDDA derives its hierarchical index space directly from the
application domain using space-filling mappings; index locality on the curve
translates spatial application locality into storage locality.  The default
GrACE partitioner (ACEComposite) also walks the hierarchy in SFC order when it
deals out equal work shares.

Both curves map ``ndim``-dimensional non-negative integer coordinates (each
< 2**bits) to a single integer key, bijectively.  The Hilbert curve is
defined by :func:`hilbert_encode`, Skilling's transpose algorithm
("Programming the Hilbert curve", AIP Conf. Proc. 707, 2004), which needs
only bit operations and works in any dimension.

Scalar helpers operate on tuples; the ``*_many`` variants are vectorized over
NumPy coordinate arrays for bulk ordering.  :func:`hilbert_encode_many` runs
Skilling's transform as a finite-state machine over digits, most
significant level first: what one level leaves to the levels below is a
pending transform of their bits (an axis permutation with inversions) and
the Gray-code parity carry, so each level maps ``(state, coordinate
digit)`` to ``(key digit, next state)`` -- 8 states in 2-D, 48 in 3-D.
:func:`_digit_tables` derives that map from the scalar step
(:func:`_skilling_level`) on first use per ``ndim`` and composes it over
several levels, so one ``np.take`` per step reads several levels of every
row.  :func:`sfc_sort_order` then orders boxes with one sort of packed
``(key, level, row)`` values.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from repro.util.errors import GeometryError
from repro.util.geometry import BoxArray

__all__ = [
    "morton_encode",
    "morton_encode_many",
    "hilbert_encode",
    "hilbert_encode_many",
    "sfc_keys_array",
    "sfc_sort_order",
]


def _check_coords(coords: Sequence[int], bits: int) -> tuple[int, ...]:
    if bits < 1 or bits > 62:
        raise GeometryError(f"bits must be in [1, 62], got {bits}")
    out = []
    for c in coords:
        ci = int(c)
        if ci < 0 or ci >= (1 << bits):
            raise GeometryError(
                f"coordinate {c} out of range [0, 2**{bits}) for SFC encoding"
            )
        out.append(ci)
    if not out:
        raise GeometryError("empty coordinate tuple")
    return tuple(out)


# ---------------------------------------------------------------------------
# Morton (Z-order)
# ---------------------------------------------------------------------------
def morton_encode(coords: Sequence[int], bits: int) -> int:
    """Interleave the bits of ``coords`` into a single Morton key.

    Bit ``b`` of axis ``d`` lands at key bit ``b * ndim + d``.
    """
    cs = _check_coords(coords, bits)
    ndim = len(cs)
    key = 0
    for b in range(bits):
        for d, c in enumerate(cs):
            key |= ((c >> b) & 1) << (b * ndim + d)
    return key


def morton_encode_many(coords: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized Morton encoding.

    Parameters
    ----------
    coords:
        Integer array of shape ``(n, ndim)``.
    bits:
        Bits per axis; ``bits * ndim`` must be <= 62 so keys fit in int64.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2:
        raise GeometryError("coords must have shape (n, ndim)")
    n, ndim = coords.shape
    if bits * ndim > 62:
        raise GeometryError(f"bits*ndim = {bits * ndim} exceeds int64 capacity")
    if n and (coords.min() < 0 or coords.max() >= (1 << bits)):
        raise GeometryError("coordinates out of range for the requested bits")
    keys = np.zeros(n, dtype=np.int64)
    c = coords.astype(np.int64)
    for b in range(bits):
        for d in range(ndim):
            keys |= ((c[:, d] >> b) & 1) << (b * ndim + d)
    return keys


# ---------------------------------------------------------------------------
# Hilbert (Skilling's transpose algorithm)
# ---------------------------------------------------------------------------
def _transpose_to_hilbert(x: Sequence[int], ndim: int, bits: int) -> int:
    key = 0
    for word in range(ndim):
        for bit in range(bits):
            if (x[word] >> (bits - 1 - bit)) & 1:
                b = bits * ndim - 1 - (bit * ndim + word)
                key |= 1 << b
    return key


def hilbert_encode(coords: Sequence[int], bits: int) -> int:
    """Map coordinates to their index along the Hilbert curve."""
    cs = list(_check_coords(coords, bits))
    ndim = len(cs)
    if ndim == 1:
        return cs[0]
    x = cs[:]
    m = 1 << (bits - 1)
    # Inverse undo excess work (Skilling, AxestoTranspose).
    q = m
    while q > 1:
        p = q - 1
        for i in range(ndim):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, ndim):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[ndim - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(ndim):
        x[i] ^= t
    return _transpose_to_hilbert(x, ndim, bits)


# ---------------------------------------------------------------------------
# Hilbert, vectorized: Skilling's transform as a digit-table state machine
# ---------------------------------------------------------------------------
#: Curve levels one table lookup of :func:`hilbert_encode_many` reads, per
#: dimensionality with a table: a state's row holds ``2 ** (ndim * levels)``
#: entries.
_LEVELS_PER_STEP = {2: 4, 3: 3}

#: Rows per block of the table walk, so one block's coordinate, state and
#: key arrays stay in cache across all of its steps.
_BLOCK_ROWS = 1 << 14

_State = tuple[tuple[int, ...], tuple[int, ...], int]


class _DigitTables(NamedTuple):
    #: ``(key digits << shift) | next state's row offset``, indexed by a
    #: state's row offset plus the axes' coordinate chunks side by side
    table: np.ndarray
    levels: int
    shift: int
    #: start row offset per number of leading zero levels
    starts: tuple[int, ...]


def _skilling_level(
    state: _State, digit: int, ndim: int
) -> tuple[int, _State]:
    """One level of :func:`hilbert_encode`, most significant first.

    ``state`` is what the levels above leave to this one: the pending
    transform of the lower bits -- word ``i`` is coordinate ``perm[i]``,
    inverted where ``flip[i]`` is set -- and the Gray-code parity carry
    (bit ``q`` of the scalar walk's ``t``).  ``digit`` holds the level's
    coordinate bits, axis 0 the most significant.  Returns the level's key
    digit (word 0 the most significant) and the state the next level sees.
    """
    perm, flip, par = list(state[0]), list(state[1]), state[2]
    x = [(digit >> (ndim - 1 - p) & 1) ^ f for p, f in zip(perm, flip)]
    # Undo excess work: this level's bits pick ops on the lower bits only.
    for i in range(ndim):
        if x[i]:
            flip[0] ^= 1
        else:
            perm[0], perm[i] = perm[i], perm[0]
            flip[0], flip[i] = flip[i], flip[0]
    # Gray encode (a running xor across words), then xor the carry.
    gray = key = 0
    for i in range(ndim):
        gray ^= x[i]
        key |= (gray ^ par) << (ndim - 1 - i)
    return key, (tuple(perm), tuple(flip), par ^ gray)


@functools.lru_cache(maxsize=None)
def _digit_tables(ndim: int) -> _DigitTables:
    """The states :func:`_skilling_level` reaches from the identity, and
    its transitions composed over ``_LEVELS_PER_STEP[ndim]`` levels."""
    levels = _LEVELS_PER_STEP[ndim]
    identity: _State = (tuple(range(ndim)), (0,) * ndim, 0)
    index = {identity: 0}
    states = [identity]
    keys: list[int] = []
    nexts: list[int] = []
    for state in states:  # breadth first: the list grows as states appear
        for digit in range(1 << ndim):
            key, nxt = _skilling_level(state, digit, ndim)
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            keys.append(key)
            nexts.append(index[nxt])
    shape = (len(states), 1 << ndim)
    key1 = np.array(keys, dtype=np.int64).reshape(shape)
    next1 = np.array(nexts, dtype=np.int64).reshape(shape)
    key, nxt = key1, next1
    for _ in range(levels - 1):  # append one lower level's digit
        key = ((key[:, :, None] << ndim) | key1[nxt]).reshape(shape[0], -1)
        nxt = next1[nxt].reshape(shape[0], -1)
    # Index each state's row by its axes' ``levels``-bit chunks side by
    # side, axis 0 the most significant, as the walk reads them off the
    # coordinates: position ``c`` holds the level-major digits ``d``.
    width = key.shape[1]
    c = np.arange(width)
    d = np.zeros_like(c)
    for i in range(ndim):
        for lvl in range(levels):
            bit = (c >> ((ndim - 1 - i) * levels + lvl)) & 1
            d |= bit << (lvl * ndim + ndim - 1 - i)
    key, nxt = key[:, d], nxt[:, d]
    shift = (nxt.size - 1).bit_length()
    # A zero digit emits a zero key digit and only permutes the axes, so
    # the identity lies on a cycle of zero steps: ``pad`` leading zero
    # levels start that many steps before the identity on it.
    cycle = [0]
    while (s := int(next1[cycle[-1], 0])) != 0:
        cycle.append(s)
    starts = tuple(
        cycle[-pad % len(cycle)] * width for pad in range(levels)
    )
    table = ((key << shift) | nxt * width).ravel()
    return _DigitTables(table, levels, shift, starts)


def hilbert_encode_many(coords: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized :func:`hilbert_encode` of an ``(n, ndim)`` coordinate array.

    In 2-D and 3-D, each table lookup reads several levels' coordinate
    digits of every row and yields their key digits and the next state;
    other dimensionalities encode row by row.
    """
    coords = np.asarray(coords)
    if coords.ndim != 2:
        raise GeometryError("coords must have shape (n, ndim)")
    n, ndim = coords.shape
    if ndim == 1:
        return coords[:, 0].astype(np.int64)
    if bits * ndim > 62:
        raise GeometryError(f"bits*ndim = {bits * ndim} exceeds int64 capacity")
    if n and (coords.min() < 0 or coords.max() >= (1 << bits)):
        raise GeometryError("coordinates out of range for the requested bits")
    if ndim not in _LEVELS_PER_STEP:
        return np.fromiter(
            (hilbert_encode(row, bits) for row in coords.tolist()),
            dtype=np.int64,
            count=n,
        )
    tables = _digit_tables(ndim)
    levels = tables.levels
    steps = -(-bits // levels)
    start = tables.starts[steps * levels - bits]
    chunk_mask = (1 << levels) - 1
    state_mask = (1 << tables.shift) - 1
    out = np.empty(n, dtype=np.int64)
    for b0 in range(0, n, _BLOCK_ROWS):
        axes = np.ascontiguousarray(coords[b0 : b0 + _BLOCK_ROWS].T, np.int64)
        row = np.full(axes.shape[1], start, dtype=np.int64)
        key = out[b0 : b0 + _BLOCK_ROWS]
        key[:] = 0
        for j in range(steps - 1, -1, -1):
            for i, x in enumerate(axes):
                chunk = (x >> (j * levels)) & chunk_mask
                row += chunk << ((ndim - 1 - i) * levels)
            entry = np.take(tables.table, row)
            key <<= ndim * levels
            key |= entry >> tables.shift
            np.bitwise_and(entry, state_mask, out=row)
    return out


# ---------------------------------------------------------------------------
# Box ordering
# ---------------------------------------------------------------------------
def _required_bits(max_coord: int) -> int:
    bits = 1
    while (1 << bits) <= max_coord:
        bits += 1
    return bits


def sfc_keys_array(
    arr: BoxArray,
    curve: str = "hilbert",
    refine_factor: int = 2,
) -> np.ndarray:
    """SFC key of every box's lower corner, computed over whole columns.

    Corners are promoted to the index space of the finest level present
    (multiplying by ``refine_factor`` per level difference) so boxes from
    different levels interleave along one common curve.  Returns an
    ``(n,)`` int64 key array aligned with the rows of ``arr``.
    """
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    ndim = arr.ndim
    max_level = int(arr.level.max())
    # One power per level present, gathered per box (np.power per box is
    # several times slower).
    powers = max_level - np.arange(max_level + 1, dtype=np.int64)
    scale = np.take(np.int64(refine_factor) ** powers, arr.level)
    corners = arr.lower * scale[:, None]
    max_coord = int(corners.max(initial=0))
    bits = _required_bits(max(max_coord, 1))
    if bits * ndim > 62:
        raise GeometryError(
            f"domain too large for int64 SFC keys (bits={bits}, ndim={ndim})"
        )
    if curve == "hilbert":
        return hilbert_encode_many(corners, bits)
    if curve == "morton":
        return morton_encode_many(corners, bits)
    raise GeometryError(f"unknown curve {curve!r}; use 'hilbert' or 'morton'")


def sfc_sort_order(
    arr: BoxArray,
    curve: str = "hilbert",
    refine_factor: int = 2,
) -> np.ndarray:
    """Positional indices ordering ``arr`` along the space-filling curve.

    Ties on the curve break on level, so co-located multi-level boxes
    order coarse-to-fine, then on row: ``np.lexsort((arr.level, keys))``
    exactly.  When key, level and row index pack into one non-negative
    ``int64`` the order is one plain sort of the packed values, whose
    low bits are the rows; wider keys fall back to ``np.lexsort``.
    """
    keys = sfc_keys_array(arr, curve=curve, refine_factor=refine_factor)
    n = len(keys)
    row_bits = max(n - 1, 0).bit_length()
    low_bits = int(arr.level.max(initial=0)).bit_length() + row_bits
    if int(keys.max(initial=0)).bit_length() + low_bits > 63:
        return np.lexsort((arr.level, keys))
    packed = keys << low_bits
    packed |= arr.level << row_bits
    packed |= np.arange(n)
    packed.sort()
    packed &= (1 << row_bits) - 1
    return packed
