"""Morton (Z-order) keys for trees in ``d = 2`` or ``3`` dimensions.

Morton ordering is the backbone of both the tree construction (points
sorted by deep Morton key make every box's points a contiguous range) and
the parallel partitioning of Section 3.1 ("we use Morton curve
partitioning"), following the hashed-octree tradition of Warren & Salmon
(refs [23], [24] of the paper).

Keys interleave 21 bits per dimension into a ``uint64``, ``d`` bits per
level: in 3D ``key = z20 y20 x20 ... z0 y0 x0``, so the top 3 bits
select the level-1 octant and each further 3-bit group descends one
level; in 2D the groups are ``y x`` pairs.  One key layout and one depth
range serve both dimensions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Deepest supported tree level: 21 bits per dimension in a uint64 key.
MAX_DEPTH = 21

_U = np.uint64  # shorthand for literal casts

#: Spread rounds, coarsest first: chunks of 16, 8, 4, 2, 1 bits.
_CHUNKS = (16, 8, 4, 2, 1)


@lru_cache(maxsize=None)
def _spread_masks(dim: int) -> tuple[tuple[int, int], ...]:
    """``(shift, mask)`` of each round that moves bit ``i`` to bit
    ``dim * i``: after the round of chunk ``c``, bit ``i`` sits at ``i
    mod c + dim c (i // c)``, so the round moves the upper half of every
    ``2c`` chunk up by ``(dim - 1) c`` and the mask keeps those
    positions.  In 3D these are the classical magic numbers."""
    return tuple(
        (
            (dim - 1) * c,
            sum(1 << (i % c + dim * c * (i // c)) for i in range(MAX_DEPTH)),
        )
        for c in _CHUNKS
    )


def _spread(x: np.ndarray, dim: int) -> np.ndarray:
    """Spread the low 21 bits of each entry: bit i -> bit ``dim * i``."""
    x = x.astype(np.uint64) & _U((1 << MAX_DEPTH) - 1)
    for shift, mask in _spread_masks(dim):
        x = (x | (x << _U(shift))) & _U(mask)
    return x


def _compact(x: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`_spread`: gather every ``dim``-th bit."""
    shifts, masks = zip(*_spread_masks(dim)[::-1])
    x = x.astype(np.uint64) & _U(masks[0])
    for shift, mask in zip(shifts, masks[1:] + ((1 << MAX_DEPTH) - 1,)):
        x = (x ^ (x >> _U(shift))) & _U(mask)
    return x


def anchor_to_key(*coords) -> np.ndarray:
    """Interleave integer coordinates ``(ix, iy[, iz])`` into Morton
    keys (vectorised); the number of coordinates is the dimension."""
    dim = len(coords)
    key = _spread(np.asarray(coords[0]), dim)
    for axis in range(1, dim):
        key |= _spread(np.asarray(coords[axis]), dim) << _U(axis)
    return key


def key_to_anchor(key, dim: int) -> tuple[np.ndarray, ...]:
    """De-interleave ``dim``-dimensional Morton keys into ``(ix, iy[, iz])``."""
    key = np.asarray(key, dtype=np.uint64)
    return tuple(_compact(key >> _U(axis), dim) for axis in range(dim))


def decode_key(key: int, level: int, dim: int) -> tuple[int, ...]:
    """Anchor of a single depth-``MAX_DEPTH`` key truncated to ``level``."""
    return tuple(int(c) for c in key_to_anchor(key_prefix(key, level, dim), dim))


def encode_points(
    points: np.ndarray, corner: np.ndarray, side: float
) -> np.ndarray:
    """Depth-``MAX_DEPTH`` Morton keys of points in the root box.

    Parameters
    ----------
    points:
        ``(n, d)`` coordinates; must lie inside the root box (points
        exactly on the far face are clamped into the last cell).  The
        column count is the dimension.
    corner:
        Minimum corner of the root box.
    side:
        Side length of the (cubic) root box.

    Returns
    -------
    ``(n,)`` uint64 Morton keys at depth :data:`MAX_DEPTH`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got {points.shape}")
    if side <= 0:
        raise ValueError(f"root box side must be positive, got {side}")
    scaled = (points - np.asarray(corner, dtype=np.float64)) / side
    if scaled.size and (scaled.min() < -1e-12 or scaled.max() > 1.0 + 1e-12):
        raise ValueError("points fall outside the root box")
    cells = np.clip(
        (scaled * (1 << MAX_DEPTH)).astype(np.int64), 0, (1 << MAX_DEPTH) - 1
    )
    return anchor_to_key(*cells.T)


def key_prefix(key: np.ndarray, level: int, dim: int) -> np.ndarray:
    """Truncate depth-``MAX_DEPTH`` keys to the box key at ``level``."""
    return np.asarray(key, dtype=np.uint64) >> _U(dim * (MAX_DEPTH - level))
