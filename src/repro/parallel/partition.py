"""Morton-curve data partitioning (Section 3.1).

"We first gather all input surface patches on a single processor, and
assign to each patch a weight which in the simplest case is equal to the
number of particles in that patch.  Second, we partition the clusters
into groups with equal weights and assign each group to one processor.
To do this we use Morton curve partitioning.  Alternatively, we could use
Morton curve partitioning directly on the particles."

Both variants are provided: :func:`partition_patches` (the paper's
default, faster because it orders only patch centroids) and
:func:`partition_points` (the alternative).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.patches import SurfacePatch, partition_weights
from repro.octree.morton import encode_points
from repro.octree.tree import _root_cube


def morton_order_patches(patches: list[SurfacePatch]) -> np.ndarray:
    """Patch order along the Morton curve of their centroids."""
    if not patches:
        return np.empty(0, dtype=np.int64)
    centroids = np.array([p.centroid for p in patches])
    corner, side = _root_cube(centroids)
    keys = encode_points(centroids, corner, side)
    return np.argsort(keys, kind="stable")


def partition_patches(
    patches: list[SurfacePatch], nranks: int
) -> list[np.ndarray]:
    """Assign patches to ranks: Morton order + equal-weight contiguous split.

    Returns per-rank arrays of patch indices.  Every rank receives a
    contiguous run of the Morton-ordered patch sequence whose total weight
    is as close to ``sum(weights) / nranks`` as contiguity allows.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    order = morton_order_patches(patches)
    weights = np.array([patches[i].weight for i in order], dtype=np.float64)
    parts = partition_weights(weights, nranks)
    return [order[parts == r] for r in range(nranks)]


def partition_points(points: np.ndarray, nranks: int) -> list[np.ndarray]:
    """Morton-curve partitioning directly on particles.

    Returns per-rank arrays of *original point indices*; each rank gets a
    contiguous Morton-curve segment with an equal share of the points.
    """
    points = np.asarray(points, dtype=np.float64)
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if points.shape[0] == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(nranks)]
    corner, side = _root_cube(points)
    order = np.argsort(encode_points(points, corner, side), kind="stable")
    bounds = split_offsets(order.size, nranks)[1:-1]
    return [np.array(chunk, dtype=np.int64) for chunk in np.split(order, bounds)]


def split_offsets(npoints: int, nranks: int) -> np.ndarray:
    """Where each rank's run of :func:`partition_points`' Morton order
    starts, then ``npoints``: equal shares, one point more on each of
    the first ``npoints % nranks`` ranks (``np.array_split``'s rule), so
    the ranks past ``npoints`` hold nothing."""
    base, extra = divmod(npoints, nranks)
    rank = np.arange(nranks + 1)
    return rank * base + np.minimum(rank, extra)


def points_for_ranks(
    patches: list[SurfacePatch], nranks: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-rank point arrays plus their global indices, from patches.

    Convenience used by the drivers: returns ``(points, indices)`` lists
    where ``indices[r]`` maps rank ``r``'s local points back to rows of
    the concatenated global point array (patch order).
    """
    assignment = partition_patches(patches, nranks)
    offsets = np.concatenate([[0], np.cumsum([p.points.shape[0] for p in patches])])
    pts, idx = [], []
    for r in range(nranks):
        if len(assignment[r]) == 0:
            pts.append(np.empty((0, patches[0].points.shape[1])))
            idx.append(np.empty(0, dtype=np.int64))
            continue
        pts.append(np.vstack([patches[i].points for i in assignment[r]]))
        idx.append(
            np.concatenate(
                [np.arange(offsets[i], offsets[i + 1]) for i in assignment[r]]
            )
        )
    return pts, idx
