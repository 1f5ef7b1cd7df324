"""Adaptive octree construction: the one level loop of Section 3.1.

Section 2.1: "we construct the hierarchical octree so that each box
contains no more than a prescribed number of points s".  Section 3.1
grows it level by level: every rank counts its points in the candidate
children of the boxes that split, one ``MPI_Allreduce`` sums the counts
(the level's slice of the paper's *global tree array*), and every rank
takes the same decisions from the same global counts.  Points are sorted
once by deep Morton key, which makes every box's sources and targets
contiguous ranges of the sorted permutation — the property the parallel
Morton-curve partitioning of Section 3.1 relies on too.

:func:`grow_tree` is that loop, written once over the sorted keys and
appending rows of the :class:`~repro.octree.topology.TreeTopology`
arrays.  What varies between the builders is the reduction passed in:
the identity for :func:`build_tree`, ``comm.allreduce`` for
:func:`repro.parallel.ptree.parallel_build_tree` — the sequential tree
is the one-rank build.  The paper's adaptive algorithm needs no balance
condition (the W and X lists handle any level jump between adjacent
leaves), so there is no 2:1 balancing.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.octree.morton import MAX_DEPTH, encode_points, key_to_anchor
from repro.octree.topology import TreeTopology, level_base

_U = np.uint64


@dataclass
class Octree:
    """The computation tree over a set of source and target points.

    The tree is :attr:`topology`: per-box arrays in the paper's *global
    tree array* order (level by level; box 0 is the root).  A box's
    sources and targets are ranges of the Morton-sorted permutations
    ``src_perm`` / ``trg_perm``.
    """

    sources: np.ndarray
    targets: np.ndarray
    root_corner: np.ndarray
    root_side: float
    max_points: int
    shared_points: bool
    src_perm: np.ndarray
    trg_perm: np.ndarray
    topology: TreeTopology

    # -- structure queries -------------------------------------------------

    @property
    def dim(self) -> int:
        """Spatial dimension, read off the points."""
        return self.topology.dim

    @property
    def depth(self) -> int:
        """Depth ``L`` of the tree (deepest level with boxes)."""
        return self.topology.depth

    @property
    def nboxes(self) -> int:
        return self.topology.nboxes

    # -- geometry ----------------------------------------------------------

    def center(self, index: int) -> np.ndarray:
        """Center of a box in physical coordinates."""
        t = self.topology
        side = self.root_side / (1 << int(t.level[index]))
        return self.root_corner + (t.anchor[index] + 0.5) * side

    def half_width(self, index: int) -> float:
        """Half the side length of a box (the ``r`` of Section 2.1)."""
        return self.root_side / (1 << int(self.topology.level[index])) / 2.0

    # -- point access ------------------------------------------------------

    def src_indices(self, index: int) -> np.ndarray:
        """Original indices of the sources in a box's subtree."""
        t = self.topology
        return self.src_perm[t.src_start[index] : t.src_stop[index]]

    def trg_indices(self, index: int) -> np.ndarray:
        """Original indices of the targets in a box's subtree."""
        t = self.topology
        return self.trg_perm[t.trg_start[index] : t.trg_stop[index]]

    def src_points(self, index: int) -> np.ndarray:
        return self.sources[self.src_indices(index)]

    def trg_points(self, index: int) -> np.ndarray:
        return self.targets[self.trg_indices(index)]

    def statistics(self) -> dict[str, float]:
        """Tree shape summary used by the performance model and reports."""
        t = self.topology
        leaf_src = t.nsrc[t.is_leaf]
        return {
            "nboxes": self.nboxes,
            "nleaves": leaf_src.size,
            "depth": self.depth,
            "max_leaf_src": int(leaf_src.max()),
            "mean_leaf_src": float(leaf_src.mean()),
        }


# -- input validation: one for every builder ------------------------------


def require_points(
    points: np.ndarray, what: str, dim: int | None = None
) -> None:
    """Raise ``ValueError`` unless ``points`` are ``(n, 2)`` or ``(n,
    3)`` coordinates of dimension ``dim`` (the kernel's, when given),
    naming both dimensions on a mismatch — and naming the first point of
    ``what`` that has a NaN or infinite coordinate.  All before a
    bounding cube or a Morton key is computed from them (a NaN casts to
    an arbitrary cell and the apply is silently wrong)."""
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise ValueError(f"{what} must be (n, 2) or (n, 3), got {points.shape}")
    if dim is not None and points.shape[1] != dim:
        raise ValueError(
            f"dimension mismatch: {what} are {points.shape[1]}-D points "
            f"but the kernel is {dim}-D"
        )
    finite = np.isfinite(points)
    if not finite.all():
        i = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ValueError(
            f"{what} contain a non-finite coordinate: point {i} is {points[i]}"
        )


def check_tree_parameters(max_points: int, max_depth: int) -> None:
    """The ranges every builder (and ``FMMOptions``) accepts: a leaf
    holds at least one point and a Morton key has 21 levels of bits."""
    if max_points < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"max_depth must be in [1, {MAX_DEPTH}], got {max_depth}")


def _one_rank(array: np.ndarray, op: str = "sum") -> np.ndarray:
    """``allreduce`` over one rank."""
    return array


def _root_cube(
    points: np.ndarray, pad: float = 1e-6, allreduce=_one_rank
) -> tuple[np.ndarray, float]:
    """Smallest axis-aligned cube (slightly padded) containing the
    points of every rank; all ranks get the same cube and raise
    together."""
    lo = allreduce(points.min(axis=0, initial=np.inf), op="min")
    hi = allreduce(points.max(axis=0, initial=-np.inf), op="max")
    if np.all(np.isposinf(lo)) and np.all(np.isneginf(hi)):
        raise ValueError(
            "cannot bound an empty point set: no rank contributed any points"
        )
    if not np.isfinite([lo, hi]).all():
        raise ValueError(
            "points contain a non-finite coordinate: the ranks' bounds "
            f"reduce to {lo} .. {hi}"
        )
    side = float((hi - lo).max())
    side = side * (1.0 + pad) if side > 0 else 1.0
    center = (lo + hi) / 2.0
    return center - side / 2.0, side


# -- the level loop --------------------------------------------------------


def grow_tree(
    keys: list[np.ndarray],
    dim: int,
    max_depth: int,
    max_points: int,
    allreduce: Callable[[np.ndarray], np.ndarray] = _one_rank,
) -> tuple[TreeTopology, np.ndarray]:
    """Grow the tree over Morton-sorted deep keys, one level per round.

    The adaptive tree of Section 2.1: a box splits while it holds more
    than ``max_points`` sources or targets, and empty octants are
    pruned — on global counts, so every rank takes the same decisions.
    ``keys`` holds this rank's sorted ``dim``-dimensional source keys
    and, unless sources are the targets, its sorted target keys.  Per
    level: one ``searchsorted`` of the ``2^d + 1`` child bounds of every
    splitting box (a level's boxes are in ascending key order, so all
    their bounds are monotone), one ``allreduce`` of the ``(nsplit, 2^d,
    2)`` source/target counts, and one row appended per kept child.
    Returns the topology — point ranges local, everything else global —
    and the ``(2, nboxes)`` global source/target counts.
    """
    base = level_base(dim)
    octants = np.arange((1 << dim) + 1, dtype=np.uint64)
    npoints = np.array([keys[0].size, keys[-1].size])
    key = np.zeros(1, dtype=np.uint64)
    count = allreduce(npoints)[None, :]
    rows = [(
        key, np.array([-1]), np.array([0]), np.zeros((1, 2), dtype=np.int64),
        npoints[None, :], count,
    )]
    first = 0  # index of the level's first box
    for level in range(max_depth):
        split = np.flatnonzero((count > max_points).any(axis=1))
        if not split.size:
            break
        bounds = ((key[split, None] << _U(dim)) + octants) << _U(
            dim * (MAX_DEPTH - level - 1)
        )
        found = [np.searchsorted(sorted_keys, bounds) for sorted_keys in keys]
        cuts = np.stack([found[0], found[-1]], axis=-1)
        counts = allreduce(np.diff(cuts, axis=1))
        row, octant = np.nonzero(counts.any(axis=2))
        parent = first + split[row]
        first += key.size
        key = (key[split[row]] << _U(dim)) + octant.astype(np.uint64)
        count = counts[row, octant]
        rows.append(
            (key, parent, octant, cuts[row, octant], cuts[row, octant + 1], count)
        )

    sizes = [row[0].size for row in rows]
    key, parent, octant, start, stop, count = map(np.concatenate, zip(*rows))
    level = np.repeat(np.arange(len(rows)), sizes)
    child = np.full((key.size, 1 << dim), -1, dtype=np.int64)
    child[parent[1:], octant[1:]] = np.arange(1, key.size)
    (src_start, trg_start), (src_stop, trg_stop) = (
        np.ascontiguousarray(cut.T) for cut in (start, stop)
    )
    topology = TreeTopology(
        level=level,
        parent=parent,
        anchor=np.stack(key_to_anchor(key, dim), axis=1).astype(np.int64),
        octant=octant,
        child=child,
        is_leaf=(child < 0).all(axis=1),
        src_start=src_start,
        src_stop=src_stop,
        trg_start=trg_start,
        trg_stop=trg_stop,
        level_ptr=np.concatenate([[0], np.cumsum(sizes)]),
        uid=base[level] + key,
    )
    return topology, np.ascontiguousarray(count.T)


def build_global_tree(
    sources: np.ndarray,
    targets: np.ndarray | None,
    max_points: int,
    max_depth: int,
    root: tuple[np.ndarray, float] | None,
    allreduce=_one_rank,
    who: str = "",
    dim: int | None = None,
) -> tuple[Octree, np.ndarray]:
    """What every builder is: validate this rank's points (``who`` names
    the rank in errors; ``dim``, the kernel's dimension, must be theirs
    when given), agree on the root cube unless ``root`` pins it, sort by
    Morton key and grow the adaptive tree in the points' dimension.
    Returns the :class:`Octree` and :func:`grow_tree`'s global counts."""
    sources = np.ascontiguousarray(sources, dtype=np.float64)
    targets = sources if targets is None else np.ascontiguousarray(targets, np.float64)
    point_sets = [("sources", sources)]
    if targets is not sources:
        point_sets.append(("targets", targets))
    for what, points in point_sets:
        require_points(points, who + what, dim)
    dim = sources.shape[1]
    if targets.shape[1] != dim:
        raise ValueError(
            f"dimension mismatch: {who}sources are {dim}-D points but "
            f"{who}targets are {targets.shape[1]}-D"
        )
    check_tree_parameters(max_points, max_depth)
    if root is None:
        root = _root_cube(
            sources if targets is sources else np.vstack([sources, targets]),
            allreduce=allreduce,
        )
    corner, side = np.asarray(root[0], dtype=np.float64), float(root[1])
    perms, keys = [], []
    for _, points in point_sets:
        key = encode_points(points, corner, side)
        perms.append(np.argsort(key, kind="stable"))
        keys.append(key[perms[-1]])
    topology, counts = grow_tree(
        keys, dim, max_depth, max_points, allreduce
    )
    tree = Octree(
        sources=sources,
        targets=targets,
        root_corner=corner,
        root_side=side,
        max_points=max_points,
        shared_points=targets is sources,
        src_perm=perms[0],
        trg_perm=perms[-1],
        topology=topology,
    )
    return tree, counts


def build_tree(
    sources: np.ndarray,
    targets: np.ndarray | None = None,
    max_points: int = 60,
    max_depth: int = MAX_DEPTH,
    root: tuple[np.ndarray, float] | None = None,
    dim: int | None = None,
) -> Octree:
    """Build the adaptive computation tree.

    Parameters
    ----------
    sources:
        ``(ns, d)`` source point coordinates, ``d`` = 2 or 3: the tree is
        a quadtree or an octree.
    targets:
        ``(nt, d)`` target coordinates, or ``None`` to reuse ``sources``
        (the paper's experiments assume identical source and target sets).
    max_points:
        The ``s`` of the paper: a box is subdivided while it holds more
        than ``s`` sources or more than ``s`` targets.  The paper uses 60
        (120 for the 3000-processor runs).
    max_depth:
        Refinement cut-off; defaults to the Morton key capacity (21).
    root:
        Optional ``(corner, side)`` overriding the automatic bounding
        cube, used by the parallel code so all ranks agree on the domain.
    dim:
        The kernel's dimension, if the caller has one: points of another
        dimension are a named error.

    Returns
    -------
    A fully built :class:`Octree`.
    """
    return build_global_tree(
        sources, targets, max_points, max_depth, root, dim=dim
    )[0]
