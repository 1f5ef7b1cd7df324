"""Adaptive octree construction.

Follows Section 2.1 ("we construct the hierarchical octree so that each
box contains no more than a prescribed number of points s") with the
level-by-level construction of Section 3.1: the tree is grown one level at
a time, splitting every box whose global point count exceeds ``s`` and
keeping only children that actually contain points.  Points are sorted
once by deep Morton key, which makes every box's sources and targets
contiguous ranges of the sorted permutation — the same property the
parallel Morton-curve partitioning of Section 3.1 relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.octree.box import Box
from repro.octree.morton import MAX_DEPTH, anchor_to_key, encode_points
from repro.octree.topology import TreeTopology, derive_topology

_U = np.uint64


@dataclass
class Octree:
    """The computation tree over a set of source and target points.

    Boxes are stored level-by-level (``boxes[0]`` is the root), mirroring
    the paper's *global tree array* ordering, and indexed by
    ``(level, anchor)`` for colleague lookup.
    """

    sources: np.ndarray
    targets: np.ndarray
    root_corner: np.ndarray
    root_side: float
    max_points: int
    shared_points: bool
    boxes: list[Box] = field(default_factory=list)
    levels: list[list[int]] = field(default_factory=list)
    src_perm: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    trg_perm: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    index: dict[tuple[int, tuple[int, int, int]], int] = field(default_factory=dict)

    # -- structure queries -------------------------------------------------

    @property
    def depth(self) -> int:
        """Depth ``L`` of the tree (deepest level with boxes)."""
        return len(self.levels) - 1

    @property
    def nboxes(self) -> int:
        return len(self.boxes)

    @cached_property
    def topology(self) -> TreeTopology:
        """The finished tree as per-box arrays, derived on first use.

        What the interaction lists, the execution plan and the rank
        setup read; ``boxes`` must not change afterwards (no builder
        touches a tree it has returned).
        """
        return derive_topology(self.boxes)

    def leaves(self) -> list[int]:
        return [b.index for b in self.boxes if b.is_leaf]

    def box_at(self, level: int, anchor: tuple[int, int, int]) -> int | None:
        """Index of the existing box at ``(level, anchor)``, else None."""
        return self.index.get((level, anchor))

    def colleagues(self, index: int, include_self: bool = False) -> list[int]:
        """Existing same-level boxes whose anchors differ by at most 1.

        These are the (up to 26) adjacent boxes at the box's own level,
        the building block of the U/V/W/X list construction.
        """
        box = self.boxes[index]
        n = 1 << box.level
        out = []
        ix, iy, iz = box.anchor
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        if include_self:
                            out.append(index)
                        continue
                    jx, jy, jz = ix + dx, iy + dy, iz + dz
                    if 0 <= jx < n and 0 <= jy < n and 0 <= jz < n:
                        hit = self.index.get((box.level, (jx, jy, jz)))
                        if hit is not None:
                            out.append(hit)
        return out

    # -- geometry ----------------------------------------------------------

    def center(self, index: int) -> np.ndarray:
        return self.boxes[index].center(self.root_corner, self.root_side)

    def half_width(self, index: int) -> float:
        return self.boxes[index].half_width(self.root_side)

    # -- point access ------------------------------------------------------

    def src_indices(self, index: int) -> np.ndarray:
        """Original indices of the sources in a box's subtree."""
        b = self.boxes[index]
        return self.src_perm[b.src_start : b.src_stop]

    def trg_indices(self, index: int) -> np.ndarray:
        """Original indices of the targets in a box's subtree."""
        b = self.boxes[index]
        return self.trg_perm[b.trg_start : b.trg_stop]

    def src_points(self, index: int) -> np.ndarray:
        return self.sources[self.src_indices(index)]

    def trg_points(self, index: int) -> np.ndarray:
        return self.targets[self.trg_indices(index)]

    def statistics(self) -> dict[str, float]:
        """Tree shape summary used by the performance model and reports."""
        leaves = self.leaves()
        pts = [self.boxes[i].nsrc for i in leaves]
        return {
            "nboxes": self.nboxes,
            "nleaves": len(leaves),
            "depth": self.depth,
            "max_leaf_src": max(pts) if pts else 0,
            "mean_leaf_src": float(np.mean(pts)) if pts else 0.0,
        }


def require_finite(points: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first point of ``what`` that has
    a NaN or infinite coordinate — before a bounding cube or a Morton
    key is computed from it (a NaN casts to an arbitrary cell and the
    apply is silently wrong)."""
    finite = np.isfinite(points)
    if not finite.all():
        i = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ValueError(
            f"{what} contain a non-finite coordinate: point {i} is {points[i]}"
        )


def _root_cube(points: np.ndarray, pad: float = 1e-6) -> tuple[np.ndarray, float]:
    """Smallest axis-aligned cube (slightly padded) containing the points."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    side = float((hi - lo).max())
    side = side * (1.0 + pad) if side > 0 else 1.0
    center = (lo + hi) / 2.0
    return center - side / 2.0, side


def build_tree(
    sources: np.ndarray,
    targets: np.ndarray | None = None,
    max_points: int = 60,
    max_depth: int = MAX_DEPTH,
    root: tuple[np.ndarray, float] | None = None,
) -> Octree:
    """Build the adaptive computation tree.

    Parameters
    ----------
    sources:
        ``(ns, 3)`` source point coordinates.
    targets:
        ``(nt, 3)`` target coordinates, or ``None`` to reuse ``sources``
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

    Returns
    -------
    A fully built :class:`Octree`.
    """
    sources = np.ascontiguousarray(sources, dtype=np.float64)
    if sources.ndim != 2 or sources.shape[1] != 3:
        raise ValueError(f"sources must be (n, 3), got {sources.shape}")
    shared = targets is None
    targets_arr = sources if shared else np.ascontiguousarray(targets, np.float64)
    if targets_arr.ndim != 2 or targets_arr.shape[1] != 3:
        raise ValueError(f"targets must be (n, 3), got {targets_arr.shape}")
    if max_points < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"max_depth must be in [1, {MAX_DEPTH}], got {max_depth}")
    require_finite(sources, "sources")
    if not shared:
        require_finite(targets_arr, "targets")

    if root is None:
        allpts = sources if shared else np.vstack([sources, targets_arr])
        corner, side = _root_cube(allpts)
    else:
        corner = np.asarray(root[0], dtype=np.float64)
        side = float(root[1])

    src_keys = encode_points(sources, corner, side)
    src_perm = np.argsort(src_keys, kind="stable")
    src_sorted = src_keys[src_perm]
    if shared:
        trg_keys, trg_perm, trg_sorted = src_keys, src_perm, src_sorted
    else:
        trg_keys = encode_points(targets_arr, corner, side)
        trg_perm = np.argsort(trg_keys, kind="stable")
        trg_sorted = trg_keys[trg_perm]

    tree = Octree(
        sources=sources,
        targets=targets_arr,
        root_corner=corner,
        root_side=side,
        max_points=max_points,
        shared_points=shared,
        src_perm=src_perm,
        trg_perm=trg_perm,
    )

    root_box = Box(
        index=0,
        level=0,
        anchor=(0, 0, 0),
        parent=-1,
        src_start=0,
        src_stop=len(sources),
        trg_start=0,
        trg_stop=len(targets_arr),
    )
    tree.boxes.append(root_box)
    tree.index[(0, (0, 0, 0))] = 0
    tree.levels.append([0])

    frontier = [0]
    level = 0
    while frontier and level < max_depth:
        next_frontier: list[int] = []
        shift = _U(3 * (MAX_DEPTH - level - 1))
        for bi in frontier:
            box = tree.boxes[bi]
            if box.nsrc <= max_points and box.ntrg <= max_points:
                continue  # stays a leaf
            ix, iy, iz = box.anchor
            parent_key = anchor_to_key(ix, iy, iz)
            base = _U(parent_key) << _U(3)
            # 9 split boundaries delimiting the 8 children in Morton order
            bounds = (base + np.arange(9, dtype=np.uint64)) << shift
            s_cuts = box.src_start + np.searchsorted(
                src_sorted[box.src_start : box.src_stop], bounds, side="left"
            )
            t_cuts = box.trg_start + np.searchsorted(
                trg_sorted[box.trg_start : box.trg_stop], bounds, side="left"
            )
            kids = []
            for c in range(8):
                if s_cuts[c] == s_cuts[c + 1] and t_cuts[c] == t_cuts[c + 1]:
                    continue  # empty octant: pruned, as in the paper
                child_anchor = (
                    2 * ix + (c & 1),
                    2 * iy + ((c >> 1) & 1),
                    2 * iz + ((c >> 2) & 1),
                )
                child = Box(
                    index=len(tree.boxes),
                    level=level + 1,
                    anchor=child_anchor,
                    parent=bi,
                    src_start=int(s_cuts[c]),
                    src_stop=int(s_cuts[c + 1]),
                    trg_start=int(t_cuts[c]),
                    trg_stop=int(t_cuts[c + 1]),
                )
                tree.boxes.append(child)
                tree.index[(level + 1, child_anchor)] = child.index
                kids.append(child.index)
            box.children = tuple(kids)
            next_frontier.extend(kids)
        if next_frontier:
            tree.levels.append(next_frontier)
        frontier = next_frontier
        level += 1
    return tree
