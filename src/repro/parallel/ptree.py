"""Parallel level-by-level tree construction (Section 3.1).

"All processors begin at level 0 with the same box ... At every level l,
each processor puts its local number of points in boxes at level l ...
Then, an MPI_Allreduce is used over all local copies of the global tree
array to sum up the local number of points for each box at level l. ...
By comparing each box's global number of points with s ... each processor
can decide whether a box in level l should be further subdivided."

Every rank ends up with the *identical* global tree topology (the paper's
"global tree array": global counts + child indices) while its
:class:`~repro.octree.box.Box` point ranges refer only to its local
points.  Because splitting decisions use global counts, the topology is
bitwise identical to the sequential tree built over all points — an
invariant the integration tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.octree.box import Box
from repro.octree.morton import MAX_DEPTH, anchor_to_key, encode_points
from repro.octree.tree import Octree, require_finite
from repro.parallel.simmpi import SimComm

_U = np.uint64


@dataclass
class ParallelTree:
    """A rank's view of the global tree.

    ``tree`` is a standard :class:`~repro.octree.tree.Octree` whose box
    point ranges index the rank's *local* Morton-sorted points; the global
    per-box counts (identical on every rank) live alongside.
    """

    tree: Octree
    global_nsrc: np.ndarray
    global_ntrg: np.ndarray

    def local_contributes_src(self) -> np.ndarray:
        """Boxes holding local sources (rank is a source contributor)."""
        return self.tree.topology.nsrc > 0

    def local_contributes_trg(self) -> np.ndarray:
        return self.tree.topology.ntrg > 0


def agree_root_cube(
    comm: SimComm, local_points: np.ndarray, pad: float = 1e-6
) -> tuple[np.ndarray, float]:
    """Global bounding cube via min/max Allreduce (all ranks agree)."""
    if local_points.shape[0]:
        lo, hi = local_points.min(axis=0), local_points.max(axis=0)
    else:
        lo = np.full(3, np.inf)
        hi = np.full(3, -np.inf)
    lo = comm.allreduce(lo, op="min")
    hi = comm.allreduce(hi, op="max")
    if np.all(np.isposinf(lo)) and np.all(np.isneginf(hi)):
        raise ValueError("no rank contributed any points")
    # Every rank sees the same reduced bounds, so all raise together.
    if not np.isfinite([lo, hi]).all():
        raise ValueError(
            "points contain a non-finite coordinate: the ranks' bounds "
            f"reduce to {lo} .. {hi}"
        )
    side = float((hi - lo).max())
    side = side * (1.0 + pad) if side > 0 else 1.0
    center = (lo + hi) / 2.0
    return center - side / 2.0, side


def parallel_build_tree(
    comm: SimComm,
    local_sources: np.ndarray,
    local_targets: np.ndarray | None = None,
    max_points: int = 60,
    max_depth: int = MAX_DEPTH,
    root: tuple[np.ndarray, float] | None = None,
) -> ParallelTree:
    """Build the global tree topology with local point ranges.

    Parameters mirror :func:`repro.octree.tree.build_tree`; ``root`` may
    be supplied (e.g. from :func:`agree_root_cube`), otherwise it is
    agreed collectively here.
    """
    local_sources = np.ascontiguousarray(local_sources, dtype=np.float64)
    shared = local_targets is None
    targets_arr = (
        local_sources if shared else np.ascontiguousarray(local_targets, np.float64)
    )
    require_finite(local_sources, f"rank {comm.rank}'s sources")
    if not shared:
        require_finite(targets_arr, f"rank {comm.rank}'s targets")
    if root is None:
        allpts = (
            local_sources if shared else np.vstack([local_sources, targets_arr])
        )
        corner, side = agree_root_cube(comm, allpts)
    else:
        corner = np.asarray(root[0], dtype=np.float64)
        side = float(root[1])

    src_keys = encode_points(local_sources, corner, side)
    src_perm = np.argsort(src_keys, kind="stable")
    src_sorted = src_keys[src_perm]
    if shared:
        trg_perm, trg_sorted = src_perm, src_sorted
    else:
        trg_keys = encode_points(targets_arr, corner, side)
        trg_perm = np.argsort(trg_keys, kind="stable")
        trg_sorted = trg_keys[trg_perm]

    tree = Octree(
        sources=local_sources,
        targets=targets_arr,
        root_corner=corner,
        root_side=side,
        max_points=max_points,
        shared_points=shared,
        src_perm=src_perm,
        trg_perm=trg_perm,
    )
    tree.boxes.append(
        Box(
            index=0,
            level=0,
            anchor=(0, 0, 0),
            parent=-1,
            src_start=0,
            src_stop=local_sources.shape[0],
            trg_start=0,
            trg_stop=targets_arr.shape[0],
        )
    )
    tree.index[(0, (0, 0, 0))] = 0
    tree.levels.append([0])

    # Global counts of the root: one Allreduce.
    root_counts = comm.allreduce(
        np.array([local_sources.shape[0], targets_arr.shape[0]], dtype=np.int64)
    )
    global_nsrc = [int(root_counts[0])]
    global_ntrg = [int(root_counts[1])]

    frontier = [0]
    level = 0
    while frontier and level < max_depth:
        shift = _U(3 * (MAX_DEPTH - level - 1))
        # Which boxes split is a *global* decision, identical on all ranks.
        splitting = [
            bi
            for bi in frontier
            if global_nsrc[bi] > max_points or global_ntrg[bi] > max_points
        ]
        if not splitting:
            break
        # Local counts for all 8 candidate octants of every splitting box,
        # in deterministic (box, octant) order: the level's slice of the
        # paper's global tree array.
        local_counts = np.zeros((len(splitting), 8, 2), dtype=np.int64)
        cuts_cache: list[tuple[np.ndarray, np.ndarray]] = []
        for si, bi in enumerate(splitting):
            box = tree.boxes[bi]
            ix, iy, iz = box.anchor
            base = _U(anchor_to_key(ix, iy, iz)) << _U(3)
            bounds = (base + np.arange(9, dtype=np.uint64)) << shift
            s_cuts = box.src_start + np.searchsorted(
                src_sorted[box.src_start : box.src_stop], bounds, side="left"
            )
            t_cuts = box.trg_start + np.searchsorted(
                trg_sorted[box.trg_start : box.trg_stop], bounds, side="left"
            )
            cuts_cache.append((s_cuts, t_cuts))
            local_counts[si, :, 0] = np.diff(s_cuts)
            local_counts[si, :, 1] = np.diff(t_cuts)
        global_counts = comm.allreduce(local_counts)

        next_frontier: list[int] = []
        for si, bi in enumerate(splitting):
            box = tree.boxes[bi]
            ix, iy, iz = box.anchor
            s_cuts, t_cuts = cuts_cache[si]
            kids = []
            for c in range(8):
                gs, gt = int(global_counts[si, c, 0]), int(global_counts[si, c, 1])
                if gs == 0 and gt == 0:
                    continue  # globally empty octant: pruned everywhere
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
                global_nsrc.append(gs)
                global_ntrg.append(gt)
                kids.append(child.index)
            box.children = tuple(kids)
            next_frontier.extend(kids)
        if next_frontier:
            tree.levels.append(next_frontier)
        frontier = next_frontier
        level += 1

    return ParallelTree(
        tree=tree,
        global_nsrc=np.array(global_nsrc, dtype=np.int64),
        global_ntrg=np.array(global_ntrg, dtype=np.int64),
    )
