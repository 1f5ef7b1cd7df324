"""Parallel level-by-level tree construction (Section 3.1).

"All processors begin at level 0 with the same box ... At every level l,
each processor puts its local number of points in boxes at level l ...
Then, an MPI_Allreduce is used over all local copies of the global tree
array to sum up the local number of points for each box at level l. ...
By comparing each box's global number of points with s ... each processor
can decide whether a box in level l should be further subdivided."

That loop is :func:`repro.octree.tree.grow_tree`, the one every builder
runs; here its reduction is ``comm.allreduce``.  Every rank ends up with
the *identical* global tree topology (the paper's "global tree array":
global counts + child indices) while its point ranges refer only to its
local points.  Because splitting decisions use global counts, the
topology is bitwise identical to the sequential tree built over all
points — the one-rank build — an invariant the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.octree.morton import MAX_DEPTH
from repro.octree.tree import Octree, _root_cube, build_global_tree
from repro.parallel.simmpi import SimComm


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
    return _root_cube(local_points, pad, comm.allreduce)


def parallel_build_tree(
    comm: SimComm,
    local_sources: np.ndarray,
    local_targets: np.ndarray | None = None,
    max_points: int = 60,
    max_depth: int = MAX_DEPTH,
    root: tuple[np.ndarray, float] | None = None,
    dim: int | None = None,
) -> ParallelTree:
    """Build the global tree topology with local point ranges.

    Parameters mirror :func:`repro.octree.tree.build_tree`; ``root`` may
    be supplied (e.g. from :func:`agree_root_cube`), otherwise it is
    agreed collectively here.
    """
    tree, (global_nsrc, global_ntrg) = build_global_tree(
        local_sources, local_targets, max_points, max_depth, root,
        allreduce=comm.allreduce, who=f"rank {comm.rank}'s ", dim=dim,
    )
    return ParallelTree(tree, global_nsrc, global_ntrg)
