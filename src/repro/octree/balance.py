"""Optional 2:1 tree balancing.

The paper's adaptive algorithm needs no balance condition — the W and X
lists handle arbitrary level jumps between adjacent leaves — but a
2:1-balanced tree (adjacent leaves differ by at most one level) bounds
the U/W/X list sizes and is a standard option in production FMM codes.
``benchmarks/bench_balance_ablation.py`` measures the trade-off: more
boxes vs smaller adaptive lists.

Algorithm: collect the split set of the unbalanced tree, close it under
the 2:1 rule (if a box at level ``l`` is split, every same-level
neighbour's parent must be split too), and grow the tree again
(:func:`repro.octree.tree.grow_tree`) with that explicit split set as
its rule.
"""

from __future__ import annotations

import numpy as np

from repro.octree.lists import build_lists
from repro.octree.morton import MAX_DEPTH
from repro.octree.topology import cell_uid, colleague_offsets
from repro.octree.tree import Octree, build_global_tree


def balanced_split_set(tree: Octree) -> np.ndarray:
    """uids of the cells that split: the split decisions of ``tree``
    closed under the 2:1 rule, ascending."""
    topo = tree.topology
    split = [np.empty(0, dtype=np.uint64)]
    forced = np.empty((0, topo.dim), dtype=np.int64)
    # Deepest level first: the closure only ever adds coarser cells.
    for level in range(topo.depth - 1, -1, -1):
        here = topo.level_boxes(level)
        anchors = np.unique(
            np.vstack([topo.anchor[here[~topo.is_leaf[here]]], forced]), axis=0
        )
        split.append(cell_uid(level, anchors))
        near = (anchors[:, None, :] + colleague_offsets(topo.dim)).reshape(
            -1, topo.dim
        )
        forced = near[((near >= 0) & (near < (1 << level))).all(axis=1)] >> 1
    return np.sort(np.concatenate(split))


def balance_tree(tree: Octree) -> Octree:
    """Rebuild ``tree`` as a 2:1-balanced tree over the same points.

    The result satisfies: adjacent leaves differ by at most one level;
    every point lands in the same or a finer leaf than before.  Unlike
    the adaptive builder, split boxes keep their complete sibling sets
    (empty leaves included; the evaluator skips them) — the finer leaves
    are exactly what the 2:1 condition promises to the neighbours.
    """
    split = balanced_split_set(tree)
    return build_global_tree(
        tree.sources, None if tree.shared_points else tree.targets,
        tree.max_points, MAX_DEPTH, (tree.root_corner, tree.root_side),
        rules=(
            lambda uid, counts: np.isin(uid, split),
            lambda counts: np.ones(counts.shape[:2], dtype=bool),
        ),
    )[0]


def max_adjacent_level_jump(tree: Octree) -> int:
    """Largest level difference between adjacent leaves (balance
    metric): adjacent leaf pairs are exactly the U list."""
    level = tree.topology.level
    leaf, partner = build_lists(tree).pairs("U")
    return int(np.abs(level[leaf] - level[partner]).max())
