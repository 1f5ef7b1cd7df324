"""Optional 2:1 tree balancing.

The paper's adaptive algorithm needs no balance condition — the W and X
lists handle arbitrary level jumps between adjacent leaves — but a
2:1-balanced tree (adjacent leaves differ by at most one level) bounds
the U/W/X list sizes and is a standard option in production FMM codes.
``benchmarks/bench_balance_ablation.py`` measures the trade-off: more
boxes vs smaller adaptive lists.

Algorithm: collect the split set of the unbalanced tree, close it under
the 2:1 rule (if a box at level ``l`` is split, every same-level
neighbour's parent must be split too), and rebuild the tree with that
explicit split set.
"""

from __future__ import annotations

import numpy as np

from repro.octree.box import Box
from repro.octree.morton import MAX_DEPTH, anchor_to_key, encode_points
from repro.octree.tree import Octree

_U = np.uint64


def balanced_split_set(tree: Octree) -> set[tuple[int, tuple[int, int, int]]]:
    """Split decisions of ``tree`` closed under the 2:1 rule."""
    split = {
        (b.level, b.anchor) for b in tree.boxes if not b.is_leaf
    }
    # process deepest first; the closure only ever adds coarser entries
    queue = sorted(split, key=lambda e: -e[0])
    seen = set(split)
    while queue:
        level, (ix, iy, iz) = queue.pop()
        if level == 0:
            continue
        n = 1 << level
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    jx, jy, jz = ix + dx, iy + dy, iz + dz
                    if not (0 <= jx < n and 0 <= jy < n and 0 <= jz < n):
                        continue
                    parent = (level - 1, (jx // 2, jy // 2, jz // 2))
                    if parent not in seen:
                        seen.add(parent)
                        queue.append(parent)
    return seen


def balance_tree(tree: Octree) -> Octree:
    """Rebuild ``tree`` as a 2:1-balanced tree over the same points.

    The result satisfies: adjacent leaves differ by at most one level;
    every point lands in the same or a finer leaf than before.  Unlike
    the adaptive builder, split boxes keep their complete sibling sets
    (empty leaves included) — the finer leaves are exactly what the 2:1
    condition promises to the neighbours.
    """
    split = balanced_split_set(tree)
    sources, targets = tree.sources, tree.targets
    shared = tree.shared_points
    corner, side = tree.root_corner, tree.root_side

    src_keys = encode_points(sources, corner, side)
    src_perm = np.argsort(src_keys, kind="stable")
    src_sorted = src_keys[src_perm]
    if shared:
        trg_perm, trg_sorted = src_perm, src_sorted
    else:
        trg_keys = encode_points(targets, corner, side)
        trg_perm = np.argsort(trg_keys, kind="stable")
        trg_sorted = trg_keys[trg_perm]

    out = Octree(
        sources=sources,
        targets=targets,
        root_corner=corner,
        root_side=side,
        max_points=tree.max_points,
        shared_points=shared,
        src_perm=src_perm,
        trg_perm=trg_perm,
    )
    out.boxes.append(
        Box(
            index=0, level=0, anchor=(0, 0, 0), parent=-1,
            src_start=0, src_stop=sources.shape[0],
            trg_start=0, trg_stop=targets.shape[0],
        )
    )
    out.index[(0, (0, 0, 0))] = 0
    out.levels.append([0])

    frontier = [0]
    level = 0
    while frontier and level < MAX_DEPTH:  # no key bits below the cap
        next_frontier: list[int] = []
        shift = _U(3 * (MAX_DEPTH - level - 1))
        for bi in frontier:
            box = out.boxes[bi]
            if (box.level, box.anchor) not in split:
                continue
            ix, iy, iz = box.anchor
            base = _U(anchor_to_key(ix, iy, iz)) << _U(3)
            bounds = (base + np.arange(9, dtype=np.uint64)) << shift
            s_cuts = box.src_start + np.searchsorted(
                src_sorted[box.src_start : box.src_stop], bounds, side="left"
            )
            t_cuts = box.trg_start + np.searchsorted(
                trg_sorted[box.trg_start : box.trg_stop], bounds, side="left"
            )
            kids = []
            for c in range(8):
                child_anchor = (
                    2 * ix + (c & 1),
                    2 * iy + ((c >> 1) & 1),
                    2 * iz + ((c >> 2) & 1),
                )
                # Balanced trees keep complete sibling sets: a forced
                # split must produce the finer leaves its neighbours'
                # 2:1 condition relies on, even when they hold no points
                # (empty leaves are skipped by the evaluator anyway).
                child = Box(
                    index=len(out.boxes),
                    level=level + 1,
                    anchor=child_anchor,
                    parent=bi,
                    src_start=int(s_cuts[c]),
                    src_stop=int(s_cuts[c + 1]),
                    trg_start=int(t_cuts[c]),
                    trg_stop=int(t_cuts[c + 1]),
                )
                out.boxes.append(child)
                out.index[(level + 1, child_anchor)] = child.index
                kids.append(child.index)
            box.children = tuple(kids)
            next_frontier.extend(kids)
        if next_frontier:
            out.levels.append(next_frontier)
        frontier = next_frontier
        level += 1
    return out


def max_adjacent_level_jump(tree: Octree) -> int:
    """Largest level difference between adjacent leaves (balance metric)."""
    from repro.octree.box import boxes_adjacent

    leaves = [tree.boxes[i] for i in tree.leaves()]
    worst = 0
    for a in leaves:
        for b in leaves:
            if a.index < b.index and boxes_adjacent(a, b):
                worst = max(worst, abs(a.level - b.level))
    return worst
