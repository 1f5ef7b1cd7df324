"""The per-box, set-based list construction: the oracle of ``build_lists``.

This walk was ``repro.octree.lists.build_lists`` until the construction
became array code; it moved here unchanged (only its output is packed
into CSR, the way ``InteractionLists.flat`` used to, the box records it
walks are rebuilt from the arrays by ``tests/boxview.py``, and the
colleagues it starts from come from ``TreeTopology.colleagues``, itself
checked against brute force in ``test_tree.py``).  It walks, for
every leaf ``C``, the subtrees rooted at C's colleagues, descending only
through boxes adjacent to ``C``:

- an adjacent leaf is a U partner (the relation is symmetric, so the
  coarser side of a level-jumping pair is recorded at the same time);
- a non-adjacent box whose parent was adjacent joins ``W(C)`` and,
  dually, ``C`` joins its X list.
"""

from __future__ import annotations

import numpy as np

from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree

from tests.boxview import boxes as box_records, boxes_adjacent


def build_lists_reference(tree: Octree) -> InteractionLists:
    """Construct U, V, W, X lists for every box of ``tree``."""
    nb = tree.nboxes
    U: list[set[int]] = [set() for _ in range(nb)]
    V: list[set[int]] = [set() for _ in range(nb)]
    W: list[set[int]] = [set() for _ in range(nb)]
    X: list[set[int]] = [set() for _ in range(nb)]
    boxes = box_records(tree)
    # Existing same-level neighbours of every box, itself included.
    colleagues = [
        row[row >= 0].tolist()
        for row in tree.topology.colleagues(np.arange(nb))
    ]

    for b in boxes:
        # V list: children of parent's colleagues not adjacent to B.
        if b.parent >= 0:
            for pc in colleagues[b.parent]:
                for child in boxes[pc].children:
                    if child != b.index and not boxes_adjacent(boxes[child], b):
                        V[b.index].add(child)

        if not b.is_leaf:
            continue

        # U and W lists by descending through adjacent colleagues.
        U[b.index].add(b.index)
        for col in colleagues[b.index]:
            if col == b.index:
                continue
            stack = [col]
            while stack:
                a = stack.pop()
                abox = boxes[a]
                if boxes_adjacent(abox, b):
                    if abox.is_leaf:
                        U[b.index].add(a)
                        U[a].add(b.index)  # coarse side of a level jump
                    else:
                        stack.extend(abox.children)
                else:
                    # parent was adjacent to B (we descended through it),
                    # A itself is not: the definition of W membership.
                    W[b.index].add(a)
                    X[a].add(b.index)

    def _freeze(sets: list[set[int]]) -> tuple[np.ndarray, np.ndarray]:
        per_box = [np.array(sorted(s), dtype=np.int64) for s in sets]
        counts = np.fromiter((len(x) for x in per_box), np.int64, len(per_box))
        ptr = np.zeros(len(per_box) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return ptr, np.concatenate(per_box).astype(np.int64, copy=False)

    return InteractionLists(
        {"U": _freeze(U), "V": _freeze(V), "W": _freeze(W), "X": _freeze(X)}
    )
