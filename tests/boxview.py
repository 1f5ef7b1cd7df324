"""Per-box views of the tree arrays, for the test oracles.

Under ``src/`` a tree is :class:`~repro.octree.topology.TreeTopology`
and its lists are CSR pairs; nothing there walks boxes one at a time.
The oracles do — ``tests/octree/reference_lists.py``, the per-box
evaluator (``tests/core/perbox.py``), the reference cost walkers
(``tests/perfmodel/reference_model.py``) — because a walk that shares no
code with the array construction is what makes them independent.  This
module rebuilds the records they walk from the arrays (they lived in
``repro.octree.box`` / ``Octree.boxes`` / ``InteractionLists.U`` … until
the last caller under ``src/`` went).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from types import SimpleNamespace

import numpy as np

from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree


@dataclass(frozen=True)
class Box:
    """One node of the tree, as a read-only record of plain ints.

    ``index`` is the position in tree order (level by level), ``anchor``
    the integer coordinates at ``level``; ``src_start : src_stop`` and
    ``trg_start : trg_stop`` slice the tree's Morton-sorted point
    permutations; ``children`` are the existing children in octant
    order, empty for leaves.
    """

    index: int
    level: int
    anchor: tuple[int, ...]
    parent: int
    src_start: int
    src_stop: int
    trg_start: int
    trg_stop: int
    children: tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def nsrc(self) -> int:
        return self.src_stop - self.src_start

    @property
    def ntrg(self) -> int:
        return self.trg_stop - self.trg_start


def boxes_adjacent(a: Box, b: Box) -> bool:
    """Whether the *closed* cubes of two boxes touch or overlap.

    Works across levels by comparing integer extents at the finer level.
    A box is adjacent to itself and to its ancestors/descendants.
    """
    level = max(a.level, b.level)
    sa, sb = 1 << (level - a.level), 1 << (level - b.level)
    for d in range(len(a.anchor)):
        lo_a, hi_a = a.anchor[d] * sa, (a.anchor[d] + 1) * sa
        lo_b, hi_b = b.anchor[d] * sb, (b.anchor[d] + 1) * sb
        if lo_a > hi_b or lo_b > hi_a:
            return False
    return True


def box_contains(outer: Box, inner: Box) -> bool:
    """Whether ``inner``'s cube lies (non-strictly) inside ``outer``'s."""
    if inner.level < outer.level:
        return False
    s = 1 << (inner.level - outer.level)
    return all(
        outer.anchor[d] * s <= inner.anchor[d] < (outer.anchor[d] + 1) * s
        for d in range(len(inner.anchor))
    )


def boxes(tree: Octree) -> tuple[Box, ...]:
    """One :class:`Box` record per box, in tree order."""
    t = tree.topology
    columns = (
        t.level, t.anchor, t.parent, t.src_start, t.src_stop,
        t.trg_start, t.trg_stop, t.child,
    )
    return tuple(
        Box(i, level, tuple(anchor), parent, s0, s1, t0, t1,
            tuple(c for c in kids if c >= 0))
        for i, (level, anchor, parent, s0, s1, t0, t1, kids) in enumerate(
            zip(*(column.tolist() for column in columns))
        )
    )


def levels(tree: Octree) -> tuple[range, ...]:
    """Box indices of each level."""
    return tuple(
        range(lo, hi) for lo, hi in pairwise(tree.topology.level_ptr.tolist())
    )


def leaves(tree: Octree) -> list[int]:
    return np.flatnonzero(tree.topology.is_leaf).tolist()


def per_box(lists: InteractionLists) -> SimpleNamespace:
    """``.U``, ``.V``, ``.W``, ``.X``: each list family split per box
    (``view.V[b]`` are the V partners of box ``b``, ascending)."""
    view = SimpleNamespace()
    for which in "UVWX":
        ptr, idx = lists.flat(which)
        setattr(view, which, np.split(idx, ptr[1:-1]))
    return view
