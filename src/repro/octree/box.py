"""The octree box (a cube in 3D, cf. footnote 2 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Box:
    """One node of the adaptive computation tree, as a read-only record.

    The tree is stored as arrays (:class:`~repro.octree.topology.
    TreeTopology`); ``Octree.boxes`` derives these records from them for
    code that walks boxes one at a time.  Point membership is *ranges
    into the Morton-sorted point permutations* held by the owning
    :class:`~repro.octree.tree.Octree`, so a box's sources/targets are
    always contiguous slices.

    Attributes
    ----------
    index:
        Position of this box in ``tree.boxes`` (level-by-level order, the
        same ordering the paper's "global tree array" uses).
    level:
        Depth in the tree; the root is level 0.
    anchor:
        Integer coordinates ``(ix, iy, iz)`` of the box at its level, each
        in ``[0, 2**level)``.
    parent:
        Index of the parent box, or ``-1`` for the root.
    src_start, src_stop:
        Slice of the tree's Morton-sorted *source* permutation.
    trg_start, trg_stop:
        Slice of the tree's Morton-sorted *target* permutation.
    children:
        Indices of the existing children in octant order; empty for
        leaves.
    """

    index: int
    level: int
    anchor: tuple[int, int, int]
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
    for d in range(3):
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
        for d in range(3)
    )
