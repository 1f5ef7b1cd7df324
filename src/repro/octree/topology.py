"""The tree as arrays: what the builder builds and everything reads.

A tree *is* its :class:`TreeTopology` — one struct of per-box arrays that
the one level loop (:func:`repro.octree.tree.grow_tree`) appends row by
row and that the interaction lists, the execution plan, the LET, the
owner assignment, the communication IR and the performance model read.
There is no per-box record type under ``src/``; the test oracles, which
walk boxes one at a time on purpose, derive theirs from these arrays
(``tests/boxview.py``).

Boxes are stored level by level, children in Morton order under parents
in Morton order.  A box's *uid* is its Morton key at its own level plus
the number of cells of all coarser levels, ``(8**level - 1) / 7``, so the
uids of one level fill their own interval, storage order is ascending
uid order, and the lookup ``(level, anchor) -> box`` is a binary search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.octree.morton import MAX_DEPTH, anchor_to_key

#: Child-anchor offset of each octant (row ``o`` satisfies
#: ``anchor(child) = 2 * anchor(parent) + OCTANT_VECTORS[o]`` for the
#: octant numbering ``o = x | y << 1 | z << 2`` used throughout).
OCTANT_VECTORS = np.array(
    [[o & 1, (o >> 1) & 1, (o >> 2) & 1] for o in range(8)], dtype=np.int64
)


def child_pair_offsets(parent_offset) -> np.ndarray:
    """Anchor offset of child ``o_t`` of a box from child ``o_s`` of the
    box ``parent_offset`` cells away, as ``[o_t, o_s, axis]``: ``2
    parent_offset + v(o_t) - v(o_s)``.  A V pair unless every component
    is below 2 in magnitude (the children are adjacent)."""
    return (
        2 * np.asarray(parent_offset)
        + OCTANT_VECTORS[:, None] - OCTANT_VECTORS[None, :]
    )


#: Anchor offsets of a box's 27 same-level neighbours, itself included
#: (row :data:`SELF_OFFSET`).
COLLEAGUE_OFFSETS = np.array(
    [[dx, dy, dz] for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)
SELF_OFFSET = 13

#: Cells of all levels coarser than ``l``: the first uid of level ``l``.
#: The last uid of level 21 is below ``2**64``.
LEVEL_BASE = np.array(
    [(8**lvl - 1) // 7 for lvl in range(MAX_DEPTH + 1)], dtype=np.uint64
)


def cell_uid(level, anchor: np.ndarray) -> np.ndarray:
    """uid of the cells ``(level, anchor)``; ``anchor`` is ``(..., 3)``
    inside the root cube and ``level`` broadcasts against its leading
    axes."""
    return LEVEL_BASE[level] + anchor_to_key(
        anchor[..., 0], anchor[..., 1], anchor[..., 2]
    )


@dataclass(frozen=True)
class TreeTopology:
    """Per-box arrays of one tree, all of length ``nboxes`` (tree order).

    ``child[b, o]`` is the child of ``b`` in octant ``o`` or ``-1``;
    ``level_ptr[l] : level_ptr[l + 1]`` is the index range of level
    ``l``; ``uid`` is ascending (see the module docstring).  The arrays
    are shared by every reader and made read-only on construction.
    """

    level: np.ndarray
    parent: np.ndarray
    anchor: np.ndarray
    octant: np.ndarray
    child: np.ndarray
    is_leaf: np.ndarray
    src_start: np.ndarray
    src_stop: np.ndarray
    trg_start: np.ndarray
    trg_stop: np.ndarray
    level_ptr: np.ndarray
    uid: np.ndarray

    def __post_init__(self) -> None:
        for arr in vars(self).values():
            arr.setflags(write=False)

    @property
    def nboxes(self) -> int:
        return self.level.size

    @property
    def depth(self) -> int:
        """Deepest level with boxes."""
        return self.level_ptr.size - 2

    @property
    def nsrc(self) -> np.ndarray:
        return self.src_stop - self.src_start

    @property
    def ntrg(self) -> np.ndarray:
        return self.trg_stop - self.trg_start

    def level_boxes(self, level: int) -> np.ndarray:
        """Box indices of one level, ascending."""
        return np.arange(self.level_ptr[level], self.level_ptr[level + 1])

    def find(self, level, anchor: np.ndarray) -> np.ndarray:
        """Index of the box at ``(level, anchor)``, ``-1`` where there
        is none (outside the root cube, or a pruned or unrefined cell).

        ``anchor`` is ``(..., 3)``; ``level`` broadcasts against its
        leading axes.
        """
        anchor = np.asarray(anchor)
        level = np.asarray(level)
        inside = ((anchor >= 0) & (anchor < (1 << level)[..., None])).all(axis=-1)
        uid = cell_uid(level, np.where(inside[..., None], anchor, 0))
        pos = np.minimum(np.searchsorted(self.uid, uid), self.uid.size - 1)
        return np.where(inside & (self.uid[pos] == uid), pos, -1)

    def colleagues(self, boxes: np.ndarray) -> np.ndarray:
        """``(len(boxes), 27)`` same-level neighbours of ``boxes`` in
        :data:`COLLEAGUE_OFFSETS` order (column :data:`SELF_OFFSET` is
        the box itself), ``-1`` where the neighbour does not exist."""
        return self.find(
            self.level[boxes, None],
            self.anchor[boxes, None, :] + COLLEAGUE_OFFSETS,
        )
