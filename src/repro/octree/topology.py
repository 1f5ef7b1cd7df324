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
the number of cells of all coarser levels, ``(2^(d level) - 1) / (2^d -
1)`` in ``d`` dimensions, so the uids of one level fill their own
interval, storage order is ascending uid order, and the lookup ``(level,
anchor) -> box`` is a binary search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.octree.morton import MAX_DEPTH, anchor_to_key


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def octant_vectors(dim: int) -> np.ndarray:
    """Child-anchor offset of each of the ``2^dim`` octants: row ``o``
    satisfies ``anchor(child) = 2 * anchor(parent) + octant_vectors(dim)[o]``
    for the octant numbering ``o = x | y << 1 | z << 2`` used throughout."""
    return _frozen((np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1)


def child_pair_offsets(parent_offset) -> np.ndarray:
    """Anchor offset of child ``o_t`` of a box from child ``o_s`` of the
    box ``parent_offset`` cells away, as ``[o_t, o_s, axis]``: ``2
    parent_offset + v(o_t) - v(o_s)``.  A V pair unless every component
    is below 2 in magnitude (the children are adjacent)."""
    vectors = octant_vectors(len(parent_offset))
    return (
        2 * np.asarray(parent_offset) + vectors[:, None] - vectors[None, :]
    )


@lru_cache(maxsize=None)
def colleague_offsets(dim: int) -> np.ndarray:
    """Anchor offsets of a box's ``3^dim`` same-level neighbours, itself
    included (row :func:`self_offset`), lexicographic in the axes."""
    return _frozen(
        np.indices((3,) * dim).reshape(dim, -1).T.astype(np.int64) - 1
    )


def self_offset(dim: int) -> int:
    """Row of the zero offset in :func:`colleague_offsets`."""
    return (3**dim - 1) // 2


@lru_cache(maxsize=None)
def level_base(dim: int) -> np.ndarray:
    """Cells of all levels coarser than ``l``: the first uid of level
    ``l``.  The last uid of level 21 is below ``2**64``."""
    cells = 1 << dim
    return _frozen(np.array(
        [(cells**lvl - 1) // (cells - 1) for lvl in range(MAX_DEPTH + 1)],
        dtype=np.uint64,
    ))


def cell_uid(level, anchor: np.ndarray) -> np.ndarray:
    """uid of the cells ``(level, anchor)``; ``anchor`` is ``(..., d)``
    inside the root cube and ``level`` broadcasts against its leading
    axes."""
    return level_base(anchor.shape[-1])[level] + anchor_to_key(
        *np.moveaxis(anchor, -1, 0)
    )


@dataclass(frozen=True)
class TreeTopology:
    """Per-box arrays of one tree, all of length ``nboxes`` (tree order).

    ``child[b, o]`` is the child of ``b`` in octant ``o`` (``2^d``
    columns) or ``-1``;
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
    def dim(self) -> int:
        """Spatial dimension: the anchors' column count."""
        return self.anchor.shape[1]

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

        ``anchor`` is ``(..., d)``; ``level`` broadcasts against its
        leading axes.
        """
        anchor = np.asarray(anchor)
        level = np.asarray(level)
        inside = ((anchor >= 0) & (anchor < (1 << level)[..., None])).all(axis=-1)
        uid = cell_uid(level, np.where(inside[..., None], anchor, 0))
        pos = np.minimum(np.searchsorted(self.uid, uid), self.uid.size - 1)
        return np.where(inside & (self.uid[pos] == uid), pos, -1)

    def colleagues(self, boxes: np.ndarray) -> np.ndarray:
        """``(len(boxes), 3^d)`` same-level neighbours of ``boxes`` in
        :func:`colleague_offsets` order (column :func:`self_offset` is
        the box itself), ``-1`` where the neighbour does not exist."""
        return self.find(
            self.level[boxes, None],
            self.anchor[boxes, None, :] + colleague_offsets(self.dim),
        )
