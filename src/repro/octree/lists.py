"""The four interaction lists of the adaptive FMM (Section 3.1).

Quoting the paper's definitions for a box ``B``:

- **U list** — "contains B itself and the leaf boxes which are adjacent to
  B if B is leaf, and it is empty when B is non-leaf".  Handled by dense
  (direct) source-to-target interaction.
- **V list** — "contains the children of the neighbors of B's parent,
  which are not adjacent to B".  Handled by M2L translation.
- **W list** — "contains all the descendants of B's neighbors whose
  parents are adjacent to B but who are not adjacent to B themselves if B
  is leaf".  Handled by evaluating the W-box's upward equivalent density
  directly at B's targets.
- **X list** — "contains all boxes A such that B is in A's W list".
  Handled by evaluating A's sources onto B's downward check surface.

The construction is array code over :attr:`Octree.topology`, a chunk
of consecutive boxes (so: level by level) at a time
(``docs/architecture.md``, "Setup as array code"):

- **V** — the children of a parent's ``3^d`` colleagues are the ``6^d``
  cells ``[2P - 2, 2P + 3]^d`` around the parent anchor ``P``; which of
  them are not adjacent to a child depends only on the child's octant (a
  fixed ``(2^d, 6^d)`` table, ``(8, 216)`` for the octree), so a level's
  V lists are one colleague lookup per parent, one gather through the
  child table and one row sort.
- **U, W, X** — a frontier of ``(leaf, box)`` pairs starts at the
  leaves' colleagues and descends only through boxes adjacent to the
  leaf: an adjacent leaf is a U partner (the relation is symmetric, so
  the coarser side of a level-jumping pair is recorded at the same
  time); a non-adjacent box whose parent was adjacent joins ``W(leaf)``
  and, dually, the leaf joins its X list; an adjacent non-leaf is
  replaced by its children.  At most ``depth`` rounds.

This yields exactly the classical adaptive lists of Greengard [7] and
Cheng-Greengard-Rokhlin [4] without requiring a 2:1-balanced tree; the
per-box set-based walk it replaced is kept as the test oracle
(``tests/octree/reference_lists.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.octree.topology import (
    TreeTopology,
    colleague_offsets,
    octant_vectors,
    self_offset,
)
from repro.octree.tree import Octree
from repro.util.segments import chunk_segments

_FAMILIES = ("U", "V", "W", "X")

#: Boxes plus their children one chunk of the tree may hold.  A chunk's
#: scratch is ``3^d`` colleague lookups per box, ``6^d`` V candidates per
#: child and the U/W/X frontier of its leaves: ~15 MB at this size in 3D,
#: whatever the tree's.
_CHUNK = 4096


@lru_cache(maxsize=None)
def far_table(dim: int) -> np.ndarray:
    """``far_table(d)[o, 2^d j + c]``: whether child ``c`` of colleague
    ``j`` of a parent is *not* adjacent to the parent's own child in
    octant ``o``."""
    vectors = octant_vectors(dim)
    cells = 2 * colleague_offsets(dim)[:, None, :] + vectors
    far = (np.abs(cells.reshape(-1, dim) - vectors[:, None, :]) > 1).any(axis=2)
    far.setflags(write=False)
    return far


class InteractionLists:
    """The four lists of every box, each one CSR pair ``(ptr, idx)``.

    ``idx[ptr[b] : ptr[b + 1]]`` are the partners of box ``b``, int64,
    ascending and duplicate-free.  The arrays are stored as handed in
    (read-only from then on): :meth:`flat` returns them, :meth:`pairs`
    expands them to one ``(box, partner)`` entry per interaction.
    """

    def __init__(self, csr: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        self._csr = {which: csr[which] for which in _FAMILIES}
        for ptr, idx in self._csr.values():
            if ptr.dtype != np.int64 or idx.dtype != np.int64:
                raise TypeError("interaction lists are int64 CSR arrays")
            ptr.setflags(write=False)
            idx.setflags(write=False)

    def flat(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """CSR arrays ``(ptr, idx)`` of one list family (not copies)."""
        if which not in _FAMILIES:
            raise ValueError(f"which must be one of U, V, W, X, got {which!r}")
        return self._csr[which]

    def pairs(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """One family as ``(box, partner)`` index arrays, in CSR order."""
        ptr, idx = self.flat(which)
        return np.repeat(np.arange(ptr.size - 1), np.diff(ptr)), idx

    def counts(self) -> dict[str, int]:
        """Total list entries, the raw material of the flop model."""
        return {which: int(ptr[-1]) for which, (ptr, _) in self._csr.items()}


def _adjacent(
    topo: TreeTopology, coarse: np.ndarray, fine: np.ndarray
) -> np.ndarray:
    """Whether the closed cubes of box pairs touch, ``fine`` being at
    the same or a deeper level: integer extents at the finer level."""
    shift = (topo.level[fine] - topo.level[coarse])[:, None]
    lo = topo.anchor[coarse] << shift
    at = topo.anchor[fine]
    return ((lo <= at + 1) & (at <= lo + (1 << shift))).all(axis=1)


def _csr(
    trg: np.ndarray, partner: np.ndarray, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``(box, partner)`` pairs as CSR, partners ascending."""
    key = trg * nb + partner
    key.sort()
    trg = key // nb
    ptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(trg, minlength=nb), out=ptr[1:])
    return ptr, key - trg * nb


def build_lists(tree: Octree) -> InteractionLists:
    """Construct U, V, W, X lists for every box of ``tree``."""
    topo = tree.topology
    nb, dim = topo.nboxes, topo.dim
    far = far_table(dim)
    none = np.empty(0, dtype=np.int64)
    # Row -1 (a missing colleague) has no children.
    child = np.vstack([topo.child, np.full((1, 1 << dim), -1)])
    weight = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(1 + (topo.child >= 0).sum(axis=1), out=weight[1:])
    cells = np.arange(far.shape[1])

    v_count = np.zeros(nb, dtype=np.int64)
    v_idx = [none]
    u_pairs, w_pairs = [(none, none)], [(none, none)]
    # Boxes are stored in ascending uid order, so the children of
    # consecutive boxes are consecutive too: chunk after chunk, V fills
    # in box order.
    for lo, hi in chunk_segments(weight, _CHUNK):
        boxes = np.arange(lo, hi)
        coll = topo.colleagues(boxes)

        # V of the chunk's children.
        kids = topo.child[boxes]
        has = kids >= 0
        row, kid = np.nonzero(has)[0], kids[has]
        cand = child[coll[row]].reshape(kid.size, cells.size)
        cand = np.where(far[topo.octant[kid]] & (cand >= 0), cand, nb)
        cand.sort(axis=1)
        v_count[kid] = found = (cand < nb).sum(axis=1)
        v_idx.append(cand[cells < found[:, None]])

        # U, W, X of the chunk's leaves.
        leaf = topo.is_leaf[boxes]
        near = coll[leaf]
        near[:, self_offset(dim)] = -1
        has = near >= 0
        trg, box = np.broadcast_to(boxes[leaf, None], near.shape)[has], near[has]
        while trg.size:
            adj = _adjacent(topo, trg, box)
            w_pairs.append((trg[~adj], box[~adj]))
            trg, box = trg[adj], box[adj]
            ends = topo.is_leaf[box]
            u_pairs.append((trg[ends], box[ends]))
            kids = topo.child[box[~ends]]
            has = kids >= 0
            trg, box = np.broadcast_to(trg[~ends, None], kids.shape)[has], kids[has]

    v_ptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(v_count, out=v_ptr[1:])
    ut, us = (np.concatenate(side) for side in zip(*u_pairs))
    wt, ws = (np.concatenate(side) for side in zip(*w_pairs))
    # Leaves of one level find each other from both sides; across a
    # level jump only the coarser leaf's descent reaches the finer one.
    jump = topo.level[us] > topo.level[ut]
    leaves = np.flatnonzero(topo.is_leaf)
    return InteractionLists({
        "U": _csr(
            np.concatenate([leaves, ut, us[jump]]),
            np.concatenate([leaves, us, ut[jump]]),
            nb,
        ),
        "V": (v_ptr, np.concatenate(v_idx)),
        "W": _csr(wt, ws, nb),
        "X": _csr(ws, wt, nb),
    })


def verify_lists(tree: Octree, lists: InteractionLists) -> None:
    """Check the structural invariants of Section 2.1 / 3.1.

    Raises ``AssertionError`` naming the first violating pair.  Used by
    the test suite and available to users as a debugging aid.
    """
    topo = tree.topology
    level, parent, leaf, nb = topo.level, topo.parent, topo.is_leaf, topo.nboxes

    def touching(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        deeper = level[a] > level[b]
        return _adjacent(topo, np.where(deeper, b, a), np.where(deeper, a, b))

    def check(ok: np.ndarray, box: np.ndarray, partner: np.ndarray, claim: str):
        bad = np.flatnonzero(~ok)
        assert not bad.size, (
            f"{claim}: box {box[bad[0]]}, partner {partner[bad[0]]}"
        )

    b, u = lists.pairs("U")
    leaves = np.flatnonzero(leaf)
    check(np.isin(leaves, b[b == u]), leaves, leaves, "a leaf is in its own U list")
    check(leaf[b], b, u, "the U list of a non-leaf is empty")
    check(leaf[u], b, u, "U boxes are leaves")
    check(touching(b, u), b, u, "U boxes are adjacent")
    b, v = lists.pairs("V")
    check(level[v] == level[b], b, v, "V boxes are at the box's level")
    check(~touching(b, v), b, v, "V boxes are not adjacent")
    check(touching(parent[b], parent[v]), b, v, "V boxes' parents are adjacent")
    b, w = lists.pairs("W")
    check(leaf[b], b, w, "the W list of a non-leaf is empty")
    check(level[w] > level[b], b, w, "W boxes are finer")
    check(~touching(b, w), b, w, "W boxes are not adjacent")
    check(touching(b, parent[w]), b, w, "W boxes' parents are adjacent")
    x, a = lists.pairs("X")
    check(np.isin(a * nb + x, b * nb + w), x, a, "X is the dual of W")
