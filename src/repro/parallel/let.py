"""Local essential tree (LET) classification (Sections 3.1–3.2).

The LET of a processor P (Warren & Salmon, ref [23]) "first contains the
boxes which contain points belonging to P and second the boxes in the U,
V, W, and X lists of these boxes.  For a box B of the first kind, we say
P contributes to B ... If B is of the second kind, we say P uses B."

We split "uses" by what data is needed, matching the two communication
sub-steps of Section 3.2:

- ``uses_equiv`` — P needs the *global upward equivalent density* of the
  box: it appears in the V list of a box P computes the downward pass
  for, or in the W list of a leaf with local targets;
- ``uses_source`` — P needs the box's *source positions and densities*
  (ghosts): it appears in the U list of a leaf with local targets, or in
  the X list of a box with local targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree


@dataclass
class LETUsage:
    """Which global data this rank needs for its downward computation."""

    uses_equiv: np.ndarray  # (nboxes,) bool
    uses_source: np.ndarray  # (nboxes,) bool


def classify_let(
    tree: Octree,
    lists: InteractionLists,
    local_trg: np.ndarray,
) -> LETUsage:
    """Compute the usage masks for a rank with targets in ``local_trg`` boxes.

    ``local_trg[b]`` is True when box ``b``'s subtree holds targets owned
    by this rank — exactly the boxes whose downward computation the rank
    performs (ignoring other processors, per Section 3).
    """
    nb = tree.nboxes
    uses_equiv = np.zeros(nb, dtype=bool)
    uses_source = np.zeros(nb, dtype=bool)
    active = np.asarray(local_trg, dtype=bool)
    leaf = tree.topology.is_leaf
    for which, out, gate in (
        ("V", uses_equiv, active),
        ("X", uses_source, active),
        ("W", uses_equiv, active & leaf),
        ("U", uses_source, active & leaf),
    ):
        trg, idx = lists.pairs(which)
        out[idx[gate[trg]]] = True
    return LETUsage(uses_equiv=uses_equiv, uses_source=uses_source)


def gather_users(
    comm, usage: LETUsage
) -> tuple[np.ndarray, np.ndarray]:
    """Allgather the usage masks into (nranks, nboxes) user matrices."""
    stacked = comm.allgather(
        np.stack([usage.uses_equiv, usage.uses_source]).astype(np.uint8)
    )
    arr = np.stack(stacked).astype(bool)
    return arr[:, 0, :], arr[:, 1, :]
