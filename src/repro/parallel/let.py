"""Local essential tree (LET) roles (Sections 3.1–3.2).

The LET of a processor P (Warren & Salmon, ref [23]) "first contains the
boxes which contain points belonging to P and second the boxes in the U,
V, W, and X lists of these boxes.  For a box B of the first kind, we say
P contributes to B ... If B is of the second kind, we say P uses B."

We split "uses" by what data is needed, matching the two communication
sub-steps of Section 3.2:

- ``users_equiv`` — P needs the *global upward equivalent density* of
  the box: it appears in the V list of a box P computes the downward
  pass for, or in the W list of a leaf with local targets;
- ``users_src`` — P needs the box's *source positions and densities*
  (ghosts): it appears in the U list of a leaf with local targets, or in
  the X list of a box with local targets.

Like the owners, the users of every rank are computed by every rank
from the replicated contributor matrices — "the same sequential
algorithm" on the same data — so a setup needs no collective beyond the
contributor allgather, and the static verifier
(:mod:`repro.analysis.commir`) derives the same roles from
:func:`~repro.parallel.owners.static_contributors` offline.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree
from repro.parallel.exchange import Roles, box_roles
from repro.parallel.owners import assign_owners
from repro.util.segments import multi_arange


def let_users(
    lists: InteractionLists,
    is_leaf: np.ndarray,
    contrib_trg: np.ndarray,
    nsrc: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(users_equiv, users_src)`` of every rank, each ``(nranks,
    nboxes)`` bool, from the ``(nranks, nboxes)`` target contributor
    matrix.

    ``contrib_trg[r, t]`` says rank ``r`` performs box ``t``'s downward
    computation; each such pair is expanded over ``t``'s V and X list
    rows, and over its W and U rows when ``t`` is a leaf.  A box without
    global sources (``nsrc``) has nothing to send and is used by no one.
    """
    nranks, nboxes = contrib_trg.shape
    users = np.zeros((2, nranks * nboxes), dtype=bool)
    rank, box = np.nonzero(contrib_trg)
    leaf = is_leaf[box]
    for which, out, sel in (
        ("V", users[0], slice(None)),
        ("X", users[1], slice(None)),
        ("W", users[0], leaf),
        ("U", users[1], leaf),
    ):
        ptr, idx = lists.flat(which)
        r, t = rank[sel], box[sel]
        out[np.repeat(r * nboxes, ptr[t + 1] - ptr[t])
            + idx[multi_arange(ptr[t], ptr[t + 1])]] = True
    users = users.reshape(2, nranks, nboxes) & (nsrc > 0)
    return users[0], users[1]


class LETRoles(NamedTuple):
    """The replicated exchange roles of one geometry."""

    owner: np.ndarray  # (nboxes,) int
    src: Roles  # circulating boxes whose sources move (geo, phi)
    ue: Roles  # circulating boxes whose equivalent densities move (pue)


def let_roles(
    tree: Octree,
    lists: InteractionLists,
    contrib_src: np.ndarray,
    contrib_trg: np.ndarray,
    nsrc: np.ndarray,
) -> LETRoles:
    """Owners and the roles of the circulating boxes, from the
    replicated contributor matrices and the global source counts.

    A used box circulates when some rank other than its owner
    contributes to it or uses it; the rest send no message and never
    leave their owner, whose passes read them in place — so at one rank
    no box circulates and every program is empty.
    """
    owner = assign_owners(contrib_src | contrib_trg)
    users_equiv, users_src = let_users(
        lists, tree.topology.is_leaf, contrib_trg, nsrc
    )
    boxes = np.arange(owner.size)

    def roles(users: np.ndarray) -> Roles:
        part = contrib_src | users
        moves = users.any(axis=0) & (part.sum(axis=0) > part[owner, boxes])
        return box_roles(np.flatnonzero(moves), owner, contrib_src, users)

    return LETRoles(owner, roles(users_src), roles(users_equiv))
