"""The communication stage between the upward and downward passes.

Algorithm 1 of the paper — gather a box's data to its owner, scatter
the combined data to the box's users — and its equivalent-density
variant ("the procedure ... is similar to Algorithm 1 with two
modifications: (1) we iterate over all boxes in the LET instead of just
the leaf boxes, and (2) the owner of a box sums up the received upward
equivalent densities") are one protocol, written once here as a
*compile function*: :func:`compile_exchange` turns the replicated roles
of one payload kind (owner, contributors, users of every circulating
box) into every participant's :class:`CommOp` program, grouped into the
three phases ``post`` / ``relay`` / ``wait``.  A rank keeps its own
slice and :class:`ApplyExchange` interprets it against a payload
:class:`Binding`; the static verifier (:mod:`repro.analysis.commir`)
keeps all slices and certifies the very same ops.

The gather and the scatter of a box run over one shape: the binomial
tree of :func:`~repro.parallel.simmpi.tree_parent` /
:func:`~repro.parallel.simmpi.tree_children` over its participants in
:func:`~repro.parallel.simmpi.tree_order` (owner first), the edges the
collectives use too.  Every rank — the owner included — touches
O(log P) messages per box.  The performance model counts these same
trees over the same roles
(:func:`~repro.perfmodel.simulate.simulate_run` prices each rank's
sends and receives of an apply); the paper's literal star (the owner of
a coarse box handles O(P) messages) survives only as the baseline it
prices next to them (:func:`~repro.perfmodel.simulate.tree_top_model`);
no rank runs it.

A gather node places its own piece in slot 0 and each child's piece in
the slot of the child's relative tree position, and folds the slots
with :func:`~repro.parallel.simmpi.combine_tree`; this equals
``combine_tree`` over all pieces in tree-position order, bit for bit.

All sends are buffered (MPI_Isend semantics) and every rank walks the
boxes in the same ascending order, waiting, folding and forwarding *per
node*; the wait chains are therefore well-founded and the protocol is
deadlock-free (``repro commir`` checks exactly this at P=4096).

Three bindings run on the one interpreter: ``geo`` once at setup
(source positions), ``phi`` and ``pue`` per apply (densities, partial
upward equivalent densities).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.parallel.simmpi import (
    TAG_FAMILIES,
    Request,
    SimComm,
    combine_tree,
    mk_tag,
    register_tag_family,
    tree_children,
    tree_order,
    tree_parent,
)
from repro.util.timing import PhaseTimer

#: The phases of a program, in the order a driver runs them.
PHASES = ("post", "relay", "wait")

# Tag families of the payload kinds.  Each owner-centric box exchange
# owns a gather family (contributor -> owner direction) and a scatter
# family (owner -> user direction, suffixed ``g``), its tags carrying
# the box index.
for _kind in ("geo", "phi", "pue"):
    register_tag_family(_kind, fields=("box",), phases=(f"{_kind}_gather",))
    register_tag_family(
        _kind + "g", fields=("box",), phases=(f"{_kind}_scatter",)
    )


def exchange_tag_families(kind: str) -> tuple[str, str]:
    """The ``(gather, scatter)`` tag families of one payload kind."""
    return kind, kind + "g"


@dataclass(slots=True)
class CommOp:
    """One operation of a rank's exchange program.

    The communication kinds are ``"send"`` (buffered, nonblocking),
    ``"post"`` (receive posted) and ``"complete"`` (the wait that
    consumes the message — blocking); ``group`` is the tag family,
    ``ids`` the tag discriminators (the box).  ``note`` is the payload
    role of a send: ``"inject"`` own piece, ``"relay"`` partial fold
    forward, ``"scatter"`` combined data downward.  ``slot`` is, for the
    completion of a gather message, the child's relative tree position —
    the slot its piece folds at — and 0 otherwise.

    Two *local* kinds carry no message (``peer`` -1, ``tag`` None) and
    are what the static schedule drops: ``"fold"`` combines the slots
    (with the rank's own piece in slot 0 when ``note`` is ``"own"``)
    into the box's data, ``"store"`` hands that data to the binding.
    """

    kind: str
    peer: int
    tag: tuple | None
    group: str
    ids: tuple
    note: str = ""
    slot: int = 0


class Program(NamedTuple):
    """One rank's ops of one payload kind, by phase (box-ascending)."""

    post: list[CommOp]
    relay: list[CommOp]
    wait: list[CommOp]


#: Per circulating box: ``(ids, owner, contributors, users)``.
Roles = list[tuple[tuple, int, list[int], list[int]]]


def box_roles(
    boxes: np.ndarray,
    owner: np.ndarray,
    contrib: np.ndarray,
    users: np.ndarray,
) -> Roles:
    """The roles of the circulating ``boxes`` from the replicated
    ``(nranks, nboxes)`` contributor and user matrices."""
    contrib_t = np.ascontiguousarray(contrib[:, boxes].T)
    users_t = np.ascontiguousarray(users[:, boxes].T)
    return [
        ((int(b),), int(owner[b]),
         np.flatnonzero(contrib_t[j]).tolist(),
         np.flatnonzero(users_t[j]).tolist())
        for j, b in enumerate(boxes)
    ]


def compile_exchange(
    kind: str, roles: Roles, only: int | None = None
) -> dict[int, Program]:
    """Every participant's program of one payload kind, box-major.

    Per box, the gather tree spans the contributors and the scatter tree
    the users, both binomial and rooted at the owner:

    - ``post``: a gather node posts a receive per child, a gather leaf
      ships its piece at once (so interior nodes can fold during the
      overlap window), a scatter node posts the receive from its parent;
    - ``relay``: an interior or root gather node completes its
      children, folds, and forwards the partial to its parent — per
      node, never all waits before any forward: two ranks can each be
      an interior node of a box the other is a child of, and each
      forward would then sit behind the wait for the other's.  The root
      instead sends the combined data to its scatter children and
      stores it if the owner is a user;
    - ``wait``: a scatter node completes its parent's data, forwards it
      to its own children and stores it.

    ``only`` keeps a single rank's slice (what that rank runs); without
    it every rank's program is returned (what the verifier certifies).
    """
    fam_g, fam_s = exchange_tag_families(kind)
    programs: dict[int, Program] = defaultdict(lambda: Program([], [], []))
    for ids, owner, contribs, users in roles:
        if not contribs:
            raise ValueError(
                f"{kind} box {ids} circulates with no contributor: "
                f"owner {owner} has nothing to gather"
            )
        if only is not None and only != owner and (
            only not in contribs and only not in users
        ):
            continue
        tag_g, tag_s = mk_tag(fam_g, *ids), mk_tag(fam_s, *ids)
        # The local ops of a box are the same on every rank: shared.
        fold_own = CommOp("fold", -1, None, fam_g, ids, "own")
        fold_bare = CommOp("fold", -1, None, fam_g, ids)
        store = CommOp("store", -1, None, fam_s, ids)
        gather = tree_order(contribs, owner)
        for pos, m in enumerate(gather):
            if only is not None and m != only:
                continue
            kids = tree_children(pos, len(gather))
            post, relay, _ = programs[m]
            for c in kids:
                post.append(CommOp("post", gather[c], tag_g, fam_g, ids))
            if pos and not kids:
                post.append(CommOp(
                    "send", gather[tree_parent(pos)], tag_g, fam_g, ids,
                    "inject",
                ))
                continue
            for c in kids:
                relay.append(CommOp(
                    "complete", gather[c], tag_g, fam_g, ids, slot=c - pos
                ))
            # Every member but the owner is there because it contributes.
            relay.append(fold_own if pos or owner in contribs else fold_bare)
            if pos:
                relay.append(CommOp(
                    "send", gather[tree_parent(pos)], tag_g, fam_g, ids,
                    "relay",
                ))
        scatter = tree_order(users, owner)
        for pos, m in enumerate(scatter):
            if only is not None and m != only:
                continue
            post, relay, wait = programs[m]
            phase = relay
            if pos:
                parent = scatter[tree_parent(pos)]
                post.append(CommOp("post", parent, tag_s, fam_s, ids))
                wait.append(CommOp("complete", parent, tag_s, fam_s, ids))
                phase = wait
            for c in tree_children(pos, len(scatter)):
                phase.append(CommOp(
                    "send", scatter[c], tag_s, fam_s, ids, "scatter"
                ))
            if pos or owner in users:
                phase.append(store)
    return programs


def fold_slots(own, pieces: dict[int, object], combine):
    """The fold rule of a gather node: its own piece (or None) in slot
    0, each child's piece in the slot of the child's relative tree
    position, folded with the binomial association."""
    slots = [None] * (max(pieces, default=0) + 1)
    slots[0] = own
    for slot, value in pieces.items():
        slots[slot] = value
    return combine_tree(slots, combine)


class Binding(NamedTuple):
    """What one payload kind ships: ``piece(ids)`` is this rank's own
    contribution to a box, ``combine(a, b)`` the pairwise combiner of
    the owner's reduction, ``store(ids, data)`` places the combined data
    of a box this rank uses."""

    piece: Callable[[tuple], np.ndarray]
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]
    store: Callable[[tuple, np.ndarray], None]


def _concatenate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.vstack([a, b])


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def geo_binding(
    local_points: Callable[[int], np.ndarray], out: dict[int, np.ndarray]
) -> Binding:
    """Setup-time source *positions*: concatenated in tree-position
    order — the order ``phi`` reassembles densities in, so combined
    points and combined densities stay row aligned across applies —
    into ``out[box]``."""

    def store(ids, data):
        out[ids[0]] = data

    return Binding(lambda ids: local_points(ids[0]), _concatenate, store)


def phi_binding(
    phi_sorted: np.ndarray,
    src_start: np.ndarray,
    src_stop: np.ndarray,
    ext_phi: np.ndarray,
    ext_start: np.ndarray,
    ext_stop: np.ndarray,
) -> Binding:
    """Source densities: concatenated into the ghost rows of
    ``ext_phi``.  A piece is a view of ``phi_sorted``'s rows."""

    def piece(ids):
        b = ids[0]
        return phi_sorted[src_start[b]:src_stop[b]]

    def store(ids, data):
        b = ids[0]
        ext_phi[ext_start[b]:ext_stop[b]] = data

    return Binding(piece, _concatenate, store)


def pue_binding(ue: np.ndarray) -> Binding:
    """Partial upward equivalent densities: summed (linearity of
    eq. 2.1/2.3) into the global ``ue[box]``.  A piece is a view of the
    row ``ue[box]``."""

    def piece(ids):
        return ue[ids[0]]

    def store(ids, data):
        ue[ids[0]] = data

    return Binding(piece, _add, store)


@dataclass
class GhostLayout:
    """Persistent layout of the exchange (one rank's view): the rank's
    slice of every program it runs, and the rows they fill."""

    geo: Program  # source positions, run once by the setup
    phi: Program  # combined source densities over the ``src`` roles
    pue: Program  # global upward equivalent densities over the ``ue`` roles
    src_start: np.ndarray  # per-box rows of the rank's own sorted sources
    src_stop: np.ndarray
    ext_start: np.ndarray  # per-box rows into the combined source arrays
    ext_stop: np.ndarray


class ApplyExchange:
    """The interpreter: runs a phase of a program against a binding.

    ``bound`` maps a program name to ``(program, binding)``; each
    :meth:`run` walks one phase of one program.  Between a kind's
    ``relay`` and ``wait`` the receive queues fill while the caller
    computes on owned data — the communication/computation overlap
    window of the persistent operator.  One instance serves one round
    (a setup, or one apply): a channel carries one message per round.
    """

    _TIMED = {"post": "pack", "relay": "wait", "wait": "wait"}

    def __init__(
        self,
        comm: SimComm,
        timer: PhaseTimer,
        bound: dict[str, tuple[Program, Binding]],
    ) -> None:
        self._comm = comm
        self._timer = timer
        self._bound = bound
        self._requests: dict[tuple, Request] = {}
        #: Per (program name, ids): the gathered pieces by slot, then
        #: the box's data.
        self._slots: dict[tuple, dict[int, np.ndarray]] = defaultdict(dict)
        self._data: dict[tuple, np.ndarray] = {}

    def run(self, name: str, phase: str) -> None:
        """Walk ``phase`` of program ``name``, timed under ``pack``
        (post) / ``wait`` (relay, wait)."""
        program, bind = self._bound[name]
        comm, data = self._comm, self._data
        with self._timer.phase(self._TIMED[phase]):
            for op in getattr(program, phase):
                kind, ids = op.kind, op.ids
                if kind == "post":
                    self._requests[op.peer, op.tag] = comm.irecv(
                        op.peer, tag=op.tag,
                        phase=TAG_FAMILIES[op.group].phases[0],
                    )
                elif kind == "complete":
                    value = self._requests.pop((op.peer, op.tag)).wait()
                    if op.slot:
                        self._slots[name, ids][op.slot] = value
                    else:
                        data[name, ids] = value
                elif kind == "send":
                    comm.isend(
                        op.peer,
                        bind.piece(ids) if op.note == "inject"
                        else data[name, ids],
                        tag=op.tag, phase=TAG_FAMILIES[op.group].phases[0],
                    )
                elif kind == "fold":
                    pieces = self._slots.pop((name, ids), {})
                    own = op.note == "own"
                    total = fold_slots(
                        bind.piece(ids) if own else None, pieces,
                        bind.combine,
                    )
                    # A fold of a single piece returns that piece — a
                    # view of this rank's arrays when it is the own one;
                    # copy it so the data is always freshly allocated.
                    if len(pieces) + own == 1:
                        total = total.copy()
                    data[name, ids] = total
                else:  # store
                    bind.store(ids, data[name, ids])
