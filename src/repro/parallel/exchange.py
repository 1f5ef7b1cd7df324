"""The communication stage between the upward and downward passes.

Implements Algorithm 1 of the paper (gather/scatter of leaf source
positions and densities) and its equivalent-density variant ("the
procedure ... is similar to Algorithm 1 with two modifications: (1) we
iterate over all boxes in the LET instead of just the leaf boxes, and
(2) the owner of a box sums up the received upward equivalent densities
to obtain the global upward equivalent densities for that box").

All sends are buffered (MPI_Isend semantics), and within each box the
dependency edges form a rooted tree, processed in ascending box order on
every rank — the protocol is deadlock-free under both schemes below.

Every exchange supports two *communication schemes*:

``"flat"``
    The paper's literal Algorithm 1: every contributor sends its piece
    point-to-point to the box owner, the owner reduces and sends the
    combined data point-to-point to every user.  The owner of a coarse
    box handles O(P) messages.
``"tree"`` (default)
    The hierarchical tree-top reduction: contributors combine partial
    data along the deterministic binomial rank tree of
    :func:`repro.parallel.simmpi.tree_order` rooted at the owner, so
    each rank — the owner included — touches O(log P) messages per box;
    the scatter mirrors the same tree downward from the owner.

The two schemes are **bitwise identical**: both reduce with the fixed
binomial association of :func:`~repro.parallel.simmpi.combine_tree`
over the same participant layout, and both concatenate source pieces in
tree-position order (owner first, then the remaining contributors in
rotated ascending rank order).  Switching the scheme changes the
message pattern, never a floating-point result.

Two entry points live here: :func:`exchange_source_geometry` runs once
at setup (positions only, blocking), and :class:`ApplyExchange` runs the
per-apply density / equivalent-density exchange with ``isend``/``irecv``
— timed under the ``pack`` (send side) and ``wait`` (receive side)
phases — so the owner relay and the final ghost waits can be overlapped
with owned-data computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.simmpi import (
    Request,
    SimComm,
    combine_tree,
    current_recorder,
    mk_tag,
    register_tag_family,
    tree_children,
    tree_order,
    tree_parent,
)
from repro.util.timing import PhaseTimer

#: Recognised communication schemes (see module docstring).
EXCHANGE_SCHEMES = ("tree", "flat")

# Tag families of the owner-centric box exchanges.  Each payload kind
# owns a gather family (contributor -> owner direction) and a scatter
# family (owner -> user direction, suffixed ``g``); each tag carries the
# box index as its single discriminator.  The static communication
# verifier introspects this registration via
# :func:`exchange_tag_families`, so runtime and verifier can never
# disagree about the tag vocabulary.
for _kind, _gather_phase, _scatter_phase in (
    ("geo", "geo_gather", "geo_scatter"),
    ("phi", "phi_gather", "phi_scatter"),
    ("pue", "pue_gather", "pue_scatter"),
):
    register_tag_family(_kind, fields=("box",), phases=(_gather_phase,))
    register_tag_family(
        _kind + "g", fields=("box",), phases=(_scatter_phase,)
    )


def exchange_tag_families(kind: str) -> tuple[str, str]:
    """The ``(gather, scatter)`` tag families of one exchange kind."""
    mk_tag(kind, 0), mk_tag(kind + "g", 0)  # validate registration
    return kind, kind + "g"


def _check_scheme(scheme: str) -> str:
    if scheme not in EXCHANGE_SCHEMES:
        raise ValueError(
            f"exchange scheme must be one of {EXCHANGE_SCHEMES}, "
            f"got {scheme!r}"
        )
    return scheme


def _gather_pieces_flat(
    comm: SimComm,
    b: int,
    order: list[int],
    is_contrib,
    own_piece,
    tag: tuple,
) -> list:
    """Flat gather in tree-position order: one ``None``-padded piece
    per participant position, ready for :func:`combine_tree` (which
    reproduces the hierarchical scheme's association exactly)."""
    me = comm.rank
    pieces = []
    for r in order:
        if not is_contrib(r):
            pieces.append(None)
        elif r == me:
            pieces.append(own_piece())
        else:
            pieces.append(comm.recv(int(r), tag=tag))
    return pieces


def exchange_source_geometry(
    comm: SimComm,
    boxes: np.ndarray,
    contrib_src: np.ndarray,
    users_src: np.ndarray,
    owner: np.ndarray,
    local_points: dict[int, np.ndarray],
    timer: PhaseTimer | None = None,
    scheme: str = "tree",
) -> dict[int, np.ndarray]:
    """Setup-time Algorithm 1 over source *positions* only.

    The persistent operator exchanges ghost geometry once: positions
    never change between applies, so each :class:`ApplyExchange` moves
    only densities.  Contributor pieces concatenate in tree-position
    order (:func:`~repro.parallel.simmpi.tree_order` rooted at the
    owner, restricted to contributors) under **both** schemes —
    :class:`ApplyExchange` reassembles densities in the identical
    order, so the combined points and the combined densities stay row
    aligned across applies and across schemes.

    Returns ``{box: global_points}`` for every box this rank uses.
    """
    _check_scheme(scheme)
    me = comm.rank
    timer = timer if timer is not None else PhaseTimer()

    def cat(a, b_):
        return np.vstack([a, b_])

    combined: dict[int, np.ndarray] = {}
    if scheme == "tree":
        with timer.phase("wait"):
            for b in boxes:
                o = int(owner[b])
                parts = set(np.nonzero(contrib_src[:, b])[0].tolist()) | {o}
                if me not in parts:
                    continue
                mine = local_points[b] if contrib_src[me, b] else None
                total = comm.tree_reduce(
                    mine, o, parts, tag=mk_tag("geo", int(b)), combine=cat,
                    phase="geo_gather",
                )
                if o == me:
                    combined[int(b)] = (
                        total if total is not None else np.empty((0, 3))
                    )
    else:
        with timer.phase("pack"):
            for b in boxes:
                if contrib_src[me, b] and owner[b] != me:
                    comm.send(int(owner[b]), local_points[b],
                              tag=mk_tag("geo", int(b)), phase="geo_gather")
        with timer.phase("wait"):
            for b in boxes:
                if owner[b] != me:
                    continue
                order = tree_order(np.nonzero(contrib_src[:, b])[0], me)
                pieces = _gather_pieces_flat(
                    comm, int(b), order,
                    lambda r, _b=b: bool(contrib_src[r, _b]),
                    lambda _b=b: local_points[_b], mk_tag("geo", int(b)),
                )
                total = combine_tree(pieces, cat)
                combined[int(b)] = (
                    total if total is not None else np.empty((0, 3))
                )

    result: dict[int, np.ndarray] = {}
    if scheme == "tree":
        with timer.phase("wait"):
            for b in boxes:
                o = int(owner[b])
                parts = set(np.nonzero(users_src[:, b])[0].tolist()) | {o}
                if me not in parts:
                    continue
                data = comm.tree_bcast(
                    combined[int(b)] if o == me else None, o, parts,
                    tag=mk_tag("geog", int(b)), phase="geo_scatter",
                )
                if users_src[me, b]:
                    result[int(b)] = data
    else:
        with timer.phase("pack"):
            for b in boxes:
                if owner[b] == me:
                    for r in np.nonzero(users_src[:, b])[0]:
                        if r != me:
                            comm.send(int(r), combined[int(b)],
                                      tag=mk_tag("geog", int(b)),
                                      phase="geo_scatter")
        with timer.phase("wait"):
            for b in boxes:
                if not users_src[me, b]:
                    continue
                if owner[b] == me:
                    result[int(b)] = combined[int(b)]
                else:
                    result[int(b)] = comm.recv(
                        int(owner[b]), tag=mk_tag("geog", int(b))
                    )
    return result


def _tree_edges(
    order: list[int], me: int
) -> tuple[int | None, list[int]]:
    """This rank's (parent, children) in the binomial tree over ``order``."""
    pos = order.index(me)
    parent = None if pos == 0 else order[tree_parent(pos)]
    children = [order[c] for c in tree_children(pos, len(order))]
    return parent, children


@dataclass
class ExchangePlan:
    """One rank's role in the per-apply exchange of one payload kind.

    Precomputed at setup from the contributor/user matrices and the
    owner map; every list is in ascending box order and every rank list
    in the *tree-position* order of
    :func:`~repro.parallel.simmpi.tree_order` rooted at the owner, so
    message posting order — and therefore the reduction order — is
    schedule independent and identical under both schemes.

    ``send_to_owner`` / ``owned`` / ``recv_from`` describe the flat
    owner-centric roles and are filled under both schemes (the plan IR
    derives ghost-row layouts from them); ``gather`` / ``scatter`` hold
    the per-box binomial-tree edges and drive the ``"tree"`` scheme.
    """

    kind: str  # "phi" (source densities) or "pue" (partial equiv dens.)
    #: Boxes this rank contributes to but does not own: ``(box, owner)``.
    send_to_owner: list[tuple[int, int]]
    #: Boxes this rank owns:
    #: ``(box, peer_contributors, self_contributes, peer_users, self_uses)``.
    owned: list[tuple[int, list[int], bool, list[int], bool]]
    #: Boxes this rank uses but does not own: ``(box, owner)``.
    recv_from: list[tuple[int, int]]
    #: Communication scheme driving :class:`ApplyExchange` (see module
    #: docstring).
    scheme: str = "tree"
    #: Gather-tree nodes this rank occupies (contributors ∪ owner):
    #: ``(box, parent_rank_or_None, child_ranks, self_contributes)``.
    gather: list[tuple[int, int | None, list[int], bool]] = field(
        default_factory=list
    )
    #: Scatter-tree nodes this rank occupies (users ∪ owner):
    #: ``(box, parent_rank_or_None, child_ranks, self_uses)``.
    scatter: list[tuple[int, int | None, list[int], bool]] = field(
        default_factory=list
    )


def build_exchange_plan(
    kind: str,
    me: int,
    boxes: np.ndarray,
    contrib_src: np.ndarray,
    users: np.ndarray,
    owner: np.ndarray,
    scheme: str = "tree",
) -> ExchangePlan:
    """Split the circulating ``boxes`` by this rank's role."""
    _check_scheme(scheme)
    send_to_owner: list[tuple[int, int]] = []
    owned: list[tuple[int, list[int], bool, list[int], bool]] = []
    recv_from: list[tuple[int, int]] = []
    gather: list[tuple[int, int | None, list[int], bool]] = []
    scatter: list[tuple[int, int | None, list[int], bool]] = []
    for b in boxes:
        b = int(b)
        o = int(owner[b])
        contribs = np.nonzero(contrib_src[:, b])[0]
        user_rs = np.nonzero(users[:, b])[0]
        order_g = tree_order(contribs, o)
        order_s = tree_order(user_rs, o)
        if o == me:
            owned.append(
                (b, [r for r in order_g if r != me],
                 bool(contrib_src[me, b]),
                 [r for r in order_s if r != me],
                 bool(users[me, b]))
            )
        else:
            if contrib_src[me, b]:
                send_to_owner.append((b, o))
            if users[me, b]:
                recv_from.append((b, o))
        if me == o or contrib_src[me, b]:
            parent, children = _tree_edges(order_g, me)
            gather.append((b, parent, children, bool(contrib_src[me, b])))
        if me == o or users[me, b]:
            parent, children = _tree_edges(order_s, me)
            scatter.append((b, parent, children, bool(users[me, b])))
    return ExchangePlan(
        kind, send_to_owner, owned, recv_from, scheme, gather, scatter
    )


@dataclass
class GhostLayout:
    """Persistent layout of the per-apply exchange (one rank's view)."""

    phi: ExchangePlan  # combined source densities over ``uses_source`` boxes
    pue: ExchangePlan  # global upward equivalent densities over ``uses_equiv``
    ext_start: np.ndarray  # per-box rows into the combined source arrays
    ext_stop: np.ndarray


class ApplyExchange:
    """One apply's in-flight nonblocking exchange.

    Each method runs one payload kind (``"phi"`` then ``"pue"``, the
    order every rank shares); together they are the ``post`` / ``relay``
    / ``wait`` steps of a rank's apply.  ``start`` posts every send and
    receive of a sub-exchange up front (buffered ``isend`` + posted
    ``irecv``, so the protocol cannot deadlock).  ``relay`` completes
    the gather side: owners reduce the contributor pieces —
    concatenation for densities, summation for partial equivalent
    densities (linearity of eq. 2.1/2.3) — scatter the combined data
    to users and store locally-owned data.  ``finish``
    completes the scatter side, filling the ghost rows.  Between
    ``relay`` and ``finish`` the receive queues fill while the caller
    computes on owned data — the communication/computation overlap
    window of the persistent operator.
    """

    def __init__(
        self,
        comm: SimComm,
        layout: GhostLayout,
        phi_sorted: np.ndarray,
        src_start: np.ndarray,
        src_stop: np.ndarray,
        ue: np.ndarray,
        ext_phi: np.ndarray,
        timer: PhaseTimer,
    ) -> None:
        self._comm = comm
        self._layout = layout
        self._phi_sorted = phi_sorted
        self._src_start = src_start
        self._src_stop = src_stop
        self._ue = ue
        self._ext_phi = ext_phi
        self._timer = timer
        #: Race-detector hook: the per-rank recorder installed by
        #: ``run_spmd(race=...)``, or None on uninstrumented runs.
        self._rec = current_recorder()
        # Per payload kind.  Flat-scheme state: owner-side gathers and
        # user-side scatters.
        self._gathers: dict[str, list[tuple[int, list[Request], bool,
                                            list[int], bool]]] = {}
        self._scatters: dict[str, list[tuple[int, Request]]] = {}
        # Tree-scheme state: interior/root gather nodes, non-root
        # scatter nodes, and the scatter roots' (children, self_uses).
        self._gnodes: dict[str, list[tuple[int, int | None,
                                           list[Request], bool]]] = {}
        self._snodes: dict[str, list[tuple[int, Request,
                                           list[int], bool]]] = {}
        self._sroots: dict[tuple[str, int], tuple[list[int], bool]] = {}

    def _combiner(self, plan: ExchangePlan):
        """Pairwise combiner: concatenation for phi, summation for pue."""
        if plan.kind == "phi":
            return lambda a, c: np.vstack([a, c])
        return lambda a, c: a + c

    def _finalize(self, plan: ExchangePlan, total, npieces: int):
        """Owner-side combined data: guard the empty box, and copy when
        the binomial fold degenerated to a single piece so the combined
        array is always freshly allocated (the single piece may be a
        view of ``phi_sorted`` or a peer's buffer)."""
        if total is None:
            return np.empty((0, self._phi_sorted.shape[1]))
        return total.copy() if npieces == 1 else total

    def _piece(self, plan: ExchangePlan, b: int) -> np.ndarray:
        """This rank's local contribution to box ``b``.

        Equivalent-density rows are copied: the simulated MPI passes
        object references, and ``_store`` later overwrites ``ue[b]``
        with the *global* densities — an uncopied row view would let a
        slow receiver observe the mutated value.  ``phi`` slices are
        never written during an apply, so they ship as views.
        """
        if plan.kind == "phi":
            piece = self._phi_sorted[self._src_start[b]:self._src_stop[b]]
            if self._rec is not None:
                self._rec.read(piece, f"piece:phi box {b}")
            return piece
        if self._rec is not None:
            self._rec.read(self._ue[b], f"piece:pue box {b}")
        return self._ue[b].copy()

    def _store(self, plan: ExchangePlan, b: int, data: np.ndarray) -> None:
        """Place combined data for a used box into the apply arrays."""
        if self._rec is not None:
            self._rec.read(data, f"store:recv box {b}")
        if plan.kind == "phi":
            lay = self._layout
            dst = self._ext_phi[lay.ext_start[b]:lay.ext_stop[b]]
            if self._rec is not None:
                self._rec.write(dst, f"store:ghost-phi box {b}")
            dst[...] = data
        else:
            if self._rec is not None:
                self._rec.write(self._ue[b], f"store:global-ue box {b}")
            self._ue[b] = data

    def start(self, kind: str) -> None:
        """Post every send and receive of the ``kind`` sub-exchange.

        Flat scheme: contributors ship their pieces to the owner and
        users post a receive from the owner.  Tree scheme: every node
        posts receives from its gather children and its scatter parent;
        gather *leaves* ship their piece immediately so interior nodes
        can start folding during the overlap window.
        """
        comm = self._comm
        plan = getattr(self._layout, kind)
        gphase, sphase = f"{kind}_gather", f"{kind}_scatter"
        gathers = self._gathers[kind] = []
        scatters = self._scatters[kind] = []
        gnodes = self._gnodes[kind] = []
        snodes = self._snodes[kind] = []
        with self._timer.phase("pack"):
            if plan.scheme == "tree":
                for b, parent, children, selfc in plan.gather:
                    reqs = [
                        comm.irecv(r, tag=mk_tag(kind, b), phase=gphase)
                        for r in children
                    ]
                    if parent is not None and not children:
                        comm.isend(
                            parent, self._piece(plan, b),
                            tag=mk_tag(kind, b), phase=gphase,
                        )
                    else:
                        gnodes.append((b, parent, reqs, selfc))
                for b, parent, children, selfu in plan.scatter:
                    if parent is None:
                        self._sroots[(kind, b)] = (children, selfu)
                    else:
                        req = comm.irecv(
                            parent, tag=mk_tag(kind + "g", b), phase=sphase
                        )
                        snodes.append((b, req, children, selfu))
                return
            for b, o in plan.send_to_owner:
                comm.isend(o, self._piece(plan, b), tag=mk_tag(kind, b),
                           phase=gphase)
            for b, peers_c, selfc, peers_u, selfu in plan.owned:
                reqs = [
                    comm.irecv(r, tag=mk_tag(kind, b), phase=gphase)
                    for r in peers_c
                ]
                gathers.append((b, reqs, selfc, peers_u, selfu))
            for b, o in plan.recv_from:
                scatters.append(
                    (b, comm.irecv(o, tag=mk_tag(kind + "g", b), phase=sphase))
                )

    def relay(self, kind: str) -> None:
        """Complete the ``kind`` gathers, reduce, and launch the scatter.

        Flat scheme: the owner folds the contributor pieces — laid out
        in tree-position order — with :func:`combine_tree` and sends the
        combined data to every user.  Tree scheme: interior gather nodes
        fold their subtree (own piece first, then children in
        ascending-mask order — the identical association) and forward
        the partial upward; the root finalizes and feeds the scatter
        tree.  Both folds are bitwise identical by construction.

        The tree scheme must wait, fold and forward *per node*, in the
        (kind, box) order every rank shares — never wait all nodes'
        children before forwarding any accumulation.  Two ranks can
        each be an interior gather node in a box the *other* is a child
        of (first possible once gather trees reach four participants,
        i.e. at large rank counts); under wait-all-then-forward each
        rank's forward is program-ordered behind its wait for the
        other's forward — a deadlock cycle.  With the shared ascending
        order, a node's forward for box ``b`` waits only on ``b``'s own
        subtree and on boxes strictly earlier in the shared order, so
        every wait chain is well-founded.  The static verifier
        (``repro commir``) checks exactly this property at P=4096.
        """
        comm = self._comm
        plan = getattr(self._layout, kind)
        with self._timer.phase("wait"):
            for b, parent, reqs, selfc in self._gnodes[kind]:
                child_pieces = [r.wait() for r in reqs]
                if self._rec is not None:
                    # Child pieces arrive by reference: reading them is
                    # a cross-rank access on the sender's arrays,
                    # ordered by the gather message.
                    for p in child_pieces:
                        self._rec.read(p, f"relay:piece box {b}")
                combine = self._combiner(plan)
                acc = self._piece(plan, b) if selfc else None
                npieces = (1 if selfc else 0) + len(child_pieces)
                for p in child_pieces:
                    acc = p if acc is None else combine(acc, p)
                if parent is not None:
                    # Interior node: forward the partial fold upward.
                    if self._rec is not None:
                        self._rec.write(acc, f"relay:partial box {b}")
                    comm.isend(parent, acc, tag=mk_tag(kind, b),
                               phase=f"{kind}_gather")
                    continue
                data = self._finalize(plan, acc, npieces)
                if self._rec is not None:
                    self._rec.write(data, f"relay:combine box {b}")
                s_children, selfu = self._sroots[(kind, b)]
                for r in s_children:
                    comm.isend(r, data, tag=mk_tag(kind + "g", b),
                               phase=f"{kind}_scatter")
                if selfu:
                    self._store(plan, b, data)
            for b, reqs, selfc, peers_u, selfu in self._gathers[kind]:
                peer_pieces = [r.wait() for r in reqs]
                if self._rec is not None:
                    for p in peer_pieces:
                        self._rec.read(p, f"relay:piece box {b}")
                pieces = [
                    self._piece(plan, b) if selfc else None
                ] + peer_pieces
                total = combine_tree(pieces, self._combiner(plan))
                data = self._finalize(
                    plan, total, sum(p is not None for p in pieces)
                )
                if self._rec is not None:
                    self._rec.write(data, f"relay:combine box {b}")
                for r in peers_u:
                    comm.isend(r, data, tag=mk_tag(kind + "g", b),
                               phase=f"{kind}_scatter")
                if selfu:
                    self._store(plan, b, data)

    def finish(self, kind: str) -> None:
        """Complete the ``kind`` scatter side: fill the ghost rows.

        Tree scheme: non-root scatter nodes receive the combined data
        from their parent, forward it to their scatter children, and
        store their own ghost rows.
        """
        comm = self._comm
        plan = getattr(self._layout, kind)
        with self._timer.phase("wait"):
            for b, req, children, selfu in self._snodes[kind]:
                data = req.wait()
                if self._rec is not None:
                    self._rec.read(data, f"finish:recv box {b}")
                for r in children:
                    comm.isend(r, data, tag=mk_tag(kind + "g", b),
                               phase=f"{kind}_scatter")
                if selfu:
                    self._store(plan, b, data)
            for b, req in self._scatters[kind]:
                self._store(plan, b, req.wait())
