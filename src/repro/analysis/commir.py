"""Static communication IR of the parallel exchange protocol.

The runtime's own errors (a leaked mailbox, a receive that times out
naming rank, peer and tag) see *executions*: they need a
:class:`~repro.parallel.simmpi.SimComm` run, so they stop where the
simulated runtime stops — a few dozen ranks.  The protocol claims of the
paper (and the ROADMAP's 3000-CPU projection) live far beyond that.
This module closes the gap: it assembles the **complete message
schedule** — every point-to-point send, receive post and receive
completion with ``(src, dst, tag)``, in the program order of every
rank — as a static ``CommIR``, directly from the plan inputs
(partition, contributor matrices, roles), **without executing an
apply**, for arbitrary rank counts including P=4096.  Next to the
programs it keeps the roles they were compiled from — per circulating
box its owner, contributors and users, the very roles the ranks run —
which is what the ``conservation`` check reads the message edges
against.

The schedule is not a description of the runtime, it *is* the runtime's
program: :func:`~repro.parallel.exchange.compile_exchange` writes the
per-box protocol once; a rank keeps and interprets its own slice
(:class:`~repro.parallel.exchange.ApplyExchange`),
:func:`extract_comm_ir` keeps every rank's.  What remains to derive
offline are the replicated *inputs* of that function, each a pure
function of the points:

- the per-rank trees share the global topology and root cube
  (``repro/parallel/ptree.py``), so one sequential
  :func:`~repro.octree.tree.build_tree` over all points reproduces every
  box boundary;
- :func:`~repro.parallel.owners.static_contributors` computes offline
  what the ``gather_contributors`` Allgather assembles;
- from there on the ranks' own function takes over:
  :func:`~repro.parallel.let.let_roles` derives owners, users and the
  roles of the circulating boxes from the contributor matrices, on a
  rank and here alike.

Each rank's ops appear in its exact program order (:func:`rank_ops`),
which is what lets :mod:`repro.analysis.commcheck_static` check
deadlock-freedom, and
:func:`~repro.analysis.commcheck_static.check_conformance` require the
programs a real setup left on every rank to *be* the IR's, op for op.

The checks over the IR live in :mod:`repro.analysis.commcheck_static`,
whose ``deadlock`` check decides every interleaving of the programs at
once.  CLI: ``python -m repro commir``.
"""

from __future__ import annotations

import gc
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.fmm import FMMOptions
from repro.octree.lists import InteractionLists, build_lists
from repro.octree.tree import Octree, _root_cube, build_tree
from repro.parallel.exchange import (
    CommOp,
    Program,
    Roles,
    compile_exchange,
)
from repro.parallel.let import LETRoles, let_roles
from repro.parallel.owners import static_contributors
from repro.parallel.partition import partition_points
from repro.parallel.pfmm import exchange_schedule
from repro.parallel.simmpi import TAG_FAMILIES

#: Tag families a planned parallel run exchanges point-to-point: the
#: setup geometry exchange and the per-apply density/equivalent-density
#: exchange — every tag the IR's ops carry.
PROTOCOL_FAMILIES = tuple(
    name for name, family in TAG_FAMILIES.items()
    if family.kind == "exchange"
)


@contextmanager
def gc_paused():
    """Pause generational GC around bulk IR work.

    A P=4096 IR is millions of acyclic tuples and slotted dataclasses;
    the collector's periodic full-population scans during extraction
    and certification dominate wall time (2x end to end) while never
    freeing anything.  Pausing — not just tuning thresholds — keeps the
    <60 s certification budget at P=4096.
    """
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


@dataclass
class StaticPlanInputs:
    """Replicated plan inputs shared by every per-rank setup.

    Everything :func:`extract_comm_ir` needs, computed once per
    ``(points, nranks, tree options)`` — the communication schedule does
    not depend on the kernel, the right-hand-side width or the overlap
    flag, so one input set serves the whole configuration sweep.
    ``roles`` is what :func:`~repro.parallel.let.let_roles` returns on
    every rank of that run.
    """

    nranks: int
    tree: Octree
    lists: InteractionLists
    parts: list[np.ndarray]
    contrib_src: np.ndarray  # (nranks, nboxes) bool
    roles: LETRoles


@dataclass
class CommIR:
    """The complete static message schedule of one configuration.

    ``programs[r]`` is rank ``r``'s ops in exact program order: its
    setup's ``geo`` exchange first, then one apply's — the ops every
    further apply repeats.  ``roles[kind][ids]`` declares ``(owner,
    contributors, users)`` per exchanged box — the ground truth the
    conservation check interprets the message edges against.  ``meta``
    carries the configuration and summary counts.
    """

    nranks: int
    programs: list[list[CommOp]]
    roles: dict[str, dict[tuple, tuple[int, frozenset, frozenset]]]
    meta: dict = field(default_factory=dict)

    def nops(self) -> int:
        return sum(len(p) for p in self.programs)

    def nmessages(self) -> int:
        return sum(
            1 for p in self.programs for op in p if op.kind == "send"
        )

    def summary(self) -> str:
        m = self.meta
        return (
            f"commir: P={self.nranks} nboxes={m.get('nboxes')} — "
            f"{self.nmessages()} messages / {self.nops()} ops"
        )


def static_plan_inputs(
    points: np.ndarray,
    nranks: int,
    options: FMMOptions | None = None,
) -> StaticPlanInputs:
    """Derive the replicated plan inputs of a planned parallel run.

    What :func:`~repro.parallel.pfmm.rank_setup` assembles with
    collectives, computed without one: one global tree with the agreed
    root cube and the offline contributor matrices, from which
    :func:`~repro.parallel.let.let_roles` derives the roles as a rank
    does.
    """
    opts = options or FMMOptions()
    points = np.asarray(points, dtype=np.float64)
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if points.shape[0] == 0:
        raise ValueError("cannot extract a schedule for zero points")
    corner, side = _root_cube(points)
    parts = partition_points(points, nranks)
    tree = build_tree(
        points,
        max_points=opts.max_points,
        max_depth=opts.max_depth,
        root=(corner, side),
    )
    lists = build_lists(tree)
    contrib_src, contrib_trg = static_contributors(tree, parts)
    return StaticPlanInputs(
        nranks=nranks,
        tree=tree,
        lists=lists,
        parts=parts,
        contrib_src=contrib_src,
        roles=let_roles(
            tree, lists, contrib_src, contrib_trg, tree.topology.nsrc
        ),
    )


def role_table(
    roles: Roles,
) -> dict[tuple, tuple[int, frozenset, frozenset]]:
    """``CommIR.roles[kind]`` of one payload kind's roles list."""
    return {
        ids: (owner, frozenset(contribs), frozenset(users))
        for ids, owner, contribs, users in roles
    }


def rank_ops(programs: Mapping[str, Program]) -> list[CommOp]:
    """One rank's message ops, in the order it runs them: its programs
    by name, walked in :func:`~repro.parallel.pfmm.exchange_schedule`'s
    setup-then-apply order.  The local ``fold`` / ``store`` ops carry no
    message and are dropped."""
    setup_calls, apply_calls = exchange_schedule()
    return [
        op for name, phase in setup_calls + apply_calls if name in programs
        for op in getattr(programs[name], phase) if op.tag is not None
    ]


def extract_comm_ir(inputs: StaticPlanInputs) -> CommIR:
    """The complete static message schedule of one configuration: a
    setup and one apply.

    Compiles every payload kind of the given roles for all ranks
    (:func:`~repro.parallel.exchange.compile_exchange` — the function
    each rank runs its own slice of) and keeps each rank's
    :func:`rank_ops`.  The schedule takes neither the kernel, the
    right-hand-side width nor the overlap flag: overlap only moves
    *compute* relative to the fixed communication order, and an RHS
    block rides the same messages with wider rows.
    """
    src, ue = inputs.roles.src, inputs.roles.ue
    with gc_paused():
        compiled = {
            kind: compile_exchange(kind, roles)
            for kind, roles in (("geo", src), ("phi", src), ("pue", ue))
        }
        programs = [
            rank_ops({
                name: by_rank[r] for name, by_rank in compiled.items()
                if r in by_rank
            })
            for r in range(inputs.nranks)
        ]
        src_table = role_table(src)
        role_tables = {
            "geo": src_table,
            "phi": src_table,
            "pue": role_table(ue),
        }
    return CommIR(
        nranks=inputs.nranks,
        programs=programs,
        roles=role_tables,
        meta={
            "npoints": int(inputs.tree.sources.shape[0]),
            "nboxes": int(inputs.tree.nboxes),
            "nsrc_boxes": len(src),
            "nue_boxes": len(ue),
            "families": PROTOCOL_FAMILIES,
        },
    )
