"""Drive one :class:`ApplyExchange` over a synthetic box topology.

Shared by ``test_exchange.py`` and ``test_schedule_stress.py``: the
per-apply exchange is normally reached only through a full parallel FMM
apply; here it runs alone on hand-made contributor/user/owner matrices
so its gather, reduction and scatter can be checked value by value.
"""

import numpy as np

from repro.analysis.commir import CommIR, rank_ops, role_table
from repro.parallel.exchange import (
    ApplyExchange,
    box_roles,
    compile_exchange,
    phi_binding,
    pue_binding,
)
from repro.parallel.pfmm import exchange_schedule
from repro.parallel.simmpi import run_spmd
from repro.util.timing import PhaseTimer

from tests.parallel.recording import RecordingComm


KINDS = ("phi", "pue")


def _roles(kind, contrib, users_src, users_equiv, owner):
    """As in ``rank_setup``, only boxes some rank uses circulate."""
    users = users_src if kind == "phi" else users_equiv
    boxes = np.flatnonzero(users.any(axis=0))
    return box_roles(boxes, owner, contrib, users)


def exchange_ir(contrib, users_src, users_equiv, owner):
    """The static schedule of the round :func:`run_exchange` runs:
    every rank's compiled programs, phase by phase over both kinds (an
    apply's order)."""
    nranks = contrib.shape[0]
    roles = {
        kind: _roles(kind, contrib, users_src, users_equiv, owner)
        for kind in KINDS
    }
    compiled = {
        kind: compile_exchange(kind, roles[kind]) for kind in KINDS
    }
    return CommIR(
        nranks=nranks,
        programs=[
            rank_ops({kind: compiled[kind][rank] for kind in KINDS})
            for rank in range(nranks)
        ],
        roles={kind: role_table(roles[kind]) for kind in KINDS},
    )


def run_exchange(
    contrib, users_src, users_equiv, owner, pieces, partials, record=None,
    **spmd
):
    """One apply's exchange round (both payload kinds) on every rank.

    ``pieces[r][b]`` are the density rows rank ``r`` contributes to box
    ``b`` (the ``phi`` kind: concatenated at the owner) and
    ``partials[r]`` its ``(nboxes, width)`` partial equivalent densities
    (the ``pue`` kind: summed).  Returns per rank ``(ghost, equiv)``: the
    combined rows / the global density of every box that rank uses.
    A ``record`` dict receives every rank's
    :class:`~tests.parallel.recording.RecordingComm`.
    """
    nranks, nboxes = contrib.shape
    boxes = np.arange(nboxes)
    width = next(
        (p.shape[1] for per in pieces for p in per.values()), 1
    )
    rows = np.array([
        [len(pieces[r].get(b, ())) for b in boxes]
        for r in range(nranks)
    ]).reshape(nranks, nboxes)
    roles = {
        kind: _roles(kind, contrib, users_src, users_equiv, owner)
        for kind in KINDS
    }

    def main(comm):
        me = comm.rank
        if record is not None:
            comm = record[me] = RecordingComm(comm)
        src_stop = np.cumsum(rows[me])
        src_start = src_stop - rows[me]
        phi_sorted = np.vstack(
            [np.empty((0, width))]
            + [pieces[me][b] for b in boxes if b in pieces[me]]
        )
        ext_size = rows.sum(axis=0) * users_src[me]
        ext_stop = np.cumsum(ext_size)
        ext_start = ext_stop - ext_size
        ext_phi = np.full((int(ext_size.sum()), width), np.nan)
        ue = partials[me].copy()
        bindings = {
            "phi": phi_binding(
                phi_sorted, src_start, src_stop, ext_phi, ext_start, ext_stop
            ),
            "pue": pue_binding(ue),
        }
        exch = ApplyExchange(comm, PhaseTimer(), {
            kind: (
                compile_exchange(kind, roles[kind], only=me)[me],
                bindings[kind],
            )
            for kind in KINDS
        })
        for kind, phase in exchange_schedule()[1]:
            exch.run(kind, phase)
        ghost = {
            int(b): ext_phi[ext_start[b]:ext_stop[b]].copy()
            for b in boxes if users_src[me, b]
        }
        equiv = {int(b): ue[b].copy() for b in boxes if users_equiv[me, b]}
        return ghost, equiv

    return run_spmd(nranks, main, **spmd)


def flatten(results):
    """Every rank's received bytes, in a comparable canonical order."""
    return [
        (kind, b, got[b].tobytes())
        for ghost, equiv in results
        for kind, got in (("phi", ghost), ("pue", equiv))
        for b in sorted(got)
    ]
