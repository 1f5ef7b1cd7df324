"""Drive one :class:`ApplyExchange` over a synthetic box topology.

Shared by ``test_exchange.py`` and ``test_schedule_stress.py``: the
per-apply exchange is normally reached only through a full parallel FMM
apply; here it runs alone on hand-made contributor/user/owner matrices
so its gather, reduction and scatter can be checked value by value.
"""

import numpy as np

from repro.parallel.exchange import (
    ApplyExchange,
    GhostLayout,
    build_exchange_plan,
)
from repro.parallel.simmpi import run_spmd
from repro.util.timing import PhaseTimer


def run_exchange(
    contrib, users_src, users_equiv, owner, pieces, partials,
    scheme="tree", **spmd,
):
    """One start/relay/finish round (both payload kinds) on every rank.

    ``pieces[r][b]`` are the density rows rank ``r`` contributes to box
    ``b`` (the ``phi`` kind: concatenated at the owner) and
    ``partials[r]`` its ``(nboxes, width)`` partial equivalent densities
    (the ``pue`` kind: summed).  As in ``rank_setup``, only boxes some
    rank uses circulate.  Returns per rank ``(ghost, equiv)``: the
    combined rows / the global density of every box that rank uses.
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

    def main(comm):
        me = comm.rank
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
        layout = GhostLayout(
            phi=build_exchange_plan(
                "phi", me, boxes[users_src.any(axis=0)], contrib,
                users_src, owner, scheme=scheme,
            ),
            pue=build_exchange_plan(
                "pue", me, boxes[users_equiv.any(axis=0)], contrib,
                users_equiv, owner, scheme=scheme,
            ),
            ext_start=ext_start,
            ext_stop=ext_stop,
        )
        exch = ApplyExchange(
            comm, layout, phi_sorted, src_start, src_stop, ue, ext_phi,
            PhaseTimer(),
        )
        for call in (exch.start, exch.relay, exch.finish):
            for kind in ("phi", "pue"):
                call(kind)
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
