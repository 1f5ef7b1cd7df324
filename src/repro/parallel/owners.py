"""Contributor / owner assignment (Section 3.2).

"Before the interaction calculation, we first partition the global tree
array, so that for each box B the owner processor coordinates the
communication related to B.  If only one processor contributes to B, then
it is the owner of B.  If multiple processors contribute to B, then it
can be owned by any processor, and the owner is chosen to balance the
communication load. ... every processor P uses the same sequential
algorithm to assign unmarked boxes to processors."

We reproduce the three-step structure with one Allgather of the local
contribution masks (the paper derives sole-contributorship from
local==global counts and an Allreduce of "taken" marks; exchanging the
masks directly is equivalent and also provides the contributor sets the
gather step needs).
"""

from __future__ import annotations

import numpy as np

from repro.parallel.simmpi import SimComm
from repro.util.segments import multi_arange


def gather_contributors(
    comm: SimComm, local_src: np.ndarray, local_trg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Allgather the per-box contribution masks.

    Returns ``(contrib_src, contrib_trg)``, each ``(nranks, nboxes)``
    bool: rank ``r`` contributes sources/targets to box ``b``.
    """
    stacked = comm.allgather(
        np.stack([local_src, local_trg]).astype(np.uint8)
    )
    arr = np.stack(stacked).astype(bool)  # (nranks, 2, nboxes)
    return arr[:, 0, :], arr[:, 1, :]


def static_contributors(
    tree, parts: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Offline mirror of :func:`gather_contributors` — no SPMD run.

    Given the *global* tree (built over all points with the agreed root
    cube) and the per-rank original-index partition from
    :func:`repro.parallel.partition.partition_points`, computes the same
    ``(contrib_src, contrib_trg)`` matrices every rank would assemble
    collectively: rank ``r`` contributes to box ``b`` iff one of its
    points lies in ``b``.  Box membership is identical because the
    parallel per-rank trees share the global topology and root cube (see
    ``repro/parallel/ptree.py``), so this is exact for arbitrary rank
    counts — including counts far beyond what the simulated runtime can
    execute, which is what makes the static communication verifier
    (:mod:`repro.analysis.commir`) possible at P=4096.
    """
    nranks = len(parts)
    rank_of = np.empty(tree.sources.shape[0], dtype=np.int64)
    for r, idx in enumerate(parts):
        rank_of[idx] = r
    topo = tree.topology
    boxes = np.arange(topo.nboxes)
    contrib = np.zeros((2, nranks, topo.nboxes), dtype=bool)
    for out, perm, start, stop in (
        (contrib[0], tree.src_perm, topo.src_start, topo.src_stop),
        (contrib[1], tree.trg_perm, topo.trg_start, topo.trg_stop),
    ):
        out[rank_of[perm][multi_arange(start, stop)],
            np.repeat(boxes, stop - start)] = True
    return contrib[0], contrib[1]


def assign_owners(contrib: np.ndarray) -> np.ndarray:
    """Deterministic owner per box from the contributor matrix.

    Step 1: a box with a single contributor is owned by it ("taken").
    Step 2/3: multi-contributor boxes are assigned, in box order, to
    whichever of their contributors currently owns the fewest boxes
    (lowest rank on ties) — the paper's "balance communication load"
    heuristic, computed identically on every rank.

    Boxes with *no* contributor (impossible for a pruned tree, but kept
    total) fall to rank 0.
    """
    nranks, nboxes = contrib.shape
    box, ranks = np.nonzero(contrib.T)
    return balance_owners(
        nranks, np.searchsorted(box, np.arange(nboxes + 1)), ranks
    )


def balance_owners(
    nranks: int, ptr: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """:func:`assign_owners` over the contributor lists in CSR form: box
    ``b``'s contributors are ``ranks[ptr[b]:ptr[b + 1]]``, ascending.

    The performance model calls it with the rank intervals of its
    partition, so it prices the owners the ranks agree on without a
    ``(nranks, nboxes)`` matrix.
    """
    count = np.diff(ptr)
    owner = np.zeros(count.size, dtype=np.int64)
    # step 1: sole contributors take their boxes; their load lands
    # before any balancing decision, like the paper's "taken" pre-pass
    sole = count == 1
    owner[sole] = ranks[ptr[:-1][sole]]
    load = np.bincount(owner[sole], minlength=nranks).tolist()
    # steps 2-3: deterministic balancing of the rest.  The selection is
    # inherently sequential (each assignment feeds the next load
    # comparison); ``min`` keeps the first, i.e. lowest, least-loaded
    # rank of the ascending list.
    for b in np.flatnonzero(count > 1).tolist():
        r = min(ranks[ptr[b]:ptr[b + 1]].tolist(), key=load.__getitem__)
        owner[b] = r
        load[r] += 1
    return owner
