"""Per-box floating-point work, computed from real trees and lists.

These formulas mirror the flop accounting of
:mod:`repro.core.evaluator` exactly — kernel pair evaluations cost
``kernel.flops_per_pair`` and dense matrix-vector products cost
``2 * rows * cols`` — so the model's work volumes are the ones the
implementation actually performs, not asymptotic estimates.

Downward-phase work is attributed to the *target* box (whose contributor
ranks redundantly perform it in the parallel algorithm) and upward work
to the *source* box.  For the executed backends (dense, rsvd) the
per-phase totals are an exact identity with the evaluator's flop
counter, which the static plan verifier (``repro plancheck``) certifies
configuration by configuration.  The paper's FFT M2L is priced here
only — the evaluator does not run it: its forward transform is done
once per effective source box per level, so that cost sits on the
*source* box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from repro.core.m2lschedule import M2LSchedule
from repro.core.surfaces import n_surface_points
from repro.kernels.base import Kernel
from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree


@dataclass
class PhaseWork:
    """Flops per box, per interaction phase (arrays of length nboxes)."""

    up: np.ndarray
    down_u: np.ndarray
    down_v: np.ndarray
    down_w: np.ndarray
    down_x: np.ndarray
    eval: np.ndarray

    def totals(self) -> dict[str, float]:
        return {
            "up": float(self.up.sum()),
            "down_u": float(self.down_u.sum()),
            "down_v": float(self.down_v.sum()),
            "down_w": float(self.down_w.sum()),
            "down_x": float(self.down_x.sum()),
            "eval": float(self.eval.sum()),
        }

    @property
    def total(self) -> float:
        return sum(self.totals().values())


def compute_work(
    tree: Octree,
    lists: InteractionLists,
    kernel: Kernel,
    p: int,
    m2l: str | M2LSchedule = "fft",
    global_nsrc: np.ndarray | None = None,
    global_ntrg: np.ndarray | None = None,
    nrhs: int = 1,
    up_nsrc: np.ndarray | None = None,
    rsvd_rank=None,
    inverse_rank=None,
) -> PhaseWork:
    """Flop volumes of one interaction evaluation.

    ``global_nsrc``/``global_ntrg`` default to the tree's own counts;
    they are overridable so scaled particle counts can be modelled on a
    structurally-identical tree.  ``up_nsrc`` (default ``global_nsrc``)
    gates and sizes the *upward* pass separately: a rank of the parallel
    algorithm performs its partial upward pass over its **local** source
    counts while its downward partners are gated by **global** counts,
    so modelling one rank's LET passes ``global_nsrc=ptree.global_nsrc``
    together with ``up_nsrc=<local counts>``.  ``nrhs`` scales every
    phase linearly — a batched multi-RHS apply performs each
    translation, transform and kernel product once per right-hand side
    (index building, kernel assembly and tree traversal are amortised
    but cost no flops, so the flop model is exactly linear even though
    wall-clock time is not).

    ``m2l`` is a uniform backend name (``"fft"``, ``"dense"``,
    ``"rsvd"``) or a resolved
    :class:`~repro.core.m2lschedule.M2LSchedule` for mixed per-level
    backends (``"auto"`` must be resolved by the caller — the picker
    needs an operator cache, the flop model does not).  Any rsvd level
    additionally needs ``rsvd_rank``, a ``(level, offset) -> rank``
    callable (typically ``cache.m2l_rsvd_rank``), because the
    compressed per-pair cost depends on each offset class's numerical
    rank.  ``inverse_rank`` (``cache.inverse_rank``) does the same for
    the inversions by ``(name, level)``; without it they are full rank.

    Every box with targets does its V-list target-side work — the fully
    redundant tree top of the paper's parallel algorithm.
    """
    if not nrhs >= 1:
        raise ValueError(f"nrhs must be >= 1, got {nrhs}")
    topo = tree.topology
    nb, level, parent, leaf = topo.nboxes, topo.level, topo.parent, topo.is_leaf
    if isinstance(m2l, M2LSchedule):
        backends = [m2l.backend(lvl) for lvl in range(topo.depth + 1)]
    elif m2l in ("fft", "dense", "rsvd"):
        backends = [m2l] * (topo.depth + 1)
    else:
        raise ValueError(
            f"m2l must be 'fft', 'dense', 'rsvd' or a resolved "
            f"M2LSchedule, got {m2l}"
        )
    # Per box: does its level run this backend?
    dense, fft, rsvd = (
        np.array([b == name for b in backends])[level]
        for name in ("dense", "fft", "rsvd")
    )
    n_surf = n_surface_points(p, topo.dim)
    md, qd = kernel.source_dof, kernel.target_dof
    fpp = float(kernel.flops_per_pair)

    def counts(given, own):
        return np.asarray(own if given is None else given, dtype=np.float64)

    nsrc = counts(global_nsrc, topo.nsrc)
    ntrg = counts(global_ntrg, topo.ntrg)
    unsrc = counts(up_nsrc, nsrc)
    has_trg = ntrg > 0

    def pinv_flops(name):  # per box, as PlanStages.compile's inverse_flops
        rank = [n_surf * min(md, qd)] * (topo.depth + 1)
        if inverse_rank is not None:
            rank = [inverse_rank(name, lvl) for lvl in range(topo.depth + 1)]
        return 2.0 * np.array(rank, np.float64)[level] * n_surf * (md + qd)
    m2m_flops = 2.0 * (n_surf * qd) * (n_surf * md)  # per child matvec
    l2l_flops = m2m_flops
    m2l_dense_flops = m2m_flops
    grid = 2 * p
    nfreq = grid ** (topo.dim - 1) * (grid // 2 + 1)
    hadamard_flops = 8.0 * qd * md * nfreq
    # Forward/inverse transforms are GEMM-DFTs over the n_surf surface
    # nodes (two real GEMMs each).
    fft_flops = 4.0 * nfreq * n_surf

    def per_box(box, weight=None):
        """Segment sum over pairs: every term is an integer-valued
        float, so the order ``bincount`` adds them in does not matter."""
        return np.bincount(box, weights=weight, minlength=nb).astype(np.float64)

    def live(box, partner):
        """The pairs whose partner holds (global) sources."""
        keep = nsrc[partner] > 0
        return box[keep], partner[keep]

    v_pairs = lists.pairs("V")
    vb, va = live(*v_pairs)
    xb, xa = live(*lists.pairs("X"))
    ub, ua = live(*lists.pairs("U"))
    wb, _ = live(*lists.pairs("W"))

    # Upward pass, over the local counts: S2M at the leaves, one M2M per
    # child that carries a density, one uc2ue inversion per box.
    carries = unsrc > 0
    kids = per_box(parent[1:][carries[1:]])
    up = carries * (
        np.where(leaf, n_surf * unsrc * fpp, kids * m2m_flops)
        + pinv_flops("uc2ue")
    )

    # V list.  Target side: the live pairs of every box this rank
    # computes for, priced by its level's backend; an rsvd pair costs
    # two stacked GEMMs through its offset class's rank-k factors
    # (mirrors _rsvd_pair_flops), looked up once per class.
    fed = per_box(vb)
    nv = fed * has_trg
    down_v = nv * (dense * m2l_dense_flops + fft * hadamard_flops)
    down_v += (nv > 0) * fft * (qd * fft_flops)  # inverse DFT
    compressed = (has_trg & rsvd)[vb]
    if compressed.any():
        if rsvd_rank is None:
            raise ValueError(
                "rsvd-scheduled levels need rsvd_rank, a "
                "(level, offset) -> rank callable (e.g. "
                "OperatorCache.m2l_rsvd_rank)"
            )
        tb, sb = vb[compressed], va[compressed]
        shape = (topo.depth + 1,) + (7,) * topo.dim  # level, offset + 3
        offset = topo.anchor[tb] - topo.anchor[sb]
        classes, which = np.unique(
            np.ravel_multi_index((level[tb], *(offset.T + 3)), shape),
            return_inverse=True,
        )
        lvl, *cell = np.unravel_index(classes, shape)
        rank = np.array([
            rsvd_rank(at, tuple(o))
            for at, o in zip(lvl.tolist(), (np.stack(cell, axis=1) - 3).tolist())
        ])
        down_v += per_box(tb, 2.0 * rank[which] * n_surf * (md + qd))
    # Source side: a box is forward-transformed (once per level) iff it
    # holds sources and feeds a target this rank computes for on an
    # fft-scheduled level (V lists are same-level).
    feeds = np.zeros(nb, dtype=bool)
    feeds[v_pairs[1][(has_trg & fft)[v_pairs[0]]]] = True
    down_v += (feeds & (nsrc > 0)) * (md * fft_flops)

    # Which boxes carry downward data: a box inverts its check potential
    # (and a leaf evaluates L2T) only if it or an ancestor received a V-
    # or X-list contribution — one sweep down the levels.
    has_down = (fed + per_box(xb)) > 0
    for lo, hi in pairwise(topo.level_ptr[1:].tolist()):
        has_down[lo:hi] |= has_down[parent[lo:hi]]
    from_parent = np.zeros(nb, dtype=bool)
    from_parent[1:] = has_down[parent[1:]]
    evalw = has_trg * (
        from_parent * l2l_flops
        + has_down * (pinv_flops("dc2de") + leaf * (ntrg * n_surf * fpp))  # + L2T
    )

    down_x = has_trg * per_box(xb, n_surf * nsrc[xa] * fpp)
    down_u = per_box(ub, ntrg[ub] * nsrc[ua] * fpp)
    down_w = per_box(wb, ntrg[wb] * n_surf * fpp)

    return PhaseWork(
        up=up * nrhs, down_u=down_u * nrhs, down_v=down_v * nrhs,
        down_w=down_w * nrhs, down_x=down_x * nrhs, eval=evalw * nrhs,
    )

