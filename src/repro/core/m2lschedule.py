"""Per-level M2L backend schedules and the ``auto`` picker.

The V-list translation (M2L) has two interchangeable backends:

``dense``
    One ``(n_surf*qd, n_surf*md)`` GEMM per offset class — highest flop
    count, highest achieved rate.
``rsvd``
    Randomized-SVD-compressed operators (arXiv:2408.07436) — fewer
    flops at ``p >= 6``.  Two layouts run them: parent-pair *blocked*
    (sibling slabs through direction-stacked factors, fat GEMMs) or
    *class-major* (two skinny GEMMs per offset class), one per operator.

The paper's circulant-embedded FFT convolution has the lowest flop
count, but executed as the blocked Hadamard it measured slower than
the backend ``auto`` picks on every V level of the benchmark trees
(Laplace p = 4, 6, 8; Stokes p = 6; uniform and corner-clustered), so
only the performance model prices it (:mod:`repro.perfmodel.costs`).

An :class:`M2LSchedule` fixes one backend *per tree level* plus the
factor precision and the layout of the rsvd levels.  The uniform modes
map every level to the same backend; ``auto`` picks per level from the
level's V-list statistics with the cost model below.  The statistics
can be read off a compiled plan or off the raw lists
(:func:`v_stats_from_plan` / :func:`v_stats_from_lists` — parity is
pinned by test), so the planned apply and the tests' per-box oracle
resolve the same backends and their potentials match to backend
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.util.segments import distinct

#: Recognised ``FMMOptions.m2l`` values.
M2L_MODES = ("dense", "rsvd", "auto")

#: Recognised ``FMMOptions.dtype`` values (rsvd factor precision).
M2L_DTYPES = ("float64", "float32")

#: Rates of the rsvd layout decision (:func:`rsvd_layout_seconds`) —
#: picker heuristics, not part of the certified flop identity (the
#: plancheck flop check compares exact counts).  Flop/s of the GEMM
#: shapes each layout runs at p = 6 on the 2-vCPU host, 1 thread (in
#: cache: class-major 1568x152x26 ≈ 37e9, stacked 512x152x630 ≈ 66e9
#: and 512x5028x152 ≈ 64e9; inside the stages, operands streaming: 25e9
#: and 45-52e9), then B/s at which a stage reads its operators through
#: once and at which its gathers and scatters move one copy of a row.
_SKINNY_RATE, _STACKED_RATE, _STREAM_RATE, _MOVE_RATE = 25e9, 45e9, 10e9, 5e9


@dataclass
class M2LSchedule:
    """A resolved per-level V-list backend assignment.

    ``mode`` is the requested ``FMMOptions.m2l`` value, ``dtype`` the
    rsvd factor precision, and ``backends`` maps each level that has
    effective V-list pairs to ``"dense"`` or ``"rsvd"``.
    ``blocked`` is the layout every rsvd level runs
    (:func:`rsvd_layout_seconds`): parent-pair blocks through
    direction stacks, or class-major.
    """

    mode: str
    dtype: str
    backends: dict[int, str]
    blocked: bool = False

    def backend(self, level: int) -> str:
        """Backend of one level (levels without V pairs default dense)."""
        return self.backends.get(level, "dense")

    def describe(self) -> dict:
        """JSON-friendly summary for plan-IR metadata and reports."""
        return {
            "mode": self.mode,
            "dtype": self.dtype,
            "levels": {int(k): v for k, v in sorted(self.backends.items())},
            "rsvd_layout": "blocked" if self.blocked else "class-major",
        }


@lru_cache(maxsize=None)
def block_slot_counts(dim: int) -> np.ndarray:
    """V slots of a parent pair by the number ``k`` of non-zero
    components of its offset: the ``4^d`` child pairs less the ``4^(d-k)``
    adjacent ones (face, edge, corner in 3D: 48, 60, 63)."""
    slots = np.array([4**dim - 4 ** (dim - k) for k in range(dim + 1)])
    slots.setflags(write=False)
    return slots


def v_stats_from_plan(plan) -> dict[int, tuple[int, int, int, int, int]]:
    """``level -> (npairs, n_src_boxes, n_trg_boxes, n_parent_pairs,
    n_block_slots)`` of a compiled plan.

    The plan's :class:`~repro.core.plan.VLevel` stages already hold the
    effective (gated) pairs as parent-pair blocks, so the stats are a
    direct read-off.  A block has a slot per non-adjacent child pair,
    filled or not.
    """
    return {
        vl.level: (
            int(vl.npairs), int(vl.src_boxes.size), int(vl.trg_boxes.size),
            sum(len(rows) for _, rows, _ in vl.po_groups),
            sum(
                len(rows) * int(block_slot_counts(len(po))[np.count_nonzero(po)])
                for po, rows, _ in vl.po_groups
            ),
        )
        for vl in plan.v_levels
        if vl.npairs
    }


def v_stats_from_lists(
    tree, lists, nsrc=None, ntrg=None
) -> dict[int, tuple[int, int, int, int, int]]:
    """The same statistics from raw interaction lists.

    Gating matches ``build_plan`` exactly — a pair counts iff the target
    box has targets and the source box has sources — so a schedule
    resolved before any plan exists is the plan's.  ``nsrc`` / ``ntrg``
    override the local per-box counts: the parallel LET passes global
    source counts, mirroring ``build_plan(partner_nsrc=...)``, and both
    global counts for statistics every rank of a tree agrees on.
    """
    topo = tree.topology
    nsrc = topo.nsrc if nsrc is None else np.asarray(nsrc)
    ntrg = topo.ntrg if ntrg is None else np.asarray(ntrg)
    trg, src = lists.pairs("V")
    keep = (ntrg[trg] > 0) & (nsrc[src] > 0)
    trg, src = trg[keep], src[keep]
    # A V pair joins two boxes of one level, so one level split of the
    # pairs counts them and both of their box sets.
    nb, nlevels = topo.nboxes, topo.level_ptr.size - 1
    npairs = np.bincount(topo.level[trg], minlength=nlevels)
    ntrg_boxes = np.bincount(topo.level[distinct(trg, nb)], minlength=nlevels)
    nsrc_boxes = np.bincount(topo.level[distinct(src, nb)], minlength=nlevels)
    blocks = np.unique(topo.parent[trg] * nb + topo.parent[src])
    pt, ps = blocks // nb, blocks % nb
    block_level = topo.level[pt] + 1
    nparent = np.bincount(block_level, minlength=nlevels)
    nslots = np.bincount(
        block_level, minlength=nlevels, weights=block_slot_counts(topo.dim)[
            np.count_nonzero(topo.anchor[pt] - topo.anchor[ps], axis=1)
        ],
    )
    return {
        int(lvl): (
            int(npairs[lvl]), int(nsrc_boxes[lvl]), int(ntrg_boxes[lvl]),
            int(nparent[lvl]), int(nslots[lvl]),
        )
        for lvl in np.flatnonzero(npairs)
    }


def rsvd_layout_seconds(
    stats: tuple[int, int, int, int, int], width: int, rank: float, dim: int
) -> tuple[float, float]:
    """Modelled ``(class-major, blocked)`` seconds of one rsvd level
    in ``dim`` dimensions.

    ``width`` is ``n_surf (md + qd)``, the doubles a pair reads plus
    writes; a factor pair holds ``rank`` (the classes' mean) times as
    many.  Flops at the rate the layout's GEMM shapes reach, plus what
    it moves: class-major streams a factor pair per class present (at
    most ``7^d - 3^d``) and gathers / scatters a row per pair; blocked
    multiplies every slot of its blocks, filled or not, streams a
    direction stack (the mean slots of a direction, ~58 in 3D) per
    direction present (at most ``3^d - 1``), moves a sibling slab of
    ``2^d`` rows per parent pair and (stacks for the ``2^d - 1``
    non-negative directions) mirrors the level's rows once per sign
    mask.
    """
    npairs, nsb, ntb, nparent, nslots = stats
    # The slots of all 3^d - 1 directions sum to 12^d - 6^d.
    stack_slots = round((12**dim - 6**dim) / (3**dim - 1))
    pair = 2.0 * rank * width
    factors, row = 8.0 * rank * width, 8.0 * width
    by_class = (
        npairs * pair / _SKINNY_RATE
        + min(npairs, 7**dim - 3**dim) * factors / _STREAM_RATE
        + npairs * row / _MOVE_RATE
    )
    blocked = (
        nslots * pair / _STACKED_RATE
        + min(nparent, 3**dim - 1) * stack_slots * factors / _STREAM_RATE
        + (nparent * 2**dim + (2**dim - 1) * (nsb + ntb) / 2) * row / _MOVE_RATE
    )
    return by_class, blocked


def resolve_m2l_schedule(
    mode: str,
    dtype: str,
    *,
    stats: dict[int, tuple[int, int, int, int, int]],
    cache,
    kernel,
) -> M2LSchedule:
    """Resolve an ``FMMOptions`` backend request into a per-level schedule.

    Uniform modes assign their backend to every level with V pairs.
    ``auto`` scores each level's two candidates by modelled flops and
    keeps the cheaper:

    - dense: ``npairs * 2 (n_surf md)(n_surf qd)``
    - rsvd:  ``npairs * 2 k n_surf (md + qd)`` with ``k`` probed from
      the compression rank of the reference offset class ``(2, 0, 0)``
      (``(2, 0)`` in 2D)
      (the canonical offset of its symmetry class, so the probe pays
      for a factorisation the first rsvd apply then finds in the cache)

    The rsvd levels then share one layout — a cache holds direction
    stacks or per-class factors, not both: blocked iff
    :func:`rsvd_layout_seconds` sums lower over them.

    The decision is deterministic (a tie goes to dense) and
    depends only on the gated V statistics and the operator's sizes, so
    every code path that sees the same tree resolves the same schedule.
    """
    if mode not in M2L_MODES:
        raise ValueError(
            f"m2l must be one of {M2L_MODES}, got {mode!r}"
        )
    if dtype not in M2L_DTYPES:
        raise ValueError(
            f"dtype must be one of {M2L_DTYPES}, got {dtype!r}"
        )
    backends = {level: mode for level in stats}
    if mode == "dense":
        return M2LSchedule(mode, dtype, backends)
    probe = (2,) + (0,) * (cache.dim - 1)
    ranks = {level: cache.m2l_rsvd_rank(level, probe) for level in stats}
    ns = cache.n_surf
    md, qd = kernel.source_dof, kernel.target_dof
    if mode == "auto":
        for level, (npairs, *_) in stats.items():
            dense = npairs * 2.0 * (ns * md) * (ns * qd)
            rsvd = npairs * 2.0 * ranks[level] * ns * (md + qd)
            backends[level] = "dense" if dense <= rsvd else "rsvd"
    # The probed class is the closest one; at p = 6 its rank is about
    # twice the mean of the 316 (42 vs 20.0 Laplace, 124 vs 57.9 Stokes).
    by_class, blocked = np.sum([(0.0, 0.0)] + [
        rsvd_layout_seconds(
            stats[level], ns * (md + qd), ranks[level] / 2, cache.dim
        )
        for level, backend in backends.items() if backend == "rsvd"
    ], axis=0)
    return M2LSchedule(mode, dtype, backends, bool(blocked < by_class))
