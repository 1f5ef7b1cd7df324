"""Per-level M2L backend schedules and the ``auto`` picker.

The V-list translation (M2L) has three interchangeable backends:

``dense``
    One ``(n_surf*qd, n_surf*md)`` GEMM per offset class — highest flop
    count, highest achieved rate.
``fft``
    The paper's circulant-embedded convolution — lowest flop count, but
    the Hadamard stage streams full spectra per pair and reaches only a
    fraction of BLAS-3 throughput at the paper's ``p``.
``rsvd``
    Randomized-SVD-compressed operators applied as two stacked BLAS-3
    GEMMs per offset class (arXiv:2408.07436) — between the two in
    flops, at dense-GEMM rate.

An :class:`M2LSchedule` fixes one backend *per tree level* plus the
factor precision of the rsvd levels.  The uniform modes map every level
to the same backend; ``auto`` picks per level from the level's V-list
statistics with the cost model below.  Both evaluators (planned and
per-box) resolve their schedule from the *same* gated statistics
(:func:`v_stats_from_plan` / :func:`v_stats_from_lists` — parity is
pinned by test), so the two paths always agree on the backends and
their potentials match to backend roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.segments import distinct

#: Recognised ``FMMOptions.m2l`` values.
M2L_MODES = ("fft", "dense", "rsvd", "auto")

#: Recognised ``FMMOptions.dtype`` values (rsvd factor precision).
M2L_DTYPES = ("float64", "float32")

#: Relative achieved-throughput weights of the ``auto`` picker.  These
#: are *picker heuristics* calibrated from the BENCH_m2l ablation
#: (fraction of large-GEMM rate each backend achieves at the paper's
#: operating points), NOT part of the certified flop identity: the
#: plancheck flop check compares exact counts; the picker divides those
#: counts by an achievable-rate estimate.  The fft weight reflects the
#: class-major Hadamard's strided spectrum traffic.
_EFFICIENCY = {"dense": 1.0, "rsvd": 1.0, "fft": 0.25}


def coarse_split_levels(
    level_counts, nranks: int
) -> frozenset[int]:
    """Levels whose box count is below the rank count.

    ``level_counts[l]`` is the number of tree boxes at level ``l``.
    These are the levels where the redundant tree-top V work leaves
    ranks idle — the levels the coarse split distributes.  Empty at
    ``nranks == 1`` (every populated level has at least one box).
    """
    return frozenset(
        lvl for lvl, count in enumerate(level_counts)
        if 0 < count < nranks
    )


@dataclass
class M2LSchedule:
    """A resolved per-level V-list backend assignment.

    ``mode`` is the requested ``FMMOptions.m2l`` value, ``dtype`` the
    rsvd factor precision, and ``backends`` maps each level that has
    effective V-list pairs to ``"fft"``, ``"dense"`` or ``"rsvd"``.
    """

    mode: str
    dtype: str
    backends: dict[int, str]

    def backend(self, level: int) -> str:
        """Backend of one level (levels without V pairs default dense)."""
        return self.backends.get(level, "dense")

    @property
    def needs_fft(self) -> bool:
        """Whether any level runs the FFT backend (gates FFTM2L setup)."""
        return any(b == "fft" for b in self.backends.values())

    def describe(self) -> dict:
        """JSON-friendly summary for plan-IR metadata and reports."""
        return {
            "mode": self.mode,
            "dtype": self.dtype,
            "levels": {int(k): v for k, v in sorted(self.backends.items())},
        }


def v_stats_from_plan(plan) -> dict[int, tuple[int, int, int]]:
    """``level -> (npairs, n_src_boxes, n_trg_boxes)`` of a compiled plan.

    The plan's :class:`~repro.core.plan.VLevel` stages already hold the
    effective (gated) pair set, so the stats are a direct read-off.
    """
    return {
        vl.level: (int(vl.npairs), int(vl.src_boxes.size), int(vl.trg_boxes.size))
        for vl in plan.v_levels
        if vl.npairs
    }


def v_stats_from_lists(tree, lists, nsrc=None) -> dict[int, tuple[int, int, int]]:
    """The same statistics from raw interaction lists (the per-box view).

    Gating matches ``build_plan`` exactly — a pair counts iff the target
    box has targets and the source box has sources — so the per-box and
    planned evaluators resolve identical schedules.  ``nsrc`` overrides
    the local per-box source counts (the parallel LET passes global
    counts here, mirroring ``build_plan(partner_nsrc=...)``).
    """
    topo = tree.topology
    if nsrc is None:
        nsrc = topo.nsrc
    trg, src = lists.pairs("V")
    keep = (topo.ntrg[trg] > 0) & (np.asarray(nsrc)[src] > 0)
    trg, src = trg[keep], src[keep]
    # A V pair joins two boxes of one level, so one level split of the
    # pairs counts them and both of their box sets.
    nb, nlevels = topo.nboxes, topo.level_ptr.size - 1
    npairs = np.bincount(topo.level[trg], minlength=nlevels)
    ntrg_boxes = np.bincount(topo.level[distinct(trg, nb)], minlength=nlevels)
    nsrc_boxes = np.bincount(topo.level[distinct(src, nb)], minlength=nlevels)
    return {
        int(lvl): (int(npairs[lvl]), int(nsrc_boxes[lvl]), int(ntrg_boxes[lvl]))
        for lvl in np.flatnonzero(npairs)
    }


def resolve_m2l_schedule(
    mode: str,
    dtype: str,
    *,
    stats: dict[int, tuple[int, int, int]],
    cache,
    kernel,
) -> M2LSchedule:
    """Resolve an ``FMMOptions`` backend request into a per-level schedule.

    Uniform modes assign their backend to every level with V pairs.
    ``auto`` scores each level's three candidates as ``modelled flops /
    achievable-rate weight`` and keeps the cheapest:

    - dense: ``npairs * 2 (n_surf md)(n_surf qd)``
    - rsvd:  ``npairs * 2 k n_surf (md + qd)`` with ``k`` probed from
      the compression rank of the reference offset class ``(2, 0, 0)``
      (the canonical offset of its symmetry class, so the probe pays
      for a factorisation the first rsvd apply then finds in the cache)
    - fft:   per-box forward/inverse transforms plus the per-pair
      Hadamard, down-weighted by the fft efficiency factor

    The decision is deterministic (ties break by backend name) and
    depends only on the gated V statistics, so every code path that sees
    the same tree resolves the same schedule.
    """
    if mode not in M2L_MODES:
        raise ValueError(
            f"m2l must be one of {M2L_MODES}, got {mode!r}"
        )
    if dtype not in M2L_DTYPES:
        raise ValueError(
            f"dtype must be one of {M2L_DTYPES}, got {dtype!r}"
        )
    if mode != "auto":
        return M2LSchedule(mode, dtype, {level: mode for level in stats})
    ns = cache.n_surf
    md, qd = kernel.source_dof, kernel.target_dof
    grid = 2 * cache.p
    nfreq = grid * grid * (grid // 2 + 1)
    backends: dict[int, str] = {}
    for level, (npairs, nsb, ntb) in sorted(stats.items()):
        khat = cache.m2l_rsvd_rank(level, (2, 0, 0))
        scores = {
            "dense": npairs * 2.0 * (ns * md) * (ns * qd)
            / _EFFICIENCY["dense"],
            "rsvd": npairs * 2.0 * khat * ns * (md + qd)
            / _EFFICIENCY["rsvd"],
            "fft": (
                (nsb * md + ntb * qd) * 4.0 * nfreq * ns
                + npairs * 8.0 * qd * md * nfreq
            )
            / _EFFICIENCY["fft"],
        }
        backends[level] = min(scores, key=lambda b: (scores[b], b))
    return M2LSchedule("auto", dtype, backends)


def as_schedule(
    m2l,
    *,
    dtype: str = "float64",
    stats=None,
    cache=None,
    kernel=None,
) -> M2LSchedule:
    """Coerce a mode string or an already-resolved schedule.

    Evaluator entry points accept either; resolving a string requires
    the V statistics plus the cache/kernel pair (for the ``auto`` probe).
    """
    if isinstance(m2l, M2LSchedule):
        return m2l
    if stats is None:
        raise ValueError(
            f"resolving m2l={m2l!r} needs V-list statistics; pass a "
            f"resolved M2LSchedule or the stats/cache/kernel triple"
        )
    return resolve_m2l_schedule(
        m2l, dtype, stats=stats, cache=cache, kernel=kernel
    )
