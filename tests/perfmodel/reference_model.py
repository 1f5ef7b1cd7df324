"""The per-box performance-model walkers: the oracle of ``repro.perfmodel``.

``compute_work``, ``communication_volumes``, ``simulate_run`` and
``tree_top_model`` as they stood in ``perfmodel/costs.py`` and
``simulate.py`` before they became array code over ``TreeTopology`` and
the CSR lists — one Python iteration per box and per list entry over the
:mod:`tests.boxview` records, unchanged otherwise.  Every flop and byte
term is an integer-valued float below 2**53, so the array code must
reproduce the work arrays *exactly*; the rank times agree to round-off
(the latency/bandwidth terms are summed in another order).

One known defect is kept on purpose: ``_leaf_ranks`` orders leaves by
``src_start`` and ``_box_rank_intervals`` looks boxes up by their source
range, which is the Morton order only when every leaf holds sources.
The rank comparisons therefore run on sources = targets trees; the
ownership invariants on other trees have their own test.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.m2lschedule import M2LSchedule, coarse_split_levels
from repro.core.surfaces import n_surface_points
from repro.geometry.patches import partition_weights
from repro.kernels.base import Kernel
from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree
from repro.perfmodel.costs import PhaseWork
from repro.perfmodel.machine import MachineModel
from repro.perfmodel.simulate import (
    PHASES,
    RunReport,
    TreeTopPoint,
    _uniform_intervals,
    simulate_tree_time,
)

from tests import boxview


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
    v_targets: np.ndarray | None = None,
) -> PhaseWork:
    """Flop volumes of one evaluation, box by box (see
    :func:`repro.perfmodel.costs.compute_work` for the arguments)."""
    if isinstance(m2l, M2LSchedule):
        backend_of = m2l.backend
    elif m2l in ("fft", "dense", "rsvd"):
        backend_of = lambda level, _b=m2l: _b  # noqa: E731
    else:
        raise ValueError(
            f"m2l must be 'fft', 'dense', 'rsvd' or a resolved "
            f"M2LSchedule, got {m2l}"
        )
    nb = tree.nboxes
    boxes = boxview.boxes(tree)
    lists = boxview.per_box(lists)
    n_surf = n_surface_points(p)
    md, qd = kernel.source_dof, kernel.target_dof
    fpp = float(kernel.flops_per_pair)
    nsrc = (
        np.asarray(global_nsrc, dtype=np.float64)
        if global_nsrc is not None
        else np.array([b.nsrc for b in boxes], dtype=np.float64)
    )
    ntrg = (
        np.asarray(global_ntrg, dtype=np.float64)
        if global_ntrg is not None
        else np.array([b.ntrg for b in boxes], dtype=np.float64)
    )
    unsrc = (
        np.asarray(up_nsrc, dtype=np.float64)
        if up_nsrc is not None
        else nsrc
    )

    pinv_flops = 2.0 * (n_surf * md) * (n_surf * qd)
    m2m_flops = 2.0 * (n_surf * qd) * (n_surf * md)  # per child matvec
    l2l_flops = m2m_flops
    m2l_dense_flops = m2m_flops
    grid = 2 * p
    nfreq = grid * grid * (grid // 2 + 1)
    hadamard_flops = 8.0 * qd * md * nfreq
    # Forward/inverse transforms are GEMM-DFTs over the n_surf surface
    # nodes (two real GEMMs each).
    fft_flops = 4.0 * nfreq * n_surf

    up = np.zeros(nb)
    down_u = np.zeros(nb)
    down_v = np.zeros(nb)
    down_w = np.zeros(nb)
    down_x = np.zeros(nb)
    evalw = np.zeros(nb)

    vtm = (
        np.asarray(v_targets, dtype=bool)
        if v_targets is not None
        else ntrg > 0
    )

    # Which V-graph source boxes feed at least one target this rank
    # performs V work for *on an fft-scheduled level*: exactly those get
    # a forward transform (once per level) in the planned evaluator,
    # attributed here to the source box that performs it.  V lists are
    # same-level, so the target's level is the source's.
    v_feeds = np.zeros(nb, dtype=bool)
    for b in boxes:
        if vtm[b.index] and backend_of(b.level) == "fft":
            for a in lists.V[b.index]:
                v_feeds[a] = True

    # Which boxes actually carry downward data: a box inverts its check
    # potential (and a leaf evaluates L2T) only if it or an ancestor
    # received a V- or X-list contribution — matching the evaluator's
    # has_dc/has_de gating.
    has_down = np.zeros(nb, dtype=bool)
    for b in boxes:  # boxes are in level order, so parents come first
        i = b.index
        own = any(nsrc[a] > 0 for a in lists.V[i]) or any(
            nsrc[a] > 0 for a in lists.X[i]
        )
        has_down[i] = own or (b.parent >= 0 and has_down[b.parent])

    for b in boxes:
        i = b.index
        has_trg = ntrg[i] > 0
        if unsrc[i] > 0:
            if b.is_leaf:
                up[i] += n_surf * unsrc[i] * fpp  # S2M check evaluation
            else:
                nkids = sum(1 for c in b.children if unsrc[c] > 0)
                up[i] += nkids * m2m_flops
            up[i] += pinv_flops  # uc2ue inversion
        if nsrc[i] > 0 and v_feeds[i]:
            down_v[i] += md * fft_flops  # forward transform of this source

        nv = sum(1 for a in lists.V[i] if nsrc[a] > 0)
        if nv and vtm[i]:
            backend = backend_of(b.level)
            if backend == "dense":
                down_v[i] += nv * m2l_dense_flops
            elif backend == "rsvd":
                if rsvd_rank is None:
                    raise ValueError(
                        "rsvd-scheduled levels need rsvd_rank, a "
                        "(level, offset) -> rank callable (e.g. "
                        "OperatorCache.m2l_rsvd_rank)"
                    )
                # Two stacked GEMMs through the rank-k factors; the
                # rank is an offset-class property, so each pair is
                # priced individually (mirrors _rsvd_pair_flops).
                for a in lists.V[i]:
                    if nsrc[a] > 0:
                        ab = boxes[a]
                        offset = tuple(
                            b.anchor[d] - ab.anchor[d] for d in range(3)
                        )
                        down_v[i] += (
                            2.0 * rsvd_rank(b.level, offset)
                            * n_surf * (md + qd)
                        )
            else:
                down_v[i] += nv * hadamard_flops + qd * fft_flops  # + inverse DFT
        if not has_trg:
            continue
        if b.level >= 1 and b.parent >= 0 and has_down[b.parent]:
            evalw[i] += l2l_flops  # L2L from the parent's density
        if has_down[i]:
            evalw[i] += pinv_flops  # dc2de inversion
        for a in lists.X[i]:
            if nsrc[a] > 0:
                down_x[i] += n_surf * nsrc[a] * fpp
        if b.is_leaf:
            if has_down[i]:
                evalw[i] += ntrg[i] * n_surf * fpp  # L2T
            for a in lists.U[i]:
                if nsrc[a] > 0:
                    down_u[i] += ntrg[i] * nsrc[a] * fpp
            for a in lists.W[i]:
                if nsrc[a] > 0:
                    down_w[i] += ntrg[i] * n_surf * fpp

    return PhaseWork(
        up=up * nrhs, down_u=down_u * nrhs, down_v=down_v * nrhs,
        down_w=down_w * nrhs, down_x=down_x * nrhs, eval=evalw * nrhs,
    )


def communication_volumes(
    tree: Octree,
    lists: InteractionLists,
    kernel: Kernel,
    p: int,
    nrhs: int = 1,
) -> tuple[list[list[int]], list[list[int]], np.ndarray, np.ndarray]:
    """Per box, the *lists* of target boxes that consume its upward
    equivalent density (V/W) or its ghost sources (U/X), and the per-box
    message sizes."""
    nb = tree.nboxes
    n_surf = n_surface_points(p)
    md = kernel.source_dof
    equiv_uses: list[list[int]] = [[] for _ in range(nb)]
    source_uses: list[list[int]] = [[] for _ in range(nb)]
    boxes = boxview.boxes(tree)
    lists = boxview.per_box(lists)
    for b in boxes:
        i = b.index
        for a in lists.V[i]:
            equiv_uses[a].append(i)
        for a in lists.X[i]:
            source_uses[a].append(i)
        if b.is_leaf:
            for a in lists.W[i]:
                equiv_uses[a].append(i)
            for a in lists.U[i]:
                if a != i:
                    source_uses[a].append(i)
    equiv_bytes = np.full(nb, 8.0 * n_surf * md * nrhs)
    source_bytes = np.array(
        [8.0 * b.nsrc * (3 + md * nrhs) for b in boxes],
        dtype=np.float64,
    )
    return equiv_uses, source_uses, equiv_bytes, source_bytes


def _leaf_ranks(tree: Octree, P: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition leaves over ranks; return (leaf indices, starts, rank)."""
    boxes = boxview.boxes(tree)
    leaves = np.array(boxview.leaves(tree), dtype=np.int64)
    starts = np.array([boxes[i].src_start for i in leaves], dtype=np.int64)
    order = np.argsort(starts, kind="stable")
    leaves, starts = leaves[order], starts[order]
    weights = np.array(
        [max(boxes[i].nsrc, boxes[i].ntrg) for i in leaves], float
    )
    rank = partition_weights(weights, P)
    return leaves, starts, rank


def _box_rank_intervals(
    tree: Octree, leaf_starts: np.ndarray, leaf_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Contributor rank interval [lo, hi] per box (inclusive)."""
    nb = tree.nboxes
    lo = np.zeros(nb, dtype=np.int64)
    hi = np.zeros(nb, dtype=np.int64)
    for b in boxview.boxes(tree):
        first = np.searchsorted(leaf_starts, b.src_start, side="left")
        last = np.searchsorted(leaf_starts, b.src_stop, side="left") - 1
        last = max(last, first)
        lo[b.index] = leaf_rank[min(first, len(leaf_rank) - 1)]
        hi[b.index] = leaf_rank[min(last, len(leaf_rank) - 1)]
    return lo, hi


def _interval_add(diff: np.ndarray, lo: int, hi: int, value: float) -> None:
    """Add ``value`` to ranks ``lo..hi`` via a difference array."""
    diff[lo] += value
    diff[hi + 1] -= value


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def simulate_run(
    tree: Octree,
    lists: InteractionLists,
    kernel: Kernel,
    p: int,
    P: int,
    machine: MachineModel,
    m2l: str = "fft",
    work: PhaseWork | None = None,
    grain_scale: float = 1.0,
    n_override: int | None = None,
) -> RunReport:
    """One evaluation on ``P`` processors, rank intervals and traffic
    accumulated box by box (arguments as
    :func:`repro.perfmodel.simulate.simulate_run`)."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    if grain_scale <= 0:
        raise ValueError(f"grain_scale must be positive, got {grain_scale}")
    if work is None:
        work = compute_work(tree, lists, kernel, p, m2l=m2l)
    N = n_override if n_override is not None else tree.sources.shape[0]

    leaves, leaf_starts, leaf_rank = _leaf_ranks(tree, P)
    box_lo, box_hi = _box_rank_intervals(tree, leaf_starts, leaf_rank)

    # ---- per-rank flops (redundant work on shared boxes included) ----
    phase_arrays = {
        "up": work.up, "down_u": work.down_u, "down_v": work.down_v,
        "down_w": work.down_w, "down_x": work.down_x, "eval": work.eval,
    }
    rank_flops = np.zeros((P, len(PHASES)))
    for pi, phase in enumerate(PHASES):
        diff = np.zeros(P + 1)
        arr = phase_arrays[phase]
        for b in range(tree.nboxes):
            if arr[b] > 0:
                _interval_add(diff, box_lo[b], box_hi[b], arr[b])
        rank_flops[:, pi] = np.cumsum(diff[:-1])
    rank_flops *= grain_scale

    # ---- communication (owner gather/scatter, Algorithm 1) ----
    equiv_uses, source_uses, equiv_bytes, source_bytes = communication_volumes(
        tree, lists, kernel, p
    )
    bytes_in = np.zeros(P + 1)
    bytes_out = np.zeros(P + 1)
    msgs_in = np.zeros(P + 1)
    msgs_out = np.zeros(P + 1)
    for uses, size in ((equiv_uses, equiv_bytes), (source_uses, source_bytes)):
        for a in range(tree.nboxes):
            if not uses[a]:
                continue
            owner = int(box_lo[a])
            nbytes = float(size[a])
            # gather: non-owner contributors -> owner
            ncontrib = int(box_hi[a] - box_lo[a])
            if ncontrib > 0:
                _interval_add(bytes_out, box_lo[a] + 1, box_hi[a], nbytes)
                _interval_add(msgs_out, box_lo[a] + 1, box_hi[a], 1.0)
                bytes_in[owner] += ncontrib * nbytes
                bytes_in[owner + 1] -= ncontrib * nbytes  # keep diff form
                msgs_in[owner] += ncontrib
                msgs_in[owner + 1] -= ncontrib
            # scatter: owner -> user ranks (excluding itself)
            merged = _merge_intervals([(int(box_lo[t]), int(box_hi[t]))
                                       for t in uses[a]])
            nusers = 0
            for lo, hi in merged:
                _interval_add(bytes_in, lo, hi, nbytes)
                _interval_add(msgs_in, lo, hi, 1.0)
                nusers += hi - lo + 1
                if lo <= owner <= hi:
                    _interval_add(bytes_in, owner, owner, -nbytes)
                    _interval_add(msgs_in, owner, owner, -1.0)
                    nusers -= 1
            bytes_out[owner] += nusers * nbytes
            bytes_out[owner + 1] -= nusers * nbytes
            msgs_out[owner] += nusers
            msgs_out[owner + 1] -= nusers
    scale23 = grain_scale ** (2.0 / 3.0)
    rank_bytes_in = np.cumsum(bytes_in[:-1]) * scale23
    rank_bytes_out = np.cumsum(bytes_out[:-1]) * scale23
    rank_msgs_in = np.cumsum(msgs_in[:-1])
    rank_msgs_out = np.cumsum(msgs_out[:-1])

    # ---- convert to time ----
    rank_phase_sec = rank_flops / np.array(
        [machine.rate(ph, kernel.name) for ph in PHASES]
    )
    # Pack/wait split of the persistent apply's nonblocking exchange:
    # posting buffered sends costs the sender unhideable time; waiting
    # on in-flight receives overlaps with the owned-data near-field and
    # V/W work, so only the part of the wait the overlap window cannot
    # cover is paid.  The Allreduce of the owner/"taken" combination
    # (Section 3.2) is a synchronisation, i.e. wait-side.
    pack_sec = (
        rank_msgs_out * machine.latency + rank_bytes_out / machine.bandwidth
    )
    wait_raw = (
        rank_msgs_in * machine.latency + rank_bytes_in / machine.bandwidth
    )
    wait_raw += machine.allreduce_time(
        tree.nboxes * machine.tree_entry_bytes, P
    )
    overlappable = rank_phase_sec[
        :, [PHASES.index(ph) for ph in ("down_u", "down_v", "down_w")]
    ].sum(axis=1)
    hidden = np.minimum(wait_raw, machine.overlap_fraction * overlappable)
    wait_sec = wait_raw - hidden
    if P == 1:
        pack_sec = np.zeros(P)
        wait_sec = np.zeros(P)
    comm_sec = pack_sec + wait_sec
    rank_total = rank_phase_sec.sum(axis=1) + comm_sec

    phase_flops_total = {ph: float(rank_flops[:, i].sum())
                         for i, ph in enumerate(PHASES)}
    return RunReport(
        P=P,
        N=int(round(N * grain_scale)) if n_override is None else N,
        kernel=kernel.name,
        phase_seconds={
            **{ph: float(rank_phase_sec[:, i].mean()) for i, ph in enumerate(PHASES)},
            "comm": float(comm_sec.mean()),
            "pack": float(pack_sec.mean()),
            "wait": float(wait_sec.mean()),
        },
        rank_seconds=rank_total,
        rank_phase_seconds=rank_phase_sec,
        rank_comm_seconds=comm_sec,
        total_flops=float(rank_flops.sum()),
        phase_flops=phase_flops_total,
        tree_seconds=simulate_tree_time(
            tree, P, machine,
            n_effective=(N if n_override is not None
                         else N * grain_scale),
            grain_scale=grain_scale,
        ),
    )

def tree_top_model(
    tree: Octree,
    lists: InteractionLists,
    kernel: Kernel,
    p: int,
    P: int,
    machine: MachineModel,
    work: PhaseWork | None = None,
    nrhs: int = 1,
) -> TreeTopPoint:
    """The flat-vs-hierarchical tree-top comparison at ``P`` ranks, box
    by box over the shared boxes."""
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    if work is None:
        work = compute_work(tree, lists, kernel, p, nrhs=nrhs)
    lo, hi = _uniform_intervals(tree, P)
    equiv_uses, _, equiv_bytes, _ = communication_volumes(
        tree, lists, kernel, p, nrhs=nrhs
    )

    flat_t = np.zeros(P + 1)
    tree_t = np.zeros(P + 1)
    flat_m = np.zeros(P + 1)
    tree_m = np.zeros(P + 1)
    total_msgs = 0
    shared = 0
    for b in range(tree.nboxes):
        C = int(hi[b] - lo[b] + 1)
        if C <= 1:
            continue  # unshared: identical under both schemes
        shared += 1
        owner = int(lo[b])
        unit = machine.latency + float(equiv_bytes[b]) / machine.bandwidth
        users = _merge_intervals(
            [(int(lo[t]), int(hi[t])) for t in equiv_uses[b]]
        )
        nusers = sum(h - l + 1 for l, h in users)
        u_other = nusers - sum(
            1 for l, h in users if l <= owner <= h
        )
        total_msgs += (C - 1) + u_other

        # flat: the owner serialises every gather receive and scatter
        # send; each peer pays one transfer.
        _interval_add(flat_t, owner, owner, (C - 1 + u_other) * unit)
        _interval_add(flat_m, owner, owner, C - 1 + u_other)
        _interval_add(flat_t, int(lo[b]), int(hi[b]), unit)
        _interval_add(flat_m, int(lo[b]), int(hi[b]), 1.0)
        _interval_add(flat_t, owner, owner, -unit)
        _interval_add(flat_m, owner, owner, -1.0)
        for l, h in users:
            _interval_add(flat_t, l, h, unit)
            _interval_add(flat_m, l, h, 1.0)
            if l <= owner <= h:
                _interval_add(flat_t, owner, owner, -unit)
                _interval_add(flat_m, owner, owner, -1.0)

        # tree: segmented binomial reduce + broadcast over the same
        # C-1 edges.  Each edge has two endpoints, so total per-rank
        # traffic is conserved (2(C-1) message endpoints, like flat);
        # what changes is the distribution — the root handles at most
        # ceil(log2 C) edges instead of C-1, the rest amortise over the
        # other participants.
        def charge(diff_t, diff_m, l, h, root, n):
            if n <= 1:
                return
            rounds = math.ceil(math.log2(n))
            per_other = (2.0 * (n - 1) - rounds) / (n - 1)
            _interval_add(diff_t, l, h, per_other * unit)
            _interval_add(diff_m, l, h, per_other)
            _interval_add(diff_t, root, root, (rounds - per_other) * unit)
            _interval_add(diff_m, root, root, rounds - per_other)

        charge(tree_t, tree_m, int(lo[b]), int(hi[b]), owner, C)
        if u_other:
            # scatter participants: the owner plus the other user ranks
            # (their intervals may be disjoint, so charge per interval
            # with the owner's correction applied once).
            S = u_other + 1
            rounds = math.ceil(math.log2(S))
            per_other = (2.0 * (S - 1) - rounds) / (S - 1)
            _interval_add(tree_t, owner, owner, rounds * unit)
            _interval_add(tree_m, owner, owner, float(rounds))
            for l, h in users:
                _interval_add(tree_t, l, h, per_other * unit)
                _interval_add(tree_m, l, h, per_other)
                if l <= owner <= h:
                    _interval_add(tree_t, owner, owner, -per_other * unit)
                    _interval_add(tree_m, owner, owner, -per_other)

    # Coarse-level V translation: fully redundant (every contributor
    # computes every shared box it touches) versus the deterministic
    # cyclic split (one assignee computes, then tree-broadcasts the
    # downward-check rows to the other contributors).
    levels = boxview.levels(tree)
    level_counts = [len(lv) for lv in levels]
    split = sorted(coarse_split_levels(level_counts, P))
    v_red = np.zeros(P + 1)
    v_spl = np.zeros(P + 1)
    rate = machine.rate("down_v", kernel.name)
    dc_bytes = 8.0 * n_surface_points(p) * kernel.target_dof * nrhs
    next_assignee = 0
    for lvl in split:
        for b in levels[lvl]:
            fl = float(work.down_v[b])
            if fl <= 0:
                continue
            C = int(hi[b] - lo[b] + 1)
            sec = fl / rate
            _interval_add(v_red, int(lo[b]), int(hi[b]), sec)
            assignee = int(lo[b]) + next_assignee % C
            next_assignee += 1
            _interval_add(v_spl, assignee, assignee, sec)
            _interval_add(
                v_spl, int(lo[b]), int(hi[b]),
                machine.tree_collective_time(dc_bytes, C),
            )

    def peak(diff: np.ndarray) -> float:
        return float(np.cumsum(diff[:-1]).max()) if P > 0 else 0.0

    return TreeTopPoint(
        P=P,
        shared_boxes=shared,
        split_levels=[int(lv) for lv in split],
        flat_seconds=peak(flat_t),
        tree_seconds=peak(tree_t),
        flat_max_rank_msgs=int(round(peak(flat_m))),
        tree_max_rank_msgs=int(round(peak(tree_m))),
        total_msgs=int(total_msgs),
        v_redundant_seconds=peak(v_red),
        v_split_seconds=peak(v_spl),
    )

