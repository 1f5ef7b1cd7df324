"""Parallel-run simulation: work + communication volumes -> time.

The simulation reproduces the structure of the parallel algorithm of
Section 3 exactly:

- leaves are partitioned over ``P`` ranks along the Morton curve with
  equal particle weights (Section 3.1's partitioning);
- every box's *contributor ranks* form a contiguous rank interval (its
  subtree's leaves are contiguous on the curve);
- upward/downward work of a shared box is paid redundantly by each
  contributor (the paper's deliberate design: "a disadvantage is the
  redundant computation at the nodes which are close to the root");
- the upward-equivalent-density and ghost-source exchanges follow the
  owner gather/scatter of Algorithm 1, with the first contributor as
  owner, producing per-rank byte and message counts.

Flops and bytes are *measured* from the tree; the machine model converts
them to seconds.  ``grain_scale`` supports isogranular extrapolation:
per-rank work scales linearly with the grain and boundary communication
with its 2/3 power (surface-to-volume), documented in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.m2lschedule import coarse_split_levels
from repro.core.surfaces import n_surface_points
from repro.geometry.patches import partition_weights
from repro.kernels.base import Kernel
from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree
from repro.perfmodel.costs import PhaseWork, communication_volumes, compute_work
from repro.perfmodel.machine import MachineModel

PHASES = ("up", "down_u", "down_v", "down_w", "down_x", "eval")


@dataclass
class RunReport:
    """Simulated timings of one interaction evaluation on P processors."""

    P: int
    N: int
    kernel: str
    #: mean seconds across ranks, per phase (+ "comm")
    phase_seconds: dict[str, float]
    #: per-rank end-to-end seconds
    rank_seconds: np.ndarray
    #: per-rank, per-phase seconds (P, len(PHASES))
    rank_phase_seconds: np.ndarray = field(repr=False, default=None)
    #: per-rank non-overlapped communication seconds
    rank_comm_seconds: np.ndarray = field(repr=False, default=None)
    total_flops: float = 0.0
    phase_flops: dict[str, float] = field(default_factory=dict)
    tree_seconds: float = 0.0

    @property
    def total(self) -> float:
        """Mean interaction time across ranks (the tables' "Total")."""
        return float(self.rank_seconds.mean())

    @property
    def ratio(self) -> float:
        """Max/min rank time — the tables' load-imbalance "Ratio"."""
        lo = self.rank_seconds.min()
        return float(self.rank_seconds.max() / lo) if lo > 0 else float("inf")

    @property
    def comm(self) -> float:
        return float(self.rank_comm_seconds.mean())

    @property
    def up(self) -> float:
        return self.phase_seconds["up"]

    @property
    def down(self) -> float:
        return sum(self.phase_seconds[p] for p in PHASES if p != "up")

    @property
    def gflops_avg(self) -> float:
        """Aggregate average Gflop/s (total flops / mean wall time)."""
        return self.total_flops / self.total / 1e9 if self.total > 0 else 0.0

    @property
    def gflops_peak(self) -> float:
        """Aggregate rate of the fastest phase (the tables' "Peak")."""
        best = 0.0
        for i, phase in enumerate(PHASES):
            t = self.rank_phase_seconds[:, i].mean()
            if t > 0:
                best = max(best, self.phase_flops[phase] / t / 1e9)
        return best


def _leaf_ranks(tree: Octree, P: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition leaves over ranks; return (leaf indices, starts, rank)."""
    leaves = np.array(tree.leaves(), dtype=np.int64)
    starts = np.array([tree.boxes[i].src_start for i in leaves], dtype=np.int64)
    order = np.argsort(starts, kind="stable")
    leaves, starts = leaves[order], starts[order]
    weights = np.array(
        [max(tree.boxes[i].nsrc, tree.boxes[i].ntrg) for i in leaves], float
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
    for b in tree.boxes:
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
    """Simulate one interaction evaluation on ``P`` processors.

    Parameters
    ----------
    tree, lists:
        A *real* tree built over the (possibly scaled-down) workload.
    p:
        Surface discretisation order.
    P:
        Processor count to simulate.
    m2l:
        M2L variant being modelled.
    work:
        Optional precomputed :class:`PhaseWork` (reused across P sweeps).
    grain_scale:
        Ratio of target grain to model grain, for isogranular
        extrapolation (flops scale linearly, boundary bytes by the 2/3
        power).
    n_override:
        Report this N instead of the model tree's particle count.
    """
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


@dataclass
class TreeTopPoint:
    """Modelled tree-top cost of one simulated processor count.

    "Tree top" means the shared boxes — boxes whose leaf descendants
    span more than one rank, i.e. the boxes whose partial upward
    densities ride the owner gather/scatter and whose coarse V
    translations are performed redundantly.  The point compares the two
    exchange schemes on identical traffic: ``flat`` (owner serialises
    ``C-1`` point-to-point transfers per box) against ``tree``
    (segmented binomial collectives, ``ceil(log2 C)`` rounds) plus the
    coarse-level V split (assigned-rank compute + row broadcast instead
    of fully redundant translation).  Total message counts are
    identical by construction — a binomial tree over ``C`` participants
    has exactly ``C-1`` edges — only the critical path and the per-rank
    fan-in change.
    """

    P: int
    shared_boxes: int
    split_levels: list[int]
    #: critical-rank seconds of the gather/scatter exchange per scheme
    flat_seconds: float
    tree_seconds: float
    #: worst per-rank message count per scheme (the O(P) -> O(log P) claim)
    flat_max_rank_msgs: int
    tree_max_rank_msgs: int
    #: total messages (identical under both schemes)
    total_msgs: int
    #: critical-rank seconds of coarse-level V translation work
    v_redundant_seconds: float
    v_split_seconds: float

    @property
    def flat_total(self) -> float:
        return self.flat_seconds + self.v_redundant_seconds

    @property
    def tree_total(self) -> float:
        return self.tree_seconds + self.v_split_seconds

    @property
    def speedup(self) -> float:
        """Modelled tree-top improvement, flat over hierarchical."""
        t = self.tree_total
        return self.flat_total / t if t > 0 else float("inf")


def _uniform_intervals(tree: Octree, P: int) -> tuple[np.ndarray, np.ndarray]:
    """Contributor rank interval per box under equal-particle splitting.

    Rank of source ``i`` is ``floor(i * P / N)``; a box's contributors
    are the ranks its contiguous Morton source range touches.  Unlike
    :func:`_leaf_ranks` this stays exact for ``P`` far beyond the model
    tree's leaf count, which the 4096-rank projection needs.
    """
    N = max(1, tree.sources.shape[0])
    starts, stops = tree.topology.src_start, tree.topology.src_stop
    lo = np.clip(starts * P // N, 0, P - 1)
    hi = np.clip(np.maximum(stops - 1, starts) * P // N, 0, P - 1)
    return lo, np.maximum(hi, lo)


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
    """Model the tree-top exchange and coarse V work at ``P`` ranks.

    Produces the flat-vs-hierarchical comparison of one processor
    count: per-rank time and message-count arrays are accumulated box
    by box over the shared boxes (difference arrays over rank
    intervals, so the sweep stays cheap at thousands of ranks), then
    reduced to the critical rank.
    """
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
    level_counts = [len(lv) for lv in tree.levels]
    split = sorted(coarse_split_levels(level_counts, P))
    v_red = np.zeros(P + 1)
    v_spl = np.zeros(P + 1)
    rate = machine.rate("down_v", kernel.name)
    dc_bytes = 8.0 * n_surface_points(p) * kernel.target_dof * nrhs
    next_assignee = 0
    for lvl in split:
        for b in tree.levels[lvl]:
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


def project_scaling(
    tree: Octree,
    lists: InteractionLists,
    kernel: Kernel,
    p: int,
    machine: MachineModel,
    max_ranks: int = 4096,
    nrhs: int = 1,
) -> dict:
    """Sweep simulated processor counts; compare tree-top schemes.

    Returns a JSON-ready report: one :class:`TreeTopPoint` per power of
    two up to ``max_ranks``, the flat-vs-hierarchical *crossover rank*
    (smallest P where the hierarchical critical path is strictly
    cheaper), and the modelled improvement at the largest count.
    """
    if max_ranks < 2:
        raise ValueError(f"max_ranks must be >= 2, got {max_ranks}")
    work = compute_work(tree, lists, kernel, p, nrhs=nrhs)
    ranks = []
    P = 2
    while P <= max_ranks:
        ranks.append(P)
        P *= 2
    points = [
        tree_top_model(tree, lists, kernel, p, P, machine,
                       work=work, nrhs=nrhs)
        for P in ranks
    ]
    crossover = next(
        (pt.P for pt in points if pt.tree_total < pt.flat_total), None
    )
    last = points[-1]
    return {
        "kernel": kernel.name,
        "p": p,
        "nrhs": nrhs,
        "n": int(tree.sources.shape[0]),
        "nboxes": int(tree.nboxes),
        "depth": int(tree.depth),
        "max_ranks": max_ranks,
        "points": [
            {**asdict(pt),
             "flat_total": pt.flat_total,
             "tree_total": pt.tree_total,
             "speedup": pt.speedup}
            for pt in points
        ],
        "crossover_rank": crossover,
        "speedup_at_max": last.speedup,
        "msgs_flat_at_max": last.flat_max_rank_msgs,
        "msgs_tree_at_max": last.tree_max_rank_msgs,
    }


def simulate_tree_time(
    tree: Octree,
    P: int,
    machine: MachineModel,
    n_effective: int | None = None,
    grain_scale: float = 1.0,
) -> float:
    """Tree construction + communication phase (the tables' "Gen/Comm").

    Three components mirroring Section 3.1: (a) parallel local work
    (Morton sort + level-by-level box splitting), (b) the initial gather
    of all surface patches on a single processor ("we first gather all
    input surface patches on a single processor"), (c) per-level
    Allreduce over the global tree array.  Component (b) is what stops
    the paper's tree phase from scaling (their Section 4 observation (5)).
    """
    N = (
        n_effective
        if n_effective is not None
        else tree.sources.shape[0] * grain_scale
    )
    local = machine.tree_local_per_particle * N / P
    gather = (N * 24.0 / machine.bandwidth) if P > 1 else 0.0
    # Box counts scale ~linearly with N for fixed s, so the scaled tree's
    # global tree array is grain_scale times larger per level.
    allreduce = sum(
        machine.allreduce_time(
            len(lv) * grain_scale * machine.tree_entry_bytes, P
        )
        for lv in tree.levels
    )
    return local + gather + allreduce
