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

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.surfaces import n_surface_points
from repro.geometry.patches import partition_weights
from repro.kernels.base import Kernel
from repro.octree.lists import InteractionLists
from repro.octree.morton import MAX_DEPTH
from repro.octree.topology import level_base
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


def _check_ranks(P) -> None:
    if isinstance(P, bool) or not isinstance(P, (int, np.integer)) or P < 1:
        raise ValueError(f"P must be an integer >= 1, got {P!r}")


def _deep_keys(topo) -> tuple[np.ndarray, np.ndarray]:
    """First and last deepest-level Morton key inside every box: the
    box's stretch of the curve, whatever points it holds."""
    shift = (topo.dim * (MAX_DEPTH - topo.level)).astype(np.uint64)
    first = (topo.uid - level_base(topo.dim)[topo.level]) << shift
    return first, first + ((np.uint64(1) << shift) - np.uint64(1))


def _leaf_ranks(tree: Octree, P: int) -> tuple[np.ndarray, np.ndarray]:
    """The leaves in Morton order and the rank owning each: contiguous
    runs of near-equal particle weight along the curve (Section 3.1)."""
    topo = tree.topology
    leaves = np.flatnonzero(topo.is_leaf)
    leaves = leaves[np.argsort(_deep_keys(topo)[0][leaves])]
    weights = np.maximum(topo.nsrc, topo.ntrg)[leaves]
    return leaves, partition_weights(weights, P)


def _box_rank_intervals(
    tree: Octree, leaves: np.ndarray, leaf_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Contributor rank interval [lo, hi] per box (inclusive): the ranks
    of the first and the last leaf on the box's stretch of the curve."""
    first, last = _deep_keys(tree.topology)
    at = first[leaves]
    return (
        leaf_rank[np.searchsorted(at, first)],
        leaf_rank[np.searchsorted(at, last, side="right") - 1],
    )


def _over_ranks(P: int, lo: np.ndarray, hi: np.ndarray, value) -> np.ndarray:
    """Per-rank sums of ``value[i]`` added to every rank of ``lo[i] ..
    hi[i]`` (nothing where ``hi < lo``): the cumulative sum of a
    difference array."""
    value = np.broadcast_to(value, lo.shape)
    diff = np.bincount(lo, weights=value, minlength=P + 1)
    diff -= np.bincount(hi + 1, weights=value, minlength=P + 1)
    return np.cumsum(diff[:-1])


def _merged_users(
    uses: tuple[np.ndarray, np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The rank intervals of every box's users, merged where they touch
    or overlap: ``(box, lo, hi, holds_owner)`` per merged interval, the
    last saying whether the box's owner (its first contributor) is one
    of the users.  A sort by ``(box, lo)`` and a running maximum of
    ``hi`` that restarts with each box."""
    box, user = uses
    stride = hi.max(initial=0) + 2
    # One integer sort: the hi of equal (box, lo) may come in any order.
    key = (box * stride + lo[user]) * stride + hi[user]
    key.sort()
    key, uhi = np.divmod(key, stride)
    box, ulo = np.divmod(key, stride)
    reach = np.maximum.accumulate(box * stride + uhi) - box * stride
    opens = np.ones(box.size, dtype=bool)
    opens[1:] = (box[1:] != box[:-1]) | (ulo[1:] > reach[:-1] + 1)
    # An interval closes where the next one opens (the last: at the end).
    box, ulo, uhi = box[opens], ulo[opens], reach[np.roll(opens, -1)]
    return box, ulo, uhi, (ulo <= lo[box]) & (lo[box] <= uhi)


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
    _check_ranks(P)
    if not (np.isfinite(grain_scale) and grain_scale > 0):
        raise ValueError(
            f"grain_scale must be finite and positive, got {grain_scale}"
        )
    if work is None:
        work = compute_work(tree, lists, kernel, p, m2l=m2l)
    N = n_override if n_override is not None else tree.sources.shape[0]

    box_lo, box_hi = _box_rank_intervals(tree, *_leaf_ranks(tree, P))

    # ---- per-rank flops (redundant work on shared boxes included) ----
    rank_flops = np.stack(
        [_over_ranks(P, box_lo, box_hi, getattr(work, ph)) for ph in PHASES],
        axis=1,
    )
    rank_flops *= grain_scale

    # ---- communication (owner gather/scatter, Algorithm 1) ----
    equiv_uses, source_uses, equiv_bytes, source_bytes = communication_volumes(
        tree, lists, kernel, p
    )
    traffic = np.zeros((2, 2, P))  # [bytes | messages][received | sent]
    for uses, size in ((equiv_uses, equiv_bytes), (source_uses, source_bytes)):
        used = np.zeros(tree.nboxes, dtype=bool)
        used[uses[0]] = True
        box, lo, hi, holds_owner = _merged_users(uses, box_lo, box_hi)
        owner = box_lo[box]
        nusers = np.bincount(
            box, weights=hi - lo + 1 - holds_owner, minlength=tree.nboxes
        )
        for unit, (received, sent) in zip((size * used, 1.0 * used), traffic):
            # gather: the other contributors -> the owner, the first one
            sent += _over_ranks(P, box_lo + 1, box_hi, unit)
            received += np.bincount(
                box_lo, weights=(box_hi - box_lo) * unit, minlength=P
            )
            # scatter: the owner -> every user rank but itself
            received += _over_ranks(P, lo, hi, unit[box])
            received -= np.bincount(
                owner, weights=unit[box] * holds_owner, minlength=P
            )
            sent += np.bincount(box_lo, weights=nusers * unit, minlength=P)
    scale23 = grain_scale ** (2.0 / 3.0)
    (rank_bytes_in, rank_bytes_out), (rank_msgs_in, rank_msgs_out) = traffic
    rank_bytes_in, rank_bytes_out = rank_bytes_in * scale23, rank_bytes_out * scale23

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


def coarse_split_levels(
    level_counts, nranks: int
) -> frozenset[int]:
    """Levels whose box count is below the rank count.

    ``level_counts[l]`` is the number of tree boxes at level ``l``.
    These are the levels where the redundant tree-top V work leaves
    ranks idle — the levels a coarse split would distribute
    (:func:`tree_top_model` prices it; no rank runs it).  Empty at
    ``nranks == 1`` (every populated level has at least one box).
    """
    return frozenset(
        lvl for lvl, count in enumerate(level_counts)
        if 0 < count < nranks
    )


@dataclass
class TreeTopPoint:
    """Modelled tree-top cost of one simulated processor count.

    "Tree top" means the shared boxes — boxes whose leaf descendants
    span more than one rank, i.e. the boxes whose partial upward
    densities ride the owner gather/scatter and whose coarse V
    translations are performed redundantly.  The point compares two
    exchange shapes on identical traffic: ``flat`` (owner serialises
    ``C-1`` point-to-point transfers per box) against ``tree``
    (segmented binomial collectives, ``ceil(log2 C)`` rounds) plus the
    coarse-level V split (assigned-rank compute + row broadcast instead
    of fully redundant translation).  Total message counts are
    identical by construction — a binomial tree over ``C`` participants
    has exactly ``C-1`` edges — only the critical path and the per-rank
    fan-in change.

    The ranks run the binomial exchange
    (:func:`~repro.parallel.exchange.compile_exchange`) with a
    redundant tree-top V, as the paper does; the coarse V split is
    priced here only, as is ``flat``.  ``flat_total`` (the paper's
    Algorithm 1 as published, redundant V) is the baseline the
    crossover and speedup are quoted against, ``tree_total`` (binomial
    exchange, split V) the modelled large-P variant.
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
    count: per-rank time and message-count arrays are accumulated over
    all shared boxes at once (difference arrays over rank intervals, so
    the sweep stays cheap at thousands of ranks), then reduced to the
    critical rank.  The flat exchange and the coarse V split are
    priced here only; the ranks run the binomial exchange and compute
    the tree-top V redundantly (see :class:`TreeTopPoint`).
    """
    _check_ranks(P)
    if work is None:
        work = compute_work(tree, lists, kernel, p, nrhs=nrhs)
    topo = tree.topology
    lo, hi = _uniform_intervals(tree, P)
    equiv_uses, _, equiv_bytes, _ = communication_volumes(
        tree, lists, kernel, p, nrhs=nrhs
    )

    def rounds(n):
        """``ceil(log2(n))`` for integers ``n >= 1``: bits of ``n - 1``."""
        return np.frexp(n - 1.0)[1]

    # Unshared boxes are identical under both schemes: leave them out.
    shared = np.flatnonzero(hi > lo)
    owner = lo[shared]
    C = (hi - lo + 1)[shared]
    box, user = equiv_uses
    mine = hi[box] > lo[box]
    ubox, ulo, uhi, holds_owner = _merged_users(
        (box[mine], user[mine]), lo, hi
    )
    u_other = np.bincount(
        ubox, weights=uhi - ulo + 1 - holds_owner, minlength=topo.nboxes
    )
    unit = machine.latency + equiv_bytes / machine.bandwidth
    endpoints = C - 1 + u_other[shared]

    def flat_cost(unit):
        """Per rank, at ``unit[box]`` per message: the owner serialises
        every gather receive and scatter send; each peer pays one
        transfer."""
        return (
            np.bincount(owner, weights=endpoints * unit[shared], minlength=P)
            + _over_ranks(P, lo[shared] + 1, hi[shared], unit[shared])
            + _over_ranks(P, ulo, uhi, unit[ubox])
            - np.bincount(lo[ubox], weights=unit[ubox] * holds_owner, minlength=P)
        )

    # tree: segmented binomial reduce + broadcast over the same C-1
    # edges.  Each edge has two endpoints, so total per-rank traffic is
    # conserved (2(C-1) message endpoints, like flat); what changes is
    # the distribution — the root handles at most ceil(log2 C) edges
    # instead of C-1, the rest amortise over the other participants.
    # Scatter participants are the owner plus the other user ranks.
    gather_rounds = rounds(C)
    gather_share = (2.0 * (C - 1) - gather_rounds) / (C - 1)
    scatters = np.flatnonzero(u_other)
    scatter_rounds = np.zeros(topo.nboxes)
    scatter_rounds[scatters] = rounds(u_other[scatters] + 1)
    scatter_share = np.zeros(topo.nboxes)
    scatter_share[scatters] = (
        2.0 * u_other[scatters] - scatter_rounds[scatters]
    ) / u_other[scatters]

    def tree_cost(unit):
        return (
            _over_ranks(P, lo[shared], hi[shared], gather_share * unit[shared])
            + np.bincount(
                owner, weights=(gather_rounds - gather_share) * unit[shared],
                minlength=P,
            )
            + np.bincount(lo, weights=scatter_rounds * unit, minlength=P)
            + _over_ranks(P, ulo, uhi, scatter_share[ubox] * unit[ubox])
            - np.bincount(
                lo[ubox], weights=scatter_share[ubox] * unit[ubox] * holds_owner,
                minlength=P,
            )
        )

    # Coarse-level V translation: fully redundant (every contributor
    # computes every shared box it touches) versus the deterministic
    # cyclic split (one assignee computes, then tree-broadcasts the
    # downward-check rows to the other contributors).
    split = sorted(coarse_split_levels(np.diff(topo.level_ptr).tolist(), P))
    boxes = np.flatnonzero(np.isin(topo.level, split) & (work.down_v > 0))
    sec = work.down_v[boxes] / machine.rate("down_v", kernel.name)
    dc_bytes = 8.0 * n_surface_points(p, topo.dim) * kernel.target_dof * nrhs
    span = (hi - lo + 1)[boxes]
    v_red = _over_ranks(P, lo[boxes], hi[boxes], sec)
    v_spl = np.bincount(
        lo[boxes] + np.arange(boxes.size) % span, weights=sec, minlength=P
    ) + _over_ranks(
        P, lo[boxes], hi[boxes],
        rounds(span) * (machine.latency + dc_bytes / machine.bandwidth),
    )

    ones = np.ones(topo.nboxes)
    return TreeTopPoint(
        P=P,
        shared_boxes=shared.size,
        split_levels=[int(lv) for lv in split],
        flat_seconds=float(flat_cost(unit).max()),
        tree_seconds=float(tree_cost(unit).max()),
        flat_max_rank_msgs=int(round(flat_cost(ones).max())),
        tree_max_rank_msgs=int(round(tree_cost(ones).max())),
        total_msgs=int(endpoints.sum()),
        v_redundant_seconds=float(v_red.max()),
        v_split_seconds=float(v_spl.max()),
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
            count * grain_scale * machine.tree_entry_bytes, P
        )
        for count in np.diff(tree.topology.level_ptr).tolist()
    )
    return local + gather + allreduce
