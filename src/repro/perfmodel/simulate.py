"""Parallel-run simulation: work + communication volumes -> time.

The simulation prices the run the ranks make (Section 3), from the
roles the runtime compiles:

- the points are split as ``ParallelFMM.setup`` splits them
  (:func:`~repro.parallel.partition.partition_points`: equal shares of
  the Morton order), so every box's *contributor ranks* form a
  contiguous rank interval;
- upward/downward work of a shared box is paid redundantly by each
  contributor (the paper's deliberate design: "a disadvantage is the
  redundant computation at the nodes which are close to the root");
- each exchanged box's owner is the one the ranks agree on
  (:func:`~repro.parallel.owners.assign_owners`), and its gather and
  scatter are the binomial trees
  :func:`~repro.parallel.exchange.compile_exchange` writes, producing
  per-rank byte and message counts of one apply.

Flops and bytes are *measured* from the tree; the machine model converts
them to seconds.  ``grain_scale`` supports isogranular extrapolation:
per-rank work scales linearly with the grain and boundary communication
with its 2/3 power (surface-to-volume), documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.surfaces import n_surface_points
from repro.kernels.base import Kernel
from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree
from repro.parallel.owners import balance_owners
from repro.parallel.partition import split_offsets
from repro.perfmodel.costs import PhaseWork, compute_work
from repro.perfmodel.machine import MachineModel
from repro.util.segments import distinct, multi_arange

PHASES = ("up", "down_u", "down_v", "down_w", "down_x", "eval")

#: The list rows that name each payload kind's users: a box's upward
#: equivalent density goes to the targets whose V or W list holds it, its
#: source densities to those whose U or X list does.  V and U are
#: symmetric and X is W's dual, so those targets are the box's own V and
#: X (U and W) rows.
_USERS = {"pue": ("V", "X"), "phi": ("U", "W")}


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


def _partition(tree: Octree, P) -> tuple[np.ndarray, ...]:
    """The runtime's roles at ``P`` ranks: ``(offsets, lo, hi, owner)``.

    :func:`~repro.parallel.partition.partition_points` gives rank ``r``
    the run ``offsets[r]:offsets[r + 1]`` of the Morton order, the
    tree's source order, so a box's contributors are the ranks ``lo ..
    hi`` of its first and last source (none past the point count), and
    its owner is :func:`~repro.parallel.owners.assign_owners`' pick.
    """
    if isinstance(P, bool) or not isinstance(P, (int, np.integer)) or P < 1:
        raise ValueError(f"P must be an integer >= 1, got {P!r}")
    if not tree.shared_points:
        raise ValueError(
            "the performance model prices ParallelFMM runs, whose targets "
            "are their sources (ParallelFMM.setup(points)); this tree's "
            "targets are not its sources"
        )
    topo = tree.topology
    offsets = split_offsets(tree.sources.shape[0], P)
    lo, hi = (
        np.searchsorted(offsets, at, side="right") - 1
        for at in (topo.src_start, topo.src_stop - 1)
    )
    ptr = np.concatenate([[0], np.cumsum(hi - lo + 1)])
    return offsets, lo, hi, balance_owners(P, ptr, multi_arange(lo, hi + 1))


def _over_ranks(P: int, lo: np.ndarray, hi: np.ndarray, value) -> np.ndarray:
    """Per-rank sums of ``value[i]`` added to every rank of ``lo[i] ..
    hi[i]`` (nothing where ``hi < lo``): the cumulative sum of a
    difference array."""
    value = np.broadcast_to(value, lo.shape)
    diff = np.bincount(lo, weights=value, minlength=P + 1)
    diff -= np.bincount(hi + 1, weights=value, minlength=P + 1)
    return np.cumsum(diff[:-1])


def _merged(
    box: np.ndarray, lo: np.ndarray, hi: np.ndarray, P: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank intervals ``[lo, hi]`` merged per box where they touch or
    overlap, grouped by box and ascending: a sort by ``(box, lo)`` and
    a running maximum of ``hi``, on keys offset by ``box * (P + 1)`` so
    that each box's stay below the next box's."""
    if not box.size:
        return box, lo, hi
    row = box * (P + 1)
    start = row + lo
    # The sort is skipped where the rows arrive in order: a V row is one
    # level, whose boxes are in Morton order, like their ranks.
    if np.any(start[1:] < start[:-1]):
        order = np.argsort(start)
        box, row, start, hi = box[order], row[order], start[order], hi[order]
    reach = np.maximum.accumulate(row + hi)
    opens = np.flatnonzero(np.r_[True, start[1:] > reach[:-1] + 1])
    # An interval closes where the next one opens (the last: at the end).
    closes = np.r_[opens[1:] - 1, box.size - 1]
    row = row[opens]
    return box[opens], start[opens] - row, reach[closes] - row


def _rounds(n) -> np.ndarray:
    """``ceil(log2(n))`` for integers ``n >= 1``: bits of ``n - 1``."""
    return np.frexp(np.asarray(n, dtype=np.float64) - 1.0)[1]


class _Trees(NamedTuple):
    """Every participant of some boxes' binomial trees: its box, rank,
    place in :func:`~repro.parallel.simmpi.tree_order` (the ranks
    ascending, rotated to start at the owner), the box's participant
    count and ``len(tree_children(pos, n))``."""

    box: np.ndarray
    rank: np.ndarray
    pos: np.ndarray
    n: np.ndarray
    kids: np.ndarray


def _trees(
    box: np.ndarray, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray
) -> _Trees:
    """The trees over the disjoint ascending rank intervals ``lo .. hi``
    of each box (grouped by box), the owner among them.  A position's
    children are ``pos + 2**k`` for each bit ``k`` below its lowest set
    one (every ``k`` at the root) that stay inside the tree."""
    size = hi - lo + 1
    first = np.cumsum(size) - size  # where each interval's ranks start
    n = np.bincount(box, weights=size, minlength=owner.size).astype(np.int64)
    root = np.zeros(owner.size, dtype=np.int64)
    mine = (lo <= owner[box]) & (owner[box] <= hi)
    root[box[mine]] = (first + owner[box] - lo)[mine]
    box = np.repeat(box, size)
    n = n[box]
    pos = np.arange(box.size) - root[box]
    pos += n * (pos < 0)
    below = np.where(pos > 0, np.frexp(pos & -pos)[1] - 1, n)
    return _Trees(
        box, multi_arange(lo, hi + 1), pos, n,
        np.minimum(below, _rounds(n - pos)),
    )


def _exchange(
    lists: InteractionLists, roles: tuple, kind: str
) -> tuple[_Trees, _Trees]:
    """The ``(gather, scatter)`` trees of one payload kind over its used
    boxes: the gather over the contributors, the scatter over the users
    and the owner.  The users are the contributors of the targets in
    the box's :data:`_USERS` rows —
    :func:`~repro.parallel.let.let_users`' rule in interval form, on a
    sources = targets tree, where every box holds sources and targets
    and only leaves have U and W lists; it never builds the ``(nranks,
    nboxes)`` matrices the ranks do."""
    offsets, lo, hi, owner = roles
    merged = []
    for family in _USERS[kind]:
        ptr, target = lists.flat(family)
        box = np.repeat(np.arange(owner.size), np.diff(ptr))
        merged.append(_merged(box, lo[target], hi[target], offsets.size - 1))
    used = distinct(np.concatenate([box for box, _, _ in merged]), owner.size)
    merged.append((used, owner[used], owner[used]))
    users = (np.concatenate(side) for side in zip(*merged))
    return (
        _trees(used, lo[used], hi[used], owner),
        _trees(*_merged(*users, offsets.size - 1), owner),
    )


def _apply_traffic(
    tree: Octree,
    lists: InteractionLists,
    kernel: Kernel,
    p: int,
    roles: tuple,
    nrhs: int = 1,
) -> np.ndarray:
    """What one apply sends and receives per rank, ``(2, 2, P)``:
    ``[sent | received][messages | bytes]``.

    A message is a node's edge to its parent in a gather tree and to a
    child in a scatter tree.  An upward-equivalent-density message is
    one surface vector; a scatter of source densities carries the box's
    sources, a gather message those of the sender's subtree.  An apply
    ships no coordinates: they went once, at setup (``geo``).
    """
    offsets, _, hi, owner = roles
    P, topo = offsets.size - 1, tree.topology
    row = 8.0 * kernel.source_dof * nrhs  # bytes of one source's density
    traffic = np.zeros((2, 2, P))

    def add(trees, sent, received, bytes_sent, bytes_received):
        for out, weights in zip(
            traffic.reshape(4, P), (sent, bytes_sent, received, bytes_received)
        ):
            out += np.bincount(trees.rank, weights=weights, minlength=P)

    pue = row * n_surface_points(p, topo.dim)
    gather, scatter = _exchange(lists, roles, "pue")
    up, down = gather.pos > 0, scatter.pos > 0
    add(gather, up, gather.kids, up * pue, gather.kids * pue)
    add(scatter, scatter.kids, down, scatter.kids * pue, down * pue)

    gather, scatter = _exchange(lists, roles, "phi")
    down, size = scatter.pos > 0, row * topo.nsrc[scatter.box]
    add(scatter, scatter.kids, down, scatter.kids * size, down * size)
    b, pos = gather.box, gather.pos
    start, count = topo.src_start[b], topo.nsrc[b]

    def held(at):
        """Box ``b``'s sources on tree positions ``0 .. at - 1`` (the
        ranks owner, ..., hi, lo, ..., owner - 1), plus a constant."""
        x = owner[b] + at - 1
        wrap = x > hi[b]
        x = x - wrap * gather.n
        return wrap * count + np.clip(offsets[x + 1] - start, 0, count)

    # A gather node's subtree: its positions up to the next multiple of
    # its lowest set bit.
    end = np.where(pos > 0, np.minimum(pos + (pos & -pos), gather.n), gather.n)
    subtree = (held(end) - held(pos)) * row
    own = (held(pos + 1) - held(pos)) * row
    add(gather, pos > 0, gather.kids, (pos > 0) * subtree, subtree - own)
    return traffic


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
    roles = _partition(tree, P)
    if not (np.isfinite(grain_scale) and grain_scale > 0):
        raise ValueError(
            f"grain_scale must be finite and positive, got {grain_scale}"
        )
    if work is None:
        work = compute_work(tree, lists, kernel, p, m2l=m2l)
    N = n_override if n_override is not None else tree.sources.shape[0]

    # ---- per-rank flops (redundant work on shared boxes included) ----
    _, box_lo, box_hi, _ = roles
    rank_flops = np.stack(
        [_over_ranks(P, box_lo, box_hi, getattr(work, ph)) for ph in PHASES],
        axis=1,
    )
    rank_flops *= grain_scale

    # ---- communication (owner gather/scatter, Algorithm 1) ----
    (msgs_out, bytes_out), (msgs_in, bytes_in) = _apply_traffic(
        tree, lists, kernel, p, roles
    )
    scale23 = grain_scale ** (2.0 / 3.0)
    bytes_out, bytes_in = bytes_out * scale23, bytes_in * scale23

    # ---- convert to time ----
    rank_phase_sec = rank_flops / np.array(
        [machine.rate(ph, kernel.name) for ph in PHASES]
    )
    # Pack/wait split of the persistent apply's nonblocking exchange:
    # posting buffered sends costs the sender unhideable time; waiting
    # on in-flight receives overlaps with the owned-data near-field and
    # V/W work, so only the part of the wait the overlap window cannot
    # cover is paid.  An apply runs no collective: the owners were
    # agreed at setup.
    pack_sec = msgs_out * machine.latency + bytes_out / machine.bandwidth
    wait_raw = msgs_in * machine.latency + bytes_in / machine.bandwidth
    overlappable = rank_phase_sec[
        :, [PHASES.index(ph) for ph in ("down_u", "down_v", "down_w")]
    ].sum(axis=1)
    hidden = np.minimum(wait_raw, machine.overlap_fraction * overlappable)
    wait_sec = wait_raw - hidden
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

    "Tree top" means the shared boxes — boxes whose sources span more
    than one rank, i.e. the boxes whose partial upward densities ride
    the owner gather/scatter and whose coarse V translations are
    performed redundantly.  The point compares two exchange shapes over
    the same roles (the owner, contributors and users of the ``pue``
    exchange): ``flat`` (the owner serialises a point-to-point transfer
    with every other participant) against ``tree`` (the binomial
    gather and scatter :func:`~repro.parallel.exchange.compile_exchange`
    writes, counted rank by rank) plus the coarse-level V split
    (assigned-rank compute + row broadcast instead of fully redundant
    translation).  Total message counts are identical by construction —
    a tree over ``n`` participants has ``n-1`` edges, like the star —
    only the critical path and the per-rank fan-in change.

    The ranks run the binomial exchange with a redundant tree-top V, as
    the paper does; the coarse V split is priced here only, as is
    ``flat``.  ``flat_total`` (the paper's Algorithm 1 as published,
    redundant V) is the baseline the crossover and speedup are quoted
    against, ``tree_total`` (binomial exchange, split V) the modelled
    large-P variant.
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


def _tree_top_msgs(
    lists: InteractionLists, roles: tuple
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per rank, the message endpoints of the shared boxes' ``pue``
    exchange as a star (the owner takes ``n - 1``, every other
    participant one) and as the binomial trees the ranks run, and the
    message total, the same for both.  Unshared boxes are left out: the
    tree top is where the shapes differ."""
    offsets, lo, hi, _ = roles
    P, shared = offsets.size - 1, hi > lo
    flat, binomial = np.zeros((2, P))
    total = 0
    for trees in _exchange(lists, roles, "pue"):
        trees = _Trees(*(a[shared[trees.box]] for a in trees))
        inner = trees.pos > 0
        flat += np.bincount(
            trees.rank, weights=np.where(inner, 1, trees.n - 1), minlength=P
        )
        binomial += np.bincount(
            trees.rank, weights=inner + trees.kids, minlength=P
        )
        total += int(inner.sum())
    return flat, binomial, total


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
    count: per-rank message counts of the shared boxes' ``pue`` trees
    under both shapes, and per-rank coarse V seconds (difference arrays
    over rank intervals, so the sweep stays cheap at thousands of
    ranks), each reduced to the critical rank.  The flat exchange and
    the coarse V split are priced here only; the ranks run the binomial
    exchange and compute the tree-top V redundantly (see
    :class:`TreeTopPoint`).
    """
    roles = _partition(tree, P)
    _, lo, hi, _ = roles
    if work is None:
        work = compute_work(tree, lists, kernel, p, nrhs=nrhs)
    topo = tree.topology
    flat, binomial, total_msgs = _tree_top_msgs(lists, roles)
    unit = machine.latency + (
        8.0 * n_surface_points(p, topo.dim) * kernel.source_dof * nrhs
        / machine.bandwidth
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
        _rounds(span) * (machine.latency + dc_bytes / machine.bandwidth),
    )

    return TreeTopPoint(
        P=P,
        shared_boxes=int((hi > lo).sum()),
        split_levels=[int(lv) for lv in split],
        flat_seconds=float(flat.max() * unit),
        tree_seconds=float(binomial.max() * unit),
        flat_max_rank_msgs=int(flat.max()),
        tree_max_rank_msgs=int(binomial.max()),
        total_msgs=total_msgs,
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
