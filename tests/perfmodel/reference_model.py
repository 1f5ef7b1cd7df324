"""The oracles of ``repro.perfmodel``: a per-box work walker, and the
runtime's own message schedule.

``compute_work`` is the flop model as it stood in
``perfmodel/costs.py`` before it became array code over
``TreeTopology`` and the CSR lists — one Python iteration per box and
per list entry over the :mod:`tests.boxview` records.  Every flop term
is an integer-valued float below 2**53, so the array code must
reproduce the work arrays *exactly*.

:func:`coarse_v` is the tree top's coarse V pricing box by box over
the runtime's contributor matrix.

The traffic has no second model to mirror: :func:`ir_traffic` and
:func:`ir_tree_top` read it op by op off
:func:`~repro.analysis.commir.extract_comm_ir`, the programs every rank
runs, so the model must equal them exactly too.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.commir import StaticPlanInputs, extract_comm_ir
from repro.core.m2lschedule import M2LSchedule
from repro.core.surfaces import n_surface_points
from repro.kernels.base import Kernel
from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree
from repro.parallel.simmpi import tree_order
from repro.perfmodel.costs import PhaseWork
from repro.perfmodel.machine import MachineModel
from repro.perfmodel.simulate import coarse_split_levels

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
    inverse_rank=None,
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
    n_surf = n_surface_points(p, tree.topology.dim)
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

    def pinv_flops(name, level):
        """Two GEMMs through the inversion's factors, at full rank unless
        ``inverse_rank`` says otherwise."""
        rank = n_surf * min(md, qd)
        if inverse_rank is not None:
            rank = inverse_rank(name, level)
        return 2.0 * rank * (n_surf * md + n_surf * qd)
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

    vtm = ntrg > 0

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
            up[i] += pinv_flops("uc2ue", b.level)
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
            evalw[i] += pinv_flops("dc2de", b.level)
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


def apply_ops(program):
    """A program's ops after the setup's ``geo`` exchange: one apply's."""
    return [op for op in program if op.group not in ("geo", "geog")]


def ir_traffic(
    inputs: StaticPlanInputs, kernel: Kernel, p: int, nrhs: int = 1
) -> np.ndarray:
    """Per rank, what one apply's programs send and receive, ``(2, 2,
    P)``: ``[sent | received][messages | bytes]``.

    Messages are the send and complete ops; a message's bytes follow
    from its box and the roles: a ``pue`` message is one surface
    vector, a ``phi`` scatter the box's sources, a ``phi`` gather the
    pieces of the sender's binomial subtree.
    """
    ir = extract_comm_ir(inputs)
    P, tree = inputs.nranks, inputs.tree
    topo = tree.topology
    rank_of = np.empty(tree.sources.shape[0], dtype=np.int64)
    for r, idx in enumerate(inputs.parts):
        rank_of[idx] = r
    row = 8.0 * kernel.source_dof * nrhs
    traffic = np.zeros((2, 2, P))
    for r, program in enumerate(ir.programs):
        for op in apply_ops(program):
            if op.kind == "complete":
                traffic[1, 0, r] += 1
            if op.kind != "send":
                continue
            b = op.ids[0]
            if op.group in ("pue", "pueg"):
                size = row * n_surface_points(p, topo.dim)
            elif op.group == "phig":
                size = row * topo.nsrc[b]
            else:
                owner, contribs, _ = ir.roles["phi"][op.ids]
                order = tree_order(contribs, owner)
                pos = order.index(r)
                held = np.bincount(
                    rank_of[tree.src_perm[topo.src_start[b]:topo.src_stop[b]]],
                    minlength=P,
                )
                size = row * held[order[pos:pos + (pos & -pos)]].sum()
            traffic[0, :, r] += (1, size)
            traffic[1, 1, op.peer] += size
    return traffic


def ir_tree_top(inputs: StaticPlanInputs) -> tuple[np.ndarray, np.ndarray, int]:
    """Per rank, the ``pue`` message endpoints of the shared boxes
    (contributed by more than one rank) under the paper's star — the
    owner one per other participant, every other participant one — and
    in the programs, with the programs' message total."""
    ir = extract_comm_ir(inputs)
    shared = inputs.contrib_src.sum(axis=0) > 1
    flat, tree = np.zeros((2, inputs.nranks))
    for (b,), (owner, contribs, users) in ir.roles["pue"].items():
        if shared[b]:
            for members in (contribs, users | {owner}):
                for m in members:
                    flat[m] += len(members) - 1 if m == owner else 1
    total = 0
    for r, program in enumerate(ir.programs):
        for op in apply_ops(program):
            if op.group in ("pue", "pueg") and shared[op.ids[0]]:
                tree[r] += op.kind in ("send", "complete")
                total += op.kind == "send"
    return flat, tree, total


def coarse_v(
    inputs: StaticPlanInputs,
    kernel: Kernel,
    p: int,
    work: PhaseWork,
    machine: MachineModel,
    nrhs: int = 1,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The split levels and, per rank, the coarse V seconds of the tree
    top, box by box: every contributor of a split level's box computes
    it (redundant), or its cyclic assignee computes it and every
    contributor pays the ``ceil(log2 C)`` rounds of the check rows'
    broadcast (split)."""
    P = inputs.nranks
    levels = boxview.levels(inputs.tree)
    split = sorted(coarse_split_levels([len(lv) for lv in levels], P))
    v_red, v_spl = np.zeros((2, P))
    rate = machine.rate("down_v", kernel.name)
    rows = machine.message_time(
        8.0 * n_surface_points(p, inputs.tree.topology.dim)
        * kernel.target_dof * nrhs
    )
    assignee = 0
    for lvl in split:
        for b in levels[lvl]:
            if work.down_v[b] <= 0:
                continue
            ranks = np.flatnonzero(inputs.contrib_src[:, b])
            sec = float(work.down_v[b]) / rate
            v_red[ranks] += sec
            v_spl[ranks[assignee % ranks.size]] += sec
            assignee += 1
            v_spl[ranks] += math.ceil(math.log2(ranks.size)) * rows
    return split, v_red, v_spl
