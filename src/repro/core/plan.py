"""Precomputed level-batched execution plan for the multiplication phase.

The paper's parallel design "is designed to achieve maximum efficiency in
the multiplication phase" (Section 3): the tree and interaction lists are
built once per geometry, then reused across tens of interaction
evaluations (Krylov loops).  The seed evaluator walked boxes one at a
time in Python, so interpreter overhead — not flops — dominated
``KIFMM.apply()``.  This module flattens the tree and the U/V/W/X lists
into *level-major index arrays* once per setup (of ``KIFMM`` and of
every rank alike — :func:`repro.parallel.pfmm.setup_on_tree`), so every
``apply()`` reduces to a short sequence of large vectorized operations:

- **Upward pass** — per level, one batched kernel-matrix block per chunk
  of concatenated leaf sources (S2M via segment-summed columns), one
  stacked GEMM per occupied child octant (M2M), and one stacked GEMM for
  the ``uc2ue`` inversion of every source box at the level.
- **M2L** — V-list pairs grouped by (target parent, source parent) in
  the ≤26 parent-pair directions: blocked rsvd levels run these blocks
  through direction-stacked factors.  The ≤316 translation-offset
  classes of a level (dense: one stacked GEMM per class; class-major
  rsvd, for trees whose blocks are mostly empty: two skinny ones) are
  derived from the blocks on first use; :func:`split_v_level` divides a
  level into a rank's owned and ghost passes.
- **Downward pass** — stacked GEMMs per (level, octant) for L2L and per
  level for ``dc2de``; L2T as chunked kernel blocks over concatenated
  leaf targets.
- **Near field** — U/W/X interactions evaluated with one kernel matrix
  per *target box* over the concatenated partner sources (instead of one
  per box *pair*); the U/W pairs leave here ungrouped
  (:class:`NearPairs`) and are grouped by partner ownership.

The batched S2M/L2T stages shift points into the box-local frame so all
boxes of a level share one check/equivalent surface; this relies on the
kernel being translation invariant (``G(x + t, y + t) = G(x, y)``), as
every kernel of a constant-coefficient elliptic PDE is — the
``(level, offset)``-keyed operator cache relies on the same property.

All gating in the plan is *density independent*: a box carries an upward
density iff it holds sources, and carries downward data iff it (or an
ancestor) receives a V- or X-list contribution from a source-bearing
box.  The plan therefore encodes exactly the boxes a box-by-box walk of
the tree touches (the tests' oracle, ``tests/core/perbox.py``), and the
two produce identical flop statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from repro.octree.lists import InteractionLists
from repro.octree.topology import child_pair_offsets
from repro.octree.tree import Octree
from repro.util.segments import distinct, multi_arange, run_bounds

#: Soft cap on the scalar entries of one batched kernel matrix; level-wide
#: S2M/L2T/U blocks are split into chunks that respect it, bounding the
#: transient memory of an ``apply()`` regardless of problem size.
MAX_BLOCK_ENTRIES = 2_000_000


class BufferPool:
    """Grow-only scratch buffers, zeroed in place on reuse.

    The planned evaluator draws its level-wide work arrays from this
    pool, which lives on the plan and is reused across the many
    ``apply()`` calls of a Krylov loop.

    Under the sanitizer (``REPRO_SANITIZE=1`` / ``FMMOptions.sanitize``;
    the evaluator toggles :attr:`sanitize` per apply) the pool enforces
    a lifecycle: :meth:`release` poisons a dead buffer with NaN — any
    stale read then trips the evaluator's phase-boundary finite checks —
    and records the release so :meth:`check_live` catches
    use-after-release and a second :meth:`release` is a hard error.
    Drawing a released name again (``zeros``/``empty``) reacquires it.
    """

    def __init__(self) -> None:
        self._store: dict[tuple[str, np.dtype], np.ndarray] = {}
        self._released: set[str] = set()
        #: Toggled by the evaluator at apply entry; lifecycle methods
        #: are no-ops when False so unsanitized runs pay nothing.
        self.sanitize = False

    def zeros(self, name: str, shape: tuple[int, ...], dtype=np.float64):
        """A zeroed array of ``shape`` backed by a reusable buffer."""
        view = self.empty(name, shape, dtype)
        view[...] = 0
        return view

    def empty(self, name: str, shape: tuple[int, ...], dtype=np.float64):
        """Like :meth:`zeros` but uninitialised (caller overwrites fully)."""
        dt = np.dtype(dtype)
        size = int(np.prod(shape, dtype=np.int64))
        self._released.discard(name)
        buf = self._store.get((name, dt))
        if buf is None or buf.size < size:
            buf = np.empty(max(size, 1), dtype=dt)
            self._store[(name, dt)] = buf
        return buf[:size].reshape(shape)

    def release(self, name: str) -> None:
        """Declare ``name`` dead for the rest of this apply.

        Sanitize-only: poisons every dtype variant of the buffer with
        NaN (inexact dtypes; integer scratch cannot carry a poison
        value) and raises
        :class:`~repro.analysis.sanitize.DoubleReleaseError` on a
        repeated release without reacquisition.  Unknown names are
        ignored so callers can release mode-dependent scratch
        unconditionally.
        """
        if not self.sanitize:
            return
        entries = [
            (dt, buf) for (n, dt), buf in self._store.items() if n == name
        ]
        if not entries:
            return
        if name in self._released:
            from repro.analysis.sanitize import DoubleReleaseError

            raise DoubleReleaseError(
                f"pool buffer {name!r} released twice without "
                f"reacquisition"
            )
        for dt, buf in entries:
            if np.issubdtype(dt, np.inexact):
                buf.fill(np.nan)
        self._released.add(name)

    def check_live(self, name: str, context: str = "") -> None:
        """Raise ``UseAfterReleaseError`` if ``name`` is released."""
        if name in self._released:
            from repro.analysis.sanitize import UseAfterReleaseError

            where = f" in {context}" if context else ""
            raise UseAfterReleaseError(
                f"pool buffer {name!r} used{where} after release "
                f"(its contents are NaN-poisoned)"
            )

    def allocations(self):
        """The raw backing buffers (for aliasing/escape checks)."""
        return self._store.values()

    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._store.values())


@dataclass
class UpLevel:
    """Upward-pass work at one level (source boxes only).

    ``boxes`` are the level's source-bearing boxes — the rows of the
    level's stacked check-potential block.  ``s2m_*`` describe the leaf
    rows: concatenated box-frame source coordinates, their positions in
    the Morton-sorted source order, and the per-leaf point offsets.
    ``m2m_groups`` stack the children (at ``level + 1``) by octant;
    ``rows`` are positions into ``boxes`` of the receiving parents.
    """

    level: int
    boxes: np.ndarray
    s2m_rows: np.ndarray
    s2m_pts: np.ndarray
    s2m_src_pos: np.ndarray
    s2m_seg: np.ndarray
    m2m_groups: list[tuple[int, np.ndarray, np.ndarray]]


@lru_cache(maxsize=None)
def block_slots(parent_offset: tuple[int, int, int]) -> np.ndarray:
    """Offset class of every child pair of one parent-pair direction:
    entry ``[o_t, o_s]`` is the base-7 key of ``2 parent_offset + v(o_t)
    - v(o_s)``, or -1 where the children are adjacent — no V pair, no
    slot."""
    off = child_pair_offsets(parent_offset)
    key = ((off + 3) * (49, 7, 1)).sum(axis=2)
    key[np.abs(off).max(axis=2) < 2] = -1
    key.setflags(write=False)
    return key


def _class_offset(key: int) -> tuple[int, int, int]:
    return (key // 49 - 3, (key % 49) // 7 - 3, key % 7 - 3)


def _class_counts(po_groups: list, src_ok: np.ndarray, trg_ok: np.ndarray) -> dict:
    """Pairs per offset class that parent-pair blocks cover, counting a
    slot where ``src_ok`` / ``trg_ok`` mark its rows."""
    counts = np.zeros(343, dtype=np.int64)
    for po, src_rows, trg_rows in po_groups:
        slots = block_slots(po)
        n = trg_ok[trg_rows].T.astype(np.int64) @ src_ok[src_rows]
        np.add.at(counts, slots[slots >= 0], n[slots >= 0])
    return {_class_offset(int(k)): int(counts[k]) for k in np.flatnonzero(counts)}


@dataclass
class VLevel:
    """All effective V-list pairs of one level, as parent-pair blocks.

    ``src_boxes``/``trg_boxes`` are the unique source and target
    (accumulator) boxes.

    ``po_groups`` hold one entry per parent-anchor offset (≤26
    directions): the ``(npp, 8)`` positions of the eight child octants
    of every unique (target-parent, source-parent) pair of that
    direction.  Missing or inactive children point at the sentinel rows
    ``len(src_boxes)`` / ``len(trg_boxes)`` (a zero source row and a
    discarded target row), so a block covers exactly the effective pairs.
    Within one group every target parent occurs once, hence every target
    child row occurs at most once and fancy ``+=`` stays exact.

    ``counts`` are the pairs per translation-offset class — every flop
    count.  ``classes`` regroup the pairs class-major, ``(offset,
    src_pos, trg_pos)`` with positions into the box arrays, targets
    ascending; for a fixed offset every target appears at most once, so
    class accumulation is a plain fancy-indexed ``+=``.  Built on first
    use: a blocked level never asks.
    """

    level: int
    src_boxes: np.ndarray
    trg_boxes: np.ndarray
    po_groups: list[tuple[tuple[int, int, int], np.ndarray, np.ndarray]]
    counts: dict[tuple[int, int, int], int] = field(init=False)

    def __post_init__(self) -> None:
        nsb, ntb = self.src_boxes.size, self.trg_boxes.size
        self.counts = _class_counts(
            self.po_groups, np.arange(nsb + 1) < nsb, np.arange(ntb + 1) < ntb
        )

    @property
    def npairs(self) -> int:
        return sum(self.counts.values())

    @cached_property
    def classes(self) -> list[tuple[tuple[int, int, int], np.ndarray, np.ndarray]]:
        nsb, ntb = self.src_boxes.size, self.trg_boxes.size
        keys, spos, tpos = [], [], []
        for po, src_rows, trg_rows in self.po_groups:
            slots = block_slots(po)
            ot, os_ = np.nonzero(slots >= 0)
            s, t = src_rows[:, os_], trg_rows[:, ot]
            m = (s < nsb) & (t < ntb)
            keys.append(np.broadcast_to(slots[ot, os_], m.shape)[m])
            spos.append(s[m])
            tpos.append(t[m])
        key, spos, tpos = map(np.concatenate, (keys, spos, tpos))
        order = np.argsort(key * (ntb + 1) + tpos, kind="stable")
        bounds = run_bounds(key[order])
        return [
            (_class_offset(int(key[order[lo]])), spos[order[lo:hi]],
             tpos[order[lo:hi]])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]


@dataclass
class VPass:
    """The pairs of a V level one pass covers (owned or ghost sources).

    ``rows`` are the positions into ``src_boxes`` the pass reads;
    ``counts`` its pairs per offset class; ``po_groups`` the pairs as
    parent-pair blocks over the split's rows (blocked levels only, else
    empty); ``classes`` the same pairs class-major in the level's
    positions, filtered from the level's on first use.
    """

    rows: np.ndarray
    counts: dict[tuple[int, int, int], int]
    po_groups: list[tuple[tuple[int, int, int], np.ndarray, np.ndarray]]
    of: tuple[VLevel, np.ndarray, np.ndarray] = field(repr=False)

    @property
    def npairs(self) -> int:
        return sum(self.counts.values())

    @cached_property
    def classes(self) -> list[tuple[tuple[int, int, int], np.ndarray, np.ndarray]]:
        vl, mine, trg_keep = self.of
        kept = (
            (offset, spos, tpos, mine[spos] & trg_keep[tpos])
            for offset, spos, tpos in vl.classes
        )
        return [(o, s[m], t[m]) for o, s, t, m in kept if m.any()]


@dataclass
class VSplit:
    """One V level's pairs split by source-box ownership.

    Pairs over sources this rank owns can be processed inside the
    overlap window (their global equivalent densities are on hand right
    after the owner relay); pairs over ghost sources wait for the
    scatter.  At one rank everything is owned.

    At *coarse split levels* (box count below the rank count — see
    :func:`repro.core.m2lschedule.coarse_split_levels`) the redundant
    tree-top translations are divided instead: ``own`` is empty,
    ``ghost`` is restricted to the target boxes *assigned* to this rank
    by the deterministic cyclic assignment, ``inv_rows`` lists the
    assigned positions into ``trg_boxes`` (elsewhere: all of them — the
    rows this rank accumulates), and ``bcast`` holds the per-box
    ``(box, root_rank, participant_ranks)`` broadcast schedule that
    delivers every participant the assigned rank's downward-check rows.

    The source rows of a blocked split (the rsvd slabs) are the ``own``
    rows, then the ``ghost`` rows, then the zero sentinel; the
    accumulator rows the ``inv_rows``, then the discarded sentinel.
    """

    own: VPass
    ghost: VPass
    inv_rows: np.ndarray
    bcast: list[tuple[int, int, tuple[int, ...]]] = field(default_factory=list)

    @property
    def nrows(self) -> int:
        """Source rows, sentinel included."""
        return self.own.rows.size + self.ghost.rows.size + 1


def split_v_level(
    vl: VLevel, src_own: np.ndarray, trg_keep: np.ndarray, blocked: bool
) -> VSplit:
    """Split ``vl``'s pairs by ``src_own`` (a mask over ``src_boxes``),
    dropping those whose target ``trg_keep`` (over ``trg_boxes``) does
    not mark.

    A pass reads the sources of its mask that meet a kept target in
    some slot of a block.  With ``blocked`` each pass also gets the
    level's parent-pair blocks renumbered to the split's rows: every
    source child row outside the pass and every target child row
    outside ``trg_keep`` points at the sentinel, and blocks left
    without a source or without a target are dropped — so a pass
    gathers only rows on hand so far, and the two passes cover each
    kept pair exactly once.
    """
    nsb, ntb = vl.src_boxes.size, vl.trg_boxes.size
    inv_rows = np.flatnonzero(trg_keep)
    trg_ok = np.append(trg_keep, False)
    passes = []
    for mine in (src_own, ~src_own):
        used = np.zeros(nsb + 1, dtype=bool)
        for po, src_rows, trg_rows in vl.po_groups:
            met = trg_ok[trg_rows] @ (block_slots(po) >= 0)  # [pair, o_s]
            used[src_rows[met]] = True
        used &= np.append(mine, False)
        passes.append(VPass(
            np.flatnonzero(used), _class_counts(vl.po_groups, used, trg_ok),
            [], (vl, mine, trg_keep),
        ))
    split = VSplit(passes[0], passes[1], inv_rows)
    if not blocked:
        return split
    src_none, trg_none = split.nrows - 1, inv_rows.size  # the sentinels
    trg_map = np.full(ntb + 1, trg_none, dtype=np.int64)
    trg_map[inv_rows] = np.arange(inv_rows.size)
    for vp, lo in ((split.own, 0), (split.ghost, split.own.rows.size)):
        src_map = np.full(nsb + 1, src_none, dtype=np.int64)
        src_map[vp.rows] = lo + np.arange(vp.rows.size)
        for po, src_rows, trg_rows in vl.po_groups:
            s, t = src_map[src_rows], trg_map[trg_rows]
            keep = (s != src_none).any(axis=1) & (t != trg_none).any(axis=1)
            if keep.any():
                vp.po_groups.append((po, s[keep], t[keep]))
    return split


@dataclass
class DownLevel:
    """Downward-pass work at one level (target boxes only).

    ``l2l_groups`` stack the level's boxes by octant against their
    parents; ``dc_boxes`` are the boxes carrying downward data (the
    ``dc2de`` rows); ``l2t_*`` describe the leaf targets (box-frame
    coordinates, sorted-order positions, per-leaf offsets); ``x`` holds
    the X-list pairs as per-target-box blocks of partner source
    positions.
    """

    level: int
    l2l_groups: list[tuple[int, np.ndarray, np.ndarray]]
    dc_boxes: np.ndarray
    l2t_boxes: np.ndarray
    l2t_pts: np.ndarray
    l2t_trg_pos: np.ndarray
    l2t_seg: np.ndarray
    x: NearBlocks


@dataclass
class ExecutionPlan:
    """Flattened tree + interaction lists, ready for batched evaluation.

    Built once per geometry by :func:`compile_plan`; consumed by the
    stage methods of :class:`repro.core.evaluator.PlanStages`.  Every
    array indexes either boxes (tree order) or points (Morton-sorted
    order); densities and potentials are carried in sorted order inside
    the evaluator and permuted once at entry/exit.  The U and W lists
    are not here: :class:`~repro.parallel.pfmm.RankFMM` groups their
    gated pairs (:class:`NearPairs`) by partner ownership.
    """

    nboxes: int
    depth: int
    levels: np.ndarray
    centers: np.ndarray
    sources_sorted: np.ndarray
    targets_sorted: np.ndarray
    up_levels: list[UpLevel]
    v_levels: list[VLevel]
    down_levels: list[DownLevel]
    buffers: BufferPool = field(default_factory=BufferPool, repr=False)

    def statistics(self) -> dict[str, float]:
        """Plan-shape summary (batch sizes drive achievable throughput)."""
        nclasses = sum(len(vl.counts) for vl in self.v_levels)
        npairs = sum(vl.npairs for vl in self.v_levels)
        nparent = sum(
            sum(len(rows) for _, rows, _ in vl.po_groups)
            for vl in self.v_levels
        )
        return {
            "plan_up_levels": len(self.up_levels),
            "plan_down_levels": len(self.down_levels),
            "plan_v_classes": nclasses,
            "plan_v_pairs": npairs,
            "plan_v_parent_pairs": nparent,
            "plan_buffer_bytes": self.buffers.nbytes(),
        }


@dataclass
class NearBlocks:
    """Per-target-box grouping of near-field (U/W/X style) pairs.

    ``boxes`` are the unique target boxes; ``seg`` holds cumulative
    partner-point (or partner-box) offsets; ``src_pos`` concatenates the
    partner point positions (U/X) or partner box indices (W);
    ``partners`` are the unique partner boxes (what a step over the
    blocks declares it reads).  ``checked`` records the extents the
    compiled pair loops have checked these indices against
    (:func:`repro.kernels.native.check_blocks`), so that happens once.
    """

    boxes: np.ndarray
    trg_start: np.ndarray
    trg_stop: np.ndarray
    seg: np.ndarray
    src_pos: np.ndarray
    partners: np.ndarray
    checked: set = field(default_factory=set, repr=False, compare=False)


def build_near_blocks(
    trg: np.ndarray,
    src: np.ndarray,
    p_start: np.ndarray,
    p_stop: np.ndarray,
    trg_start: np.ndarray,
    trg_stop: np.ndarray,
) -> NearBlocks:
    """Group (target box, partner box) pairs by target box.

    ``trg``/``src`` must arrive grouped by target (CSR order);
    ``p_start``/``p_stop`` define each partner box's point range in
    whatever point numbering the caller evaluates against (the local
    Morton-sorted sources, or a rank's combined ghost array).
    """
    bounds = run_bounds(trg)
    boxes = trg[bounds[:-1]]
    src_pos = multi_arange(p_start[src], p_stop[src])
    points = np.zeros(trg.size + 1, dtype=np.int64)
    np.cumsum(p_stop[src] - p_start[src], out=points[1:])
    return NearBlocks(
        boxes, trg_start[boxes], trg_stop[boxes], points[bounds], src_pos,
        distinct(src, p_start.size),
    )


def build_w_blocks(
    trg: np.ndarray,
    partners: np.ndarray,
    trg_start: np.ndarray,
    trg_stop: np.ndarray,
) -> NearBlocks:
    """Group W-list pairs by target box (partners kept as box indices)."""
    bounds = run_bounds(trg)
    boxes = trg[bounds[:-1]]
    return NearBlocks(
        boxes, trg_start[boxes], trg_stop[boxes], bounds, partners,
        distinct(partners, trg_start.size),
    )


@dataclass
class NearPairs:
    """Effective U- and W-list pairs of a tree, before grouping.

    ``u`` / ``w`` are ``(target box, partner box)`` arrays in CSR order
    (grouped by target), gated like every downward list: the target
    holds targets and the partner holds sources.  ``p_*`` are the
    partner boxes' point ranges in the numbering U is evaluated against
    (see ``ext_ranges`` of :func:`compile_plan`), ``trg_*`` the target
    ranges in sorted order.
    """

    u: tuple[np.ndarray, np.ndarray]
    w: tuple[np.ndarray, np.ndarray]
    p_start: np.ndarray
    p_stop: np.ndarray
    trg_start: np.ndarray
    trg_stop: np.ndarray

    def blocks(self, keep: np.ndarray) -> tuple[NearBlocks, NearBlocks]:
        """The ``(U, W)`` blocks over the pairs whose partner ``keep`` marks.

        ``keep`` is a per-box mask (a rank's owned or ghost boxes).
        Pair order is preserved, so the splits of a mask and its
        complement partition the pairs in place.
        """
        (ut, us), (wt, wp) = self.u, self.w
        um, wm = keep[us], keep[wp]
        ut, us, wt, wp = ut[um], us[um], wt[wm], wp[wm]
        return (
            build_near_blocks(
                ut, us, self.p_start, self.p_stop,
                self.trg_start, self.trg_stop,
            ),
            build_w_blocks(wt, wp, self.trg_start, self.trg_stop),
        )


def _gated_pairs(
    lists: InteractionLists, which: str, ntrg: np.ndarray, nsrc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(target, partner)`` pairs of one list with both ends active."""
    trg, idx = lists.pairs(which)
    m = (ntrg[trg] > 0) & (nsrc[idx] > 0)
    return trg[m], idx[m]


def build_plan(tree: Octree, lists: InteractionLists) -> ExecutionPlan:
    """Flatten ``tree`` and ``lists`` into a plan (the plan alone)."""
    return compile_plan(tree, lists)[0]


def compile_plan(
    tree: Octree,
    lists: InteractionLists,
    *,
    partner_nsrc: np.ndarray | None = None,
    ext_ranges: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[ExecutionPlan, NearPairs]:
    """The plan, plus the gated U/W pairs a rank groups by partner
    ownership (:meth:`NearPairs.blocks`).

    Parameters
    ----------
    partner_nsrc:
        Optional per-box source counts used to gate *downward* partners
        (V/W/X/U source boxes).  The parallel evaluator passes the
        global counts of its :class:`~repro.parallel.ptree.ParallelTree`
        so a rank's plan covers partners whose sources live on other
        ranks; the upward pass always gates on the tree's own (local)
        counts, matching the paper's partial upward densities.
    ext_ranges:
        Optional ``(start, stop)`` per-box point ranges replacing the
        tree's local source ranges for U/X partner positions.  The
        parallel evaluator passes the layout of its combined
        local+ghost source array; sequential callers omit it.
    """
    topo = tree.topology
    nb = topo.nboxes
    level_of, parent, octant, anchors = (
        topo.level, topo.parent, topo.octant, topo.anchor
    )
    is_leaf, child_tab = topo.is_leaf, topo.child
    nsrc, ntrg = topo.nsrc, topo.ntrg
    src_start, src_stop = topo.src_start, topo.src_stop
    trg_start, trg_stop = topo.trg_start, topo.trg_stop
    side = tree.root_side / np.power(2.0, level_of)
    centers = tree.root_corner[None, :] + (anchors + 0.5) * side[:, None]
    sources_sorted = np.ascontiguousarray(tree.sources[tree.src_perm])
    targets_sorted = np.ascontiguousarray(tree.targets[tree.trg_perm])
    nsrc_act = nsrc if partner_nsrc is None else np.asarray(partner_nsrc)
    p_start, p_stop = (src_start, src_stop) if ext_ranges is None else ext_ranges

    # ---------------- upward pass ----------------
    up_levels: list[UpLevel] = []
    for level in range(tree.depth, -1, -1):
        lvl = topo.level_boxes(level)
        sel = lvl[nsrc[lvl] > 0]
        if sel.size == 0:
            continue
        leaf_sel = sel[is_leaf[sel]]
        starts, stops = src_start[leaf_sel], src_stop[leaf_sel]
        counts = stops - starts
        s2m_src_pos = multi_arange(starts, stops)
        s2m_seg = np.zeros(leaf_sel.size + 1, dtype=np.int64)
        np.cumsum(counts, out=s2m_seg[1:])
        s2m_pts = sources_sorted[s2m_src_pos] - np.repeat(
            centers[leaf_sel], counts, axis=0
        )
        groups: list[tuple[int, np.ndarray, np.ndarray]] = []
        nonleaf = sel[~is_leaf[sel]]
        if nonleaf.size:
            kids = child_tab[nonleaf]  # by parent, then octant
            kids = kids[kids >= 0]
            kids = kids[nsrc[kids] > 0]
            rows = np.searchsorted(sel, parent[kids])
            for o in range(8):
                m = octant[kids] == o
                if m.any():
                    groups.append((o, kids[m], rows[m]))
        up_levels.append(
            UpLevel(
                level=level,
                boxes=sel,
                s2m_rows=np.searchsorted(sel, leaf_sel),
                s2m_pts=s2m_pts,
                s2m_src_pos=s2m_src_pos,
                s2m_seg=s2m_seg,
                m2m_groups=groups,
            )
        )

    # ---------------- downward gating ----------------
    # CSR order: both pair sets arrive grouped by target.
    vt_all, vs_all = _gated_pairs(lists, "V", ntrg, nsrc_act)
    xt_all, xs_all = _gated_pairs(lists, "X", ntrg, nsrc_act)
    own = np.zeros(nb, dtype=bool)
    own[vt_all] = True
    own[xt_all] = True
    # A box carries downward data iff it has targets and it — or an
    # ancestor — receives a V/X contribution (the evaluator's has_dc /
    # has_de gating), level by level so parents come first.
    has_de = np.zeros(nb, dtype=bool)
    for level in range(1, tree.depth + 1):
        lvl = topo.level_boxes(level)
        has_de[lvl] = (ntrg[lvl] > 0) & (own[lvl] | has_de[parent[lvl]])

    # ---------------- V levels, as parent-pair blocks ----
    vt_level = level_of[vt_all]
    v_levels: list[VLevel] = []
    for level in range(2, tree.depth + 1):
        m = vt_level == level
        if not m.any():
            continue
        t, s = vt_all[m], vs_all[m]
        trg_boxes = t[run_bounds(t)[:-1]]  # CSR order: t is ascending
        src_boxes = distinct(s, nb)
        # Row of a box in the level's stacks; nb (what child_tab's -1
        # wraps to) and every other box point at the sentinel row.
        src_row_of = np.full(nb + 1, src_boxes.size, dtype=np.int64)
        src_row_of[src_boxes] = np.arange(src_boxes.size)
        trg_row_of = np.full(nb + 1, trg_boxes.size, dtype=np.int64)
        trg_row_of[trg_boxes] = np.arange(trg_boxes.size)

        # Parent-pair blocks: the unique (parent(t), parent(s)) pairs
        # grouped by their anchor offset.  Every effective pair belongs
        # to exactly one parent pair, and every child pair of a parent
        # pair whose offset is non-adjacent is itself an effective pair
        # (or points at a sentinel row when the child is absent/inactive).
        pair_key = np.sort(parent[t] * nb + parent[s])
        uniq = pair_key[run_bounds(pair_key)[:-1]]
        upt, ups = uniq // nb, uniq % nb
        po = anchors[upt] - anchors[ups]  # components in [-1, 1], never 0
        pkey = (po[:, 0] + 1) * 9 + (po[:, 1] + 1) * 3 + (po[:, 2] + 1)
        porder = np.argsort(pkey, kind="stable")
        spk = pkey[porder]
        pbounds = run_bounds(spk)
        po_groups = []
        for gi in range(pbounds.size - 1):
            rows = porder[pbounds[gi] : pbounds[gi + 1]]
            k = int(spk[pbounds[gi]])
            po_vec = (k // 9 - 1, (k // 3) % 3 - 1, k % 3 - 1)
            # child_tab == -1 wraps to the last (sentinel) row entry.
            src_rows = src_row_of[child_tab[ups[rows]]]
            trg_rows = trg_row_of[child_tab[upt[rows]]]
            po_groups.append((po_vec, src_rows, trg_rows))
        v_levels.append(VLevel(level, src_boxes, trg_boxes, po_groups))

    # ---------------- downward levels ----------------
    down_levels: list[DownLevel] = []
    for level in range(1, tree.depth + 1):
        lvl = topo.level_boxes(level)
        act = lvl[ntrg[lvl] > 0]
        if act.size == 0:
            continue
        l2l_sel = act[has_de[parent[act]]]
        groups = []
        for o in range(8):
            m = octant[l2l_sel] == o
            if m.any():
                groups.append((o, l2l_sel[m], parent[l2l_sel[m]]))
        l2t_sel = act[is_leaf[act] & has_de[act]]
        tstarts, tstops = trg_start[l2t_sel], trg_stop[l2t_sel]
        tcounts = tstops - tstarts
        l2t_seg = np.zeros(l2t_sel.size + 1, dtype=np.int64)
        np.cumsum(tcounts, out=l2t_seg[1:])
        l2t_trg_pos = multi_arange(tstarts, tstops)
        l2t_pts = targets_sorted[l2t_trg_pos] - np.repeat(
            centers[l2t_sel], tcounts, axis=0
        )
        lm = level_of[xt_all] == level
        xt, xs = xt_all[lm], xs_all[lm]  # ascending, matching CSR pair order
        down_levels.append(
            DownLevel(
                level=level,
                l2l_groups=groups,
                dc_boxes=act[has_de[act]],
                l2t_boxes=l2t_sel,
                l2t_pts=l2t_pts,
                l2t_trg_pos=l2t_trg_pos,
                l2t_seg=l2t_seg,
                x=build_near_blocks(
                    xt, xs, p_start, p_stop, trg_start, trg_stop
                ),
            )
        )

    plan = ExecutionPlan(
        nboxes=nb,
        depth=tree.depth,
        levels=level_of,
        centers=centers,
        sources_sorted=sources_sorted,
        targets_sorted=targets_sorted,
        up_levels=up_levels,
        v_levels=v_levels,
        down_levels=down_levels,
    )
    near = NearPairs(
        u=_gated_pairs(lists, "U", ntrg, nsrc_act),
        w=_gated_pairs(lists, "W", ntrg, nsrc_act),
        p_start=p_start,
        p_stop=p_stop,
        trg_start=trg_start,
        trg_stop=trg_stop,
    )
    return plan, near
