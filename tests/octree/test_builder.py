"""The one tree builder against an independent brute-force oracle.

``grow_tree`` is the level loop of every builder; what it builds *is*
the tree (``Octree.topology``).  The oracle below shares nothing with it
but the Morton keys: per level it takes the distinct key prefixes and
their counts with ``np.unique`` and keeps a cell iff its parent exists
and holds more than ``s`` sources or targets.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import build_tree
from repro.octree.morton import MAX_DEPTH, encode_points, key_prefix
from repro.octree.topology import TreeTopology
from repro.parallel.partition import partition_points
from repro.parallel.ptree import parallel_build_tree
from repro.parallel.simmpi import PerRank, run_spmd, single_rank_comm

from tests import boxview
from tests.conftest import clustered_cloud
from tests.octree.test_lists import _CLOUDS

FIELDS = [f.name for f in dataclasses.fields(TreeTopology)]
#: The fields every rank shares; the point ranges are local.
GLOBAL_FIELDS = [f for f in FIELDS if "start" not in f and "stop" not in f]


FIRST_UID = [(8**level - 1) // 7 for level in range(MAX_DEPTH + 2)]


def _anchor(key: int, level: int) -> list[int]:
    """De-interleave one Morton key, bit by bit."""
    return [
        sum(((key >> (3 * bit + axis)) & 1) << bit for bit in range(level))
        for axis in range(3)
    ]


def _key(anchor) -> int:
    """Interleave one anchor, bit by bit."""
    return sum(
        ((anchor[axis] >> bit) & 1) << (3 * bit + axis)
        for bit in range(MAX_DEPTH) for axis in range(3)
    )


def adaptive_cells(src_keys, trg_keys, s, max_depth):
    """``(level, key)`` of every cell of the adaptive tree: it holds a
    point, and its parent exists and holds more than ``s`` sources or
    targets."""
    cells = {(0, 0)}
    for level in range(1, max_depth + 1):
        held = [
            dict(zip(*(a.tolist() for a in np.unique(
                key_prefix(keys, level - 1, 3), return_counts=True
            ))))
            for keys in (src_keys, trg_keys)
        ]
        occupied = set(key_prefix(src_keys, level, 3).tolist()) | set(
            key_prefix(trg_keys, level, 3).tolist()
        )
        cells |= {
            (level, key) for key in occupied
            if (level - 1, key >> 3) in cells
            and max(h.get(key >> 3, 0) for h in held) > s
        }
    return cells


def oracle_topology(cells, src_keys, trg_keys):
    """``TreeTopology`` of a set of cells, cell by cell; a cell's points
    are the sorted keys that have its prefix."""
    cells = sorted(cells)
    index = {cell: i for i, cell in enumerate(cells)}
    level = np.array([lv for lv, _ in cells])
    parent = [-1] + [index[lv - 1, key >> 3] for lv, key in cells[1:]]
    child = np.full((len(cells), 8), -1)
    for i, (_, key) in enumerate(cells[1:], start=1):
        child[parent[i], key & 7] = i
    ranges = {
        name: np.array(
            [np.searchsorted(key_prefix(keys, lv, 3), key, side) for lv, key in cells],
            dtype=np.int64,
        )
        for name, keys, side in (
            ("src_start", src_keys, "left"), ("src_stop", src_keys, "right"),
            ("trg_start", trg_keys, "left"), ("trg_stop", trg_keys, "right"),
        )
    }
    return TreeTopology(
        level=level,
        parent=np.array(parent),
        anchor=np.array([_anchor(key, lv) for lv, key in cells]),
        octant=np.array([key & 7 for _, key in cells]),
        child=child,
        is_leaf=(child < 0).all(axis=1),
        level_ptr=np.concatenate([[0], np.cumsum(np.bincount(level))]),
        uid=np.array([FIRST_UID[lv] + key for lv, key in cells], dtype=np.uint64),
        **ranges,
    )


def assert_same_topology(got, want, fields=FIELDS):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), f"{name} differs"


def sorted_keys(tree):
    keys = [
        encode_points(pts, tree.root_corner, tree.root_side)[perm]
        for pts, perm in ((tree.sources, tree.src_perm), (tree.targets, tree.trg_perm))
    ]
    for k in keys:
        assert np.all(k[1:] >= k[:-1])
    return keys


@st.composite
def point_sets(draw):
    cloud = draw(st.sampled_from(sorted(_CLOUDS)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**20)))
    sources = _CLOUDS[cloud](draw(st.integers(min_value=1, max_value=500)), rng)
    targets = draw(st.sampled_from(["shared", "none", "separate"]))
    if targets == "shared":
        targets = None
    elif targets == "none":
        targets = np.empty((0, 3))
    else:
        targets = _CLOUDS[draw(st.sampled_from(sorted(_CLOUDS)))](
            draw(st.integers(min_value=1, max_value=300)), rng
        )
    s = draw(st.sampled_from([1, 7, 60]))
    # Coincident points refine to the cap, whatever it is: 21 included.
    return sources, targets, s, draw(st.sampled_from([1, 3, 6, MAX_DEPTH]))


class TestAgainstTheOracle:
    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_any_point_set(self, case):
        sources, targets, s, max_depth = case
        tree = build_tree(sources, targets, max_points=s, max_depth=max_depth)
        keys = sorted_keys(tree)
        want = oracle_topology(adaptive_cells(*keys, s, max_depth), *keys)
        assert_same_topology(tree.topology, want)
        assert tree.depth <= max_depth
        assert tree.shared_points == (targets is None)

    def test_coincident_points_reach_the_key_capacity(self):
        pts = np.repeat([[0.3, 0.3, 0.3], [0.3, 0.3, 0.3000001]], 2, axis=0)
        tree = build_tree(pts, max_points=1)
        assert tree.depth == MAX_DEPTH
        keys = sorted_keys(tree)
        assert_same_topology(
            tree.topology, oracle_topology(adaptive_cells(*keys, 1, MAX_DEPTH), *keys)
        )


def _build_on_ranks(pts, nranks, s, root=None):
    def main(comm, idx):
        return parallel_build_tree(comm, pts[idx], max_points=s, root=root), comm.stats

    return run_spmd(nranks, main, PerRank(partition_points(pts, nranks)))


class TestSequentialIsTheOneRankBuild:
    @pytest.mark.parametrize("cloud", sorted(_CLOUDS))
    def test_one_rank_is_build_tree(self, cloud):
        pts = _CLOUDS[cloud](700, np.random.default_rng(3))
        seq = build_tree(pts, max_points=20, max_depth=8)
        ptree = parallel_build_tree(
            single_rank_comm(), pts, max_points=20, max_depth=8
        )
        assert_same_topology(ptree.tree.topology, seq.topology)
        assert np.array_equal(ptree.tree.src_perm, seq.src_perm)
        assert np.array_equal(ptree.tree.root_corner, seq.root_corner)
        assert ptree.tree.root_side == seq.root_side
        assert np.array_equal(ptree.global_nsrc, seq.topology.nsrc)
        assert np.array_equal(ptree.global_ntrg, seq.topology.ntrg)

    @pytest.mark.parametrize("nranks", [2, 3, 5])
    def test_every_rank_has_the_sequential_tree(self, rng, nranks):
        pts = clustered_cloud(rng, 900)
        seq = build_tree(pts, max_points=15).topology
        results = _build_on_ranks(pts, nranks, 15)
        for ptree, stats in results:
            topo = ptree.tree.topology
            assert_same_topology(topo, seq, GLOBAL_FIELDS)
            assert np.array_equal(ptree.global_nsrc, seq.nsrc)
            assert np.array_equal(ptree.global_ntrg, seq.ntrg)
            # Section 3.1: the cube's min and max, the root's counts, then
            # one Allreduce of the candidate children per level that
            # splits — 8 x (sources, targets) int64 per splitting box.
            assert stats.allreduce_calls == 3 + seq.depth
            nsplit = int((~seq.is_leaf).sum())
            assert stats.allreduce_bytes == 2 * 24 + 16 + 128 * nsplit
        for local, total in (("nsrc", seq.nsrc), ("ntrg", seq.ntrg)):
            summed = sum(getattr(p.tree.topology, local) for p, _ in results)
            assert np.array_equal(summed, total)

    def test_a_pinned_root_saves_the_two_cube_reductions(self, rng):
        pts = clustered_cloud(rng, 400)
        seq = build_tree(pts, max_points=15)
        root = (seq.root_corner, seq.root_side)
        for ptree, stats in _build_on_ranks(pts, 2, 15, root=root):
            assert_same_topology(ptree.tree.topology, seq.topology, GLOBAL_FIELDS)
            assert stats.allreduce_calls == 1 + seq.depth


class TestTheArraysAreTheTree:
    def test_topology_and_box_records_are_read_only(self, rng):
        tree = build_tree(clustered_cloud(rng, 600), max_points=15)
        for name in FIELDS:
            arr = getattr(tree.topology, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.topology.level = tree.topology.level.copy()
        box = boxview.boxes(tree)[3]
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.children = ()

    def test_the_views_are_derived_from_the_arrays(self, rng):
        tree = build_tree(clustered_cloud(rng, 600), max_points=15)
        topo = tree.topology
        boxes = boxview.boxes(tree)
        assert len(boxes) == topo.nboxes
        for b in boxes:
            i = b.index
            assert (b.level, b.parent) == (topo.level[i], topo.parent[i])
            assert b.anchor == tuple(topo.anchor[i])
            assert (b.src_start, b.src_stop) == (topo.src_start[i], topo.src_stop[i])
            assert (b.trg_start, b.trg_stop) == (topo.trg_start[i], topo.trg_stop[i])
            assert b.children == tuple(c for c in topo.child[i] if c >= 0)
            assert b.is_leaf == topo.is_leaf[i]
            ints = (b.index, b.level, b.parent, *b.anchor, *b.children)
            assert all(type(v) is int for v in ints)
        assert [list(lv) for lv in boxview.levels(tree)] == [
            topo.level_boxes(lv).tolist() for lv in range(tree.depth + 1)
        ]
        assert boxview.leaves(tree) == np.flatnonzero(topo.is_leaf).tolist()

    def test_the_batched_path_never_derives_the_views(self, rng):
        from repro import KIFMM, LaplaceKernel
        from repro.core.fmm import FMMOptions
        from repro.parallel import ParallelFMM

        pts, opts = clustered_cloud(rng, 600), FMMOptions(p=3, max_points=20)
        seq = KIFMM(LaplaceKernel(), opts).setup(pts)
        seq.apply(np.ones(len(pts)))
        seq.statistics()
        par = ParallelFMM(2, LaplaceKernel(), opts).setup(pts)
        par.apply(np.ones(len(pts)))
        for tree in [seq.tree] + [state.tree for state in par.states]:
            assert not {"boxes", "levels", "leaves"} & set(dir(tree))
