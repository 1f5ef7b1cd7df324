"""Parallel tree construction: topology identical to the sequential tree."""

import numpy as np
import pytest

from repro.octree import build_tree
from repro.parallel.partition import partition_points
from repro.parallel.ptree import agree_root_cube, parallel_build_tree
from repro.parallel.simmpi import PerRank, run_spmd

from tests.conftest import clustered_cloud, uniform_cloud


def _build_everywhere(points, nranks, s):
    parts = partition_points(points, nranks)

    def main(comm, idx):
        return parallel_build_tree(comm, points[idx], max_points=s)

    return run_spmd(nranks, main, PerRank(parts)), parts


@pytest.mark.parametrize("nranks", [1, 2, 5])
@pytest.mark.parametrize("cloud", ["uniform", "clustered"])
def test_topology_matches_sequential(rng, nranks, cloud):
    pts = (
        uniform_cloud(rng, 700) if cloud == "uniform" else clustered_cloud(rng, 700)
    )
    s = 25
    seq = build_tree(pts, max_points=s)
    results, _ = _build_everywhere(pts, nranks, s)
    for ptree in results:
        t = ptree.tree
        assert t.nboxes == seq.nboxes
        for field in ("anchor", "level", "child"):
            assert np.array_equal(
                getattr(t.topology, field), getattr(seq.topology, field)
            )
        # global counts equal the sequential (full-data) counts
        assert np.array_equal(ptree.global_nsrc, seq.topology.nsrc)


def test_local_counts_sum_to_global(rng):
    pts = clustered_cloud(rng, 600)
    results, _ = _build_everywhere(pts, 4, 20)
    local_sum = np.sum([r.tree.topology.nsrc for r in results], axis=0)
    assert np.array_equal(local_sum, results[0].global_nsrc)


def test_rank_with_no_points(rng):
    """A rank may own no particles at all (tiny problems, many ranks)."""
    pts = uniform_cloud(rng, 6)
    parts = [np.arange(6), np.empty(0, dtype=np.int64)]

    def main(comm, idx):
        return parallel_build_tree(comm, pts[idx], max_points=3)

    results = run_spmd(2, main, PerRank(parts))
    assert results[0].tree.nboxes == results[1].tree.nboxes


def test_agree_root_cube(rng):
    pts = uniform_cloud(rng, 100)
    parts = partition_points(pts, 3)

    def main(comm, idx):
        return agree_root_cube(comm, pts[idx])

    results = run_spmd(3, main, PerRank(parts))
    corners = [r[0] for r in results]
    sides = [r[1] for r in results]
    assert np.allclose(corners[0], corners[1])
    assert np.allclose(corners[0], corners[2])
    assert sides[0] == sides[1] == sides[2]
    # cube actually contains all points
    assert np.all(pts >= corners[0] - 1e-12)
    assert np.all(pts <= corners[0] + sides[0] + 1e-12)


def test_no_points_anywhere_raises():
    def main(comm):
        return agree_root_cube(comm, np.empty((0, 3)))

    with pytest.raises(ValueError):
        run_spmd(2, main)


def test_contribution_masks(rng):
    pts = clustered_cloud(rng, 400)
    results, parts = _build_everywhere(pts, 3, 20)
    for r, ptree in enumerate(results):
        mask = ptree.local_contributes_src()
        # root contains every local point
        assert mask[0] == (len(parts[r]) > 0)
        assert np.array_equal(mask, ptree.tree.topology.nsrc > 0)
