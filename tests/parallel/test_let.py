"""LET usage rule tests: the users every rank derives from the
replicated target contributor matrix."""

import numpy as np
import pytest

from repro.octree import build_lists, build_tree
from repro.parallel.let import let_users
from repro.parallel.owners import static_contributors
from repro.parallel.partition import partition_points

from tests import boxview
from tests.conftest import clustered_cloud, uniform_cloud


def users_of(tree, lists, contrib_trg, nsrc=None):
    """``(users_equiv, users_src)`` of the ranks whose target masks are
    the rows of ``contrib_trg``, gated by the tree's own source counts
    unless ``nsrc`` is given."""
    return let_users(
        lists, tree.topology.is_leaf, np.atleast_2d(contrib_trg),
        tree.topology.nsrc if nsrc is None else nsrc,
    )


def test_usage_matches_definitions(rng):
    tree = build_tree(clustered_cloud(rng, 500), max_points=20)
    lists = build_lists(tree)
    # pretend this rank owns the targets of the first half of the leaves
    local_trg = np.zeros(tree.nboxes, dtype=bool)
    boxes, leaves = boxview.boxes(tree), boxview.leaves(tree)
    for leaf in leaves[: len(leaves) // 2]:
        b = leaf
        while b >= 0:
            local_trg[b] = True
            b = boxes[b].parent

    (uses_equiv,), (uses_source,) = users_of(tree, lists, local_trg)

    expected_equiv = np.zeros(tree.nboxes, dtype=bool)
    expected_src = np.zeros(tree.nboxes, dtype=bool)
    view = boxview.per_box(lists)
    for b in np.nonzero(local_trg)[0]:
        for a in view.V[b]:
            expected_equiv[a] = True
        for a in view.X[b]:
            expected_src[a] = True
        if boxes[b].is_leaf:
            for a in view.W[b]:
                expected_equiv[a] = True
            for a in view.U[b]:
                expected_src[a] = True
    assert np.array_equal(uses_equiv, expected_equiv)
    assert np.array_equal(uses_source, expected_src)


def test_no_targets_no_usage(rng):
    tree = build_tree(clustered_cloud(rng, 300), max_points=20)
    lists = build_lists(tree)
    uses_equiv, uses_source = users_of(
        tree, lists, np.zeros((3, tree.nboxes), dtype=bool)
    )
    assert uses_equiv.shape == uses_source.shape == (3, tree.nboxes)
    assert not uses_equiv.any()
    assert not uses_source.any()


def test_own_leaf_in_own_u_list_usage(rng):
    """A rank using a leaf's U list needs that leaf's own sources too."""
    tree = build_tree(clustered_cloud(rng, 300), max_points=20)
    lists = build_lists(tree)
    local_trg = np.zeros(tree.nboxes, dtype=bool)
    leaf = boxview.leaves(tree)[0]
    local_trg[leaf] = True
    _, (uses_source,) = users_of(tree, lists, local_trg)
    assert uses_source[leaf]  # B is in its own U list


@pytest.mark.parametrize("nranks", [1, 3, 8, 64])
@pytest.mark.parametrize("cloud", [uniform_cloud, clustered_cloud])
def test_all_ranks_row_is_the_one_rank_call(cloud, nranks):
    """Row ``r`` of the users of all ranks at once is what rank ``r``'s
    target mask alone yields: no rank's users depend on another's."""
    pts = cloud(np.random.default_rng(nranks), 500)
    tree = build_tree(pts, max_points=20)
    lists = build_lists(tree)
    _, contrib_trg = static_contributors(
        tree, partition_points(pts, nranks)
    )
    users = users_of(tree, lists, contrib_trg)
    assert all(u.shape == (nranks, tree.nboxes) for u in users)
    assert users[0].any() and users[1].any()
    for r in range(nranks):
        one = users_of(tree, lists, contrib_trg[r])
        for every, alone in zip(users, one):
            assert np.array_equal(every[r], alone[0])


def test_boxes_without_global_sources_have_no_users(rng):
    """The ``nsrc`` gate: a box no rank holds sources of is nobody's
    to send, whatever the lists say; the other boxes keep their users."""
    pts = clustered_cloud(rng, 500)
    tree = build_tree(pts, max_points=20)
    lists = build_lists(tree)
    _, contrib_trg = static_contributors(tree, partition_points(pts, 4))
    ungated = users_of(tree, lists, contrib_trg)
    used = ungated[0].any(axis=0) & ungated[1].any(axis=0)
    dropped = np.flatnonzero(used)[::2]
    assert dropped.size
    nsrc = tree.topology.nsrc.copy()
    nsrc[dropped] = 0
    gated = users_of(tree, lists, contrib_trg, nsrc)
    keep = np.setdiff1d(np.arange(tree.nboxes), dropped)
    for before, after in zip(ungated, gated):
        assert not after[:, dropped].any()
        assert np.array_equal(after[:, keep], before[:, keep])
