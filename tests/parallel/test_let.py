"""LET usage classification tests."""

import numpy as np

from repro.octree import build_lists, build_tree
from repro.parallel.let import classify_let

from tests import boxview
from tests.conftest import clustered_cloud


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

    usage = classify_let(tree, lists, local_trg)

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
    assert np.array_equal(usage.uses_equiv, expected_equiv)
    assert np.array_equal(usage.uses_source, expected_src)


def test_no_targets_no_usage(rng):
    tree = build_tree(clustered_cloud(rng, 300), max_points=20)
    lists = build_lists(tree)
    usage = classify_let(tree, lists, np.zeros(tree.nboxes, dtype=bool))
    assert not usage.uses_equiv.any()
    assert not usage.uses_source.any()


def test_own_leaf_in_own_u_list_usage(rng):
    """A rank using a leaf's U list needs that leaf's own sources too."""
    tree = build_tree(clustered_cloud(rng, 300), max_points=20)
    lists = build_lists(tree)
    local_trg = np.zeros(tree.nboxes, dtype=bool)
    leaf = boxview.leaves(tree)[0]
    local_trg[leaf] = True
    usage = classify_let(tree, lists, local_trg)
    assert usage.uses_source[leaf]  # B is in its own U list
