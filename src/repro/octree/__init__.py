"""Adaptive hierarchical octree and adaptive-FMM interaction lists.

Implements the computation tree of Section 2.1 (boxes subdivided until no
box holds more than ``s`` points) and the four interaction lists of the
adaptive FMM (Section 3.1, following refs [4] and [7] of the paper):
U (near/dense), V (M2L), W and X (the adaptive lists).
"""

from repro.octree.lists import InteractionLists, build_lists
from repro.octree.morton import (
    anchor_to_key,
    decode_key,
    encode_points,
    key_to_anchor,
    MAX_DEPTH,
)
from repro.octree.topology import TreeTopology
from repro.octree.tree import Octree, build_tree

__all__ = [
    "Octree",
    "TreeTopology",
    "build_tree",
    "InteractionLists",
    "build_lists",
    "anchor_to_key",
    "key_to_anchor",
    "decode_key",
    "encode_points",
    "MAX_DEPTH",
]
