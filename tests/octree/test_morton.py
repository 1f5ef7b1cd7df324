"""Morton key encoding tests, including hypothesis round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree.morton import (
    MAX_DEPTH,
    anchor_to_key,
    decode_key,
    encode_points,
    key_prefix,
    key_to_anchor,
)

COORD = st.integers(min_value=0, max_value=(1 << MAX_DEPTH) - 1)


class TestInterleave:
    @given(COORD, COORD, COORD)
    @settings(max_examples=200)
    def test_roundtrip(self, ix, iy, iz):
        key = anchor_to_key(ix, iy, iz)
        jx, jy, jz = key_to_anchor(key, 3)
        assert (int(jx), int(jy), int(jz)) == (ix, iy, iz)

    def test_origin_is_zero(self):
        assert int(anchor_to_key(0, 0, 0)) == 0

    def test_unit_steps(self):
        # x is the lowest interleaved bit, then y, then z
        assert int(anchor_to_key(1, 0, 0)) == 1
        assert int(anchor_to_key(0, 1, 0)) == 2
        assert int(anchor_to_key(0, 0, 1)) == 4

    def test_vectorised(self, rng):
        ix = rng.integers(0, 1 << MAX_DEPTH, size=100)
        iy = rng.integers(0, 1 << MAX_DEPTH, size=100)
        iz = rng.integers(0, 1 << MAX_DEPTH, size=100)
        keys = anchor_to_key(ix, iy, iz)
        jx, jy, jz = key_to_anchor(keys, 3)
        assert np.array_equal(jx, ix.astype(np.uint64))
        assert np.array_equal(jy, iy.astype(np.uint64))
        assert np.array_equal(jz, iz.astype(np.uint64))

    @given(COORD, COORD, COORD)
    @settings(max_examples=100)
    def test_injective_max_key(self, ix, iy, iz):
        key = int(anchor_to_key(ix, iy, iz))
        assert 0 <= key < (1 << (3 * MAX_DEPTH))


class TestEncodePoints:
    def test_cell_indices(self):
        corner = np.zeros(3)
        pts = np.array([[0.0, 0.0, 0.0], [0.999999, 0.999999, 0.999999]])
        keys = encode_points(pts, corner, 1.0)
        assert int(keys[0]) == 0
        assert int(keys[1]) > int(keys[0])
        # the second point lands in the last level-1 octant
        assert int(keys[1]) >> (3 * (MAX_DEPTH - 1)) == 7

    def test_far_face_clamped(self):
        keys = encode_points(np.array([[1.0, 1.0, 1.0]]), np.zeros(3), 1.0)
        assert int(keys[0]) == (1 << (3 * MAX_DEPTH)) - 1

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            encode_points(np.array([[2.0, 0.0, 0.0]]), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            encode_points(np.array([[-0.5, 0.0, 0.0]]), np.zeros(3), 1.0)

    def test_bad_side_raises(self):
        with pytest.raises(ValueError):
            encode_points(np.zeros((1, 3)), np.zeros(3), 0.0)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            encode_points(np.zeros((3,)), np.zeros(3), 1.0)

    def test_morton_order_locality(self, rng):
        """Points sorted by key: each octant forms a contiguous run."""
        pts = rng.random((500, 3))
        keys = encode_points(pts, np.zeros(3), 1.0)
        order = np.argsort(keys)
        octant = (
            (pts[order, 0] >= 0.5).astype(int)
            + 2 * (pts[order, 1] >= 0.5).astype(int)
            + 4 * (pts[order, 2] >= 0.5).astype(int)
        )
        # octant sequence must be non-decreasing along the curve
        assert np.all(np.diff(octant) >= 0)


class TestPrefix:
    def test_key_prefix_levels(self):
        key = anchor_to_key(5, 3, 7)  # a level-3 anchor
        full = np.uint64(int(key) << (3 * (MAX_DEPTH - 3)))
        assert int(key_prefix(full, 3, 3)) == int(key)
        assert int(key_prefix(full, 0, 3)) == 0

    def test_decode_key(self):
        key = int(anchor_to_key(5, 3, 7)) << (3 * (MAX_DEPTH - 3))
        assert decode_key(key, 3, 3) == (5, 3, 7)


DIMS = pytest.mark.parametrize("dim", [2, 3])
POINT = st.lists(COORD, min_size=3, max_size=3)


class TestDimensions:
    """One key layout for the quadtree and the octree: ``dim`` bits per
    level, 21 levels."""

    @DIMS
    @given(a=POINT)
    @settings(max_examples=150)
    def test_roundtrip_and_range(self, dim, a):
        key = anchor_to_key(*a[:dim])
        assert 0 <= int(key) < 1 << (dim * MAX_DEPTH)
        assert [int(c) for c in key_to_anchor(key, dim)] == a[:dim]

    @DIMS
    @given(a=POINT, b=POINT)
    @settings(max_examples=150)
    def test_injective(self, dim, a, b):
        ka, kb = int(anchor_to_key(*a[:dim])), int(anchor_to_key(*b[:dim]))
        assert (ka == kb) == (a[:dim] == b[:dim])

    @DIMS
    @given(a=POINT)
    @settings(max_examples=100)
    def test_bit_interleaving_structure(self, dim, a):
        """Bit ``dim * level + axis`` of the key is bit ``level`` of the
        coordinate of ``axis``."""
        key = int(anchor_to_key(*a[:dim]))
        for axis in range(dim):
            got = sum(
                ((key >> (dim * bit + axis)) & 1) << bit
                for bit in range(MAX_DEPTH)
            )
            assert got == a[axis]

    @DIMS
    def test_vectorised_matches_scalar(self, rng, dim):
        coords = rng.integers(0, 1 << MAX_DEPTH, size=(dim, 50))
        keys = anchor_to_key(*coords)
        for i in range(50):
            assert int(keys[i]) == int(anchor_to_key(*coords[:, i]))

    @DIMS
    def test_unit_steps(self, dim):
        for axis in range(dim):
            unit = [0] * dim
            unit[axis] = 1
            assert int(anchor_to_key(*unit)) == 1 << axis
        assert int(anchor_to_key(*[1] * dim)) == (1 << dim) - 1

    @DIMS
    def test_orthant_runs(self, rng, dim):
        """Points sorted by key: each level-1 orthant is one run."""
        pts = rng.random((300, dim))
        order = np.argsort(encode_points(pts, np.zeros(dim), 1.0))
        orthant = ((pts[order] >= 0.5) << np.arange(dim)).sum(axis=1)
        assert np.all(np.diff(orthant) >= 0)

    @DIMS
    def test_outside_raises(self, dim):
        with pytest.raises(ValueError):
            encode_points(np.full((1, dim), 2.0), np.zeros(dim), 1.0)

    @DIMS
    def test_prefix_and_decode(self, dim):
        anchor = (5, 3, 7)[:dim]  # a level-3 anchor
        full = int(anchor_to_key(*anchor)) << (dim * (MAX_DEPTH - 3))
        assert int(key_prefix(np.uint64(full), 3, dim)) == int(
            anchor_to_key(*anchor)
        )
        assert decode_key(full, 3, dim) == anchor
