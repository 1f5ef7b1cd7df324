"""Equivalent/check surface tests, including the Section 2.1 constraints."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.surfaces import (
    INNER_RADIUS,
    OUTER_RADIUS,
    n_surface_points,
    scaled_surface,
    surface_flat_indices,
    surface_grid,
    surface_lattice_indices,
    surface_node_permutation,
)


class TestCounts:
    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8, 10])
    def test_node_count_formula(self, p):
        expected = p**3 - (p - 2) ** 3
        assert n_surface_points(p, 3) == expected
        assert surface_grid(p, 3).shape == (expected, 3)
        assert surface_lattice_indices(p, 3).shape == (expected, 3)
        assert surface_flat_indices(p, 3).shape == (expected,)

    def test_p2_is_cube_corners(self):
        assert n_surface_points(2, 3) == 8

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            n_surface_points(1, 3)
        with pytest.raises(ValueError):
            surface_grid(1, 3)


class TestGeometry:
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_all_nodes_on_boundary(self, p):
        g = surface_grid(p, 3)
        on_face = np.isclose(np.abs(g), 1.0).any(axis=1)
        assert on_face.all()

    def test_grid_matches_lattice(self):
        p = 5
        idx = surface_lattice_indices(p, 3)
        g = surface_grid(p, 3)
        assert np.allclose(g, 2.0 * idx / (p - 1) - 1.0)

    def test_flat_indices_consistent(self):
        p = 4
        idx = surface_lattice_indices(p, 3)
        flat = surface_flat_indices(p, 3)
        assert np.array_equal(flat, idx[:, 0] * p * p + idx[:, 1] * p + idx[:, 2])

    def test_scaled_surface(self):
        center = np.array([1.0, 2.0, 3.0])
        pts = scaled_surface(4, center, half_width=0.5, radius=2.0)
        rel = (pts - center) / (0.5 * 2.0)
        assert np.abs(rel).max() == pytest.approx(1.0)
        assert pts.shape == (n_surface_points(4, 3), 3)

    def test_scaled_surface_validation(self):
        with pytest.raises(ValueError):
            scaled_surface(4, np.zeros(3), half_width=0.0, radius=1.0)
        with pytest.raises(ValueError):
            scaled_surface(4, np.zeros(3), half_width=1.0, radius=-1.0)

    def test_cached_arrays_are_readonly(self):
        g = surface_grid(6, 3)
        with pytest.raises(ValueError):
            g[0, 0] = 99.0


class TestPaperConstraints:
    """The placement constraints from the Section 2.1 'Summary'."""

    def test_radii_ordering(self):
        assert 1.0 < INNER_RADIUS < OUTER_RADIUS < 3.0

    def test_up_surfaces_between_box_and_far_range(self):
        # y^{B,u} (inner) and x^{B,u} (outer) lie between B (radius 1)
        # and F^B (radius 3); the check surface encloses the equivalent.
        assert INNER_RADIUS > 1.0 and OUTER_RADIUS < 3.0
        assert OUTER_RADIUS > INNER_RADIUS

    def test_parent_up_equiv_encloses_children(self):
        # child half width r/2 at offset r/2: its equivalent surface
        # reaches (0.5 + 0.5 * INNER) * r, which must be < INNER * r.
        child_extent = 0.5 + 0.5 * INNER_RADIUS
        assert child_extent < INNER_RADIUS

    def test_up_equiv_disjoint_from_v_list_down_check(self):
        # nearest V-list box center is 4r away; the target's downward
        # check surface (inner) and source's upward equivalent surface
        # (inner) must not intersect.
        assert INNER_RADIUS + INNER_RADIUS < 4.0

    def test_child_down_equiv_inside_parent_down_equiv(self):
        # child down equiv reaches (0.5 + 0.5 * OUTER) * R from the parent
        # center (R = parent half width); parent's is OUTER * R.
        child_extent = 0.5 + 0.5 * OUTER_RADIUS
        assert child_extent < OUTER_RADIUS

    def test_down_equiv_encloses_down_check(self):
        assert OUTER_RADIUS > INNER_RADIUS


class TestCubeSymmetry:
    """The node permutation a signed axis permutation ``Q`` induces."""

    @given(
        p=st.integers(2, 8),
        axes=st.permutations((0, 1, 2)),
        signs=st.tuples(*[st.sampled_from((1, -1))] * 3),
    )
    @settings(max_examples=400, deadline=None)
    def test_permutation_follows_group_element(self, p, axes, signs):
        """``g[pi[i]] = Q g[i]``: the lattice is mapped onto itself."""
        g = surface_grid(p, 3)
        pi = surface_node_permutation(p, tuple(axes), signs)
        q = np.zeros((3, 3))
        q[np.arange(3), list(axes)] = signs
        assert np.array_equal(np.sort(pi), np.arange(g.shape[0]))
        # coordinates 2i/(p-1) - 1 mirror about 0 only to the last bit
        assert np.abs(g[pi] - g @ q.T).max() < 1e-15

    def test_identity_and_cached(self):
        pi = surface_node_permutation(5, (0, 1, 2), (1, 1, 1))
        assert np.array_equal(pi, np.arange(n_surface_points(5, 3)))
        assert surface_node_permutation(5, (0, 1, 2), (1, 1, 1)) is pi
        assert not pi.flags.writeable

    @pytest.mark.parametrize(
        "axes, signs", [((0, 0, 1), (1, 1, 1)), ((0, 1, 2), (1, 0, 1))]
    )
    def test_rejects_non_group_elements(self, axes, signs):
        with pytest.raises(ValueError):
            surface_node_permutation(4, axes, signs)


DIMS = pytest.mark.parametrize("dim", [2, 3])


class TestDimensions:
    """Square surfaces are the cube surfaces at ``dim = 2``: the
    boundary nodes of a ``p^d`` lattice, ``4p - 4`` in the plane."""

    @DIMS
    @pytest.mark.parametrize("p", [2, 4, 8, 12])
    def test_node_count(self, dim, p):
        expected = p**dim - (p - 2) ** dim
        assert n_surface_points(p, dim) == expected
        if dim == 2:
            assert expected == 4 * p - 4
        assert surface_grid(p, dim).shape == (expected, dim)
        assert surface_lattice_indices(p, dim).shape == (expected, dim)
        assert surface_flat_indices(p, dim).shape == (expected,)

    @DIMS
    def test_rejects_small_p(self, dim):
        with pytest.raises(ValueError):
            n_surface_points(1, dim)
        with pytest.raises(ValueError):
            surface_grid(1, dim)

    @DIMS
    def test_all_nodes_on_boundary(self, dim):
        g = surface_grid(6, dim)
        assert np.isclose(np.abs(g), 1.0).any(axis=1).all()

    @DIMS
    def test_flat_indices_consistent(self, dim):
        p = 4
        idx = surface_lattice_indices(p, dim)
        assert np.array_equal(
            surface_flat_indices(p, dim), np.ravel_multi_index(idx.T, (p,) * dim)
        )

    @DIMS
    def test_scaled_surface(self, dim):
        c = np.array([2.0, -1.0, 0.5])[:dim]
        pts = scaled_surface(4, c, half_width=0.5, radius=2.0)
        assert pts.shape == (n_surface_points(4, dim), dim)
        assert np.abs(pts - c).max() == pytest.approx(1.0)

    @DIMS
    def test_scaled_surface_validation(self, dim):
        with pytest.raises(ValueError):
            scaled_surface(4, np.zeros(dim), half_width=-1.0, radius=1.0)
        with pytest.raises(ValueError):
            scaled_surface(4, np.zeros(dim), half_width=1.0, radius=-1.0)

    @DIMS
    def test_constraints(self, dim):
        """The Section 2.1 placement constraints, checked on the surface
        points themselves (max-norm distances) for a box of half width
        ``r``: box < up-equiv < up-check < far range, children's
        equivalent surfaces inside the parent's, and V-list surfaces
        disjoint."""
        p, r = 6, 0.5
        c = np.array([0.3, -0.2, 0.1])[:dim]

        def extent(pts, center):
            return np.abs(pts - center).max(axis=1)

        up_equiv = scaled_surface(p, c, r, INNER_RADIUS)
        up_check = scaled_surface(p, c, r, OUTER_RADIUS)
        assert (extent(up_equiv, c) > r).all()
        assert (extent(up_check, c) > extent(up_equiv, c).max()).all()
        assert (extent(up_check, c) < 3.0 * r).all()
        for signs in itertools.product((1, -1), repeat=dim):
            child = c + 0.5 * r * np.array(signs)
            child_up = scaled_surface(p, child, 0.5 * r, INNER_RADIUS)
            assert (extent(child_up, c) < INNER_RADIUS * r).all()
            child_down = scaled_surface(p, child, 0.5 * r, OUTER_RADIUS)
            assert (extent(child_down, c) < OUTER_RADIUS * r).all()
        # nearest V-list box: centre 4r away along one axis; its
        # downward check surface must not meet this box's up-equiv
        far = c.copy()
        far[0] += 4.0 * r
        down_check = scaled_surface(p, far, r, INNER_RADIUS)
        assert (extent(down_check, c) > INNER_RADIUS * r).all()

    @DIMS
    def test_cached_readonly(self, dim):
        for table in (surface_grid, surface_lattice_indices, surface_flat_indices):
            with pytest.raises(ValueError):
                table(5, dim)[0] = 7

    @DIMS
    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_every_group_element(self, dim, p):
        """All ``2^d d!`` signed axis permutations map the lattice onto
        itself (8 in the plane, 48 in space)."""
        g = surface_grid(p, dim)
        elements = [
            (axes, signs)
            for axes in itertools.permutations(range(dim))
            for signs in itertools.product((1, -1), repeat=dim)
        ]
        assert len(elements) == 2**dim * math.factorial(dim)
        for axes, signs in elements:
            pi = surface_node_permutation(p, axes, signs)
            q = np.zeros((dim, dim))
            q[np.arange(dim), list(axes)] = signs
            assert np.array_equal(np.sort(pi), np.arange(g.shape[0]))
            assert np.abs(g[pi] - g @ q.T).max() < 1e-15
