"""Equivalent and check surfaces (Section 2.1, Figure 2.1).

The equivalent densities live at prescribed locations on cube surfaces
surrounding each box ("usually chosen on a sphere or a cube"; we use
cubes, like the reference kifmm3d implementation, because a cube surface
sampled on a regular lattice makes the M2L translation a discrete
convolution amenable to FFT acceleration).

For a box with center ``c`` and half-width ``r`` the four surfaces are the
boundary nodes of a ``p x p x p`` lattice spanning the cube
``c + radius * r * [-1, 1]^3``:

- upward equivalent surface  — ``radius = inner`` (just outside the box);
- upward check surface       — ``radius = outer`` (just inside the far
  range boundary at ``3r``);
- downward equivalent surface— ``radius = outer``;
- downward check surface     — ``radius = inner``.

These satisfy every placement constraint in the paper's Section 2.1
summary (verified in the test suite), with the default
``inner = 1.05``, ``outer = 2.95``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Default surface radius factors (relative to the box half-width).
INNER_RADIUS = 1.05
OUTER_RADIUS = 2.95


def n_surface_points(p: int) -> int:
    """Number of boundary nodes of a ``p^3`` lattice: ``6p^2 - 12p + 8``."""
    if p < 2:
        raise ValueError(f"surface order p must be >= 2, got {p}")
    return p**3 - (p - 2) ** 3


@lru_cache(maxsize=32)
def surface_lattice_indices(p: int) -> np.ndarray:
    """Multi-indices of the boundary nodes of the ``p^3`` lattice.

    Returns an ``(n_surf, 3)`` int array of lattice coordinates in
    ``[0, p)^3``, ordered lexicographically (C order); this ordering is
    :func:`surface_grid`'s.
    """
    if p < 2:
        raise ValueError(f"surface order p must be >= 2, got {p}")
    idx = np.indices((p, p, p)).reshape(3, -1).T
    on_boundary = ((idx == 0) | (idx == p - 1)).any(axis=1)
    out = np.ascontiguousarray(idx[on_boundary])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def surface_flat_indices(p: int) -> np.ndarray:
    """Flat (C-order) indices of the surface nodes within the ``p^3`` grid."""
    idx = surface_lattice_indices(p)
    out = np.ascontiguousarray(idx[:, 0] * p * p + idx[:, 1] * p + idx[:, 2])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def surface_grid(p: int) -> np.ndarray:
    """Relative coordinates of the surface nodes on ``[-1, 1]^3``.

    ``(n_surf, 3)`` float array; node ``i`` sits at lattice multi-index
    ``surface_lattice_indices(p)[i]`` with coordinate
    ``2 * index / (p - 1) - 1``.
    """
    idx = surface_lattice_indices(p).astype(np.float64)
    out = np.ascontiguousarray(2.0 * idx / (p - 1) - 1.0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=512)
def surface_node_permutation(
    p: int, axes: tuple[int, int, int], signs: tuple[int, int, int]
) -> np.ndarray:
    """How a symmetry of the cube permutes the surface nodes.

    The group element is the signed axis permutation ``Q`` with
    ``(Q x)[a] = signs[a] * x[axes[a]]`` (``axes`` a permutation of
    ``(0, 1, 2)``, ``signs`` entries ``+1`` or ``-1``; 48 elements in
    all).  The lattice is symmetric under every one of them, so ``Q``
    maps node ``i`` onto a node ``pi[i]``:
    ``surface_grid(p)[pi[i]] == Q @ surface_grid(p)[i]`` (to the last
    bit of the coordinates ``2 i / (p - 1) - 1``, which mirror about 0
    only up to rounding).  Returns the read-only ``(n_surf,)`` int
    array ``pi``.
    """
    if sorted(axes) != [0, 1, 2] or any(s not in (1, -1) for s in signs):
        raise ValueError(
            f"not a signed axis permutation: axes={axes}, signs={signs}"
        )
    idx = surface_lattice_indices(p)
    image = np.stack(
        [
            idx[:, axes[a]] if signs[a] > 0 else p - 1 - idx[:, axes[a]]
            for a in range(3)
        ],
        axis=1,
    )
    node_of = np.full(p**3, -1, dtype=np.intp)
    node_of[surface_flat_indices(p)] = np.arange(idx.shape[0])
    out = node_of[image[:, 0] * p * p + image[:, 1] * p + image[:, 2]]
    out.setflags(write=False)
    return out


def scaled_surface(
    p: int, center: np.ndarray, half_width: float, radius: float
) -> np.ndarray:
    """Surface nodes of the cube ``center + radius * half_width * [-1,1]^3``."""
    if half_width <= 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if radius <= 0:
        raise ValueError(f"radius factor must be positive, got {radius}")
    return np.asarray(center, dtype=np.float64) + radius * half_width * surface_grid(p)
