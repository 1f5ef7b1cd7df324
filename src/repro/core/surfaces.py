"""Equivalent and check surfaces (Section 2.1, Figure 2.1).

The equivalent densities live at prescribed locations on cube surfaces
surrounding each box ("usually chosen on a sphere or a cube"; we use
cubes, like the reference kifmm3d implementation, because a cube surface
sampled on a regular lattice makes the M2L translation a discrete
convolution amenable to FFT acceleration).

For a box with center ``c`` and half-width ``r`` in ``d`` dimensions the
four surfaces are the boundary nodes of a ``p^d`` lattice spanning the
cube ``c + radius * r * [-1, 1]^d`` (a square's perimeter in the plane):

- upward equivalent surface  — ``radius = inner`` (just outside the box);
- upward check surface       — ``radius = outer`` (just inside the far
  range boundary at ``3r``);
- downward equivalent surface— ``radius = outer``;
- downward check surface     — ``radius = inner``.

These satisfy every placement constraint in the paper's Section 2.1
summary (verified in the test suite), with the default
``inner = 1.05``, ``outer = 2.95``; the constraints are the same in
both dimensions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Default surface radius factors (relative to the box half-width).
INNER_RADIUS = 1.05
OUTER_RADIUS = 2.95


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array)
    out.setflags(write=False)
    return out


def n_surface_points(p: int, dim: int) -> int:
    """Number of boundary nodes of a ``p^d`` lattice: ``p^d - (p-2)^d``
    (``6p^2 - 12p + 8`` in 3D, ``4p - 4`` in 2D)."""
    if p < 2:
        raise ValueError(f"surface order p must be >= 2, got {p}")
    return p**dim - (p - 2) ** dim


@lru_cache(maxsize=64)
def surface_lattice_indices(p: int, dim: int) -> np.ndarray:
    """Multi-indices of the boundary nodes of the ``p^d`` lattice.

    Returns an ``(n_surf, d)`` int array of lattice coordinates in
    ``[0, p)^d``, ordered lexicographically (C order); this ordering is
    :func:`surface_grid`'s.
    """
    if p < 2:
        raise ValueError(f"surface order p must be >= 2, got {p}")
    idx = np.indices((p,) * dim).reshape(dim, -1).T
    on_boundary = ((idx == 0) | (idx == p - 1)).any(axis=1)
    return _frozen(idx[on_boundary])


def _flat(idx: np.ndarray, p: int) -> np.ndarray:
    """C-order flat index of lattice multi-indices ``(..., d)``."""
    return idx @ p ** np.arange(idx.shape[-1] - 1, -1, -1)


@lru_cache(maxsize=64)
def surface_flat_indices(p: int, dim: int) -> np.ndarray:
    """Flat (C-order) indices of the surface nodes within the ``p^d`` grid."""
    return _frozen(_flat(surface_lattice_indices(p, dim), p))


@lru_cache(maxsize=64)
def surface_grid(p: int, dim: int) -> np.ndarray:
    """Relative coordinates of the surface nodes on ``[-1, 1]^d``.

    ``(n_surf, d)`` float array; node ``i`` sits at lattice multi-index
    ``surface_lattice_indices(p, d)[i]`` with coordinate
    ``2 * index / (p - 1) - 1``.
    """
    idx = surface_lattice_indices(p, dim).astype(np.float64)
    return _frozen(2.0 * idx / (p - 1) - 1.0)


@lru_cache(maxsize=512)
def surface_node_permutation(
    p: int, axes: tuple[int, ...], signs: tuple[int, ...]
) -> np.ndarray:
    """How a symmetry of the cube permutes the surface nodes.

    The group element is the signed axis permutation ``Q`` with
    ``(Q x)[a] = signs[a] * x[axes[a]]`` (``axes`` a permutation of
    ``(0, ..., d - 1)``, ``signs`` entries ``+1`` or ``-1``; ``2^d d!``
    elements in all, 48 in 3D).  The lattice is symmetric under every
    one of them, so ``Q`` maps node ``i`` onto a node ``pi[i]``:
    ``surface_grid(p, d)[pi[i]] == Q @ surface_grid(p, d)[i]`` (to the
    last bit of the coordinates ``2 i / (p - 1) - 1``, which mirror
    about 0 only up to rounding).  Returns the read-only ``(n_surf,)``
    int array ``pi``.
    """
    dim = len(axes)
    if sorted(axes) != list(range(dim)) or len(signs) != dim or any(
        s not in (1, -1) for s in signs
    ):
        raise ValueError(
            f"not a signed axis permutation: axes={axes}, signs={signs}"
        )
    idx = surface_lattice_indices(p, dim)
    image = np.stack(
        [
            idx[:, axes[a]] if signs[a] > 0 else p - 1 - idx[:, axes[a]]
            for a in range(dim)
        ],
        axis=1,
    )
    node_of = np.full(p**dim, -1, dtype=np.intp)
    node_of[surface_flat_indices(p, dim)] = np.arange(idx.shape[0])
    return _frozen(node_of[_flat(image, p)])


def scaled_surface(
    p: int, center: np.ndarray, half_width: float, radius: float
) -> np.ndarray:
    """Surface nodes of the cube ``center + radius * half_width * [-1,1]^d``,
    ``d`` the length of ``center``."""
    if half_width <= 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if radius <= 0:
        raise ValueError(f"radius factor must be positive, got {radius}")
    center = np.asarray(center, dtype=np.float64)
    return center + radius * half_width * surface_grid(p, center.size)
