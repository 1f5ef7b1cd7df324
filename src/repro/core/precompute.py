"""Precomputed translation operators (equations 2.1–2.5).

Every KIFMM translation is "evaluate a check potential, then invert the
check-to-equivalent integral equation".  The matrices involved depend
only on the tree level (and, for M2M/L2L, the child octant; for M2L, the
relative box offset) — never on the box position — so they are computed
once and cached.

For kernels homogeneous of degree ``h`` (``G(a x, a y) = a^h G(x, y)``,
i.e. Laplace, Stokes, Navier) the operators at any level are rescalings
of a reference level: evaluation matrices scale by ``a^h`` and the
pseudo-inverses by ``a^-h``, where ``a`` is the box half-width ratio.
Inhomogeneous kernels (modified Laplace) are precomputed per level.

The surfaces are a regular cube lattice, so the 316 V-list offsets fall
into 16 orbits of the cube's 48 signed axis permutations.  For a kernel
that declares how it transforms under them (``Kernel.symmetry``) the
compressed M2L factors are computed for the one offset ``a >= b >= c >=
0`` of each orbit and carried to the others by a node permutation (and,
for tensor kernels, a signed component permutation).
"""

from __future__ import annotations

import numpy as np

from repro.core.surfaces import (
    INNER_RADIUS,
    OUTER_RADIUS,
    scaled_surface,
    surface_grid,
    surface_node_permutation,
)
from repro.kernels.base import Kernel
from repro.linalg.pinv import regularized_pinv
from repro.linalg.rsvd import randomized_svd


def octant_offset(octant: int) -> np.ndarray:
    """Child-center offset from the parent center, in parent half-widths.

    Octant bit 0/1/2 selects the x/y/z half; bit value 0 means the lower
    half (offset ``-1/2``), 1 the upper half (``+1/2``), matching the
    Morton child indexing of :mod:`repro.octree.morton`.
    """
    if not 0 <= octant < 8:
        raise ValueError(f"octant must be in [0, 8), got {octant}")
    return np.array(
        [
            0.5 if octant & 1 else -0.5,
            0.5 if (octant >> 1) & 1 else -0.5,
            0.5 if (octant >> 2) & 1 else -0.5,
        ]
    )


def canonical_offset(
    offset: tuple[int, int, int],
) -> tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]:
    """The symmetry class of a box offset and the way back from it.

    Returns ``(canonical, axes, signs)``: ``canonical`` holds the
    magnitudes of ``offset`` in non-increasing order, and the signed
    axis permutation ``(Q x)[a] = signs[a] * x[axes[a]]`` maps it onto
    ``offset``.  Ties and zeros are broken the same way every time, so
    the pair is a pure function of the offset.
    """
    order = sorted(range(3), key=lambda a: -abs(offset[a]))
    return (
        tuple(abs(int(offset[a])) for a in order),
        tuple(order.index(a) for a in range(3)),
        tuple(-1 if o < 0 else 1 for o in offset),
    )


class OperatorCache:
    """Per-level KIFMM operator factory with homogeneous-kernel rescaling.

    Parameters
    ----------
    kernel:
        The interaction kernel.
    p:
        Surface discretisation order (points per cube edge); the paper's
        "degree of discretization for equivalent densities".
    root_side:
        Side length of the level-0 box, fixing physical scales.
    inner, outer:
        Surface radius factors (see :mod:`repro.core.surfaces`).
    rcond:
        Relative SVD cutoff of the regularised pseudo-inverses.
    """

    def __init__(
        self,
        kernel: Kernel,
        p: int,
        root_side: float,
        inner: float = INNER_RADIUS,
        outer: float = OUTER_RADIUS,
        rcond: float = 1e-12,
    ) -> None:
        if not 1.0 < inner < outer < 3.0:
            raise ValueError(
                f"surface radii must satisfy 1 < inner < outer < 3, "
                f"got inner={inner}, outer={outer}"
            )
        if root_side <= 0:
            raise ValueError(f"root_side must be positive, got {root_side}")
        if kernel.symmetry not in (None, "scalar", "tensor"):
            raise ValueError(
                f"kernel symmetry must be None, 'scalar' or 'tensor', "
                f"got {kernel.symmetry!r}"
            )
        if kernel.symmetry == "tensor" and (
            kernel.source_dof != 3 or kernel.target_dof != 3
        ):
            raise ValueError(
                "a kernel with symmetry='tensor' needs 3 source and 3 "
                f"target components, got {kernel.source_dof} and "
                f"{kernel.target_dof}"
            )
        self.kernel = kernel
        self.p = int(p)
        self.root_side = float(root_side)
        self.inner = float(inner)
        self.outer = float(outer)
        self.rcond = float(rcond)
        # Relative tolerance of the rSVD-compressed M2L factors, tied to
        # the inversion cutoff: the per-operator truncation noise sits a
        # decade below the square root of the pseudo-inverse
        # regularisation floor, leaving headroom for accumulation across
        # a box's full V list while staying well below the
        # p-discretisation error at the paper's operating points.
        self.rsvd_tol = float(0.1 * np.sqrt(self.rcond))
        self.n_surf = surface_grid(p).shape[0]
        self._uc2ue: dict[int, np.ndarray] = {}
        self._dc2de: dict[int, np.ndarray] = {}
        self._m2m: dict[tuple[int, int], np.ndarray] = {}
        self._l2l: dict[tuple[int, int], np.ndarray] = {}
        self._m2l: dict[tuple[int, tuple[int, int, int]], np.ndarray] = {}
        self._m2l_rsvd: dict[
            tuple[int, tuple[int, int, int]], tuple[np.ndarray, np.ndarray]
        ] = {}
        self._m2l_rsvd_f32: dict[
            tuple[int, tuple[int, int, int]], tuple[np.ndarray, np.ndarray]
        ] = {}

    # -- geometry ----------------------------------------------------------

    def half_width(self, level: int) -> float:
        """Half-width ``r`` of a box at ``level``."""
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        return self.root_side / (1 << level) / 2.0

    def up_equiv_points(self, center: np.ndarray, level: int) -> np.ndarray:
        return scaled_surface(self.p, center, self.half_width(level), self.inner)

    def up_check_points(self, center: np.ndarray, level: int) -> np.ndarray:
        return scaled_surface(self.p, center, self.half_width(level), self.outer)

    def down_equiv_points(self, center: np.ndarray, level: int) -> np.ndarray:
        return scaled_surface(self.p, center, self.half_width(level), self.outer)

    def down_check_points(self, center: np.ndarray, level: int) -> np.ndarray:
        return scaled_surface(self.p, center, self.half_width(level), self.inner)

    # -- scaling helpers ---------------------------------------------------

    @property
    def _homog(self) -> float | None:
        return self.kernel.homogeneity

    def _scale(self, level: int, ref: int) -> float:
        """Half-width ratio ``a = r(level) / r(ref)``."""
        return 2.0 ** (ref - level)

    def for_root(self, root_side: float) -> "OperatorCache":
        """These operators for a tree whose root box has side ``root_side``.

        The same cache when the side matches.  Otherwise, for a
        homogeneous kernel, a new cache holding every operator computed
        so far rescaled by the root ratio ``a`` — evaluation matrices by
        ``a^h``, pseudo-inverses by ``a^-h``, the factors that already
        carry the reference level to the other levels — so a moved
        geometry pays no precompute again.  An inhomogeneous kernel's
        operators belong to one root, and a mismatch is an error.
        """
        if root_side == self.root_side:
            return self
        h = self._homog
        if h is None:
            raise ValueError(
                f"supplied cache root_side {self.root_side} does not "
                f"match tree root_side {root_side} and the "
                f"{self.kernel.name} kernel is not homogeneous; pin the "
                f"cube via the root argument"
            )
        out = OperatorCache(
            self.kernel, self.p, root_side,
            inner=self.inner, outer=self.outer, rcond=self.rcond,
        )
        up = (root_side / self.root_side) ** h
        out._uc2ue = {k: m / up for k, m in self._uc2ue.items()}
        out._dc2de = {k: m / up for k, m in self._dc2de.items()}
        out._m2m = {k: m * up for k, m in self._m2m.items()}
        out._l2l = {k: m * up for k, m in self._l2l.items()}
        out._m2l = {k: m * up for k, m in self._m2l.items()}
        out._m2l_rsvd = {
            k: (uf * up, vf) for k, (uf, vf) in self._m2l_rsvd.items()
        }
        return out

    # -- inversion operators -----------------------------------------------

    def uc2ue(self, level: int) -> np.ndarray:
        """Upward check potential -> upward equivalent density (eq. 2.1)."""
        h = self._homog
        key = 0 if h is not None else level
        if key not in self._uc2ue:
            zero = np.zeros(3)
            K = self.kernel.matrix(
                self.up_check_points(zero, key), self.up_equiv_points(zero, key)
            )
            self._uc2ue[key] = regularized_pinv(K, self.rcond)
        base = self._uc2ue[key]
        if h is None or level == key:
            return base
        return base * self._scale(level, key) ** (-h)

    def dc2de(self, level: int) -> np.ndarray:
        """Downward check potential -> downward equivalent density (eq. 2.2)."""
        h = self._homog
        key = 0 if h is not None else level
        if key not in self._dc2de:
            zero = np.zeros(3)
            K = self.kernel.matrix(
                self.down_check_points(zero, key), self.down_equiv_points(zero, key)
            )
            self._dc2de[key] = regularized_pinv(K, self.rcond)
        base = self._dc2de[key]
        if h is None or level == key:
            return base
        return base * self._scale(level, key) ** (-h)

    # -- evaluation operators ------------------------------------------------

    def m2m_check(self, child_level: int, octant: int) -> np.ndarray:
        """Child upward equivalent density -> parent upward check potential.

        The first arrow of the M2M translation (Figure 2.2 left, eq. 2.3);
        the parent's ``uc2ue`` completes the translation after all child
        contributions are accumulated.
        """
        if child_level < 1:
            raise ValueError(f"child_level must be >= 1, got {child_level}")
        h = self._homog
        key = 1 if h is not None else child_level
        cache_key = (key, octant)
        if cache_key not in self._m2m:
            parent_r = self.half_width(key - 1)
            child_center = octant_offset(octant) * parent_r
            K = self.kernel.matrix(
                self.up_check_points(np.zeros(3), key - 1),
                self.up_equiv_points(child_center, key),
            )
            self._m2m[cache_key] = K
        base = self._m2m[cache_key]
        if h is None or child_level == key:
            return base
        return base * self._scale(child_level, key) ** h

    def l2l_check(self, child_level: int, octant: int) -> np.ndarray:
        """Parent downward equivalent density -> child downward check potential.

        First arrow of the L2L translation (Figure 2.2 right, eq. 2.5).
        """
        if child_level < 1:
            raise ValueError(f"child_level must be >= 1, got {child_level}")
        h = self._homog
        key = 1 if h is not None else child_level
        cache_key = (key, octant)
        if cache_key not in self._l2l:
            parent_r = self.half_width(key - 1)
            child_center = octant_offset(octant) * parent_r
            K = self.kernel.matrix(
                self.down_check_points(child_center, key),
                self.down_equiv_points(np.zeros(3), key - 1),
            )
            self._l2l[cache_key] = K
        base = self._l2l[cache_key]
        if h is None or child_level == key:
            return base
        return base * self._scale(child_level, key) ** h

    def m2l_check(self, level: int, offset: tuple[int, int, int]) -> np.ndarray:
        """Source upward equivalent density -> target downward check potential.

        First arrow of the M2L translation (Figure 2.2 middle, eq. 2.4) for
        a target box whose anchor is ``offset`` cells away from the source
        box at the same ``level``.  V-list offsets have at least one
        component of magnitude 2 or 3.
        """
        if max(abs(o) for o in offset) < 2:
            raise ValueError(f"offset {offset} is adjacent; not a V-list pair")
        h = self._homog
        key = 0 if h is not None else level
        cache_key = (key, tuple(int(o) for o in offset))
        if cache_key not in self._m2l:
            side = 2.0 * self.half_width(key)
            delta = np.asarray(offset, dtype=np.float64) * side
            K = self.kernel.matrix(
                self.down_check_points(delta, key),
                self.up_equiv_points(np.zeros(3), key),
            )
            self._m2l[cache_key] = K
        base = self._m2l[cache_key]
        if h is None or level == key:
            return base
        return base * self._scale(level, key) ** h

    def _m2l_rsvd_base(
        self, level: int, offset: tuple[int, int, int]
    ) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
        """Reference-level rSVD factors ``(uf, vf)`` of one offset.

        ``uf = u * s`` is ``(n_surf * target_dof, k)`` and ``vf = vt`` is
        ``(k, n_surf * source_dof)``, so ``m2l_check ≈ uf @ vf`` to the
        cache's ``rsvd_tol``.  Only the canonical offset of a symmetry
        class (:func:`canonical_offset`) is factored; with ``o = Q c``
        the check matrix is ``M_o = T M_c T^T`` for the signed
        permutation ``T`` of :meth:`_moved`, so the class's other
        offsets get ``(T uf_c, vf_c T^T)`` — same rank, same singular
        values.  A kernel without a declared symmetry has every offset
        as its own class.  The sketch seed is a base-7 encoding of the
        canonical offset (components lie in [-3, 3]), making the factors
        a pure function of the offset — bitwise identical across
        setups, call orders and processes.
        """
        if max(abs(o) for o in offset) < 2:
            raise ValueError(f"offset {offset} is adjacent; not a V-list pair")
        h = self._homog
        key = 0 if h is not None else level
        offset = tuple(int(o) for o in offset)
        cache_key = (key, offset)
        if cache_key not in self._m2l_rsvd:
            if self.kernel.symmetry is None:
                canonical = offset
            else:
                canonical, axes, signs = canonical_offset(offset)
            if canonical == offset:
                o0, o1, o2 = offset
                seed = 1 + (o0 + 3) * 49 + (o1 + 3) * 7 + (o2 + 3)
                u, s, vt = randomized_svd(
                    self.m2l_check(key, offset), self.rsvd_tol, seed=seed
                )
                factors = (u * s, vt)
            else:
                uf, vf = self._m2l_rsvd_base(key, canonical)[1]
                factors = (
                    self._moved(uf, axes, signs),
                    np.ascontiguousarray(self._moved(vf.T, axes, signs).T),
                )
            self._m2l_rsvd[cache_key] = factors
        return key, self._m2l_rsvd[cache_key]

    def _moved(
        self,
        rows: np.ndarray,
        axes: tuple[int, int, int],
        signs: tuple[int, int, int],
    ) -> np.ndarray:
        """``T @ rows`` for the cube symmetry ``(Q x)[a] = signs[a] x[axes[a]]``.

        ``rows`` is point-major ``(n_surf * dof, k)``.  ``T`` sends the
        block of node ``i`` to node ``pi[i]`` (where ``Q`` carries it)
        and, for a tensor kernel, applies ``Q`` to the ``dof = 3``
        components inside the block.
        """
        pi = surface_node_permutation(self.p, axes, signs)
        blocks = rows.reshape(self.n_surf, -1, rows.shape[1])
        out = np.empty_like(blocks)
        if self.kernel.symmetry == "tensor":
            out[pi] = blocks[:, axes, :] * np.array(signs, np.float64)[:, None]
        else:
            out[pi] = blocks
        return out.reshape(rows.shape)

    def m2l_rsvd(
        self,
        level: int,
        offset: tuple[int, int, int],
        dtype: str = "float64",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compressed M2L factors: ``m2l_check(level, offset) ≈ uf @ vf``.

        The rSVD backend applies a V-list class as two stacked BLAS-3
        GEMMs, ``(ue @ vf.T) @ uf.T``.  Homogeneous kernels rescale like
        :meth:`m2l_check`, with the level factor folded into ``uf``.
        ``dtype="float32"`` returns single-precision factors — the
        mixed-precision mode's declared narrowing; accumulation into the
        downward-check buffers stays float64 at the call sites.
        """
        key, (uf, vf) = self._m2l_rsvd_base(level, offset)
        h = self._homog
        if dtype == "float32":
            cache_key = (key, tuple(int(o) for o in offset))
            if cache_key not in self._m2l_rsvd_f32:
                self._m2l_rsvd_f32[cache_key] = (
                    uf.astype(np.float32),  # lint: allow(dtype-width)
                    vf.astype(np.float32),  # lint: allow(dtype-width)
                )
            uf32, vf32 = self._m2l_rsvd_f32[cache_key]
            if h is None or level == key:
                return uf32, vf32
            return uf32 * np.float32(self._scale(level, key) ** h), vf32
        if dtype != "float64":
            raise ValueError(
                f"m2l_rsvd dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        if h is None or level == key:
            return uf, vf
        return uf * self._scale(level, key) ** h, vf

    def m2l_rsvd_rank(self, level: int, offset: tuple[int, int, int]) -> int:
        """Compression rank of one offset class (dtype independent)."""
        return int(self._m2l_rsvd_base(level, offset)[1][1].shape[0])
