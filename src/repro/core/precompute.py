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

import copy
from collections.abc import Callable, Hashable

import numpy as np

from repro.analysis.sanitize import OperatorMissError
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
from repro.octree.topology import child_pair_offsets


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

    The operator tables (dict attributes ``_<name>``) fill on first use.
    A setup asks for everything its applies will read
    (``RankFMM.build_operators``), so an apply builds nothing; sanitized
    applies read through :meth:`sealed`, where a miss is a named error.

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
        self._m2l_stacks: dict[tuple[int, tuple[int, int, int], str], tuple] = {}
        self._m2l_rank: dict[tuple[int, tuple[int, int, int]], int] = {}

    _sealed = False

    def _entry(self, name: str, key: Hashable, build: Callable[[], object]):
        """Entry ``key`` of table ``name``, built unless sealed."""
        table = getattr(self, "_" + name)
        if key not in table:
            if self._sealed:
                raise OperatorMissError(
                    f"{self.kernel.name} operator {name}[{key!r}] was not "
                    f"built at setup: an apply must build no operator"
                )
            table[key] = build()
        return table[key]

    def sealed(self) -> "OperatorCache":
        """A view sharing every table that builds nothing."""
        view = copy.copy(self)
        view._sealed = True
        return view

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
        out._m2l_stacks = {
            k: (V, UT * up, *cuts)
            for k, (V, UT, *cuts) in self._m2l_stacks.items()
            if k[2] == "float64"
        }
        return out

    # -- inversion operators -----------------------------------------------

    def uc2ue(self, level: int) -> np.ndarray:
        """Upward check potential -> upward equivalent density (eq. 2.1)."""
        h = self._homog
        key = 0 if h is not None else level
        base = self._entry("uc2ue", key, lambda: regularized_pinv(
            self.kernel.matrix(
                self.up_check_points(np.zeros(3), key),
                self.up_equiv_points(np.zeros(3), key),
            ),
            self.rcond,
        ))
        if h is None or level == key:
            return base
        return base * self._scale(level, key) ** (-h)

    def dc2de(self, level: int) -> np.ndarray:
        """Downward check potential -> downward equivalent density (eq. 2.2)."""
        h = self._homog
        key = 0 if h is not None else level
        base = self._entry("dc2de", key, lambda: regularized_pinv(
            self.kernel.matrix(
                self.down_check_points(np.zeros(3), key),
                self.down_equiv_points(np.zeros(3), key),
            ),
            self.rcond,
        ))
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
        base = self._entry("m2m", (key, octant), lambda: self.kernel.matrix(
            self.up_check_points(np.zeros(3), key - 1),
            self.up_equiv_points(
                octant_offset(octant) * self.half_width(key - 1), key
            ),
        ))
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
        base = self._entry("l2l", (key, octant), lambda: self.kernel.matrix(
            self.down_check_points(
                octant_offset(octant) * self.half_width(key - 1), key
            ),
            self.down_equiv_points(np.zeros(3), key - 1),
        ))
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
        base = self._entry(
            "m2l", (key, tuple(int(o) for o in offset)),
            lambda: self.kernel.matrix(
                self.down_check_points(
                    np.asarray(offset, dtype=np.float64)
                    * (2.0 * self.half_width(key)),
                    key,
                ),
                self.up_equiv_points(np.zeros(3), key),
            ),
        )
        if h is None or level == key:
            return base
        return base * self._scale(level, key) ** h

    def m2l_reference(self, level: int) -> tuple[int, float]:
        """The level whose M2L factors serve ``level``, and the factor
        that carries their output there (``a^h``; 1 at that level)."""
        h = self._homog
        if h is None:
            return level, 1.0
        return 0, self._scale(level, 0) ** h

    def _m2l_rsvd_factors(
        self, key: int, offset: tuple[int, int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference-level rSVD factors ``(uf, vf)`` of one offset.

        ``uf = u * s`` is ``(n_surf * target_dof, k)`` and ``vf = vt`` is
        ``(k, n_surf * source_dof)``, so ``m2l_check ≈ uf @ vf`` to the
        cache's ``rsvd_tol``.  Only the canonical offset of a symmetry
        class (:func:`canonical_offset`) is factored and kept; with
        ``o = Q c`` the check matrix is ``M_o = T M_c T^T`` for the
        signed permutation ``T`` of :meth:`_moved`, so the class's other
        offsets get a fresh ``(T uf_c, vf_c T^T)`` — same rank, same
        singular values.  A kernel without a declared symmetry has
        every offset as its own class.  The sketch seed is a base-7
        encoding of the canonical offset (components lie in [-3, 3]),
        making the factors a pure function of the offset — bitwise
        identical across setups, call orders and processes.
        """
        if max(abs(o) for o in offset) < 2:
            raise ValueError(f"offset {offset} is adjacent; not a V-list pair")
        if self.kernel.symmetry is not None:
            canonical, axes, signs = canonical_offset(offset)
            if canonical != offset:
                uf, vf = self._m2l_rsvd_factors(key, canonical)
                return (
                    self._moved(uf, axes, signs),
                    self._moved(vf, axes, signs, axis=1),
                )

        def factor():
            o0, o1, o2 = offset
            seed = 1 + (o0 + 3) * 49 + (o1 + 3) * 7 + (o2 + 3)
            u, s, vt = randomized_svd(
                self.m2l_check(key, offset), self.rsvd_tol, seed=seed
            )
            return u * s, vt

        return self._entry("m2l_rsvd", (key, offset), factor)

    def _moved(
        self,
        rows: np.ndarray,
        axes: tuple[int, int, int],
        signs: tuple[int, int, int],
        axis: int = 0,
    ) -> np.ndarray:
        """``T @ rows`` for the cube symmetry ``(Q x)[a] = signs[a] x[axes[a]]``.

        ``rows`` is point-major ``(n_surf * dof, k)`` — or, with
        ``axis=1``, holds surface vectors as rows and the result is
        ``rows @ T^T``.  ``T`` sends the block of node ``i`` to node
        ``pi[i]`` (where ``Q`` carries it) and, for a tensor kernel,
        applies ``Q`` to the ``dof = 3`` components inside the block.
        """
        pi = surface_node_permutation(self.p, axes, signs)
        shape = rows.shape
        blocks = rows.reshape(
            shape[:axis] + (self.n_surf, -1) + shape[axis + 1:]
        )
        if self.kernel.symmetry == "tensor":
            blocks = np.take(blocks, axes, axis=axis + 1) * np.array(
                signs, np.float64
            ).reshape((3,) + (1,) * (1 - axis))
        return np.take(blocks, np.argsort(pi), axis=axis).reshape(shape)

    def m2l_rsvd(
        self,
        level: int,
        offset: tuple[int, int, int],
        dtype: str = "float64",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compressed M2L factors: ``m2l_check(level, offset) ≈ uf @ vf``.

        The class-major rsvd stage applies a V-list class as two
        stacked BLAS-3 GEMMs, ``(ue @ vf.T) @ uf.T``; every offset's
        pair is kept once asked for.  Homogeneous kernels rescale like
        :meth:`m2l_check`, the level factor folded into a fresh ``uf``
        — the stage asks for the level of :meth:`m2l_reference` and
        scales its narrow intermediate instead.  ``dtype="float32"``
        returns single-precision factors — the mixed-precision mode's
        declared narrowing; accumulation into the downward-check
        buffers stays float64 at the call sites.
        """
        if dtype not in ("float64", "float32"):
            raise ValueError(
                f"m2l_rsvd dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        key, scale = self.m2l_reference(level)
        cache_key = (key, tuple(int(o) for o in offset))
        uf, vf = self._entry(
            "m2l_rsvd", cache_key, lambda: self._m2l_rsvd_factors(*cache_key)
        )
        if dtype == "float32":
            uf, vf = self._entry("m2l_rsvd_f32", cache_key, lambda: (
                uf.astype(np.float32),  # lint: allow(dtype-width)
                vf.astype(np.float32),  # lint: allow(dtype-width)
            ))
        return (uf, vf) if scale == 1.0 else (uf * uf.dtype.type(scale), vf)

    def m2l_rsvd_rank(self, level: int, offset: tuple[int, int, int]) -> int:
        """Compression rank of one offset class (dtype independent),
        read off the class's canonical factor: no moved pair is built.
        Remembered — an rsvd step asks for every class on every apply."""
        key = self.m2l_reference(level)[0]

        def rank():
            exact = tuple(int(o) for o in offset)
            if self.kernel.symmetry is not None:
                exact = canonical_offset(exact)[0]
            return int(self._m2l_rsvd_factors(key, exact)[1].shape[0])

        return self._entry("m2l_rank", (key, offset), rank)

    # -- parent-pair blocked rsvd ------------------------------------------

    def reflect(self, rows: np.ndarray, mask: int) -> np.ndarray:
        """Surface vectors (the rows) mirrored in the axes of ``mask``:
        ``M_o x = R M_{Ro} R x`` with those components of ``o`` negated."""
        if not mask:
            return rows
        signs = tuple(-1 if mask >> a & 1 else 1 for a in range(3))
        return self._moved(rows, (0, 1, 2), signs, axis=1)

    def m2l_stacks(
        self, key: int, direction: tuple[int, int, int], dtype: str = "float64"
    ) -> tuple:
        """Direction-stacked rsvd factors of one parent-pair direction.

        A target parent ``direction`` cells from a source parent joins
        child ``o_t`` to child ``o_s`` at offset ``2 direction + v(o_t)
        - v(o_s)`` — a V pair unless adjacent, which has no slot.
        Returns ``(mask, V, UT, vcut, ucut, moves)`` at reference level
        ``key`` (:meth:`m2l_reference`).  Stacks exist for the 7
        non-negative directions; another one runs through the stack of
        its magnitudes with the axes of ``mask`` mirrored
        (:meth:`reflect`: rows going in and coming out, octants XOR
        ``mask``) — without a declared symmetry all 26 are stored and
        the mask is 0.  ``V[vcut[o_s]:vcut[o_s + 1]]`` stacks the ``vf``
        of the slots of source octant ``o_s`` (by ``o_t``),
        ``UT[ucut[o_t]:ucut[o_t + 1]]`` the ``uf.T`` of the slots of
        target octant ``o_t`` (by ``o_s``), and ``moves`` lists the
        ``(dst, stop, src)`` row slabs taking the first order to the
        second.  Cut from the canonical factors the class-major stage
        moves too; a cache serves one layout, so builds one.
        """
        mask = 0
        if self.kernel.symmetry is not None:
            mask = sum(1 << a for a in range(3) if direction[a] < 0)
            direction = tuple(abs(c) for c in direction)
        cache_key = (key, direction, dtype)
        return (mask, *self._entry(
            "m2l_stacks", cache_key, lambda: self._stacked(*cache_key)
        ))

    def _stacked(self, key: int, direction: tuple[int, int, int], dtype: str):
        """The stored ``(V, UT, vcut, ucut, moves)`` of :meth:`m2l_stacks`."""
        if dtype == "float32":
            _, V, UT, *cuts = self.m2l_stacks(key, direction)
            return (
                V.astype(np.float32),  # lint: allow(dtype-width)
                UT.astype(np.float32),  # lint: allow(dtype-width)
                *cuts,
            )
        offs = child_pair_offsets(direction)  # [o_t, o_s]
        slots = [
            (ot, os_) for ot in range(8) for os_ in range(8)
            if np.abs(offs[ot, os_]).max() >= 2
        ]
        by_source = sorted(slots, key=lambda slot: slot[::-1])
        pair = {
            slot: self._m2l_rsvd_factors(key, tuple(offs[slot].tolist()))
            for slot in slots
        }
        rank = [pair[slot][1].shape[0] for slot in slots]
        at = dict(zip(
            by_source, np.cumsum([0] + [pair[sl][1].shape[0] for sl in by_source])
        ))
        cuts = [
            np.concatenate([[0], np.cumsum(
                np.bincount([slot[side] for slot in slots], rank, 8)
            )]).astype(np.int64)
            for side in (1, 0)
        ]
        return (
            np.concatenate([pair[slot][1] for slot in by_source]),
            np.concatenate([pair[slot][0].T for slot in slots]),
            *cuts,
            [
                (int(stop - r), int(stop), int(at[slot]))
                for slot, r, stop in zip(slots, rank, np.cumsum(rank))
            ],
        )
