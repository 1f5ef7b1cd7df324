"""Precomputed translation operators (equations 2.1–2.5).

Every KIFMM translation is "evaluate a check potential, then invert the
check-to-equivalent integral equation".  The matrices involved depend
only on the tree level (and, for M2L, the relative box offset; for
M2M/L2L, the child octant) — never on the box position — so they are
computed once and cached.

For kernels homogeneous of degree ``h`` (``G(a x, a y) = a^h G(x, y)``,
i.e. Laplace, Stokes, Navier) the operators at any level are rescalings
of a reference level: evaluation matrices scale by ``a^h`` and the
pseudo-inverses by ``a^-h``, where ``a`` is the box half-width ratio.
The pseudo-inverses are kept as their two SVD factors, never formed.
Inhomogeneous kernels (modified Laplace) are precomputed per level.

The surfaces are a regular cube lattice, so the ``7^d - 3^d`` V-list
offsets (316 in 3D) fall into orbits of the cube's ``2^d d!`` signed
axis permutations (16 orbits of 48 in 3D).  For a kernel that declares
how it transforms under them (``Kernel.symmetry``) the M2L operators
are kept for the one offset ``a >= b >= c >= 0`` of each orbit only:
another's is ``T M_c T^T``, ``T`` a signed permutation of the surface
vector, folded into the data by the class-major V stage
(:meth:`OperatorCache.m2l_fold`).  The ``2^d`` child octants are the
mirror images of octant 0 under the reflections of the same group, so
such a kernel keeps the M2M and L2L operators of octant 0 only, and the
M2M / L2L stages fold each octant's reflection ``R_o`` into their data
the same way (``M_o = R_o M_0 R_o``, :meth:`OperatorCache.octant_fold`).
Everything is in ``Kernel.dim``.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Hashable
from functools import lru_cache

import numpy as np

from repro.analysis.sanitize import OperatorMissError
from repro.core.surfaces import (
    INNER_RADIUS,
    OUTER_RADIUS,
    _frozen,
    scaled_surface,
    surface_grid,
    surface_node_permutation,
)
from repro.kernels.base import Kernel
from repro.linalg.pinv import truncated_svd
from repro.linalg.rsvd import randomized_svd
from repro.octree.topology import child_pair_offsets, octant_vectors


def octant_offset(octant: int, dim: int) -> np.ndarray:
    """Child-center offset from the parent center, in parent half-widths.

    Octant bit 0/1/2 selects the x/y/z half; bit value 0 means the lower
    half (offset ``-1/2``), 1 the upper half (``+1/2``), matching the
    Morton child indexing of :mod:`repro.octree.morton`.
    """
    if not 0 <= octant < 1 << dim:
        raise ValueError(f"octant must be in [0, {1 << dim}), got {octant}")
    return octant_vectors(dim)[octant] - 0.5


@lru_cache(maxsize=None)
def canonical_offset(
    offset: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The symmetry class of a box offset and the way back from it.

    Returns ``(canonical, axes, signs)``: ``canonical`` holds the
    magnitudes of ``offset`` in non-increasing order, and the signed
    axis permutation ``(Q x)[a] = signs[a] * x[axes[a]]`` maps it onto
    ``offset``.  Ties and zeros are broken the same way every time, so
    the pair is a pure function of the offset.
    """
    order = sorted(range(len(offset)), key=lambda a: -abs(offset[a]))
    return (
        tuple(abs(int(offset[a])) for a in order),
        tuple(order.index(a) for a in range(len(offset))),
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
        The interaction kernel; its ``dim`` is the operators'.
    p:
        Surface discretisation order (points per cube edge); the paper's
        "degree of discretization for equivalent densities".
    root_side:
        Side length of the level-0 box, fixing physical scales.
    inner, outer:
        Surface radius factors (see :mod:`repro.core.surfaces`).
    rcond:
        Relative SVD cutoff of the inversions :meth:`uc2ue` / :meth:`dc2de`.
    """

    @property
    def rsvd_tol(self) -> float:
        """Relative tolerance of the rSVD-compressed M2L factors:
        ``10^-p``, and ``10^-4`` below ``p = 4``.

        It follows the surface order, the method's one accuracy knob, so
        the truncation does no work under the error ``p`` delivers and
        sets no floor above it (``tests/core/test_accuracy_contract.py``
        holds ``auto`` within 1.2x of the dense M2L's error).  At
        ``p = 3`` the operators are too small for their spectrum to fall
        far past a ``10^-3`` cut: 3D Laplace's error doubled on corner
        clusters, so the cut stays at ``10^-4`` and ``auto`` runs dense
        there.  A pure function of ``p``: every rank and process factors
        the same operators bit for bit.
        """
        return 10.0 ** -max(self.p, 4)

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
        if kernel.symmetry == "tensor" and not (
            kernel.source_dof == kernel.target_dof == kernel.dim
        ):
            raise ValueError(
                f"a {kernel.dim}-D kernel with symmetry='tensor' needs "
                f"{kernel.dim} source and target components, got "
                f"{kernel.source_dof} and {kernel.target_dof}"
            )
        self.kernel = kernel
        self.dim = kernel.dim
        self.p = int(p)
        self.root_side = float(root_side)
        self.inner = float(inner)
        self.outer = float(outer)
        self.rcond = float(rcond)
        self.n_surf = surface_grid(p, self.dim).shape[0]
        self._uc2ue: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._dc2de: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._m2m: dict[tuple[int, int], np.ndarray] = {}
        self._l2l: dict[tuple[int, int], np.ndarray] = {}
        self._m2l: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        self._m2l_rsvd: dict[
            tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]
        ] = {}
        self._m2l_rsvd_f32: dict[
            tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]
        ] = {}
        self._m2l_stacks: dict[tuple[int, tuple[int, ...], str], tuple] = {}
        self._m2l_rank: dict[tuple[int, tuple[int, ...]], int] = {}
        self._fold: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple] = {}

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

    @property
    def origin(self) -> np.ndarray:
        """The box-local frame's centre."""
        return np.zeros(self.dim)

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
        ``a^h``, pseudo-inverses by ``a^-h`` (their second factor), the
        factors that already carry the reference level to the other
        levels — so a moved geometry pays no precompute again.  Only
        what is stored is carried (for a kernel with a declared symmetry
        the canonical M2L operators and octant 0's M2M / L2L); the fold
        tables are shared.  An inhomogeneous kernel's operators belong
        to one root, and a mismatch is an error.
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
        out._uc2ue = {k: (u, w / up) for k, (u, w) in self._uc2ue.items()}
        out._dc2de = {k: (u, w / up) for k, (u, w) in self._dc2de.items()}
        out._m2m = {k: m * up for k, m in self._m2m.items()}
        out._l2l = {k: m * up for k, m in self._l2l.items()}
        out._m2l = {k: m * up for k, m in self._m2l.items()}
        out._m2l_rsvd = {
            k: (uf * up, vf) for k, (uf, vf) in self._m2l_rsvd.items()
        }
        out._fold = self._fold  # independent of the root: shared
        out._m2l_stacks = {
            k: (V, UT * up, *cuts)
            for k, (V, UT, *cuts) in self._m2l_stacks.items()
            if k[2] == "float64"
        }
        return out

    # -- inversion operators -----------------------------------------------

    def _inverse(self, name: str, level: int, check, equiv):
        """Truncated-SVD factors ``(u, w)`` of the pseudo-inverse of
        ``kernel.matrix(check, equiv)``: it maps a check potential ``c``
        to ``w.T @ (u.T @ c)``, with ``w = vt / s`` of the kept rank."""
        h = self._homog
        key = 0 if h is not None else level

        def factor():
            o = self.origin
            u, s, vt = truncated_svd(
                self.kernel.matrix(check(o, key), equiv(o, key)), self.rcond
            )
            return u, vt / s[:, None]

        u, w = self._entry(name, key, factor)
        if h is None or level == key:
            return u, w
        return u, w * self._scale(level, key) ** (-h)

    def uc2ue(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Upward check potential -> upward equivalent density (eq. 2.1),
        as the factors ``(u, w)`` of :meth:`_inverse`."""
        return self._inverse(
            "uc2ue", level, self.up_check_points, self.up_equiv_points
        )

    def dc2de(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Downward check potential -> downward equivalent density
        (eq. 2.2), as the factors ``(u, w)`` of :meth:`_inverse`."""
        return self._inverse(
            "dc2de", level, self.down_check_points, self.down_equiv_points
        )

    def inverse_rank(self, name: str, level: int) -> int:
        """Kept rank of inversion ``name``'s factors at ``level``."""
        return int(self.reference(name, level)[0][0].shape[1])

    # -- evaluation operators ------------------------------------------------

    def m2m_check(self, child_level: int, octant: int) -> np.ndarray:
        """Child upward equivalent density -> parent upward check potential.

        The first arrow of the M2M translation (Figure 2.2 left, eq. 2.3);
        the parent's ``uc2ue`` completes the translation after all child
        contributions are accumulated.  Any octant's matrix; a kernel
        with a declared symmetry stores octant 0's only (what the stage
        reads, :meth:`octant_fold`) and moves another's afresh.
        """
        return self._octant_operator("m2m", child_level, octant, lambda key, o: (
            self.up_check_points(self.origin, key - 1),
            self.up_equiv_points(
                octant_offset(o, self.dim) * self.half_width(key - 1), key
            ),
        ))

    def l2l_check(self, child_level: int, octant: int) -> np.ndarray:
        """Parent downward equivalent density -> child downward check potential.

        First arrow of the L2L translation (Figure 2.2 right, eq. 2.5);
        stored for octant 0 only as :meth:`m2m_check` is.
        """
        return self._octant_operator("l2l", child_level, octant, lambda key, o: (
            self.down_check_points(
                octant_offset(o, self.dim) * self.half_width(key - 1), key
            ),
            self.down_equiv_points(self.origin, key - 1),
        ))

    def _octant_operator(
        self, name: str, child_level: int, octant: int, surfaces: Callable,
    ) -> np.ndarray:
        """Table ``name``'s operator of ``octant`` at ``child_level``:
        ``kernel.matrix(*surfaces(key, o))`` at the reference level
        ``key``, stored for the octant :meth:`octant_fold` reads it
        through, and moved from there (``R_o M_0 R_o``) for another."""
        if child_level < 1:
            raise ValueError(f"child_level must be >= 1, got {child_level}")
        h = self._homog
        key = 1 if h is not None else child_level
        stored, axes, signs = self.octant_class(octant)
        base = self._entry(name, (key, stored), lambda: self.kernel.matrix(
            *surfaces(key, stored)
        ))
        if stored != octant:
            base = self._moved(self._moved(base, axes, signs), axes, signs, axis=1)
        if h is None or child_level == key:
            return base
        return base * self._scale(child_level, key) ** h

    def m2l_check(self, level: int, offset: tuple[int, ...]) -> np.ndarray:
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
        base = self._entry("m2l", (key, tuple(map(int, offset))),
                           lambda: self._m2l_matrix(key, offset))
        if h is None or level == key:
            return base
        return base * self._scale(level, key) ** h

    def _m2l_matrix(self, key: int, offset: tuple[int, ...]) -> np.ndarray:
        """The check operator of :meth:`m2l_check` at ``key``, uncached."""
        at = np.asarray(offset, dtype=np.float64) * (2.0 * self.half_width(key))
        return self.kernel.matrix(
            self.down_check_points(at, key), self.up_equiv_points(self.origin, key)
        )

    def reference(
        self, name: str, level: int, *octant: int
    ) -> tuple:
        """Level operator ``name`` (``"uc2ue"``, ``"dc2de"``,
        ``"m2m_check"`` or ``"l2l_check"``) of ``level`` as its
        reference-level matrix (the inversions: their factor pair) and
        the factor that carries its products to ``level`` —
        :meth:`m2l_reference`'s rule, so a stage scales its product
        instead of the operator: ``a^-h`` for the inversions, ``a^h`` for
        the evaluations, 1 for an inhomogeneous kernel (per level)."""
        h = self._homog
        if h is None:
            return getattr(self, name)(level, *octant), 1.0
        ref, sign = {"uc2ue": (0, -1), "dc2de": (0, -1),
                     "m2m_check": (1, 1), "l2l_check": (1, 1)}[name]
        base = getattr(self, name)(ref, *octant)
        return base, self._scale(level, ref) ** (sign * h)

    def m2l_reference(self, level: int) -> tuple[int, float]:
        """The level whose M2L factors serve ``level``, and the factor
        that carries their output there (``a^h``; 1 at that level)."""
        h = self._homog
        if h is None:
            return level, 1.0
        return 0, self._scale(level, 0) ** h

    def _m2l_rsvd_factors(
        self, key: int, offset: tuple[int, ...], dtype: str = "float64"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reference-level rSVD factors ``(uf, vf)``, ``m2l_check ≈ uf @
        vf`` to ``rsvd_tol``: ``uf = u * s`` is ``(n_surf * target_dof,
        k)``, ``vf = vt`` is ``(k, n_surf * source_dof)``.  Only a class's
        canonical offset (:meth:`m2l_class`) is factored, from a transient
        check matrix, and kept; with ``o = Q c``, ``M_o = T M_c T^T`` for
        the ``T`` of :meth:`_moved`, so another offset gets a fresh ``(T
        uf_c, vf_c T^T)`` that nothing keeps.  The sketch seed is a base-7
        encoding of the canonical offset (last axis lowest), so the
        factors are bitwise the same across setups, orders and processes.
        """
        if max(abs(o) for o in offset) < 2:
            raise ValueError(f"offset {offset} is adjacent; not a V-list pair")
        canonical, axes, signs = self.m2l_class(offset)

        def factor():
            seed = 1 + sum(
                (o + 3) * 7**digit for digit, o in enumerate(canonical[::-1])
            )
            u, s, vt = randomized_svd(
                self._m2l_matrix(key, canonical), self.rsvd_tol, seed=seed
            )
            return u * s, vt

        uf, vf = self._entry("m2l_rsvd", (key, canonical), factor)
        if dtype == "float32":
            uf, vf = self._entry("m2l_rsvd_f32", (key, canonical), lambda: (
                uf.astype(np.float32),  # lint: allow(dtype-width)
                vf.astype(np.float32),  # lint: allow(dtype-width)
            ))
        if canonical == offset:
            return uf, vf
        return self._moved(uf, axes, signs), self._moved(vf, axes, signs, axis=1)

    def m2l_class(self, offset: tuple[int, ...]) -> tuple:
        """``(canonical, axes, signs)`` of :func:`canonical_offset`, or the
        identity for a kernel without a declared symmetry."""
        if self.kernel.symmetry is None:
            return offset, tuple(range(self.dim)), (1,) * self.dim
        return canonical_offset(offset)

    def m2l_fold(self, offset: tuple[int, ...]) -> tuple:
        """``(canonical, gather, scatter)``: how the class-major V stage
        reads ``offset`` through its class's operator (:meth:`fold`)."""
        canonical, axes, signs = self.m2l_class(tuple(offset))
        return canonical, *self.fold(axes, signs)

    def octant_class(self, octant: int) -> tuple:
        """``(stored, axes, signs)``: the octant whose M2M / L2L operator
        serves ``octant`` and the group element from it — octant 0 and
        the reflection ``R_o`` in the axes of ``octant``'s set bits for a
        kernel with a declared symmetry, else ``octant`` itself and the
        identity."""
        if self.kernel.symmetry is None:
            return octant, *self._reflection(0)
        return 0, *self._reflection(octant)

    def _reflection(self, mask: int) -> tuple:
        """``(axes, signs)`` of the reflection in the axes of ``mask``'s
        set bits."""
        axes = tuple(range(self.dim))
        return axes, tuple(-1 if mask >> a & 1 else 1 for a in axes)

    def octant_fold(self, octant: int) -> tuple:
        """``(stored, gather, scatter)``: how the M2M / L2L stages read
        ``octant``'s operator ``R_o M_0 R_o`` through the stored one
        (:meth:`octant_class`, :meth:`fold`)."""
        stored, axes, signs = self.octant_class(octant)
        return stored, *self.fold(axes, signs)

    def fold(self, axes: tuple[int, ...], signs: tuple[int, ...]) -> tuple:
        """``(gather, scatter)`` of one group element: ``gather = (idx,
        sgn)`` takes a source row ``x`` to ``sgn * x[idx] = x T``, and
        ``scatter`` a product row ``y`` to ``sgn * y[idx] = y T^T`` (``T``
        of :meth:`_moved`); one frozen table pair per element, built at
        setup and shared by M2M, M2L and L2L."""

        def table(dof):  # T (1, ..., W) = sgn * (idx + 1)
            t = self._moved(np.arange(1.0, self.n_surf * dof + 1)[:, None],
                            axes, signs)[:, 0]
            return np.abs(t).astype(np.int64) - 1, np.sign(t)

        def tables():
            (idx, sgn), scatter = map(table, (self.kernel.source_dof,
                                              self.kernel.target_dof))
            inv = np.argsort(idx)  # read-only: the loops' bound indices
            return tuple(map(_frozen, (inv, sgn[inv]))), tuple(map(_frozen, scatter))

        return self._entry("fold", (axes, signs), tables)

    def _moved(
        self,
        rows: np.ndarray,
        axes: tuple[int, ...],
        signs: tuple[int, ...],
        axis: int = 0,
    ) -> np.ndarray:
        """``T @ rows`` for the cube symmetry ``(Q x)[a] = signs[a] x[axes[a]]``
        (``rows @ T^T`` with ``axis=1``, surface vectors as rows): ``T``
        sends node ``i``'s block to node ``pi[i]`` and, for a tensor
        kernel, applies ``Q`` to its ``d`` components.  A rank-0 factor
        moves to a rank-0 factor."""
        pi = surface_node_permutation(self.p, axes, signs)
        shape = rows.shape
        blocks = rows.reshape(
            shape[:axis] + (self.n_surf, shape[axis] // self.n_surf)
            + shape[axis + 1:]
        )
        if self.kernel.symmetry == "tensor":
            blocks = np.take(blocks, axes, axis=axis + 1) * np.array(
                signs, rows.dtype
            ).reshape((self.dim,) + (1,) * (1 - axis))
        return np.take(blocks, np.argsort(pi), axis=axis).reshape(shape)

    def m2l_rsvd(
        self,
        level: int,
        offset: tuple[int, ...],
        dtype: str = "float64",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compressed M2L factors: ``m2l_check(level, offset) ≈ uf @ vf``.

        The class-major stage reads the canonical pair of the offset's
        class only, as ``((ue T) @ vf.T) @ uf.T`` then ``T^T``
        (:meth:`m2l_fold`); another offset's pair is moved afresh per
        call.  Homogeneous kernels rescale like :meth:`m2l_check` into a
        fresh ``uf`` (the stage scales its narrow intermediate instead).
        ``dtype="float32"`` is the mixed-precision mode's declared
        narrowing; the check buffers still accumulate in float64.
        """
        if dtype not in ("float64", "float32"):
            raise ValueError(
                f"m2l_rsvd dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        key, scale = self.m2l_reference(level)
        uf, vf = self._m2l_rsvd_factors(key, tuple(map(int, offset)), dtype)
        return (uf, vf) if scale == 1.0 else (uf * uf.dtype.type(scale), vf)

    def m2l_rsvd_rank(self, level: int, offset: tuple[int, ...]) -> int:
        """Compression rank of one offset class (dtype independent),
        read off the class's canonical factor: no moved pair is built.
        Remembered — an rsvd step asks for every class on every apply."""
        key = self.m2l_reference(level)[0]
        return self._entry("m2l_rank", (key, offset), lambda: int(
            self._m2l_rsvd_factors(key, self.m2l_class(offset)[0])[1].shape[0]))

    # -- parent-pair blocked rsvd ------------------------------------------

    def reflect(self, rows: np.ndarray, mask: int) -> np.ndarray:
        """Surface vectors (the rows) mirrored in the axes of ``mask``:
        ``M_o x = R M_{Ro} R x`` with those components of ``o`` negated."""
        if not mask:
            return rows
        return self._moved(rows, *self._reflection(mask), axis=1)

    def m2l_stacks(
        self, key: int, direction: tuple[int, ...], dtype: str = "float64"
    ) -> tuple:
        """Direction-stacked rsvd factors of one parent-pair direction.

        A target parent ``direction`` cells from a source parent joins
        child ``o_t`` to child ``o_s`` at offset ``2 direction + v(o_t)
        - v(o_s)`` — a V pair unless adjacent, which has no slot.
        Returns ``(mask, V, UT, vcut, ucut, moves)`` at reference level
        ``key`` (:meth:`m2l_reference`).  Stacks exist for the ``2^d - 1``
        non-negative directions; another one runs through the stack of
        its magnitudes with the axes of ``mask`` mirrored
        (:meth:`reflect`: rows going in and coming out, octants XOR
        ``mask``) — without a declared symmetry all ``3^d - 1`` are
        stored and the mask is 0 (7 and 26 in 3D).  ``V[vcut[o_s]:vcut[o_s + 1]]`` stacks the ``vf``
        of the slots of source octant ``o_s`` (by ``o_t``),
        ``UT[ucut[o_t]:ucut[o_t + 1]]`` the ``uf.T`` of the slots of
        target octant ``o_t`` (by ``o_s``), and ``moves`` lists the
        ``(dst, stop, src)`` row slabs taking the first order to the
        second.  Cut from transient moved copies of the canonical
        factors; a cache serves one layout, so builds one.
        """
        mask = 0
        if self.kernel.symmetry is not None:
            mask = sum(1 << a for a, c in enumerate(direction) if c < 0)
            direction = tuple(abs(c) for c in direction)
        cache_key = (key, direction, dtype)
        return (mask, *self._entry(
            "m2l_stacks", cache_key, lambda: self._stacked(*cache_key)
        ))

    def _stacked(self, key: int, direction: tuple[int, ...], dtype: str):
        """The stored ``(V, UT, vcut, ucut, moves)`` of :meth:`m2l_stacks`."""
        if dtype == "float32":
            # Cast from a transient float64 build: a float32 cache keeps
            # one copy of the stacks.
            V, UT, *cuts = self._stacked(key, direction, "float64")
            return (
                V.astype(np.float32),  # lint: allow(dtype-width)
                UT.astype(np.float32),  # lint: allow(dtype-width)
                *cuts,
            )
        offs = child_pair_offsets(direction)  # [o_t, o_s]
        nchild = 1 << self.dim
        slots = [
            (ot, os_) for ot in range(nchild) for os_ in range(nchild)
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
                np.bincount([slot[side] for slot in slots], rank, nchild)
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
