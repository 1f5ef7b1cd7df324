"""Kernel interface used by the whole package.

The kernel-independence claim of the paper (Section 1) is that the FMM
machinery only requires *kernel evaluations* — no analytic multipole
expansions.  Accordingly the interface below exposes a single mathematical
operation, :meth:`Kernel.matrix`, assembling the dense interaction matrix
between arbitrary target and source point sets, plus metadata the
implementation uses for efficiency (degrees of freedom, homogeneity degree
for operator rescaling across tree levels, flop cost for the performance
model).

That one operation sits under S2M, the U/W/X lists and L2T, so it is
written here once, against a *pass budget*: a kernel matrix is a few
full-size array passes, and every pass or temporary beyond the ones the
formula needs is the cost (``docs/architecture.md``, "Kernel evaluation:
the pass budget").  Where the host has a C compiler, a kernel that names
a :meth:`Kernel.profile` — Laplace, Stokes, Navier — runs those five
stages as the compiled pair loops of :mod:`repro.kernels.native`
instead, and assembles here only its precomputed operators and the
direct sums; modified Laplace, the derived kernels and every kernel on a
host without a compiler assemble every stage here, and these assemblies
are the compiled loops' oracle.  Two distance primitives carry all eight
kernels:

- :func:`difference_planes` — exact differences as three contiguous
  ``(nt, ns)`` planes plus ``r^2`` reduced from them; the tensor kernels
  (:func:`kelvin_matrix` for Stokes/Navier, the gradient and dipole
  kernels of :mod:`repro.kernels.derived`) are products of those planes,
  taken over cache-sized slabs of the targets (:func:`plane_matrix`);
- :func:`local_r2` — ``r^2`` alone from one augmented GEMM with a sparse
  close-pair repair, valid in box-local frames; the radial kernels
  (:class:`RadialKernel`) need nothing else.

Both write ``inf`` into ``r^2`` at coincident pairs, so the square root
and the reciprocal that follow run in place and the pair's entry comes
out as the exact zero the :meth:`Kernel.matrix` contract asks for.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

#: Kernel-matrix entries assembled at a time (1 MB): the source tiles of
#: :meth:`Kernel.apply` and the target slabs of :func:`plane_matrix`.  A
#: plane assembly holds 4-7 pair-sized planes next to its output, and
#: passes over them run at L2 speed only while the set fits: a Stokes
#: block costs 31 ns/pair up to ~250 000 pairs in a warm loop but 52-67
#: inside an apply or beyond, and 256 x 50 000 direct sums read 6.8
#: (Laplace) and 35 ns/pair (Stokes) tiled against 17 and 66 untiled.
TILE_ENTRIES = 1 << 17

#: :func:`local_r2` recomputes entries with ``r^2 <= CLOSE_PAIR * scale^2``
#: from exact differences.  The GEMM form carries an absolute error of a
#: few ``eps * scale^2``, so every entry it keeps has a relative error
#: below ``eps / CLOSE_PAIR`` ~ 1e-13 in ``r^2``, while in a box-local
#: frame only O(1e-3) of the entries fall under the threshold.
CLOSE_PAIR = 4e-3


def _points(
    targets: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both point sets as float64 ``(n, d)`` arrays of one dimension
    ``d``, the column count."""
    t = np.asarray(targets, dtype=np.float64)
    s = np.asarray(sources, dtype=np.float64)
    for name, points in (("targets", t), ("sources", s)):
        if points.ndim != 2:
            raise ValueError(f"{name} must be (n, d), got {points.shape}")
    if t.shape[1] != s.shape[1]:
        raise ValueError(
            f"dimension mismatch: targets are {t.shape[1]}-D points, "
            f"sources {s.shape[1]}-D"
        )
    return t, s


def difference_planes(
    targets: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact pairwise differences as planes, and ``r^2`` reduced from them.

    Returns ``(d, r2)``: ``d[k, t, s] = targets[t, k] - sources[s, k]`` as
    a contiguous ``(dim, nt, ns)`` array and ``r2 = d[0]^2 + ... +
    d[dim-1]^2`` with ``inf`` written where the pair is coincident (``r2
    == 0``), so that ``1 / sqrt(r2)`` is the exact zero that drops
    singular self-pairs out of every kernel.  Both arrays are fresh;
    callers finish in place.
    """
    t, s = _points(targets, sources)
    (nt, dim), ns = t.shape, s.shape[0]
    # [t_k, 1] @ [1; -s_k] per axis: a product by one is exact and the
    # two-term sum rounds once, so this *is* the subtraction — at GEMM
    # speed instead of numpy's stride-0 broadcasting loop (3x slower).
    left = np.ones((dim, nt, 2))
    left[:, :, 0] = t.T
    right = np.ones((dim, 2, ns))
    np.negative(s.T, out=right[:, 1, :])
    d = np.empty((dim, nt, ns))
    np.matmul(left, right, out=d)
    r2 = np.einsum("kts,kts->ts", d, d)
    zero = np.flatnonzero(r2 == 0.0)
    if zero.size:
        r2.reshape(-1)[zero] = np.inf
    return d, r2


def plane_matrix(
    targets: np.ndarray, sources: np.ndarray, q: int, m: int, fill
) -> np.ndarray:
    """A point-major ``(nt q, ns m)`` matrix assembled from difference planes.

    Runs :func:`difference_planes` over slabs of the targets sized so that
    a slab of the output stays under ``TILE_ENTRIES``, and has
    ``fill(out, d, r2)`` write each slab's ``(rows, q, ns, m)`` view of the
    output — so whatever the block size, the planes and the temporaries
    ``fill`` makes of them stay cache-sized.
    """
    t, s = _points(targets, sources)
    nt, ns = t.shape[0], s.shape[0]
    out = np.empty((nt, q, ns, m))
    step = max(1, TILE_ENTRIES // max(1, q * m * ns))
    for start in range(0, nt, step):
        rows = slice(start, start + step)
        fill(out[rows], *difference_planes(t[rows], s))
    return out.reshape(nt * q, ns * m)


def local_r2(targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """``r^2`` of every pair in a *box-local* frame, from one GEMM.

    ``r^2 = |t|^2 + |s|^2 - 2 t.s`` is the single product
    ``[-2t, |t|^2, 1] @ [s, 1, |s|^2]^T`` (inner dimension ``d + 2``).  The sum
    cancels for close pairs, so entries at or below
    ``CLOSE_PAIR * (max|t|^2 + max|s|^2)`` — among them every coincident
    pair, whose computed ``r^2`` is a rounding residual rather than an
    exact zero — are recomputed from exact differences, sparsely through
    their flat indices.  Like :func:`difference_planes` it returns a
    fresh ``(nt, ns)`` array with ``inf`` at coincident pairs.  Only
    valid when coordinates are of the order of the distances wanted:
    the repair covers O(1e-3) of a box-local block and all of a block
    far from the origin.
    """
    t, s = _points(targets, sources)
    (nt, dim), ns = t.shape, s.shape[0]
    if nt == 0 or ns == 0:
        return np.empty((nt, ns))
    left = np.empty((nt, dim + 2))
    np.multiply(t, -2.0, out=left[:, :dim])
    t2 = np.einsum("id,id->i", t, t, out=left[:, dim])
    left[:, dim + 1] = 1.0
    right = np.empty((dim + 2, ns))
    right[:dim] = s.T
    right[dim] = 1.0
    s2 = np.einsum("id,id->i", s, s, out=right[dim + 1])
    r2 = left @ right
    # fmax skips NaN: a NaN coordinate stays in its own row or column
    # (the comparison is false there) and the rest is repaired as usual.
    scale2 = np.fmax.reduce(t2) + np.fmax.reduce(s2)
    close = np.flatnonzero(r2 <= CLOSE_PAIR * scale2)
    if close.size:
        ti, si = np.divmod(close, ns)
        d = t[ti] - s[si]
        exact = np.einsum("id,id->i", d, d)
        exact[exact == 0.0] = np.inf
        r2.reshape(-1)[close] = exact
    return r2


def kelvin_matrix(
    targets: np.ndarray, sources: np.ndarray, a: float, b: float
) -> np.ndarray:
    """Kelvin-form tensor kernel ``a delta_ij / r + b d_i d_j / r^3``.

    The shared shape of the Stokeslet (``a = b``) and the Kelvin solution
    of elastostatics, as a :func:`plane_matrix`: the six distinct
    products are formed plane by plane and copied straight into the
    point-major output, the three off-diagonal ones to both of their
    places.  Returns the ``(3 nt, 3 ns)`` matrix.
    """

    def fill(out: np.ndarray, d: np.ndarray, r2: np.ndarray) -> None:
        r = np.sqrt(r2)
        r2 *= r
        b_r3 = np.divide(b, r2, out=r2)
        a_r = np.divide(a, r, out=r)
        scaled = np.empty_like(r)
        entry = np.empty_like(r)
        for i in range(3):
            np.multiply(d[i], b_r3, out=scaled)
            np.multiply(scaled, d[i], out=entry)
            entry += a_r
            out[:, i, :, i] = entry
            for j in range(i + 1, 3):
                np.multiply(scaled, d[j], out=entry)
                out[:, i, :, j] = entry
                out[:, j, :, i] = entry

    return plane_matrix(targets, sources, 3, 3, fill)


class Kernel(ABC):
    """A single-layer kernel ``G(x, y)`` of an elliptic PDE in 2D or 3D.

    Attributes
    ----------
    name:
        Human-readable identifier (``"laplace"``, ``"stokes"``, ...).
    dim:
        Spatial dimension ``d``; all paper experiments are in 3D, and
        Section 2 poses the method for ``d = 2, 3``.  The tree, surfaces
        and operators of an FMM over this kernel are ``d``-dimensional.
    source_dof / target_dof:
        Components per source density / target potential.  Scalar kernels
        have 1; Stokes and Navier have ``d``.
    homogeneity:
        Degree ``h`` with ``G(a*x, a*y) = a**h * G(x, y)`` for ``a > 0``,
        or ``None`` for inhomogeneous kernels (modified Laplace, the
        logarithmic 2D kernels).  Used to rescale precomputed
        translation operators between tree levels.
    symmetry:
        How ``G`` transforms under the ``2^d d!`` signed axis
        permutations ``Q`` of the cube (48 in 3D): ``"scalar"`` —
        ``G(Qx, Qy) = G(x, y)`` (Laplace, modified Laplace); ``"tensor"``
        — ``G(Qx, Qy) = Q G(x, y) Q^T`` with ``source_dof = target_dof =
        d`` (Stokes, Navier); ``None``
        — no such rule.  Like ``homogeneity`` it only saves precompute:
        the compressed M2L factors of a kernel that declares a rule are
        computed for one offset per symmetry class and permuted onto
        the others (``docs/architecture.md``, "Operator precompute and
        cube symmetry"); with ``None`` every offset is factored itself.
    flops_per_pair:
        Estimated floating-point operations to evaluate the full
        ``target_dof x source_dof`` interaction block of one point pair;
        feeds the TCS-1 performance model.  It is the paper's model cost
        of a fused per-pair evaluation, not a count of numpy passes.
    """

    name: str = "abstract"
    dim: int = 3
    source_dof: int = 1
    target_dof: int = 1
    homogeneity: float | None = None
    symmetry: str | None = None
    flops_per_pair: int = 0

    @abstractmethod
    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Dense interaction matrix between point sets.

        Parameters
        ----------
        targets:
            ``(nt, d)`` evaluation points.
        sources:
            ``(ns, d)`` singularity locations.

        Returns
        -------
        ``(nt * target_dof, ns * source_dof)`` matrix ``K`` such that the
        potentials are ``u = K @ phi`` with point-major component ordering
        (row ``t * target_dof + i`` is component ``i`` at target ``t``).
        Coincident points (``x == y``) contribute zero, the standard
        convention for excluding self-interaction in particle sums.
        """

    def matrix_local(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """:meth:`matrix` for *box-local* coordinate frames.

        The planned evaluator shifts every interaction block (S2M, U, W,
        X, L2T) into the frame of its box, so coordinates are of the
        order of the box half-width and a kernel may use a form that
        would cancel elsewhere.  The radial kernels do
        (:class:`RadialKernel`: ``r^2`` from :func:`local_r2`'s one
        GEMM).  A tensor kernel needs the exact differences themselves,
        so its fast form *is* :meth:`matrix` and this default delegates.
        Same shape, ordering and zero pattern as :meth:`matrix`.
        """
        return self.matrix(targets, sources)

    def profile(self) -> tuple | None:
        """The kernel as the compiled pair loops name it, or None.

        ``("inv_r", c)`` is ``c / r``; ``("kelvin", a, b)`` is ``a
        delta_ij / r + b d_i d_j / r^3``.  Where the host built the loops
        (:mod:`repro.kernels.native`), S2M, U, W, X and L2T of a kernel
        with a profile run compiled; the numpy stages stay their oracle.
        A subclass that overrides the evaluation — :meth:`matrix`, or
        :meth:`RadialKernel._radial` — must name its own profile, or it
        keeps the numpy stages.
        """
        return None

    def apply(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        density: np.ndarray,
        block: int = 2048,
    ) -> np.ndarray:
        """Matrix-free evaluation ``u = K @ phi``, tiled over both sets.

        Never materialises more than one ``TILE_ENTRIES`` tile of
        the ``O(nt * ns)`` matrix: targets are taken ``block`` at a time
        and, for each, sources in runs sized so that the tile stays under
        that cap; the partial products are accumulated in float64.  The
        O(N^2) baseline, the accuracy oracle and the dense BIE operator
        all come through here.

        Parameters
        ----------
        density:
            ``(ns, source_dof)`` or flat ``(ns * source_dof,)`` densities.
        block:
            Targets per tile row.

        Returns
        -------
        ``(nt, target_dof)`` potentials.
        """
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        sources = np.ascontiguousarray(sources, dtype=np.float64)
        phi = np.asarray(density, dtype=np.float64).reshape(-1)
        nt, ns = targets.shape[0], sources.shape[0]
        q, m = self.target_dof, self.source_dof
        if phi.shape[0] != ns * m:
            raise ValueError(
                f"density has {phi.shape[0]} entries, expected {ns * m}"
            )
        out = np.zeros(nt * q, dtype=np.float64)
        width = max(1, TILE_ENTRIES // (max(1, min(block, nt)) * q * m))
        for start in range(0, nt, block):
            stop = min(start + block, nt)
            rows = out[start * q : stop * q]
            for c0 in range(0, ns, width):
                c1 = min(c0 + width, ns)
                tile = self.matrix(targets[start:stop], sources[c0:c1])
                rows += tile @ phi[c0 * m : c1 * m]
        return out.reshape(nt, q)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class RadialKernel(Kernel):
    """A scalar kernel that depends on the distance alone, ``G = g(r)``.

    A subclass writes the profile ``g`` once (:meth:`_radial`); both
    assemblies are then distance-then-profile.  :meth:`matrix` takes the
    distances from exact differences and is the definition;
    :meth:`matrix_local` takes them from :func:`local_r2` and is what
    the planned evaluator calls, tested against the former.
    """

    symmetry = "scalar"

    @abstractmethod
    def _radial(self, r: np.ndarray) -> np.ndarray:
        """``g(r)`` for a fresh ``(nt, ns)`` array of distances.

        ``r`` is ``inf`` at coincident pairs, where ``g`` must come out
        zero; the array is the caller's to overwrite and return.
        """

    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        _, r2 = difference_planes(targets, sources)
        return self._radial(np.sqrt(r2, out=r2))

    def matrix_local(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        r2 = local_r2(targets, sources)
        return self._radial(np.sqrt(r2, out=r2))
