"""The compiled pair and movement loops, and the one module that loads
foreign code.

``native.c`` (beside this file, shipped as package data) holds the U, W
and X lists of two kernel profiles — ``a / r`` and the Kelvin tensor ``a
delta_ij / r + b d_i d_j / r^3`` — as fused C loops over the blocks the
execution plan already holds; S2M runs as an X loop and L2T as a W loop
(``docs/architecture.md``, "The compiled pair loop").  It also holds the
two kernel-independent movement loops of the folded translations — the
class-major V list, which reads one M2L operator per cube-symmetry
class, and M2M / L2L, which read octant 0's operator for every octant —
each folding a signed surface permutation into its data: a permuted row
gather and a permuted scatter-add (:class:`MoveLoops`, whose numpy fold
is their oracle and runs wherever the library does not).  This module finds
the host's C compiler, builds the source once per host into a
content-addressed cache, loads the result with :mod:`ctypes` — whose
calls release the interpreter lock — and binds the three pair loops for
one kernel (:class:`PairLoops`).

Selection is observed, not configured.  A kernel whose
:meth:`~repro.kernels.base.Kernel.profile` is one the C source implements
(``inv_r``: :class:`~repro.kernels.laplace.LaplaceKernel`; ``kelvin``:
:class:`~repro.kernels.stokes.StokesKernel`,
:class:`~repro.kernels.navier.NavierKernel`) gets the loops
(:func:`loops_for`); every other kernel, and every kernel on a host
without a working compiler, keeps the numpy stages of
:class:`~repro.core.evaluator.PlanStages`, which are the loops' oracle.
Nothing here is an option.

The build is keyed by a hash of the C source, the compile flags, the
compiler's ``--version`` and the host CPU's flag set, and lives in
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` without it).  It is
published atomically — compiled to a temporary file in the cache, then
renamed over the final name — so processes that build at once all load a
whole library.  An unwritable cache falls back to a temporary directory
of this process.  The flags never include ``-ffast-math``: the loops'
zero at coincident pairs and their NaN propagation need IEEE arithmetic.

The loops dereference the blocks' indices unchecked, so :class:`PairLoops`
checks every index against the arrays it will pass — once per block set
and extents, and again before every call of a sanitized apply — and the
dtype, contiguity and shape of every array before each call;
:class:`MoveLoops` checks its rows and its permutation when bound.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.resources
import os
import platform
import shutil
import subprocess
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.kernels.base import Kernel, RadialKernel

#: Compile flags.  ``-fopenmp-simd`` honours the loops' ``omp simd``
#: pragmas (a reduction may then be vectorised) without an OpenMP runtime.
FLAGS = (
    "-O3", "-march=native", "-fno-math-errno", "-fopenmp-simd",
    "-shared", "-fPIC",
)
#: Compilers tried, in order.
COMPILERS = ("cc", "gcc", "clang")
#: The profiles ``native.c`` implements, as a kernel's
#: :meth:`~repro.kernels.base.Kernel.profile` names them: the C code of
#: each, and its components per point.  The modified Laplace profile ``c
#: e^(-lam r) / r`` is not here: with libm's scalar ``exp`` its loops ran
#: slower than its numpy stages.
PROFILES = {"inv_r": (0, 1), "kelvin": (1, 3)}

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_HEAD = [_I64, ctypes.c_double, ctypes.c_double, _I64]
_SIGNATURES = {
    "near_u": _HEAD + [_PTR] * 10 + [_I64, _I64],
    "near_w": _HEAD + [_PTR] * 8 + [_I64, _PTR, _PTR, _I64, _I64, _PTR,
                                    _I64, _I64],
    "near_x": _HEAD + [_PTR] * 7 + [_I64, _PTR, _I64, _I64],
    "gather_perm": [_I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR, _I64],
    "scatter_add_perm": [_I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR,
                         _I64],
}


class NativeIndexError(IndexError):
    """An index a compiled pair loop would dereference is out of range."""


def source() -> bytes:
    """The C source of the loops."""
    return (
        importlib.resources.files("repro.kernels")
        .joinpath("native.c").read_bytes()
    )


def find_compiler() -> str | None:
    """Path of the first C compiler on ``PATH``, or None."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def cache_dir() -> Path:
    """Where built libraries are kept."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro"


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def build_key(compiler: str) -> str:
    """Hash of everything the built library depends on."""
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, check=True, timeout=60,
    ).stdout
    digest = hashlib.sha256()
    for part in (source(), " ".join(FLAGS).encode(), version,
                 _cpu_flags().encode()):
        digest.update(part)
        digest.update(b"\0")
    return digest.hexdigest()[:32]


def build(compiler: str, directory: Path) -> Path:
    """The library for this host in ``directory``, compiled unless present.

    Raises :class:`OSError` when ``directory`` cannot be written and
    :class:`subprocess.SubprocessError` when the compiler fails.
    """
    target = directory / f"pairloops-{build_key(compiler)}.so"
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source(), capture_output=True, check=True, timeout=300,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


@lru_cache(maxsize=None)
def library() -> ctypes.CDLL | None:
    """The loaded loops of this host, built on first use; None without a
    working compiler (the callers then run their numpy stages)."""
    compiler = find_compiler()
    if compiler is None:
        return None
    scratch = None
    try:
        try:
            path = build(compiler, cache_dir())
        except OSError:
            scratch = tempfile.mkdtemp(prefix="repro-native-")
            path = build(compiler, Path(scratch))
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if scratch is not None:
            # A loaded library keeps its mapping after the file is gone.
            shutil.rmtree(scratch, ignore_errors=True)
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return lib


def loops_for(kernel: Kernel) -> PairLoops | None:
    """The compiled loops of ``kernel``, or None where it keeps numpy.

    Only a kernel whose profile the C source implements qualifies, and
    only when it evaluates the profile it names: a subclass that
    overrides the evaluation — ``_radial`` of a radial kernel, ``matrix``
    of any other — without naming its own profile keeps numpy.
    """
    method = "_radial" if isinstance(kernel, RadialKernel) else "matrix"
    mro = type(kernel).__mro__
    owner = next(c for c in mro if method in vars(c))
    named = next(c for c in mro if "profile" in vars(c))
    if not issubclass(named, owner):
        return None
    profile = kernel.profile()
    if profile is None or profile[0] not in PROFILES:
        return None
    lib = library()
    if lib is None:
        return None
    kind, dof = PROFILES[profile[0]]
    a, b = (float(c) for c in (*profile[1:], 0.0)[:2])
    return PairLoops(lib, kind, dof, a, b)


def _ptr(arr: np.ndarray) -> int:
    return arr.ctypes.data


def _array(arr: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``arr`` if it is C-contiguous float64 of ``shape``; else a
    :class:`ValueError` — a loop must never see a wrong layout."""
    if (
        not isinstance(arr, np.ndarray) or arr.dtype != np.float64
        or not arr.flags.c_contiguous or arr.shape != shape
    ):
        got = (getattr(arr, "dtype", type(arr)), getattr(arr, "shape", None))
        raise ValueError(
            f"compiled pair loop: {what} must be C-contiguous float64 of "
            f"shape {shape}, got {got}"
        )
    return arr


def _in_range(values: np.ndarray, lo: int, hi: int, what: str) -> None:
    if values.size and (values.min() < lo or values.max() >= hi):
        bad = int(np.flatnonzero((values < lo) | (values >= hi))[0])
        raise NativeIndexError(
            f"compiled pair loop: {what}[{bad}] = {int(values[bad])} is "
            f"outside [{lo}, {hi})"
        )


def check_blocks(
    blocks, n_partners: int, nboxes: int, n_targets: int | None,
    again: bool = False,
) -> None:
    """Check every index a loop reads from ``blocks`` (a
    :class:`~repro.core.plan.NearBlocks`) against the extents it will run
    over: target boxes ``< nboxes``, a monotone ``seg`` covering
    ``src_pos``, partners (points, or boxes for W) ``< n_partners``, and
    target ranges inside ``[0, n_targets]`` (None: not read, as in X).

    Each set of extents is checked once per block set unless ``again``;
    raises :class:`NativeIndexError` or :class:`ValueError`.
    """
    extents = (n_partners, nboxes, n_targets)
    if extents in blocks.checked and not again:
        return
    arrays = ["boxes", "seg", "src_pos"]
    if n_targets is not None:
        arrays += ["trg_start", "trg_stop"]
    for name in arrays:
        arr = getattr(blocks, name)
        if arr.dtype != np.int64 or not arr.flags.c_contiguous:
            raise ValueError(
                f"compiled pair loop: blocks.{name} must be C-contiguous "
                f"int64, got {arr.dtype}"
            )
    nblk, seg = blocks.boxes.size, blocks.seg
    if (
        seg.shape != (nblk + 1,) or seg[0] != 0
        or (np.diff(seg) < 0).any() or seg[-1] > blocks.src_pos.size
    ):
        raise NativeIndexError(
            f"compiled pair loop: blocks.seg must rise from 0 to at most "
            f"len(src_pos) = {blocks.src_pos.size} over {nblk} blocks"
        )
    _in_range(blocks.boxes, 0, nboxes, "blocks.boxes")
    _in_range(blocks.src_pos, 0, n_partners, "blocks.src_pos")
    if n_targets is not None:
        start, stop = blocks.trg_start, blocks.trg_stop
        if start.shape != (nblk,) or stop.shape != (nblk,):
            raise NativeIndexError(
                "compiled pair loop: one target range per block expected"
            )
        _in_range(start, 0, n_targets + 1, "blocks.trg_start")
        _in_range(stop, 0, n_targets + 1, "blocks.trg_stop")
        _in_range(stop - start, 0, n_targets + 1, "blocks.trg_stop - trg_start")
    blocks.checked.add(extents)


@dataclass(frozen=True)
class PairLoops:
    """The compiled U, W and X loops of one profile (:data:`PROFILES`):
    C code ``kind``, ``dof`` components per point, constants ``a``, ``b``.

    :meth:`u`, :meth:`w` and :meth:`x` bind a loop to one block set and
    its geometry, checking both now (:func:`check_blocks`), and return
    its ``run``.
    Each run checks the layout of its density and output arrays — the
    apply's ``phi[point, dof, rhs]``, ``ue[box, rhs, surface * dof]`` (or
    ``de[rhs, box, surface * dof]``), ``pot[rhs, target, dof]`` and
    ``dc[rhs, box, surface * dof]`` — repeats the index checks when bound
    with ``recheck`` (a sanitized apply), and makes one foreign call,
    during which the interpreter lock is released.
    """

    lib: ctypes.CDLL
    kind: int
    dof: int
    a: float
    b: float

    def _call(self, name: str, blocks, targets: bool, *args) -> None:
        ranges = (blocks.trg_start, blocks.trg_stop) if targets else ()
        status = getattr(self.lib, name)(
            self.kind, self.a, self.b, blocks.boxes.size,
            *map(_ptr, (blocks.boxes, *ranges, blocks.seg, blocks.src_pos)),
            *args,
        )
        if status:
            raise MemoryError(f"compiled pair loop {name}: no scratch memory")

    def u(
        self, blocks, centers: np.ndarray, targets: np.ndarray,
        sources: np.ndarray, recheck: bool,
    ) -> Callable[[np.ndarray, np.ndarray], None]:
        """U list: ``run(phi, pot)`` adds ``K(targets, partner sources)
        phi`` into ``pot``."""
        nb, nt, ns = centers.shape[0], targets.shape[0], sources.shape[0]
        dof = self.dof
        _array(centers, (nb, 3), "centers")
        _array(targets, (nt, 3), "targets")
        _array(sources, (ns, 3), "sources")
        check_blocks(blocks, ns, nb, nt)

        def run(phi: np.ndarray, pot: np.ndarray) -> None:
            nrhs = pot.shape[0]
            if recheck:
                check_blocks(blocks, ns, nb, nt, again=True)
            self._call(
                "near_u", blocks, True,
                _ptr(centers), _ptr(targets), _ptr(sources),
                _ptr(_array(phi, (ns, dof, nrhs), "phi")),
                _ptr(_array(pot, (nrhs, nt, dof), "pot")), nt, nrhs,
            )

        return run

    def w(
        self, blocks, centers: np.ndarray, radius: np.ndarray,
        grid: np.ndarray, targets: np.ndarray, recheck: bool,
        rhs_major: bool = False,
    ) -> Callable[[np.ndarray, np.ndarray], None]:
        """W list: ``run(ue, pot)`` adds ``K(targets, partner surfaces)
        ue`` into ``pot``; box ``b``'s surface is ``centers[b] +
        radius[b] * grid``.  ``rhs_major`` reads the densities as
        ``de[rhs, box, surface]`` (L2T) instead of ``ue[box, rhs,
        surface]``."""
        nb, nt, nsurf = centers.shape[0], targets.shape[0], grid.shape[0]
        width = nsurf * self.dof
        _array(centers, (nb, 3), "centers")
        _array(radius, (nb,), "radius")
        _array(grid, (nsurf, 3), "grid")
        _array(targets, (nt, 3), "targets")
        check_blocks(blocks, nb, nb, nt)

        def run(dens: np.ndarray, pot: np.ndarray) -> None:
            nrhs = pot.shape[0]
            if recheck:
                check_blocks(blocks, nb, nb, nt, again=True)
            if rhs_major:
                _array(dens, (nrhs, nb, width), "de")
                strides = width, nb * width
            else:
                _array(dens, (nb, nrhs, width), "ue")
                strides = nrhs * width, width
            self._call(
                "near_w", blocks, True,
                _ptr(centers), _ptr(radius), _ptr(grid), nsurf,
                _ptr(targets), _ptr(dens), *strides,
                _ptr(_array(pot, (nrhs, nt, self.dof), "pot")), nt, nrhs,
            )

        return run

    def x(
        self, blocks, centers: np.ndarray, sources: np.ndarray,
        check: np.ndarray, recheck: bool,
    ) -> Callable[[np.ndarray, np.ndarray], None]:
        """X list: ``run(phi, dc)`` adds ``K(check, partner sources)
        phi`` into each target box's row of ``dc``; ``check`` is the
        level's box-local check surface."""
        nb, ns, nsurf = centers.shape[0], sources.shape[0], check.shape[0]
        dof = self.dof
        _array(centers, (nb, 3), "centers")
        _array(sources, (ns, 3), "sources")
        _array(check, (nsurf, 3), "check")
        check_blocks(blocks, ns, nb, None)

        def run(phi: np.ndarray, dc: np.ndarray) -> None:
            nrhs = dc.shape[0]
            if recheck:
                check_blocks(blocks, ns, nb, None, again=True)
            self._call(
                "near_x", blocks, False,
                _ptr(centers), _ptr(sources),
                _ptr(_array(phi, (ns, dof, nrhs), "phi")), _ptr(check), nsurf,
                _ptr(_array(dc, (nrhs, nb, nsurf * dof), "dc")), nb, nrhs,
            )

        return run


def check_moves(rows: np.ndarray, nrows: int, perm: tuple) -> None:
    """Check what a movement loop dereferences: ``rows`` C-contiguous
    int64 inside ``[0, nrows)``, and ``perm = (idx, sgn)`` a signed
    permutation — ``idx`` C-contiguous int64 holding each of ``range(W)``
    once, ``sgn`` C-contiguous float64 of ``W`` entries.  Raises
    :class:`NativeIndexError` or :class:`ValueError`."""
    idx, sgn = perm
    for name, arr, dtype in (("rows", rows, np.int64), ("idx", idx, np.int64),
                             ("sgn", sgn, np.float64)):
        if arr.dtype != dtype or arr.ndim != 1 or not arr.flags.c_contiguous:
            raise ValueError(
                f"movement loop: {name} must be a C-contiguous vector of "
                f"{np.dtype(dtype)}, got {arr.dtype} of shape {arr.shape}"
            )
    _in_range(rows, 0, nrows, "rows")
    if sgn.size != idx.size:
        raise ValueError(
            f"movement loop: {sgn.size} signs for {idx.size} indices"
        )
    _in_range(idx, 0, idx.size, "idx")
    seen = np.bincount(idx, minlength=idx.size)
    if (seen != 1).any():
        bad = int(np.flatnonzero(seen != 1)[0])
        raise NativeIndexError(
            f"movement loop: idx is not a permutation of range({idx.size}): "
            f"{bad} occurs {int(seen[bad])} times"
        )


def _rows_of(ue: np.ndarray, nrows: int, w: int) -> None:
    """Refuse a source ``ue[box, rhs, W]`` a gather cannot stride
    through: float64, ``nrows`` boxes of ``W`` unit-stride entries, and
    non-negative box and right-hand-side strides of whole entries (a
    view, such as a transposed RHS-major buffer, is fine)."""
    if (
        not isinstance(ue, np.ndarray) or ue.dtype != np.float64
        or ue.ndim != 3 or ue.shape[0] != nrows or ue.shape[2] != w
        or ue.strides[2] != ue.itemsize
        or any(st < 0 or st % ue.itemsize for st in ue.strides[:2])
    ):
        got = (getattr(ue, "dtype", type(ue)), getattr(ue, "shape", None))
        raise ValueError(
            f"movement loop: ue must be float64 of shape ({nrows}, nrhs, "
            f"{w}) with unit stride along the last axis, got {got}"
        )


def _slab(out: np.ndarray, n: int, w: int) -> None:
    """Refuse a slab or product block a movement loop cannot write or
    read: C-contiguous float64 or float32 of shape ``(n, w)``."""
    if out.shape != (n, w) or out.dtype not in (
        np.float64, np.float32
    ) or not out.flags.c_contiguous:
        raise ValueError(
            f"movement loop: out must be C-contiguous float64 or "
            f"float32 of shape {(n, w)}, got {out.dtype} {out.shape}"
        )


@dataclass(frozen=True)
class MoveLoops:
    """The movement loops of the folded translations (M2M, the
    class-major V list, L2L): the compiled ``gather_perm`` /
    ``scatter_add_perm`` of ``lib``, or the numpy fold when ``lib`` is
    None (a host without a compiler) — their oracle, equal bit for bit:
    every entry is one exact signed product and, for the scatter, one
    rounded add.

    :meth:`gather` and :meth:`scatter_add` bind a loop to one group's
    rows and signed permutation ``(idx, sgn)``, checking both now
    (:func:`check_moves`) and resolving their addresses once, and return
    its ``run``; each run checks the layout of its arrays, and again the
    indices when bound with ``recheck`` (a sanitized apply).
    """

    lib: ctypes.CDLL | None

    def gather(
        self, rows: np.ndarray, nrows: int, perm: tuple, recheck: bool,
    ) -> Callable[..., np.ndarray]:
        """``run(ue, r, dtype, out)``: the slab ``sgn * ue[rows, r][:,
        idx]`` of right-hand side ``r`` of ``ue[box, rhs, W]`` (``nrows``
        boxes), into ``out`` (C-contiguous ``(rows, W)``) or a fresh
        array of ``dtype`` (float64, or float32 for mixed-precision
        factors)."""
        check_moves(rows, nrows, perm)
        idx, sgn = perm
        n, w = rows.size, idx.size
        bound = _ptr(rows), _ptr(idx), _ptr(sgn)

        def run(ue: np.ndarray, r: int, dtype=np.float64,
                out: np.ndarray | None = None) -> np.ndarray:
            if recheck:
                check_moves(rows, nrows, perm)
            if out is None:
                out = np.empty((n, w), dtype)
            _slab(out, n, w)
            if self.lib is None:  # row-major, as compiled
                return np.multiply(np.take(ue[rows, r], idx, axis=1), sgn,
                                   out=out)
            _rows_of(ue, nrows, w)
            if not 0 <= r < ue.shape[1]:
                raise NativeIndexError(
                    f"movement loop: right-hand side {r} of {ue.shape[1]}")
            self.lib.gather_perm(
                n, bound[0], _ptr(ue) + r * ue.strides[1],
                ue.strides[0] // ue.itemsize, w, *bound[1:], _ptr(out),
                int(out.dtype == np.float32),
            )
            return out

        return run

    def scatter_add(
        self, rows: np.ndarray, nrows: int, perm: tuple, recheck: bool,
    ) -> Callable[[np.ndarray, np.ndarray], None]:
        """``run(dc, out)``: ``dc[rows] += sgn * out[:, idx]`` for one
        right-hand side's check rows ``dc`` (``(nrows, W)``) and the
        ``(rows, W)`` products ``out`` (float64 or float32)."""
        check_moves(rows, nrows, perm)
        idx, sgn = perm
        n, w = rows.size, idx.size
        bound = _ptr(rows), _ptr(idx), _ptr(sgn)

        def run(dc: np.ndarray, out: np.ndarray) -> None:
            if recheck:
                check_moves(rows, nrows, perm)
            if self.lib is None:
                dc[rows] += out[:, idx] * sgn
                return
            _array(dc, (nrows, w), "dc")
            _slab(out, n, w)
            self.lib.scatter_add_perm(
                n, bound[0], _ptr(out), int(out.dtype == np.float32), w,
                *bound[1:], _ptr(dc), w,
            )

        return run

    def bind(
        self, groups: list, fold: Callable, nsrc: int, ndst: int,
        recheck: bool,
    ) -> list[tuple]:
        """Both loops bound to every group ``(key, src_rows, dst_rows)``
        of a folded translation — an offset of a class-major V pass, an
        octant of an M2M or L2L level: ``(operator, gather run,
        scatter-add run)`` per group, gathering from the ``src_rows`` of
        a source of ``nsrc`` boxes and adding into the ``dst_rows`` of a
        destination of ``ndst``, through ``fold(key) = (operator, gather,
        scatter)`` (:meth:`~repro.core.precompute.OperatorCache.m2l_fold`,
        :meth:`~repro.core.precompute.OperatorCache.octant_fold`)."""
        bound = []
        for key, src_rows, dst_rows in groups:
            operator, gather, scatter = fold(key)
            bound.append((
                operator,
                self.gather(src_rows, nsrc, gather, recheck),
                self.scatter_add(dst_rows, ndst, scatter, recheck),
            ))
        return bound


def move_loops() -> MoveLoops:
    """The folded translations' movement loops: compiled wherever the
    pair loops' library builds, the numpy fold elsewhere."""
    return MoveLoops(library())
