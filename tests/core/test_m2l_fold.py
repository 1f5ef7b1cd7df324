"""One operator per symmetry class: the folded translations.

The cache keeps the dense or compressed M2L operator of the canonical
offset of each cube-symmetry class only; the class-major V stage reads
another offset ``o = Q c`` of the class as ``M_o = T M_c T^T`` by
gathering its source rows through ``T`` and scatter-adding its products
through ``T^T`` (``OperatorCache.m2l_fold``, ``native.MoveLoops``).  The
oracle is the moved operator itself (``OperatorCache._moved``, which the
blocked stacks are cut from and the fold tables are read off), on a
tree the directly evaluated per-offset operators, and the compiled
movement loops must equal the numpy fold bit for bit.  M2M and L2L do
the same with the child octants: octant ``o``'s operator is ``R_o M_0
R_o``, ``R_o`` the reflection in the axes of ``o``'s set bits
(``OperatorCache.octant_fold``), checked against every octant's
directly evaluated operator.  Without a compiler the fold tests run the
numpy path, which is then the stage's own.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro import KIFMM, FMMOptions
from repro.bie.surfaces import SphereSurface
from repro.core.evaluator import PlanStages
from repro.core.plan import split_v_level
from repro.core.precompute import OperatorCache, canonical_offset, octant_offset
from repro.kernels import (
    Laplace2DKernel,
    LaplaceKernel,
    ModifiedLaplaceKernel,
    NavierKernel,
    Stokes2DKernel,
    StokesKernel,
    native,
)

from tests.conftest import clustered_cloud
from tests.core.test_v_blocked import UndeclaredLaplace

KERNELS = {
    "laplace": LaplaceKernel(),
    "mod_laplace": ModifiedLaplaceKernel(1.5),
    "stokes": StokesKernel(0.7),
    "navier": NavierKernel(1.3, 0.2),
    "laplace2d": Laplace2DKernel(),
    "stokes2d": Stokes2DKernel(),
}
COMPILED = native.library() is not None
LEVEL = 2


def v_offsets(dim: int) -> list[tuple[int, ...]]:
    """Every V-list offset: components in [-3, 3], one of size >= 2."""
    return [
        o for o in itertools.product(range(-3, 4), repeat=dim)
        if max(abs(c) for c in o) >= 2
    ]


def per_target_error(got: np.ndarray, want: np.ndarray) -> float:
    """The largest relative difference of one target's row."""
    scale = np.linalg.norm(want, axis=-1)
    return float((np.linalg.norm(got - want, axis=-1) / scale).max())


def fold(loops, cache, offset, ue, src, trg, dense, dtype="float64"):
    """``offset``'s check rows through its class's operator, as the
    class-major stage computes them."""
    canonical, gather, scatter = cache.m2l_fold(offset)
    dc = np.zeros((ue.shape[0], cache.n_surf * cache.kernel.target_dof))
    run_gather = loops.gather(src, ue.shape[0], gather, False)
    run_scatter = loops.scatter_add(trg, dc.shape[0], scatter, False)
    if dense:
        out = run_gather(ue, 0) @ cache.m2l_check(LEVEL, canonical).T
    else:
        uf, vf = cache.m2l_rsvd(LEVEL, canonical, dtype)
        out = (run_gather(ue, 0, vf.dtype) @ vf.T) @ uf.T
    run_scatter(dc, out)
    return dc


def moved(cache, offset, ue, src, trg, dense):
    """The same rows through the offset's own moved operator."""
    dc = np.zeros((ue.shape[0], cache.n_surf * cache.kernel.target_dof))
    if dense:
        canonical, axes, signs = canonical_offset(offset)
        m = cache._moved(cache.m2l_check(LEVEL, canonical), axes, signs)
        dc[trg] += ue[src, 0] @ cache._moved(m, axes, signs, axis=1).T
    else:
        uf, vf = cache.m2l_rsvd(LEVEL, offset)
        dc[trg] += (ue[src, 0] @ vf.T) @ uf.T
    return dc


@pytest.fixture(scope="module", params=[4, 6], ids=["p4", "p6"])
def caches(request):
    return {
        name: OperatorCache(kernel, request.param, 2.0)
        for name, kernel in KERNELS.items()
    }


@pytest.mark.parametrize("dense", [False, True], ids=["rsvd", "dense"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_fold_is_the_moved_operator_for_every_offset(caches, name, dense):
    """Every V offset, per target within 1e-13 of the moved operator's
    product — on the compiled loops where they exist, else numpy."""
    cache = caches[name]
    rng = np.random.default_rng(1)
    width = cache.n_surf * cache.kernel.source_dof
    ue = rng.standard_normal((9, 1, width))
    src = np.array([7, 0, 3, 5], dtype=np.int64)
    trg = np.array([2, 8, 1, 4], dtype=np.int64)
    loops = native.move_loops()
    offsets = v_offsets(cache.dim)
    assert len({canonical_offset(o)[0] for o in offsets}) == (
        16 if cache.dim == 3 else 7
    )
    for offset in offsets:
        got = fold(loops, cache, offset, ue, src, trg, dense)
        want = moved(cache, offset, ue, src, trg, dense)
        assert per_target_error(got[trg], want[trg]) <= 1e-13, offset
        assert not got[np.setdiff1d(np.arange(9), trg)].any()


@pytest.mark.skipif(not COMPILED, reason="no C compiler on this host")
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_compiled_loops_are_the_numpy_fold_bit_for_bit(name):
    """Through the GEMMs too, so the slab layouts must agree: a signed
    product is exact and each check entry one rounded add."""
    cache = OperatorCache(KERNELS[name], 4, 2.0)
    rng = np.random.default_rng(2)
    width = cache.n_surf * cache.kernel.source_dof
    ue = rng.standard_normal((9, 1, width))
    src = np.array([7, 0, 3, 5, 1], dtype=np.int64)
    trg = np.array([2, 8, 1, 4, 0], dtype=np.int64)
    compiled, numpy = native.MoveLoops(native.library()), native.MoveLoops(None)
    for offset in v_offsets(cache.dim)[::3]:
        for dense, dtype in ((True, "float64"), (False, "float64"),
                             (False, "float32")):
            args = (cache, offset, ue, src, trg, dense, dtype)
            assert np.array_equal(
                fold(compiled, *args), fold(numpy, *args)
            ), (offset, dense, dtype)


def class_major(fmm, loops, monkeypatch, backend="rsvd", dtype="float64"):
    """Every V level of ``fmm``'s tree through the class-major stage on
    ``loops``, and the moved-operator oracle of the same pairs."""
    monkeypatch.setattr(native, "move_loops", lambda: loops)
    state = fmm.state
    plan, cache = state.plan, state.cache
    sched = dataclasses.replace(
        state.m2l_schedule, blocked=False, dtype=dtype,
        backends={lvl: backend for lvl in state.m2l_schedule.backends},
    )
    stages = PlanStages(plan, state.kernel, cache, state.kernels, sched,
                        state.ext_points)
    rng = np.random.default_rng(3)
    md, qd = state.kernel.source_dof, state.kernel.target_dof
    ue = rng.standard_normal((plan.nboxes, 2, cache.n_surf * md))
    dc = np.zeros((2, plan.nboxes, cache.n_surf * qd))
    oracle = np.zeros_like(dc)
    for vl in plan.v_levels:
        sp = split_v_level(vl, np.ones(vl.src_boxes.size, bool), False)
        stages.v_direct(vl, sp.own, ue, dc)
        for offset, spos, tpos in vl.classes:
            if backend == "dense":
                op = cache.m2l_check(vl.level, offset)
            else:
                uf, vf = cache.m2l_rsvd(vl.level, offset)
                op = uf @ vf
            for r in range(2):
                oracle[r][vl.trg_boxes[tpos]] += ue[vl.src_boxes[spos], r] @ op.T
    return dc, oracle


@pytest.mark.parametrize("backend", ["rsvd", "dense"])
@pytest.mark.parametrize("name", ["laplace", "stokes"])
def test_stage_on_a_tree(rng, monkeypatch, name, backend):
    """The stage itself over a corner tree's V levels: within 1e-12 of
    the per-offset operators (the dense ones evaluated directly), and
    the compiled loops' bits are the numpy fold's."""
    kernel = KERNELS[name]
    pts = clustered_cloud(rng, 1200)
    fmm = KIFMM(kernel, FMMOptions(p=4, max_points=20, m2l=backend))
    fmm.setup(pts)
    got, oracle = class_major(fmm, native.move_loops(), monkeypatch, backend)
    rows = np.abs(oracle).sum(axis=-1) > 0
    assert rows.any()
    assert per_target_error(got[rows], oracle[rows]) <= 1e-12
    assert not got[~rows].any()
    if COMPILED:
        again, _ = class_major(fmm, native.MoveLoops(None), monkeypatch,
                               backend)
        assert np.array_equal(got, again)


def table_nbytes(cache) -> dict[str, int]:
    """Bytes of every operator table of a cache."""

    def size(value) -> int:
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, (tuple, list)):
            return sum(size(v) for v in value)
        return 0

    return {
        name: sum(size(v) for v in table.values())
        for name, table in vars(cache).items() if isinstance(table, dict)
    }


def surface_points() -> np.ndarray:
    return np.vstack([
        SphereSurface(np.array([0.6, 0.0, 1.4]), radius=0.4, n=150).points,
        SphereSurface(np.array([-0.3, 0.2, 0.0]), radius=0.5, n=180).points,
    ])


def test_class_major_stokes_keeps_canonical_operators_only(rng):
    """A p = 6 Stokes operator on surfaces (class-major rsvd): canonical
    factors only, at most 16 per reference level, no dense check
    matrix, and a second apply grows no table."""
    pts = surface_points()
    fmm = KIFMM(StokesKernel(), FMMOptions(p=6, max_points=40)).setup(pts)
    described = fmm.state.m2l_schedule.describe()
    assert described["rsvd_layout"] == "class-major"
    assert set(described["levels"].values()) == {"rsvd"}
    phi = rng.standard_normal((pts.shape[0], 3))
    fmm.apply(phi)
    cache = fmm.cache
    keys = list(cache._m2l_rsvd)
    assert keys and all(canonical_offset(o)[0] == o for _, o in keys)
    for level in {lvl for lvl, _ in keys}:
        assert sum(lvl == level for lvl, _ in keys) <= 16
    assert not cache._m2l
    # M2M / L2L: octant 0 at the one reference level of a homogeneous
    # kernel; the octants' reflections are elements of the same group.
    assert list(cache._m2m) == list(cache._l2l) == [(1, 0)]
    assert 0 < len(cache._fold) <= 48
    sizes = table_nbytes(cache)
    fmm.apply(phi)
    assert table_nbytes(cache) == sizes


@pytest.mark.parametrize("kernel", [ModifiedLaplaceKernel(1.5),
                                    UndeclaredLaplace()],
                         ids=["per-level", "no-symmetry"])
def test_octant_tables_per_kernel(rng, kernel):
    """Per level (an inhomogeneous kernel) octant 0 only, one key per
    level; without a declared symmetry all ``2^d`` octants, and only
    the identity fold.  A second apply grows no table."""
    pts = clustered_cloud(rng, 3000)
    fmm = KIFMM(kernel, FMMOptions(p=4, max_points=20)).setup(pts)
    phi = rng.standard_normal((3000, 1))
    fmm.apply(phi)
    cache = fmm.cache
    for table in (cache._m2m, cache._l2l):
        levels = sorted({lvl for lvl, _ in table})
        if kernel.symmetry is None:
            assert sorted(table) == [(1, o) for o in range(8)]
        else:
            assert sorted(table) == [(lvl, 0) for lvl in levels]
            assert len(levels) >= 2
    if kernel.symmetry is None:
        assert list(cache._fold) == [((0, 1, 2), (1, 1, 1))]
    sizes = table_nbytes(cache)
    fmm.apply(phi)
    assert table_nbytes(cache) == sizes


def direct_operator(cache, name, level, octant):
    """Octant ``octant``'s M2M or L2L check operator into or out of a
    box at ``level``, evaluated directly on its own surfaces."""
    origin = cache.origin
    child = octant_offset(octant, cache.dim) * cache.half_width(level - 1)
    if name == "m2m":
        return cache.kernel.matrix(cache.up_check_points(origin, level - 1),
                                   cache.up_equiv_points(child, level))
    return cache.kernel.matrix(cache.down_check_points(child, level),
                               cache.down_equiv_points(origin, level - 1))


def octant_fold(loops, cache, name, octant, x, src, trg):
    """``octant``'s products through the operator it is stored as, as
    the M2M / L2L stages compute them."""
    stored, gather, scatter = cache.octant_fold(octant)
    op, factor = cache.reference(f"{name}_check", LEVEL, stored)
    out = loops.gather(src, x.shape[0], gather, False)(x, 0) @ op.T
    out *= factor
    dst = np.zeros((x.shape[0], op.shape[0]))
    loops.scatter_add(trg, dst.shape[0], scatter, False)(dst, out)
    return dst


@pytest.mark.parametrize("op", ["m2m", "l2l"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_octant_fold_is_the_direct_operator(caches, name, op):
    """Every octant, per target within 1e-13 of its directly evaluated
    operator, folded through octant 0's (``R_o M_0 R_o``) — on the
    compiled loops where they exist, else numpy — and through the
    operator ``m2m_check`` / ``l2l_check`` move afresh; only octant 0
    is stored (per level for an inhomogeneous kernel: modified Laplace,
    Laplace2D)."""
    cache = caches[name]
    rng = np.random.default_rng(4)
    ue = rng.standard_normal((9, 1, cache.n_surf * cache.kernel.source_dof))
    src = np.array([7, 0, 3, 5], dtype=np.int64)
    trg = np.array([2, 8, 1, 4], dtype=np.int64)
    loops = native.move_loops()
    for octant in range(1 << cache.dim):
        want = np.zeros((9, cache.n_surf * cache.kernel.target_dof))
        direct = direct_operator(cache, op, LEVEL, octant)
        want[trg] = ue[src, 0] @ direct.T
        got = octant_fold(loops, cache, op, octant, ue, src, trg)
        assert per_target_error(got[trg], want[trg]) <= 1e-13, octant
        assert not got[np.setdiff1d(np.arange(9), trg)].any()
        moved = getattr(cache, f"{op}_check")(LEVEL, octant)
        assert per_target_error(ue[src, 0] @ moved.T, want[trg]) <= 1e-13
    key = LEVEL if cache.kernel.homogeneity is None else 1
    assert (key, 0) in getattr(cache, f"_{op}")
    assert all(o == 0 for _, o in getattr(cache, f"_{op}"))


@pytest.mark.skipif(not COMPILED, reason="no C compiler on this host")
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_compiled_octant_folds_are_the_numpy_fold_bit_for_bit(name):
    cache = OperatorCache(KERNELS[name], 4, 2.0)
    rng = np.random.default_rng(5)
    ue = rng.standard_normal((9, 1, cache.n_surf * cache.kernel.source_dof))
    src = np.array([7, 0, 3, 5, 1], dtype=np.int64)
    trg = np.array([2, 8, 1, 4, 0], dtype=np.int64)
    compiled, numpy = native.MoveLoops(native.library()), native.MoveLoops(None)
    for op in ("m2m", "l2l"):
        for octant in range(1 << cache.dim):
            args = (cache, op, octant, ue, src, trg)
            assert np.array_equal(
                octant_fold(compiled, *args), octant_fold(numpy, *args)
            ), (op, octant)


def by_octant(fmm, loops, monkeypatch):
    """Every M2M and L2L level of ``fmm``'s tree through the stages on
    ``loops``, and the per-octant direct operators' oracle."""
    monkeypatch.setattr(native, "move_loops", lambda: loops)
    state = fmm.state
    plan, cache = state.plan, state.cache
    stages = PlanStages(plan, state.kernel, cache, state.kernels,
                        state.m2l_schedule, state.ext_points)
    rng = np.random.default_rng(6)
    md, qd = state.kernel.source_dof, state.kernel.target_dof
    ue = rng.standard_normal((plan.nboxes, 2, cache.n_surf * md))
    de = rng.standard_normal((2, plan.nboxes, cache.n_surf * md))
    got, oracle = [], []
    for ul in plan.up_levels:
        if not ul.m2m_groups:
            continue
        ul.memo.clear()  # bind on ``loops``
        check = np.zeros((2, ul.boxes.size, cache.n_surf * qd))
        stages.m2m(ul, ue, check)
        want = np.zeros_like(check)
        for octant, kids, rows in ul.m2m_groups:
            op = direct_operator(cache, "m2m", ul.level + 1, octant)
            for r in range(2):
                want[r][rows] += ue[kids, r] @ op.T
        got.append(check)
        oracle.append(want)
    for dl in plan.down_levels:
        if not dl.l2l_groups:
            continue
        dl.memo.clear()
        dc = np.zeros((2, plan.nboxes, cache.n_surf * qd))
        stages.l2l(dl, de, dc)
        want = np.zeros_like(dc)
        for octant, kids, parents in dl.l2l_groups:
            op = direct_operator(cache, "l2l", dl.level, octant)
            for r in range(2):
                want[r][kids] += de[r][parents] @ op.T
        got.append(dc)
        oracle.append(want)
    return got, oracle


@pytest.mark.parametrize("name", ["laplace", "stokes", "mod_laplace"])
def test_octant_stages_on_a_tree(rng, monkeypatch, name):
    """The M2M and L2L stages over a corner tree's levels (several
    levels, so the homogeneous rescaling too): within 1e-12 per target
    of every octant's directly evaluated operator, and the compiled
    loops' bits are the numpy fold's."""
    pts = clustered_cloud(rng, 1200)
    fmm = KIFMM(KERNELS[name], FMMOptions(p=4, max_points=20)).setup(pts)
    got, oracle = by_octant(fmm, native.move_loops(), monkeypatch)
    assert len(got) >= 4
    for g, o in zip(got, oracle):
        rows = np.abs(o).sum(axis=-1) > 0
        assert rows.any()
        assert per_target_error(g[rows], o[rows]) <= 1e-12
        assert not g[~rows].any()
    if COMPILED:
        again, _ = by_octant(fmm, native.MoveLoops(None), monkeypatch)
        assert all(np.array_equal(g, a) for g, a in zip(got, again))


def test_dense_levels_keep_canonical_check_matrices_only(rng):
    pts = clustered_cloud(rng, 800)
    fmm = KIFMM(StokesKernel(), FMMOptions(p=4, max_points=20, m2l="dense"))
    fmm.setup(pts).apply(rng.standard_normal((800, 3)))
    keys = list(fmm.cache._m2l)
    assert keys and all(canonical_offset(o)[0] == o for _, o in keys)
    assert not fmm.cache._m2l_rsvd
