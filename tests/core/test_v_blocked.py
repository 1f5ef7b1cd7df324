"""The parent-pair-blocked rsvd V stage.

``v_blocked`` must compute exactly what the class-major stage computes —
the same factors, stacked by direction and run through sibling slabs —
on every kind of tree (full blocks, half-empty blocks, missing
siblings), for every symmetry class of kernel (scalar and tensor
reflections, per-level stacks, no symmetry at all), in every pass
structure a rank can have (owned + ghost, coarse split), and which
layout an operator runs must be a pure function of plan statistics.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import m2lschedule
from repro.core.evaluator import PlanStages
from repro.core.fmm import FMMOptions, KIFMM
from repro.core.m2lschedule import (
    resolve_m2l_schedule,
    rsvd_layout_seconds,
    v_stats_from_lists,
    v_stats_from_plan,
)
from repro.core.plan import block_slots, build_plan, split_v_level
from repro.core.precompute import OperatorCache, canonical_offset
from repro.geometry.distributions import corner_clusters, uniform_cube
from repro.geometry.spheres import sample_sphere
from repro.kernels import LaplaceKernel, ModifiedLaplaceKernel, StokesKernel
from repro.kernels.direct import relative_error
from repro.octree import build_lists, build_tree
from repro.parallel import ParallelFMM

from tests.conftest import coarse_v_levels


class UndeclaredLaplace(LaplaceKernel):
    """Laplace without its symmetry: every offset its own class, stacks
    for all 26 directions, no reflection."""

    symmetry = None


def missing_siblings(n, rng):
    """Uniform points with one octant of every level-2 cell emptied."""
    pts = rng.uniform(-1.0, 1.0, (2 * n, 3))
    inside = np.mod((pts + 1.0) * 2.0, 1.0)  # position in its level-2 cell
    return pts[~(inside > 0.5).all(axis=1)][:n]


def two_clusters(n, rng):
    """Two boxes per coarse level: V level 2 has fewer boxes than ranks
    at P = 8."""
    return np.vstack([
        rng.uniform(0.0, 0.12, (n // 2, 3)), rng.uniform(0.88, 1.0, (n // 2, 3))
    ])


CLOUDS = {
    "uniform": lambda n, rng: uniform_cube(n, rng),
    "corners": lambda n, rng: corner_clusters(n, rng),
    "sphere": lambda n, rng: sample_sphere(np.zeros(3), 1.0, n, "fibonacci"),
    "missing-sibling": missing_siblings,
}
KERNELS = {
    "laplace": LaplaceKernel(),
    "stokes": StokesKernel(mu=0.7),
    "modified-laplace": ModifiedLaplaceKernel(lam=1.5),
    "no-symmetry": UndeclaredLaplace(),
}


@pytest.fixture
def layout(monkeypatch):
    """Force the layout decision: ``layout(True)`` for blocked."""
    def force(blocked: bool) -> None:
        monkeypatch.setattr(
            m2lschedule, "rsvd_layout_seconds",
            lambda *a: (1.0, 0.0) if blocked else (0.0, 1.0),
        )
    return force


def v_contributions(fmm, ue, dtype="float64"):
    """``dc`` after the V list alone: blocked, class-major, and the
    factors multiplied out pair class by pair class."""
    state = fmm.state
    plan, cache = state.plan, state.cache
    nrhs = ue.shape[1]
    out = {}
    for name, blocked in (("blocked", True), ("class-major", False)):
        sched = dataclasses.replace(
            state.m2l_schedule, blocked=blocked, dtype=dtype
        )
        stages = PlanStages(
            plan, state.kernel, cache, state.kernels, sched,
            state.ext_points,
        )
        dc = np.zeros((nrhs, plan.nboxes, cache.n_surf * state.kernel.target_dof))
        for vl in plan.v_levels:
            ones = np.ones(vl.src_boxes.size, bool)
            sp = split_v_level(vl, ones, True)
            if blocked:
                stages.v_blocked(vl, sp.own, 0, ue, dc)
            else:
                stages.v_direct(vl, sp.own, ue, dc)
        out[name] = dc
    dense = np.zeros_like(out["blocked"])
    for vl in plan.v_levels:
        for offset, spos, tpos in vl.classes:
            uf, vf = cache.m2l_rsvd(vl.level, offset)
            T = (uf @ vf).T
            for r in range(nrhs):
                dense[r][vl.trg_boxes[tpos]] += ue[vl.src_boxes[spos], r] @ T
    out["dense"] = dense
    return out


@pytest.mark.parametrize("cloud", CLOUDS)
@pytest.mark.parametrize("kname", KERNELS)
def test_blocked_is_class_major_is_dense(kname, cloud):
    rng = np.random.default_rng(7)
    kernel = KERNELS[kname]
    pts = CLOUDS[cloud](700, rng)
    fmm = KIFMM(kernel, FMMOptions(p=4, max_points=12, m2l="rsvd")).setup(pts)
    plan = fmm.state.plan
    assert plan.v_levels
    ue = rng.standard_normal(
        (plan.nboxes, 1, fmm.cache.n_surf * kernel.source_dof)
    )
    dc = v_contributions(fmm, ue)
    top = np.abs(dc["dense"]).max()
    assert np.abs(dc["blocked"] - dc["dense"]).max() < 1e-12 * top
    assert np.abs(dc["class-major"] - dc["dense"]).max() < 1e-12 * top
    if cloud != "uniform":  # some block has an empty or missing slot
        stats = v_stats_from_plan(plan)
        assert any(s[0] < s[4] for s in stats.values())


def test_stage_columns_bit_identical_and_float32_accumulates_in_double():
    rng = np.random.default_rng(8)
    kernel = StokesKernel(mu=0.7)
    fmm = KIFMM(kernel, FMMOptions(p=4, max_points=15, m2l="rsvd")).setup(
        corner_clusters(500, rng)
    )
    nb, width = fmm.state.plan.nboxes, fmm.cache.n_surf * 3
    ue = rng.standard_normal((nb, 3, width))
    block = v_contributions(fmm, ue)["blocked"]
    for r in range(3):
        single = v_contributions(fmm, np.ascontiguousarray(ue[:, r : r + 1]))
        assert np.array_equal(block[r], single["blocked"][0])
    narrow = v_contributions(fmm, ue, dtype="float32")
    assert narrow["blocked"].dtype == np.float64
    err = relative_error(narrow["blocked"], block)
    assert 0.0 < err < 1e-5
    assert relative_error(narrow["blocked"], narrow["class-major"]) < 1e-5


@pytest.mark.parametrize("kname", ["laplace", "stokes"])
def test_blocked_apply_matches_class_major(kname, layout):
    """Through the whole operator: potentials agree to round-off times
    the inversions' conditioning, columns to the multi-RHS budget, and
    the flop ledger is the useful pair flops either way."""
    rng = np.random.default_rng(9)
    kernel = KERNELS[kname]
    pts = missing_siblings(900, rng)
    phi = rng.standard_normal((len(pts), kernel.source_dof, 3))
    opts = FMMOptions(p=4, max_points=15, m2l="rsvd")
    layout(True)
    blocked = KIFMM(kernel, opts).setup(pts)
    layout(False)
    by_class = KIFMM(kernel, opts).setup(pts)
    assert blocked.m2l_schedule.blocked and not by_class.m2l_schedule.blocked
    assert blocked.m2l_schedule.describe()["levels"] == (
        by_class.m2l_schedule.describe()["levels"]
    )
    u = blocked.apply(phi)
    assert relative_error(u, by_class.apply(phi)) < 1e-10
    assert blocked.statistics()["flops"] == by_class.statistics()["flops"]
    for r in range(3):
        assert relative_error(u[:, :, r], blocked.apply(phi[:, :, r])) < 1e-12


def test_blocked_cache_holds_canonical_factors_only(layout):
    """Neither the apply, nor the flop thunk, nor the rank probe builds
    a moved per-class pair: the stacks are cut from the 16 canonical
    factors, and that is all the cache keeps."""
    layout(True)
    rng = np.random.default_rng(10)
    pts = uniform_cube(800, rng)
    fmm = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=12, m2l="rsvd"))
    fmm.setup(pts).apply(rng.standard_normal((800, 1)))
    keys = list(fmm.cache._m2l_rsvd)
    assert keys and len(keys) <= 16
    assert all(canonical_offset(off)[0] == off for _, off in keys)
    assert fmm.cache.m2l_rsvd_rank(3, (-2, 1, -3)) == fmm.cache.m2l_rsvd_rank(
        3, (3, 2, 1)
    )
    assert list(fmm.cache._m2l_rsvd) == keys
    assert len({k[1] for k in fmm.cache._m2l_stacks}) == 7


def test_rescaled_cache_reproduces_a_fresh_one(layout):
    """``for_root`` carries the stacks (the U side rescaled like
    ``uf``) to a moved geometry."""
    layout(True)
    rng = np.random.default_rng(11)
    pts = uniform_cube(700, rng)
    phi = rng.standard_normal((700, 1))
    opts = FMMOptions(p=4, max_points=12, m2l="rsvd")
    first = KIFMM(LaplaceKernel(), opts).setup(pts)
    first.apply(phi)
    moved = KIFMM(LaplaceKernel(), opts).setup(3.0 * pts, cache=first.cache)
    assert moved.cache is not first.cache and moved.cache._m2l_stacks
    stacks = dict(moved.cache._m2l_stacks)
    fresh = KIFMM(LaplaceKernel(), opts).setup(3.0 * pts)
    assert relative_error(moved.apply(phi), fresh.apply(phi)) < 1e-10
    assert all(moved.cache._m2l_stacks[k] is v for k, v in stacks.items())


def test_float32_cache_keeps_one_copy_of_the_stacks(layout):
    """A float32 blocked cache casts its stacks from a transient float64
    build: it holds no float64 stacks, and the ones it holds are the
    float64 stacks cast, bit for bit — so its potentials are too."""
    layout(True)
    rng = np.random.default_rng(13)
    pts = uniform_cube(800, rng)
    phi = rng.standard_normal((800, 1))
    opts = FMMOptions(p=4, max_points=12, m2l="rsvd", dtype="float32")
    fmm = KIFMM(LaplaceKernel(), opts).setup(pts)
    u = fmm.apply(phi)
    stacks = dict(fmm.cache._m2l_stacks)
    assert stacks and {k[2] for k in stacks} == {"float32"}
    for (key, direction, _), (V, UT, *cuts) in stacks.items():
        _, V64, UT64, *cuts64 = fmm.cache.m2l_stacks(key, direction)
        assert np.array_equal(V, V64.astype(np.float32))
        assert np.array_equal(UT, UT64.astype(np.float32))
        assert all(np.array_equal(a, b) for a, b in zip(cuts[:2], cuts64[:2]))
    assert np.array_equal(KIFMM(LaplaceKernel(), opts).setup(pts).apply(phi), u)


@pytest.mark.parametrize("nranks", [2, 4])
def test_owned_and_ghost_passes_match_sequential(nranks, layout):
    layout(True)
    rng = np.random.default_rng(12)
    pts = uniform_cube(1200, rng)
    phi = rng.standard_normal((1200, 1))
    opts = FMMOptions(p=4, max_points=12, m2l="rsvd")
    seq = KIFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    par = ParallelFMM(nranks, LaplaceKernel(), opts).setup(pts)
    assert all(
        s.m2l_schedule.blocked
        and any(sp.own.npairs for sp in s.v_by_owner)
        and any(sp.ghost.npairs for sp in s.v_by_owner)
        for s in par.states
    )
    # Identical factors, blocks chunked by pass: round-off only (the
    # inversions condition it by ~1e3 at p = 4).
    assert relative_error(par.apply(phi), seq) < 1e-12
    if nranks == 4:
        nooverlap = ParallelFMM(4, LaplaceKernel(), opts, overlap=False)
        assert np.array_equal(nooverlap.setup(pts).apply(phi), par.apply(phi))


def test_coarse_split_level_and_sanitized_ghost_rows(layout):
    """P = 8 on two clusters leaves V level 2 with fewer boxes than
    ranks, which every contributor computes; sanitized, the rows of
    ghost boxes not yet delivered are NaN behind the sentinel."""
    layout(True)
    rng = np.random.default_rng(13)
    pts = two_clusters(400, rng)
    phi = rng.standard_normal((400, 1))
    opts = FMMOptions(p=4, max_points=12, m2l="rsvd")
    seq = KIFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    par = ParallelFMM(8, LaplaceKernel(), opts).setup(pts)
    assert 2 in coarse_v_levels(par.states[0].tree, 8)
    assert relative_error(par.apply(phi), seq) < 1e-12
    clean = ParallelFMM(
        4, LaplaceKernel(), dataclasses.replace(opts, sanitize=True)
    ).setup(pts).apply(phi)
    assert relative_error(clean, seq) < 1e-12


def test_blocked_steps_declare_like_class_major(layout):
    rng = np.random.default_rng(14)
    pts = uniform_cube(600, rng)
    steps = {}
    for blocked in (True, False):
        layout(blocked)
        opts = FMMOptions(p=4, max_points=12, m2l="rsvd", dtype="float32")
        state = KIFMM(LaplaceKernel(), opts).setup(pts).state
        steps[blocked] = [
            s for s in state.compile().steps if s.phase == "down_v"
        ]
    assert [s.stage for s in steps[True]] == ["v_blocked"] * len(steps[True])
    for new, old in zip(steps[True], steps[False], strict=True):
        assert (new.name, new.reads, new.writes, new.dtype, new.narrowing) == (
            old.name, old.reads, old.writes, "float32", True
        )
        assert new.flops_per_rhs() == old.flops_per_rhs()


def test_layout_is_a_function_of_plan_statistics():
    """Dense uniform Laplace trees run blocked, a 3-level Stokes surface
    tree class-major, from statistics and operator sizes alone."""
    rng = np.random.default_rng(15)
    laplace, stokes = LaplaceKernel(), StokesKernel()
    tree = build_tree(uniform_cube(20_000, rng), max_points=60)
    lists = build_lists(tree)
    stats = v_stats_from_plan(build_plan(tree, lists))
    assert stats == v_stats_from_lists(tree, lists)
    cache = OperatorCache(laplace, 6, tree.root_side)
    sched = resolve_m2l_schedule(
        "auto", "float64", stats=stats, cache=cache, kernel=laplace
    )
    assert sched.blocked and set(sched.backends.values()) == {"rsvd"}
    assert all(s[0] == s[4] for s in stats.values())  # full blocks
    again = resolve_m2l_schedule(
        "rsvd", "float32", stats=dict(stats), cache=cache, kernel=laplace
    )
    assert again.blocked

    surface = np.vstack([
        sample_sphere(np.zeros(3), 0.5, 260),
        sample_sphere(np.array([1.5, 0.2, 0.0]), 0.7, 420, "fibonacci"),
    ])
    tree = build_tree(surface, max_points=70)
    assert tree.depth == 3
    stats = v_stats_from_plan(build_plan(tree, build_lists(tree)))
    assert any(s[0] < s[4] / 2 for s in stats.values())  # mostly empty
    sched = resolve_m2l_schedule(
        "auto", "float64", stats=stats,
        cache=OperatorCache(stokes, 6, tree.root_side), kernel=stokes,
    )
    assert "rsvd" in sched.backends.values() and not sched.blocked
    # The model itself: emptier blocks cost the blocked layout alone.
    full = rsvd_layout_seconds((3000, 60, 60, 50, 3000), 304, 28, 3)
    sparse = rsvd_layout_seconds((3000, 60, 60, 500, 30000), 304, 28, 3)
    assert sparse[0] == full[0] and sparse[1] > full[1]


def test_every_rank_resolves_the_tree_s_schedule():
    rng = np.random.default_rng(16)
    pts = corner_clusters(1500, rng)
    opts = FMMOptions(p=4, max_points=15)
    seq = KIFMM(LaplaceKernel(), opts).setup(pts).m2l_schedule
    for nranks in (2, 3, 5):
        par = ParallelFMM(nranks, LaplaceKernel(), opts).setup(pts)
        assert all(s.m2l_schedule == seq for s in par.states)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(60, 400),
    clustered=st.booleans(),
    own_share=st.floats(0.0, 1.0),
)
def test_every_pair_in_one_slot_of_one_pass(seed, n, clustered, own_share):
    """Every effective V pair of a level lies in exactly one block slot
    of exactly one pass, for any ownership; a pass's rows, counts and
    class-major view describe those pairs."""
    rng = np.random.default_rng(seed)
    pts = corner_clusters(n, rng) if clustered else uniform_cube(n, rng)
    tree = build_tree(pts, max_points=8)
    plan = build_plan(tree, build_lists(tree))
    for vl in plan.v_levels:
        nsb, ntb = vl.src_boxes.size, vl.trg_boxes.size
        src_own = rng.random(nsb) < own_share
        sp = split_v_level(vl, src_own, blocked=True)
        want = {
            (int(t), int(s))
            for _, spos, tpos in vl.classes
            for s, t in zip(spos, tpos)
        }
        seen: list[tuple[int, int]] = []
        for vp, lo, mine in (
            (sp.own, 0, src_own), (sp.ghost, sp.own.rows.size, ~src_own)
        ):
            pairs = []
            for po, src, trg in vp.po_groups:
                ot, os_ = np.nonzero(block_slots(po) >= 0)
                s, t = src[:, os_], trg[:, ot]
                m = (s < sp.nrows - 1) & (t < ntb)
                pairs += zip(t[m].tolist(), vp.rows[s[m] - lo].tolist())
            assert all(mine[s] for _, s in pairs)
            assert sorted(pairs) == sorted(
                (int(t), int(s))
                for _, spos, tpos in vp.classes for s, t in zip(spos, tpos)
            )
            assert vp.npairs == len(pairs)
            assert set(vp.rows.tolist()) == {s for _, s in pairs}
            seen += pairs
        assert len(seen) == len(set(seen)) and set(seen) == want
