"""The array-code performance model against its oracles.

``repro.perfmodel`` computes per-box work as segment sums over
``TreeTopology`` and the CSR lists, and per-rank traffic by counting the
binomial trees of the runtime's partition and owners.
``reference_model.compute_work`` is the box-by-box work walk it
replaced; the traffic's oracle is the runtime itself — the programs
``extract_comm_ir`` compiles, and the ``CommStats`` of a real apply.
Both must agree *exactly* (integer-valued floats below 2**53 sum
exactly in any order); rank times to round-off.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.commir import static_plan_inputs
from repro.core.fmm import FMMOptions
from repro.core.m2lschedule import M2LSchedule
from repro.core.surfaces import n_surface_points
from repro.kernels import LaplaceKernel, StokesKernel
from repro.octree import build_lists, build_tree
from repro.parallel import ParallelFMM
from repro.parallel.owners import static_contributors
from repro.parallel.partition import partition_points
from repro.perfmodel import TCS1, simulate_run, tree_top_model
from repro.perfmodel.costs import compute_work
from repro.perfmodel.simulate import (
    PHASES,
    _apply_traffic,
    _partition,
    _tree_top_msgs,
    simulate_tree_time,
)

from tests.conftest import clustered_cloud, uniform_cloud
from tests.perfmodel import reference_model as reference


def _two_clusters(rng, n):
    centers = np.array([[0.2, 0.2, 0.2], [0.8, 0.7, 0.6]])
    return np.vstack([c + 0.05 * rng.standard_normal((n // 2, 3)) for c in centers])


def _point_sets(rng):
    """name -> (sources, targets or ``None`` for sources = targets)."""
    half = rng.uniform(0.0, 0.5, size=(2000, 3))
    return {
        "uniform": (uniform_cloud(rng, 1500), None),
        "corner": (clustered_cloud(rng, 1500), None),
        "two-cluster": (_two_clusters(rng, 1200), None),
        # targets of their own: no ParallelFMM run, so the model refuses them
        "disjoint-targets": (half, 0.5 + rng.uniform(0.0, 0.5, size=(2000, 3))),
        "mixed-targets": (uniform_cloud(rng, 900), 0.6 * uniform_cloud(rng, 700)),
    }


TREE_KINDS = ("uniform", "corner", "two-cluster", "disjoint-targets", "mixed-targets")


@pytest.fixture(scope="module")
def trees():
    out = {}
    for name, (src, trg) in _point_sets(np.random.default_rng(2003)).items():
        tree = build_tree(src, trg, max_points=30)
        out[name] = (tree, build_lists(tree))
    return out


def _synthetic_rank(level, offset):
    """A rank per (level, offset) class that tells the classes apart,
    signs included, without building an operator."""
    assert all(type(o) is int for o in (level, *offset))
    return 40 + level + offset[0] + 2 * offset[1] + 3 * offset[2]


def _synthetic_inverse_rank(name, level):
    """A kept rank per inversion and level, below the full 56 at p = 4."""
    assert name in ("uc2ue", "dc2de") and type(level) is int
    return 30 + level + 5 * (name == "dc2de")


def _schedules(depth):
    mixed = {lvl: ("fft", "rsvd", "dense")[lvl % 3] for lvl in range(2, depth + 1)}
    return {
        "fft": "fft",
        "dense": "dense",
        "rsvd": "rsvd",
        "mixed": M2LSchedule(mode="auto", dtype="float64", backends=mixed),
    }


def _rank_arguments(tree):
    """What plancheck passes for one rank of a parallel run: local
    counts for the upward pass, global ones for the partners."""
    topo = tree.topology
    cut_src, cut_trg = tree.sources.shape[0] // 2, tree.targets.shape[0] // 3

    def below(start, stop, cut):
        return np.minimum(stop, cut) - np.minimum(start, cut)

    return dict(
        up_nsrc=below(topo.src_start, topo.src_stop, cut_src),
        global_nsrc=topo.nsrc,
        global_ntrg=below(topo.trg_start, topo.trg_stop, cut_trg),
    )


def _assert_same_work(got, want):
    for phase in PHASES:
        assert np.array_equal(getattr(got, phase), getattr(want, phase)), phase


@pytest.mark.parametrize("nrhs", [1, 4])
@pytest.mark.parametrize("m2l", ["fft", "dense", "rsvd", "mixed"])
@pytest.mark.parametrize("kind", TREE_KINDS)
def test_work_arrays_equal_the_walk(trees, kind, m2l, nrhs):
    tree, lists = trees[kind]
    kernel = StokesKernel() if kind == "two-cluster" else LaplaceKernel()
    sched = _schedules(tree.depth)[m2l]
    for rank_args, inverse in (
        ({}, None), (_rank_arguments(tree), _synthetic_inverse_rank)
    ):
        args = dict(
            m2l=sched, nrhs=nrhs, rsvd_rank=_synthetic_rank,
            inverse_rank=inverse, **rank_args,
        )
        _assert_same_work(
            compute_work(tree, lists, kernel, 4, **args),
            reference.compute_work(tree, lists, kernel, 4, **args),
        )


def _assert_close(got, want, what):
    assert np.allclose(got, want, rtol=1e-12, atol=0.0), what


@pytest.mark.parametrize("P", [1, 3, 8, 64, 5000])
@pytest.mark.parametrize("kind", ["uniform", "corner", "two-cluster"])
def test_run_report_matches_the_walk(trees, kind, P):
    """Each rank pays the work of every box it contributes to, and the
    exchange time of the messages its programs send and receive; the
    tree top's two shapes count the programs' ``pue`` messages of the
    shared boxes, and its coarse V is priced box by box over the
    programs' contributors."""
    tree, _ = trees[kind]
    inputs = static_plan_inputs(tree.sources, P, FMMOptions(max_points=30))
    tree, lists, kernel = inputs.tree, inputs.lists, LaplaceKernel()
    work = compute_work(tree, lists, kernel, 4)
    run = simulate_run(tree, lists, kernel, 4, P, TCS1, work=work,
                       grain_scale=3.3)
    rank_flops = 3.3 * np.stack(
        [inputs.contrib_src @ getattr(work, ph) for ph in PHASES], axis=1
    )
    phase_sec = rank_flops / [TCS1.rate(ph, kernel.name) for ph in PHASES]
    (msgs_out, bytes_out), (msgs_in, bytes_in) = reference.ir_traffic(
        inputs, kernel, 4
    )
    scale = 3.3 ** (2 / 3)
    pack = msgs_out * TCS1.latency + scale * bytes_out / TCS1.bandwidth
    wait = msgs_in * TCS1.latency + scale * bytes_in / TCS1.bandwidth
    window = phase_sec[:, [PHASES.index(ph) for ph in ("down_u", "down_v", "down_w")]]
    wait -= np.minimum(wait, TCS1.overlap_fraction * window.sum(axis=1))
    _assert_close(run.rank_phase_seconds, phase_sec, "rank_phase_seconds")
    _assert_close(run.rank_comm_seconds, pack + wait, "rank_comm_seconds")
    _assert_close(run.rank_seconds, phase_sec.sum(axis=1) + pack + wait,
                  "rank_seconds")
    _assert_close(run.total_flops, rank_flops.sum(), "total_flops")
    n = tree.sources.shape[0]
    assert (run.P, run.N, run.kernel) == (P, round(3.3 * n), kernel.name)
    want = {
        **dict(zip(PHASES, phase_sec.mean(axis=0))),
        "comm": (pack + wait).mean(), "pack": pack.mean(), "wait": wait.mean(),
    }
    assert run.phase_seconds.keys() == want.keys()
    for key, value in want.items():
        _assert_close(run.phase_seconds[key], value, ("phase_seconds", key))
    assert run.phase_flops.keys() == set(PHASES)
    for i, phase in enumerate(PHASES):
        _assert_close(run.phase_flops[phase], rank_flops[:, i].sum(),
                      ("phase_flops", phase))
    _assert_close(
        run.tree_seconds,
        simulate_tree_time(tree, P, TCS1, n_effective=3.3 * n, grain_scale=3.3),
        "tree_seconds",
    )

    point = tree_top_model(tree, lists, kernel, 4, P, TCS1, work=work)
    flat, binomial, total = reference.ir_tree_top(inputs)
    unit = TCS1.message_time(8.0 * n_surface_points(4, 3))
    assert point.shared_boxes == (inputs.contrib_src.sum(axis=0) > 1).sum()
    assert (point.flat_max_rank_msgs, point.tree_max_rank_msgs,
            point.total_msgs) == (flat.max(), binomial.max(), total)
    _assert_close(point.flat_seconds, flat.max() * unit, "flat_seconds")
    _assert_close(point.tree_seconds, binomial.max() * unit, "tree_seconds")
    split, v_red, v_spl = reference.coarse_v(inputs, kernel, 4, work, TCS1)
    assert point.split_levels == split
    _assert_close(point.v_redundant_seconds, v_red.max(), "v_redundant_seconds")
    _assert_close(point.v_split_seconds, v_spl.max(), "v_split_seconds")


@pytest.mark.parametrize("P", [2, 3, 64])
@pytest.mark.parametrize("cloud", [uniform_cloud, clustered_cloud])
def test_traffic_equals_the_programs(cloud, P):
    """Per rank, the model's apply messages and bytes, and its tree-top
    endpoints of both shapes, are the compiled programs'."""
    points = cloud(np.random.default_rng(17), 3000)
    inputs = static_plan_inputs(points, P, FMMOptions(max_points=30))
    tree, lists = inputs.tree, inputs.lists
    roles = _partition(tree, P)
    assert np.array_equal(
        _apply_traffic(tree, lists, StokesKernel(), 4, roles, nrhs=2),
        reference.ir_traffic(inputs, StokesKernel(), 4, nrhs=2),
    )
    flat, binomial, total = _tree_top_msgs(lists, roles)
    want = reference.ir_tree_top(inputs)
    assert np.array_equal(flat, want[0]) and np.array_equal(binomial, want[1])
    assert total == want[2]


@pytest.fixture(scope="module")
def apply_points():
    return uniform_cloud(np.random.default_rng(5), 800)


@pytest.mark.parametrize("kernel", [LaplaceKernel(), StokesKernel()],
                         ids=["laplace", "stokes"])
@pytest.mark.parametrize("P", [2, 3, 4])
def test_traffic_equals_a_real_apply(apply_points, kernel, P):
    """The model's per-rank apply messages and bytes are the
    ``CommStats`` one ``ParallelFMM`` apply adds, for one and for three
    right-hand sides — and an apply runs no collective."""
    options = FMMOptions(p=4, max_points=20)
    tree = build_tree(apply_points, max_points=20)
    lists, roles = build_lists(tree), _partition(tree, P)
    rng = np.random.default_rng(P)
    with ParallelFMM(P, kernel, options) as op:
        op.setup(apply_points)
        for nrhs in (1, 3):
            before = [dataclasses.replace(c) for c in op.comm_stats]
            op.apply(rng.standard_normal((800, kernel.source_dof, nrhs)))
            delta = np.array([
                [getattr(new, f) - getattr(old, f) for f in (
                    "messages_sent", "bytes_sent", "messages_received",
                    "bytes_received", "allreduce_calls",
                )]
                for old, new in zip(before, op.comm_stats)
            ]).T
            model = _apply_traffic(tree, lists, kernel, 4, roles, nrhs=nrhs)
            assert np.array_equal(model.reshape(4, P), delta[:4]), nrhs
            assert not delta[4].any()


@pytest.mark.parametrize("P", [1, 8, 64, 100_000])
@pytest.mark.parametrize("kind", ["uniform", "disjoint-targets", "mixed-targets"])
def test_ownership_follows_the_morton_leaf_order(trees, kind, P):
    """A box's contributors are the ranks ``partition_points`` gives its
    points: one rank interval, since the split and the tree both follow
    the Morton order.  The runtime runs sources = targets only, so the
    model refuses other trees by name; ranks past the point count hold
    nothing, and are priced at zero work and zero messages."""
    tree, lists = trees[kind]
    kernel = LaplaceKernel()
    if not tree.shared_points:
        for model in (simulate_run, tree_top_model):
            with pytest.raises(ValueError, match="targets are not its sources"):
                model(tree, lists, kernel, 4, P, TCS1)
        return
    roles = _partition(tree, P)
    _, lo, hi, _ = roles
    ranks = np.arange(P)[:, None]
    assert np.array_equal(
        static_contributors(tree, partition_points(tree.sources, P))[0],
        (lo <= ranks) & (ranks <= hi),
    )
    run = simulate_run(tree, lists, kernel, 4, P, TCS1)
    idle = ranks[:, 0] >= tree.sources.shape[0]
    assert idle.any() == (P == 100_000)
    assert not run.rank_seconds[idle].any()
    assert not _apply_traffic(tree, lists, kernel, 4, roles)[..., idle].any()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t, l, k: compute_work(t, l, k, 4, nrhs=-1), "nrhs must be >= 1"),
        (lambda t, l, k: compute_work(t, l, k, 4, nrhs=0), "nrhs must be >= 1"),
        (lambda t, l, k: simulate_run(t, l, k, 4, 2, TCS1, grain_scale=float("nan")),
         "grain_scale must be finite and positive"),
        (lambda t, l, k: simulate_run(t, l, k, 4, 2, TCS1, grain_scale=float("inf")),
         "grain_scale must be finite and positive"),
        (lambda t, l, k: simulate_run(t, l, k, 4, 2, TCS1, grain_scale=-1.0),
         "grain_scale must be finite and positive"),
        (lambda t, l, k: simulate_run(t, l, k, 4, 2.5, TCS1), "P must be an integer >= 1"),
        (lambda t, l, k: simulate_run(t, l, k, 4, -3, TCS1), "P must be an integer >= 1"),
        (lambda t, l, k: tree_top_model(t, l, k, 4, 2.5, TCS1), "P must be an integer >= 1"),
    ],
)
def test_model_inputs_are_validated(trees, call, message):
    tree, lists = trees["uniform"]
    with pytest.raises(ValueError, match=message):
        call(tree, lists, LaplaceKernel())
