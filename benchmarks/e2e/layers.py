"""Per-layer probes shared by the workloads (traced runs only).

Each probe calls one public function of one layer on the workload's own
inputs, inside a span named after that layer, and returns the ledger
rows named in ``BENCHMARK.json``'s ``per_layer`` list.
"""

from __future__ import annotations

import statistics
from itertools import product

import numpy as np

from repro.core.fmm import FMMOptions, KIFMM
from repro.core.m2lschedule import resolve_m2l_schedule, v_stats_from_plan
from repro.core.plan import build_plan
from repro.core.precompute import OperatorCache
from repro.kernels.base import Kernel
from repro.kernels.direct import direct_evaluate
from repro.octree.lists import build_lists
from repro.octree.tree import build_tree

from benchmarks.e2e.trace import Tracer

PHASES = ("up", "down_v", "down_u", "down_w", "down_x", "eval")

#: Every fourth of the 316 V-list offset classes (|offset|_inf in {2, 3}):
#: 79 factorisations, which for the 3x3 Stokes kernel still take seconds.
V_OFFSETS = [
    off for off in product(range(-3, 4), repeat=3) if max(map(abs, off)) >= 2
][::4]


def _fresh_cache(kernel: Kernel, opts: FMMOptions, root_side: float) -> OperatorCache:
    return OperatorCache(
        kernel, opts.p, root_side,
        inner=opts.inner, outer=opts.outer, rcond=opts.rcond,
    )


def probe_setup_layers(
    tracer: Tracer,
    kernel: Kernel,
    points: np.ndarray,
    opts: FMMOptions,
    rng: np.random.Generator,
) -> dict[str, float]:
    """octree, core.plan, core.m2lschedule, core.precompute and kernels rows."""
    rows: dict[str, float] = {}
    with tracer.span("octree.build_tree") as s:
        tree = build_tree(
            points, max_points=opts.max_points, max_depth=opts.max_depth
        )
    rows["octree.build_tree_s"] = s.seconds
    with tracer.span("octree.build_lists") as s:
        lists = build_lists(tree)
    rows["octree.build_lists_s"] = s.seconds
    shape = tree.statistics()
    counts = lists.counts()
    rows["octree.depth"] = shape["depth"]
    rows["octree.nboxes"] = shape["nboxes"]
    rows["octree.nleaves"] = shape["nleaves"]
    for which in "UVWX":
        rows[f"octree.{which.lower()}_pairs"] = counts[which]

    with tracer.span("core.plan.build_plan") as s:
        plan = build_plan(tree, lists)
    rows["core.plan.build_plan_s"] = s.seconds

    cache = _fresh_cache(kernel, opts, tree.root_side)
    with tracer.span("core.m2lschedule.resolve_m2l_schedule") as s:
        schedule = resolve_m2l_schedule(
            opts.m2l, opts.dtype,
            stats=v_stats_from_plan(plan), cache=cache, kernel=kernel,
        )
    rows["core.m2lschedule.resolve_s"] = s.seconds
    backends = list(schedule.describe()["levels"].values())
    for backend in ("fft", "dense", "rsvd"):
        rows[f"core.m2lschedule.levels_{backend}"] = backends.count(backend)

    level = shape["depth"]
    cache = _fresh_cache(kernel, opts, tree.root_side)
    with tracer.span("core.precompute.pinv") as s:
        cache.uc2ue(level)
        cache.dc2de(level)
    rows["core.precompute.pinv_s"] = s.seconds
    cache = _fresh_cache(kernel, opts, tree.root_side)
    with tracer.span("core.precompute.m2l_rsvd") as s:
        for off in V_OFFSETS:
            cache.m2l_rsvd(level, off)
    rows["core.precompute.m2l_rsvd_s"] = s.seconds
    rows["core.precompute.m2l_rsvd_mean_rank"] = statistics.fmean(
        cache.m2l_rsvd_rank(level, off) for off in V_OFFSETS
    )

    ntrg = min(256, len(points))
    density = rng.standard_normal((len(points), kernel.source_dof))
    with tracer.span("kernels.direct_evaluate") as s:
        direct_evaluate(kernel, points[:ntrg], points, density)
    rows["kernels.direct_pairs_per_s"] = ntrg * len(points) / s.seconds

    # One leaf against its 27 neighbours, in the leaf's local frame, at
    # the workload's own mean leaf occupancy.
    r = tree.root_side / (1 << level) / 2.0
    per_leaf = max(1, round(shape["mean_leaf_src"]))
    trg = rng.uniform(-r, r, size=(per_leaf, 3))
    src = rng.uniform(-3 * r, 3 * r, size=(27 * per_leaf, 3))
    block = []
    for _ in range(20):
        with tracer.span("kernels.matrix_local") as s:
            kernel.matrix_local(trg, src)
        block.append(s.seconds)
    rows["kernels.matrix_local_block_s"] = statistics.median(block)
    return rows


def ledger_sample(fmm: KIFMM, wall: float) -> dict:
    """Phase seconds and flops of the apply that just ran on ``fmm``.

    The caller reset ``fmm.timer`` and ``fmm.flops`` before the apply,
    so the program's own counters hold exactly one apply.
    """
    stats = fmm.statistics()
    return {"wall": wall, "seconds": stats["seconds"], "flops": stats["flops"]}


def median_sample(samples: list[dict]) -> dict:
    """The sample with the median ``wall`` (the lower one of an even count)."""
    return sorted(samples, key=lambda s: s["wall"])[(len(samples) - 1) // 2]


def evaluator_rows(samples: list[dict]) -> dict[str, float]:
    """``core.evaluator.*`` from the ledger sample with the median wall.

    Taking one whole sample keeps the ledger closed: its phase seconds
    plus ``unattributed_s`` equal its ``apply_s`` exactly.
    """
    mid = median_sample(samples)
    rows = {"core.evaluator.apply_s": mid["wall"]}
    attributed = 0.0
    for phase in PHASES:
        sec = mid["seconds"].get(phase, 0.0)
        flops = mid["flops"].get(phase, 0.0)
        attributed += sec
        rows[f"core.evaluator.{phase}_s"] = sec
        rows[f"core.evaluator.{phase}_flops"] = flops
        rows[f"core.evaluator.{phase}_gflops"] = flops / sec / 1e9 if sec else 0.0
    rows["core.evaluator.unattributed_s"] = mid["wall"] - attributed
    return rows
