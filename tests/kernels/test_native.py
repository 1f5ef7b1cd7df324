"""The compiled pair loops against their numpy oracle.

``repro.kernels.native`` runs the S2M, U, W, X and L2T steps of the ``1/r``
and the Kelvin (Stokes, Navier) profiles as fused C loops; the numpy
stages of ``PlanStages`` are what they must reproduce.  Every test here
compares the two through the step lists a rank really compiles —
sequential and both ranks of P = 2, whose owned and ghost splits are
separate blocks — or calls a bound loop directly.  The build and
fallback rules are tested at the end.  Tests that need the loops skip on
a host without a C compiler, where every step runs numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import KIFMM, FMMOptions
from repro.bie.stokes_bie import StokesSingleLayer
from repro.bie.surfaces import SphereSurface
from repro.core.plan import NearBlocks
from repro.core.steps import StepBuffers
from repro.kernels import (
    LaplaceKernel,
    ModifiedLaplaceKernel,
    NavierKernel,
    StokesKernel,
)
from repro.kernels import native
from repro.kernels.base import Kernel
from repro.kernels.derived import LaplaceGradientKernel
from repro.parallel import ParallelFMM
from tests.conftest import clustered_cloud, uniform_cloud

pytestmark = pytest.mark.skipif(
    native.library() is None, reason="no C compiler on this host"
)

SRC = Path(__file__).parents[2] / "src"
NODES = ("s2m", "near_u", "near_w", "x", "l2t")
OPTS = FMMOptions(p=4, max_points=30)
KERNELS = {
    "laplace": LaplaceKernel(), "stokes": StokesKernel(0.7),
    "navier": NavierKernel(1.3, 0.2),  # a != b
}


class Magnitude(Kernel):
    """``|K|`` entrywise: its numpy stages over ``|density|`` bound the
    round-off of any evaluation order of ``K``."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.source_dof, self.target_dof = kernel.source_dof, kernel.target_dof

    def matrix(self, targets, sources):
        return np.abs(self.kernel.matrix(targets, sources))


class DoubledStokes(StokesKernel):
    """A derived tensor kernel: overrides ``matrix``, names no profile."""

    def matrix(self, targets, sources):
        return 2.0 * super().matrix(targets, sources)


@contextmanager
def numpy_only():
    """Every kernel keeps its numpy stages inside the block."""
    saved = native.loops_for
    native.loops_for = lambda kernel: None
    try:
        yield
    finally:
        native.loops_for = saved


def node_steps(state, compiled: bool, kernels=None) -> dict:
    """The S2M / U / W / X / L2T steps of one rank's apply, by name."""
    if compiled:
        steps = state.compile(kernels=kernels).steps
    else:
        with numpy_only():
            steps = state.compile(kernels=kernels).steps
    return {s.name: s for s in steps if s.stage in NODES}


def work_arrays(state, nrhs: int, rng) -> dict:
    """Random densities and zeroed outputs in the apply's layouts."""
    plan, n_surf = state.plan, state.cache.n_surf
    dof = state.kernel.source_dof
    width = n_surf * dof
    live = {
        "phi": rng.standard_normal((state.ext_points.shape[0], dof, nrhs)),
        "ue": rng.standard_normal((plan.nboxes, nrhs, width)),
        "de": rng.standard_normal((nrhs, plan.nboxes, width)),
        "dc": np.zeros((nrhs, plan.nboxes, width)),
        "pot": np.zeros((nrhs, plan.targets_sorted.shape[0], dof)),
    }
    for ul in plan.up_levels:
        live[f"check@{ul.level}"] = np.zeros((nrhs, ul.boxes.size, width))
    return live


def column(live: dict, r: int) -> dict:
    """Right-hand side ``r`` of a block's work arrays, as nrhs = 1."""
    return {
        k: np.ascontiguousarray(
            v[:, :, r : r + 1] if k == "phi"
            else v[:, r : r + 1] if k == "ue"
            else v[r : r + 1]
        )
        for k, v in live.items()
    }


def run(step, live: dict) -> np.ndarray:
    """Run ``step`` on copies of ``live``; what it wrote."""
    live = {k: v.copy() for k, v in live.items()}
    step.run(StepBuffers(step, live, live["pot"].shape[0]))
    out = {"x": "dc", "s2m": step.writes[0]}.get(step.stage, "pot")
    return live[out]


def states(kernel: Kernel, points: np.ndarray):
    """One rank, then both ranks of P = 2."""
    yield KIFMM(kernel, OPTS).setup(points).state
    with ParallelFMM(2, kernel, OPTS) as pf:
        yield from pf.setup(points).states


@pytest.fixture(
    scope="module",
    params=[("laplace", "uniform"), ("laplace", "corners"),
            ("stokes", "uniform"), ("stokes", "corners"),
            ("navier", "corners")],
    ids=["uniform", "corners", "stokes-uniform", "stokes-corners",
         "navier-corners"],
)
def trees(request):
    name, cloud = request.param
    rng = np.random.default_rng(7)
    make = uniform_cloud if cloud == "uniform" else clustered_cloud
    return list(states(KERNELS[name], make(rng, 2500)))


class TestAgainstTheOracle:
    @pytest.mark.parametrize("nrhs", [1, 8])
    def test_every_node_per_target(self, trees, nrhs):
        """|compiled - numpy| <= 1e-13 sum |K| |phi| at every target (or
        check point) component, for every S2M, U, W, X and L2T step of
        every rank."""
        seen = set()
        for state in trees:
            live = work_arrays(state, nrhs, np.random.default_rng(3))
            magnitude = {k: np.abs(v) for k, v in live.items()}
            compiled, oracle = node_steps(state, True), node_steps(state, False)
            absolute = node_steps(
                state, False, (Magnitude(state.kernel),) * 3
            )
            assert compiled.keys() == oracle.keys() == absolute.keys()
            for name, step in compiled.items():
                got, want = run(step, live), run(oracle[name], live)
                bound = run(absolute[name], magnitude)
                assert np.all(np.abs(got - want) <= 1e-13 * bound), name
                seen.add(name.split(":")[0].split("@")[0])
        assert seen >= {"s2m", "near_u", "l2t"}

    def test_corner_tree_has_every_node_and_both_splits(self):
        rng = np.random.default_rng(7)
        names = set()
        for state in states(LaplaceKernel(), clustered_cloud(rng, 2500)):
            names |= set(node_steps(state, True))
        kinds = {n.split("@")[0] for n in names}
        assert {"near_u:own", "near_u:ghost", "near_w:own", "near_w:ghost",
                "x", "s2m", "l2t"} <= kinds

    def test_steps_keep_their_declarations(self, trees):
        """Names, regions and flops are the numpy steps' exactly."""
        for state in trees:
            compiled, oracle = node_steps(state, True), node_steps(state, False)
            for name, step in compiled.items():
                other = oracle[name]
                assert (step.phase, step.stage, step.reads, step.writes,
                        step.flops) == (other.phase, other.stage,
                                        other.reads, other.writes,
                                        other.flops)

    def test_column_of_a_block_is_the_single_rhs_column(self, trees):
        """Column r of an nrhs = 8 block is bit for bit the nrhs = 1 run."""
        for state in trees:
            live = work_arrays(state, 8, np.random.default_rng(5))
            for step in node_steps(state, True).values():
                block = run(step, live)
                for r in range(8):
                    assert np.array_equal(
                        run(step, column(live, r))[0], block[r]
                    )

    def test_nan_density_poisons_only_what_it_reaches(self, trees):
        """A NaN source reaches exactly the targets whose blocks hold it,
        in the compiled loop as in the oracle."""
        state = trees[0]
        live = work_arrays(state, 1, np.random.default_rng(9))
        compiled, oracle = node_steps(state, True), node_steps(state, False)
        u, _ = state.near["own"]
        bad = int(u.src_pos[u.seg[1] - 1])  # a partner of the first block
        live["phi"][bad] = np.nan
        live["ue"][int(state.near["own"][1].src_pos[0]) if
                   state.near["own"][1].src_pos.size else 0] = np.nan
        for name, step in compiled.items():
            got, want = run(step, live), run(oracle[name], live)
            assert np.array_equal(np.isnan(got), np.isnan(want)), name
        got = run(compiled["near_u:own"], live)[0]
        reached = np.zeros(got.shape, dtype=bool)
        for i in range(u.boxes.size):
            if bad in u.src_pos[u.seg[i] : u.seg[i + 1]]:
                reached[u.trg_start[i] : u.trg_stop[i]] = True
        assert reached.any() and not reached.all()
        assert np.array_equal(np.isnan(got), reached)


def one_block(targets, sources):
    """One U block: box 0 at the origin, all targets against all sources."""
    nt, ns = len(targets), len(sources)
    return NearBlocks(
        boxes=np.zeros(1, dtype=np.int64),
        trg_start=np.zeros(1, dtype=np.int64),
        trg_stop=np.full(1, nt, dtype=np.int64),
        seg=np.array([0, ns], dtype=np.int64),
        src_pos=np.arange(ns, dtype=np.int64),
        partners=np.zeros(1, dtype=np.int64),
    )


def bound_u(targets, sources, recheck=False):
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    sources = np.ascontiguousarray(sources, dtype=np.float64)
    blocks = one_block(targets, sources)
    loops = native.loops_for(LaplaceKernel())
    return blocks, loops.u(blocks, np.zeros((1, 3)), targets, sources, recheck)


class TestPairs:
    def test_coincident_pair_contributes_exactly_zero(self):
        point = np.array([[0.1, -0.2, 0.3]])
        far = np.array([[0.4, 0.1, -0.3]])
        _, run_u = bound_u(point, np.vstack([point, far]))
        pot = np.zeros((1, 1, 1))
        run_u(np.array([1e300, 1.0]).reshape(2, 1, 1), pot)
        _, alone = bound_u(point, far)
        expected = np.zeros((1, 1, 1))
        alone(np.ones((1, 1, 1)), expected)
        assert pot[0, 0, 0] == expected[0, 0, 0] != 0.0

        _, self_only = bound_u(point, point)
        pot = np.zeros((1, 1, 1))
        self_only(np.full((1, 1, 1), 7.0), pot)
        assert pot[0, 0, 0] == 0.0

    def test_matches_the_kernel_matrix(self, rng):
        targets = rng.uniform(-0.5, 0.5, (39, 3))
        sources = rng.uniform(-1.5, 1.5, (1053, 3))
        sources[:10] = targets[:10]
        phi = rng.standard_normal(1053)
        _, run_u = bound_u(targets, sources)
        pot = np.zeros((1, 39, 1))
        run_u(phi.reshape(-1, 1, 1), pot)
        K = LaplaceKernel().matrix(targets, sources)
        gap = np.abs(pot[0, :, 0] - K @ phi)
        assert np.all(gap <= 1e-13 * (K @ np.abs(phi)))


class TestSelection:
    def test_the_inverse_r_and_kelvin_profiles_are_compiled(self):
        for kernel in (LaplaceKernel(), StokesKernel(0.7), NavierKernel()):
            assert native.loops_for(kernel) is not None
        for kernel in (ModifiedLaplaceKernel(1.5), LaplaceGradientKernel()):
            assert native.loops_for(kernel) is None
        stokes, navier = StokesKernel(0.7), NavierKernel(1.3, 0.2)
        loops = native.loops_for(navier)
        assert (loops.kind, loops.dof) == (1, 3)
        assert ("kelvin", loops.a, loops.b) == navier.profile()
        assert loops.a != loops.b
        assert stokes.profile()[1] == stokes.profile()[2]

    def test_a_subclass_that_changes_the_profile_keeps_numpy(self):
        class Scaled(LaplaceKernel):
            def _radial(self, r):
                return 2.0 * super()._radial(r)

        class Undeclared(LaplaceKernel):
            symmetry = None

        assert native.loops_for(Scaled()) is None
        assert native.loops_for(Undeclared()) is not None
        assert native.loops_for(DoubledStokes()) is None

    def test_derived_tensor_kernel_runs_the_numpy_stages(self, rng):
        points = clustered_cloud(rng, 1200)
        phi = rng.standard_normal((1200, 3))
        fmm = KIFMM(DoubledStokes(), OPTS).setup(points)
        steps = fmm.state.compile().steps
        with numpy_only():
            oracle = fmm.state.compile().steps
        for step, other in zip(steps, oracle):
            if step.stage in NODES:
                assert step.run.__code__ is other.run.__code__
        with numpy_only():
            want = KIFMM(DoubledStokes(), OPTS).setup(points).apply(phi)
        assert np.array_equal(fmm.apply(phi), want)

    def test_refreshed_stokes_operator_matches_the_numpy_oracle(self):
        """A moved geometry's matvec, compiled, against the numpy stages
        on the same refreshed operator."""
        falling = SphereSurface(np.array([0.6, 0.0, 2.2]), 0.4, 200)
        held = SphereSurface(np.zeros(3), 1.0, 300)
        op = StokesSingleLayer([falling, held], options=OPTS)
        phi = np.random.default_rng(4).standard_normal(3 * op.n)
        op.matvec(phi)
        falling.translate(np.array([0.05, -0.02, 0.3]))
        op.refresh_geometry()
        moved = op.matvec(phi)
        with numpy_only():
            oracle = op.matvec(phi)
        assert not np.array_equal(moved, oracle)
        assert np.linalg.norm(moved - oracle) < 1e-9 * np.linalg.norm(oracle)


class TestForeignCallSafety:
    def test_corrupted_src_pos_is_refused_at_binding(self):
        targets = np.zeros((2, 3))
        sources = np.ones((4, 3))
        blocks = one_block(targets, sources)
        blocks.src_pos[2] = 4
        with pytest.raises(native.NativeIndexError, match="src_pos"):
            native.loops_for(LaplaceKernel()).u(
                blocks, np.zeros((1, 3)), targets, sources, False
            )

    def test_sanitized_run_rechecks_before_each_call(self):
        blocks, run_u = bound_u(np.zeros((2, 3)), np.ones((4, 3)),
                                recheck=True)
        run_u(np.ones((4, 1, 1)), np.zeros((1, 2, 1)))
        blocks.src_pos[1] = 10**12
        with pytest.raises(native.NativeIndexError, match="src_pos"):
            run_u(np.ones((4, 1, 1)), np.zeros((1, 2, 1)))

    def test_sanitized_apply_names_a_corrupted_index(self, rng):
        points = uniform_cloud(rng, 1500)
        fmm = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=30,
                                                sanitize=True))
        fmm.setup(points)
        phi = rng.standard_normal(1500)
        fmm.apply(phi)
        u, _ = fmm.state.near["own"]
        u.src_pos[u.src_pos.size // 2] = -3
        with pytest.raises(native.NativeIndexError, match="src_pos"):
            fmm.apply(phi)

    @pytest.mark.parametrize("block", ["s2m", "x", "l2t"])
    def test_sanitized_stokes_apply_names_a_corrupted_block(self, rng, block):
        points = clustered_cloud(rng, 1500)
        fmm = KIFMM(StokesKernel(), FMMOptions(p=4, max_points=30,
                                               sanitize=True))
        fmm.setup(points)
        phi = rng.standard_normal((1500, 3))
        fmm.apply(phi)
        plan = fmm.state.plan
        if block == "s2m":
            blocks = plan.up_levels[0].s2m
        else:
            level = next(dl for dl in plan.down_levels
                         if getattr(dl, block).boxes.size)
            blocks = getattr(level, block)
        blocks.src_pos[0] = 10**9  # L2T: the partner is the box itself
        with pytest.raises(native.NativeIndexError, match="blocks"):
            fmm.apply(phi)

    def test_target_ranges_and_layouts_are_checked(self):
        targets, sources = np.zeros((2, 3)), np.ones((4, 3))
        loops = native.loops_for(LaplaceKernel())
        blocks = one_block(targets, sources)
        blocks.trg_stop[0] = 3
        with pytest.raises(native.NativeIndexError, match="trg_stop"):
            loops.u(blocks, np.zeros((1, 3)), targets, sources, False)
        blocks = one_block(targets, sources)
        blocks.boxes[0] = 1
        with pytest.raises(native.NativeIndexError, match="boxes"):
            loops.u(blocks, np.zeros((1, 3)), targets, sources, False)
        _, run_u = bound_u(targets, sources)
        with pytest.raises(ValueError, match="phi"):
            run_u(np.ones((4, 1, 1), dtype=np.float32), np.zeros((1, 2, 1)))
        with pytest.raises(ValueError, match="pot"):
            run_u(np.ones((4, 1, 1)), np.zeros((1, 2, 1))[:, ::-1])
        with pytest.raises(ValueError, match="blocks.seg"):
            blocks = one_block(targets, sources)
            blocks.seg = blocks.seg.astype(np.int32)
            loops.u(blocks, np.zeros((1, 3)), targets, sources, False)

    def test_concurrent_calls_of_one_bound_loop(self, rng):
        """Four threads on one bound loop give the serial result bit for
        bit: the C code keeps no state and the call drops the GIL."""
        targets = rng.uniform(-0.5, 0.5, (200, 3))
        sources = rng.uniform(-1.5, 1.5, (3000, 3))
        _, run_u = bound_u(targets, sources)
        phis = [rng.standard_normal((3000, 1, 2)) for _ in range(4)]
        serial = []
        for phi in phis:
            pot = np.zeros((2, 200, 1))
            run_u(phi, pot)
            serial.append(pot)
        outs = [np.zeros((2, 200, 1)) for _ in range(4)]

        def work(i):
            for _ in range(20):
                outs[i][...] = 0.0
                run_u(phis[i], outs[i])

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(saved)
        for got, want in zip(outs, serial):
            assert np.array_equal(got, want)


def signed_perm(width: int, rng) -> tuple[np.ndarray, np.ndarray]:
    return (rng.permutation(width).astype(np.int64),
            rng.choice([-1.0, 1.0], width))


class TestMovementLoopSafety:
    """The V movement loops check their rows against the buffer's row
    count, and their permutation, when bound."""

    @pytest.mark.parametrize("loop", ["gather", "scatter_add"])
    def test_bad_row_is_refused_at_binding(self, rng, loop):
        bind = getattr(native.move_loops(), loop)
        perm = signed_perm(12, rng)
        bind(np.array([0, 4], dtype=np.int64), 5, perm, False)
        for bad in (5, -1):
            with pytest.raises(native.NativeIndexError, match="rows"):
                bind(np.array([0, bad], dtype=np.int64), 5, perm, False)

    @pytest.mark.parametrize("loop", ["gather", "scatter_add"])
    def test_bad_permutation_entry_is_refused_at_binding(self, rng, loop):
        bind = getattr(native.move_loops(), loop)
        rows = np.array([1, 3], dtype=np.int64)
        for planted in (7, 12, -1):  # a repeat, then out of range
            idx, sgn = signed_perm(12, rng)
            idx[np.flatnonzero(idx != 7)[0]] = planted
            with pytest.raises(native.NativeIndexError, match="idx"):
                bind(rows, 5, (idx, sgn), False)

    def test_sanitized_run_rechecks_and_layouts_are_checked(self, rng):
        loops = native.move_loops()
        rows = np.array([0, 2], dtype=np.int64)
        idx, sgn = signed_perm(6, rng)
        gather = loops.gather(rows, 3, (idx, sgn), True)
        ue = rng.standard_normal((3, 2, 6))
        gather(ue, 1)
        with pytest.raises(ValueError, match="ue"):
            gather(ue[:, :, :5].copy(), 1)
        rows[1] = 3
        with pytest.raises(native.NativeIndexError, match="rows"):
            gather(ue, 1)
        scatter = loops.scatter_add(rows[:1], 3, (idx, sgn), False)
        with pytest.raises(ValueError, match="out"):
            scatter(np.zeros((3, 6)), np.zeros((2, 6)))


@pytest.fixture
def fresh_library():
    """Forget the loaded library around a test; reload it afterwards."""
    native.library.cache_clear()
    yield
    native.library.cache_clear()


class TestBuildAndFallback:
    def test_no_compiler_runs_the_numpy_nodes(self, monkeypatch,
                                              fresh_library, rng):
        points = clustered_cloud(rng, 1500)
        phi = rng.standard_normal((1500, 1, 3))
        compiled = KIFMM(LaplaceKernel(), OPTS).setup(points).apply(phi)
        with numpy_only():
            numpy_run = KIFMM(LaplaceKernel(), OPTS).setup(points).apply(phi)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        native.library.cache_clear()
        assert native.loops_for(LaplaceKernel()) is None
        fallback = KIFMM(LaplaceKernel(), OPTS).setup(points).apply(phi)
        assert np.array_equal(fallback, numpy_run)
        assert not np.array_equal(compiled, numpy_run)
        gap = np.abs(compiled - numpy_run).max() / np.abs(numpy_run).max()
        assert gap < 1e-9

    def test_failed_build_runs_the_numpy_nodes(self, monkeypatch,
                                               fresh_library, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(native, "source", lambda: b"not C at all\n")
        assert native.library() is None
        assert native.loops_for(LaplaceKernel()) is None
        assert not list((tmp_path / "repro").glob("*"))

    def test_unwritable_cache_falls_back_to_a_temporary_dir(
        self, monkeypatch, fresh_library, tmp_path
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        lib = native.library()
        assert lib is not None
        assert not Path(lib._name).is_relative_to(blocker)
        point = np.array([[0.0, 0.0, 0.0]])
        _, run_u = bound_u(point, np.array([[0.0, 0.0, 2.0]]))
        pot = np.zeros((1, 1, 1))
        run_u(np.ones((1, 1, 1)), pot)
        assert pot[0, 0, 0] == LaplaceKernel().matrix(
            point, np.array([[0.0, 0.0, 2.0]]))[0, 0]

    def test_two_processes_building_one_cache_both_load(self, tmp_path):
        script = (
            "import numpy as np\n"
            "from repro.kernels import LaplaceKernel, native\n"
            "loops = native.loops_for(LaplaceKernel())\n"
            "assert loops is not None\n"
            "print(native.library()._name)\n"
        )
        env = {"XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": str(SRC),
               "PATH": os.environ.get("PATH", "")}
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        assert outs[0][0] == outs[1][0]
        built = sorted(p.name for p in (tmp_path / "repro").iterdir())
        assert len(built) == 1 and built[0].startswith("pairloops-")

    def test_changed_source_forces_a_rebuild(self, monkeypatch, tmp_path):
        compiler = native.find_compiler()
        first = native.build(compiler, tmp_path)
        stamp = first.stat().st_mtime_ns
        assert native.build(compiler, tmp_path) == first
        assert first.stat().st_mtime_ns == stamp
        original = native.source()
        monkeypatch.setattr(native, "source",
                            lambda: original + b"\n/* revised */\n")
        second = native.build(compiler, tmp_path)
        assert second != first and second.exists() and first.exists()
