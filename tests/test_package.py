"""Package-level API surface tests."""

import numpy as np
import pytest

import repro


class TestPublicAPI:
    def test_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_end_to_end_one_liner(self):
        """The README quickstart, miniaturised."""
        rng = np.random.default_rng(1)
        points = rng.random((300, 3))
        density = rng.random((300, 3))
        fmm = repro.KIFMM(
            repro.StokesKernel(mu=1.0),
            repro.FMMOptions(p=4, max_points=40),
        )
        fmm.setup(points)
        velocity = fmm.apply(density)
        exact = repro.direct_evaluate(
            repro.StokesKernel(mu=1.0), points, points, density
        )
        rel = np.linalg.norm(velocity - exact) / np.linalg.norm(exact)
        assert rel < 1e-3


class TestTheArraysAreTheOnlyTree:
    def test_no_per_box_view_and_no_plan_option(self, rng):
        """Nothing under ``src/`` keeps a per-box representation or a
        second evaluator to select: the oracles' views live under
        ``tests/`` (``tests/boxview.py``, ``tests/core/perbox.py``)."""
        import dataclasses
        import importlib.util

        from repro.octree import build_lists, build_tree

        assert importlib.util.find_spec("repro.octree.box") is None
        tree = build_tree(rng.random((200, 3)), max_points=20)
        lists = build_lists(tree)
        for name in ("boxes", "levels", "leaves"):
            assert not hasattr(tree, name), name
        for name in "UVWX":
            assert not hasattr(lists, name), name
        fields = [f.name for f in dataclasses.fields(repro.FMMOptions)]
        assert len(fields) == 8
        assert "plan" not in fields and "balance" not in fields
        with pytest.raises(TypeError):
            repro.FMMOptions(plan="naive")
        # The inversion cutoff is a constant: the inversions are applied
        # as their SVD factors, so it has nothing to tune.
        assert "rcond" not in fields and repro.FMMOptions.rcond == 1e-12
        with pytest.raises(TypeError):
            repro.FMMOptions(rcond=1e-9)
        # No 2:1 balancing either: the tree is the paper's adaptive one.
        assert importlib.util.find_spec("repro.octree.balance") is None
        with pytest.raises(TypeError):
            repro.FMMOptions(balance=True)


class TestOneOwnerExchangeShape:
    def test_no_comm_option_and_no_scheme_argument(self):
        """The owner gather/scatter has one shape, the binomial tree:
        nothing selects another, and the verifiers take no second IR to
        compare against."""
        import inspect

        from repro.analysis import commcheck_static, commir
        from repro.parallel import exchange

        with pytest.raises(TypeError):
            repro.FMMOptions(comm="tree")
        for name in ("EXCHANGE_SCHEMES", "check_scheme", "tree_edges"):
            assert not hasattr(exchange, name), name
        for name in ("ConservationSummary", "conservation_summary",
                     "cross_scheme_conservation"):
            assert not hasattr(commcheck_static, name), name
        for fn in (exchange.compile_exchange, commir.extract_comm_ir,
                   commcheck_static.check_conservation,
                   commcheck_static.run_checks,
                   commcheck_static.run_selftests):
            params = set(inspect.signature(fn).parameters)
            assert not params & {"scheme", "reference", "reference_index"}, (
                fn.__name__, params,
            )


class TestOneParallelDriver:
    def test_one_driver_and_only_the_collectives_setup_calls(self):
        """``ParallelFMM`` is the one parallel driver; the runtime has
        the two collectives a setup calls and no race argument."""
        import dataclasses
        import inspect

        from repro import parallel
        from repro.parallel import pfmm, simmpi

        for name in ("run_parallel_fmm", "ParallelFMMResult"):
            assert not hasattr(parallel, name), name
            assert not hasattr(pfmm, name), name
        for name in ("bcast", "reduce_scatter", "barrier"):
            assert not hasattr(simmpi.SimComm, name), name
        assert not hasattr(simmpi, "coll_scatter_tag")
        assert "__coll_scatter__" not in simmpi.TAG_FAMILIES
        assert "race" not in inspect.signature(simmpi.run_spmd).parameters
        for fn in (parallel.ParallelFMM.setup, parallel.ParallelFMM.apply):
            assert set(inspect.signature(fn).parameters) <= {
                "self", "points", "density", "schedule_seed", "cache",
            }, fn.__name__
        assert len(dataclasses.fields(repro.FMMOptions)) == 8

    def test_no_execution_trace(self):
        """The schedule is checked by identity, not by recording runs:
        no runtime entry point takes a ``trace``, the analysis package
        has no trace, and the runtime imports nothing from it."""
        import ast
        import inspect

        from repro import analysis, parallel
        from repro.parallel import simmpi

        for fn in (
            simmpi.run_spmd, parallel.ParallelFMM.setup,
            parallel.ParallelFMM.apply,
        ):
            assert "trace" not in inspect.signature(fn).parameters, fn
        assert not hasattr(analysis, "CommTrace")
        tree = ast.parse(inspect.getsource(simmpi))
        imported = [
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ] + [
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
        ]
        assert not [m for m in imported if m.startswith("repro.analysis")]

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_setup_collective_sequence(self, rng, nranks):
        """Per rank, a setup runs the root's counts and one allreduce
        per level (the driver pins the root cube), then one allgather
        of the contributor masks, ``2 x nboxes`` bytes: every rank
        derives the users from those.  The order is what each rank asks
        of its communicator, recorded test-side."""
        from repro.parallel import ParallelFMM

        from tests.parallel.recording import recorded_runs

        pts = rng.uniform(-1.0, 1.0, (600, 3))
        op = ParallelFMM(
            nranks, repro.LaplaceKernel(), repro.FMMOptions(p=3, max_points=20)
        )
        with recorded_runs() as regions:
            op.setup(pts)
        tree = op.states[0].tree
        (setup,) = regions
        for stats, comm in zip(op.comm_stats, setup):
            assert stats.allreduce_calls == 1 + tree.depth
            assert stats.allgather_calls == 1
            assert stats.allgather_bytes == 2 * tree.nboxes
            assert [call for call in comm.ops if len(call) == 1] == (
                [("allreduce",)] * (1 + tree.depth) + [("allgather",)]
            )

    def test_untraced_setup_counts_its_collectives(self, rng):
        """Unrecorded, ``CommStats`` counts each collective: per rank
        one allreduce per level plus the root's, and one allgather — 4
        over 4 ranks — each with its payload bytes."""
        from repro.parallel import ParallelFMM

        pts = rng.uniform(-1.0, 1.0, (300, 3))
        op = ParallelFMM(
            4, repro.LaplaceKernel(), repro.FMMOptions(p=3, max_points=20)
        ).setup(pts)
        tree = op.states[0].tree
        depth, nboxes = tree.depth, tree.nboxes
        assert sum(s.allgather_calls for s in op.comm_stats) == 4
        for stats in op.comm_stats:
            assert stats.allreduce_calls == 1 + depth
            assert stats.allreduce_bytes > 0
            assert stats.allgather_bytes == 2 * nboxes


class TestCompiledPairLoopSource:
    def test_native_source_is_package_data(self):
        """``native.c`` ships inside the package (``pyproject.toml``
        package data) and is read through ``importlib.resources``, so an
        installed copy builds the same loops as a checkout."""
        import importlib.resources
        from pathlib import Path

        from repro.kernels import native

        resource = importlib.resources.files("repro.kernels") / "native.c"
        assert resource.is_file()
        text = resource.read_text(encoding="utf-8")
        for loop in ("near_u", "near_w", "near_x"):
            assert f"int {loop}(" in text
        assert native.source() == resource.read_bytes()
        assert "-ffast-math" not in native.FLAGS
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        package_data = data["tool"]["setuptools"]["package-data"]
        assert "native.c" in package_data["repro.kernels"]


class TestPerfmodelRobustness:
    def test_more_ranks_than_leaves(self, rng):
        """Idle ranks must not break the simulation (finite ratio)."""
        from repro.kernels import LaplaceKernel
        from repro.octree import build_lists, build_tree
        from repro.perfmodel import TCS1, simulate_run

        tree = build_tree(rng.uniform(-1, 1, (400, 3)), max_points=40)
        lists = build_lists(tree)
        r = simulate_run(tree, lists, LaplaceKernel(), 4, 128, TCS1)
        assert np.isfinite(r.total)
        assert np.isfinite(r.ratio)
        assert r.total > 0
