"""Potential, tree and list hashes over the executor grid, for
commit-to-commit comparison.

Run on two commits (same machine, same BLAS) and diff the JSON::

    PYTHONPATH=src python benchmarks/bitwise_grid.py --out a.json --npz a.npz

Grid: {Laplace, Stokes} x m2l {dense, rsvd, auto} x {uniform,
corner-clustered, two tight opposite-corner clusters} (N = 3000, p = 4)
x {sequential KIFMM; sequential KIFMM on the numpy near-field stages
(``seq-numpy``: the compiled pair loops of ``repro.kernels.native``
patched out); ParallelFMM at 1, 2, 4 ranks overlap on; 4 ranks overlap
off; 8 ranks}.  The two-cluster set keeps
two boxes per coarse level, so at 8 ranks its V level 2 has fewer boxes
than ranks, and every contributor computes it.  The plane adds {Laplace2D, Stokes2D} x m2l
{dense, rsvd, auto} x {uniform, corner-clustered square} x {sequential
KIFMM, ParallelFMM at 1 and 2 ranks}: the same tree, plan and evaluator
at ``dim = 2`` (which has no compiled loops to patch out).  Each cell records the sha256 of the
``nrhs = 1`` potential, of the tree (every ``TreeTopology`` array of
every rank plus the global counts) and of the four CSR interaction lists
of every rank, the sequential cells also the per-phase flop counts;
``--npz`` stores the ``nrhs = 8`` potentials so ``--against`` can report
the largest relative difference.  Every run also checks the
invariant of the one driver — the sequential operator is the one-rank
operator, so each ``seq`` cell has the hash of the ``p1`` cell of its
row — and exits 1 if it does not hold.  ``--against`` gives its
verdict per M2L column (an ``auto`` cell is filed under the backend
whose cell it equals bit for bit), so a change that means to alter one
backend's arithmetic shows which columns it left alone; any difference
anywhere still exits 1.  Cells the other run has and this one lacks are
listed per M2L and rank column as dropped, and cells this run has and
the other lacks as new — neither is a failure — so a removed or an added
column shows in the log.  A ``seq-numpy`` cell is compared with the
other run's ``seq`` cell of its row when the other run has no
``seq-numpy`` column (a commit before the compiled loops, whose every
step was numpy): that pins the numpy stages' bits across a change that
moves the compiled ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager

# One BLAS thread, as in benchmarks/e2e: 8 rank threads each calling a
# multi-threaded BLAS spin against each other for minutes per cell.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from repro import KIFMM, LaplaceKernel, StokesKernel  # noqa: E402
from repro.core.fmm import FMMOptions  # noqa: E402
from repro.geometry.distributions import (  # noqa: E402
    corner_clusters,
    uniform_cube,
)
from repro.parallel import ParallelFMM  # noqa: E402

try:
    from repro.kernels import native  # noqa: E402
except ImportError:  # a commit before the compiled pair loops
    native = None

try:
    from repro.kernels import Laplace2DKernel, Stokes2DKernel  # noqa: E402
except ImportError:  # a commit before the dimension-generic core
    Laplace2DKernel = Stokes2DKernel = None

N, P, S, NRHS = 3000, 4, 40, 8
CONFIGS = (
    ("seq", None),
    ("seq-numpy", None),
    ("p1", dict(nranks=1)),
    ("p2", dict(nranks=2)),
    ("p4", dict(nranks=4)),
    ("p4-nooverlap", dict(nranks=4, overlap=False)),
    ("p8", dict(nranks=8)),
)
CONFIGS_2D = tuple(c for c in CONFIGS if c[0] in ("seq", "p1", "p2"))


def two_clusters(n: int, rng: np.random.Generator) -> np.ndarray:
    half = n // 2
    return np.vstack([
        rng.uniform(0.0, 0.12, (half, 3)),
        rng.uniform(0.88, 1.0, (n - half, 3)),
    ])


def uniform_square(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, 1.0, (n, 2))


def corner_squares(n: int, rng: np.random.Generator) -> np.ndarray:
    """Points piled into the four corners of the unit square."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    pts = corners[rng.integers(0, 4, n)]
    return np.abs(pts - 0.05 * np.abs(rng.standard_normal((n, 2))))


#: (kernel name, kernel, point sets, configurations) of every row.
ROWS = (
    ("laplace", LaplaceKernel(), (("uniform", uniform_cube),
                                  ("corners", corner_clusters),
                                  ("two-clusters", two_clusters)), CONFIGS),
    ("stokes", StokesKernel(), (("uniform", uniform_cube),
                                ("corners", corner_clusters),
                                ("two-clusters", two_clusters)), CONFIGS),
) + (() if Laplace2DKernel is None else (
    ("laplace2d", Laplace2DKernel(), (("uniform", uniform_square),
                                      ("corners", corner_squares)), CONFIGS_2D),
    ("stokes2d", Stokes2DKernel(), (("uniform", uniform_square),
                                    ("corners", corner_squares)), CONFIGS_2D),
))


@contextmanager
def numpy_nodes(on: bool):
    """With ``on``, every kernel runs its numpy near-field stages inside
    the block: the compiled loops are selected at setup and at every
    apply, so both must run inside it."""
    if not on or native is None:
        yield
        return
    saved = native.loops_for
    native.loops_for = lambda kernel: None
    try:
        yield
    finally:
        native.loops_for = saved


def counterpart(key: str, other: dict) -> str:
    """The other run's cell to compare ``key`` with."""
    if key.endswith("/seq-numpy") and key not in other:
        return key[: -len("-numpy")]
    return key


def structure_hashes(states) -> dict[str, str]:
    """sha256 of the ranks' trees and of their interaction lists, read
    through ``tree.topology`` and ``lists.flat`` (dtype and shape
    included, so a silently widened or reshaped array differs too)."""
    tree, lists = hashlib.sha256(), hashlib.sha256()

    def feed(digest, arr: np.ndarray) -> None:
        digest.update(repr((arr.dtype.str, arr.shape)).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())

    for state in states:
        topo = state.tree.topology
        for field in dataclasses.fields(topo):
            feed(tree, getattr(topo, field.name))
        feed(tree, state.ptree.global_nsrc)
        feed(tree, state.ptree.global_ntrg)
        for which in "UVWX":
            for arr in state.lists.flat(which):
                feed(lists, arr)
    return {"tree_sha256": tree.hexdigest(), "lists_sha256": lists.hexdigest()}


def run_grid() -> tuple[dict, dict]:
    cells: dict[str, dict] = {}
    blocks: dict[str, np.ndarray] = {}
    for kname, kernel, point_sets, configs in ROWS:
        for dist, maker in point_sets:
            rng = np.random.default_rng(12)
            pts = maker(N, rng)
            phi = rng.standard_normal((N, kernel.source_dof))
            phi8 = rng.standard_normal((N, kernel.source_dof, NRHS))
            for m2l in ("dense", "rsvd", "auto"):
                for cname, par in configs:
                    par = dict(par or {})
                    opts = FMMOptions(p=P, max_points=S, m2l=m2l)
                    seq = cname.startswith("seq")
                    key = f"{kname}/{dist}/{m2l}/{cname}"
                    with numpy_nodes(cname == "seq-numpy"):
                        if seq:
                            fmm = KIFMM(kernel, opts).setup(pts)
                        else:
                            fmm = ParallelFMM(
                                par.pop("nranks"), kernel, opts, **par
                            ).setup(pts)
                        u = np.ascontiguousarray(fmm.apply(phi))
                        blocks[key] = fmm.apply(phi8)
                    cell = {"sha256": hashlib.sha256(u.tobytes()).hexdigest()}
                    cell.update(structure_hashes(
                        [fmm.state] if seq else fmm.states
                    ))
                    if seq:
                        cell["flops"] = fmm.statistics()["flops"]
                    cells[key] = cell
                    print(key, cell["sha256"][:16], flush=True)
    return cells, blocks


def m2l_column(key: str, cells: dict) -> str:
    """The M2L column of a cell; ``auto`` by the backend it resolved to.

    An ``auto`` cell that ran one backend on every level has the hash of
    that backend's cell for the same kernel, points and ranks.
    """
    kname, dist, m2l, cname = key.split("/")
    if m2l != "auto":
        return m2l
    for backend in ("dense", "rsvd"):
        same = cells[f"{kname}/{dist}/{backend}/{cname}"]
        if same["sha256"] == cells[key]["sha256"]:
            return f"auto={backend}"
    return "auto=mixed"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON of hashes and flops")
    ap.add_argument("--npz", help="store the nrhs=8 potentials here")
    ap.add_argument("--against", nargs=2, metavar=("JSON", "NPZ"),
                    help="compare with another run's outputs")
    args = ap.parse_args()
    cells, blocks = run_grid()
    with open(args.out, "w") as fh:
        json.dump(cells, fh, indent=1, sort_keys=True)
    if args.npz:
        np.savez_compressed(args.npz, **blocks)
    rows = [k for k in cells if k.endswith("/seq")]
    broken = [
        k for k in rows if cells[k]["sha256"] != cells[k[:-3] + "p1"]["sha256"]
    ]
    print(f"seq == p1 in {len(rows) - len(broken)}/{len(rows)} rows")
    for k in broken:
        print("  SEQ != P1", k)
    failed = bool(broken)
    if args.against:
        with open(args.against[0]) as fh:
            other = json.load(fh)
        other_blocks = np.load(args.against[1])
        twin = {k: counterpart(k, other) for k in cells}
        new = [k for k in cells if twin[k] not in other]
        ours = {k: cells[k] for k in cells if k not in new}
        differ = [k for k in ours if ours[k] != other[twin[k]]]
        rel = {
            k: float(np.abs(blocks[k] - other_blocks[twin[k]]).max()
                     / np.abs(other_blocks[twin[k]]).max())
            for k in ours
        }
        worst = max(rel.values())
        print(f"{len(ours)} cells, {len(differ)} differ (potential, tree or "
              f"list hash, or flops); nrhs={NRHS} max relative difference "
              f"{worst:.3e}")
        for what in ("tree_sha256", "lists_sha256"):
            same = sum(ours[k][what] == other[twin[k]][what] for k in ours)
            print(f"  {what:<13}{same:>3}/{len(ours)} cells equal")
        numpy_rows = [k for k in ours if k.endswith("/seq-numpy")]
        base = twin[numpy_rows[0]].rsplit("/", 1)[1]
        equal = sum(k not in differ for k in numpy_rows)
        print(f"  seq-numpy == the other run's {base} in "
              f"{equal}/{len(numpy_rows)} rows")
        for kname in sorted({k.split("/", 1)[0] for k in ours}):
            keys = [k for k in ours if k.startswith(kname + "/")]
            equal = sum(k not in differ for k in keys)
            print(f"  {kname:<11}{equal:>3}/{len(keys)} cells equal; "
                  f"nrhs={NRHS} max relative difference "
                  f"{max(rel[k] for k in keys):.3e}")
        columns: dict[str, list[str]] = {}
        for k in ours:
            columns.setdefault(m2l_column(k, cells), []).append(k)
        for name, keys in sorted(columns.items()):
            equal = sum(k not in differ for k in keys)
            print(f"  {name:<11}{equal:>3}/{len(keys)} cells equal, "
                  f"{len(keys) - equal} differ; nrhs={NRHS} max relative "
                  f"difference {max(rel[k] for k in keys):.3e}")
        for k in differ:
            print("  DIFFERS", k)
        dropped: dict[str, list[str]] = {}
        for k in sorted(set(other) - set(cells)):
            dropped.setdefault(k.split("/", 2)[2], []).append(k)
        for column, keys in sorted(dropped.items()):
            print(f"  dropped  {column:<18}{len(keys):>3} cells of the other "
                  f"run not in this one (not a failure)")
        added: dict[str, list[str]] = {}
        for k in new:
            added.setdefault(k.split("/", 2)[2], []).append(k)
        for column, keys in sorted(added.items()):
            print(f"  new      {column:<18}{len(keys):>3} cells not in the "
                  f"other run (not a failure)")
        failed = failed or bool(differ) or worst > 1e-13
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
