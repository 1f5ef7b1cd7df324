"""Setup, stage by stage: tree, lists, plan, and the two whole setups.

The paper rebuilds tree and lists at every time step of its
sedimentation runs, so setup is a figure the user feels.  This bench
times each stage on the three Laplace point sets of the end-to-end
workloads (20 000 and 50 000 uniform points, 30 000 corner-clustered,
``s = 60``), best of three: ``build_tree``, ``build_lists``, the four
``lists.flat`` calls, ``compile_plan``, the performance model of the
same tree and lists (``compute_work`` + one ``simulate_run`` at
P = 1024), then ``KIFMM.setup`` and
``ParallelFMM(2).setup`` whole (both now end in the ``operators``
phase — the precompute that used to sit under the first apply — so
``--against`` a checkout older than that reads them higher by it).
``docs/architecture.md``, "Setup as array code", holds the before/after
table.

Gates (exit 1): ``build_lists`` at 50 000 uniform points within 0.35 s
(the per-box walk took 0.93-1.09 s, the array code 0.04-0.05 s), and
on the largest set the model within twice
the tree and lists it prices (as a per-box walk it took 13-20 times
them; as array code about as long) — a ratio of two stages timed in the
same loop, so it does not depend on the runner's speed.  (A third gate,
lists no slower than the plan compiled from them, held while
``compile_plan`` sorted the V pairs by offset class; since that sort left
the default path the plan takes 24-30 ms at 50 000 points against
28-34 ms of lists, the gate failed on every run, and it is gone.)  ``--quick`` times every stage once instead of
three times — a few seconds in all.  Run directly::

    python benchmarks/bench_setup.py [--quick] [--json OUT] [--against OTHER_CHECKOUT]

(``--against`` times ``OTHER_CHECKOUT/src`` with this script in a child
process and prints every stage's ratio to it) or through pytest::

    python -m pytest benchmarks/bench_setup.py -q -s
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, as in benchmarks/e2e.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from repro import KIFMM, LaplaceKernel  # noqa: E402
from repro.core.plan import compile_plan  # noqa: E402
from repro.geometry.distributions import (  # noqa: E402
    corner_clusters,
    uniform_cube,
)
from repro.octree import build_lists, build_tree  # noqa: E402
from repro.parallel import ParallelFMM  # noqa: E402
from repro.perfmodel import TCS1, simulate_run  # noqa: E402
from repro.perfmodel.costs import compute_work  # noqa: E402
from repro.util.tables import format_table  # noqa: E402

SETS = (
    ("uniform_20k", uniform_cube, 20_000),
    ("uniform_50k", uniform_cube, 50_000),
    ("corner_30k", corner_clusters, 30_000),
)
STAGES = ("tree", "lists", "flat", "plan", "model", "kifmm_setup", "pfmm2_setup")
LISTS_GATE = ("uniform_50k", 0.35)
MODEL_GATE = ("uniform_50k", 2.0)  # x (tree + lists)
KERNEL = LaplaceKernel()
REPEATS = 3


def _best(call, repeats: int):
    """``(fastest seconds, last result)`` of ``repeats`` calls."""
    best, out = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - t0)
    return best, out


def measure(repeats: int = REPEATS) -> list[dict]:
    rows = []
    for name, maker, n in SETS:
        pts = maker(n, np.random.default_rng(0))
        row = {"set": name, "n": len(pts)}
        row["tree"], tree = _best(lambda: build_tree(pts), repeats)
        # A fresh tree per repeat: at commits before the builder wrote
        # ``Octree.topology`` itself (``--against``), the lists paid for
        # the topology they were the first to read.
        trees = iter([build_tree(pts) for _ in range(repeats)])
        row["lists"], lists = _best(lambda: build_lists(next(trees)), repeats)
        row["flat"], _ = _best(lambda: [lists.flat(w) for w in "UVWX"], 1)
        tree = build_tree(pts)
        lists = build_lists(tree)
        row["plan"], _ = _best(lambda: compile_plan(tree, lists), repeats)
        row["model"], _ = _best(lambda: simulate_run(
            tree, lists, KERNEL, 6, 1024, TCS1,
            work=compute_work(tree, lists, KERNEL, 6),
        ), repeats)
        row["kifmm_setup"], _ = _best(
            lambda: KIFMM(KERNEL).setup(pts), repeats
        )
        row["pfmm2_setup"], _ = _best(
            lambda: ParallelFMM(2, KERNEL).setup(pts), repeats
        )
        row.update(nboxes=tree.nboxes, depth=tree.depth, **{
            f"{w.lower()}_pairs": c for w, c in lists.counts().items()
        })
        rows.append(row)
    return rows


def failed_gates(rows: list[dict]) -> list[str]:
    out = []
    for r in rows:
        if r["set"] == LISTS_GATE[0] and r["lists"] > LISTS_GATE[1]:
            out.append(
                f"build_lists on {r['set']}: {r['lists']:.3f} s, "
                f"gate {LISTS_GATE[1]} s"
            )
        priced = r["tree"] + r["lists"]
        if r["set"] == MODEL_GATE[0] and r["model"] > MODEL_GATE[1] * priced:
            out.append(
                f"{r['set']}: the model takes {r['model']:.3f} s, over "
                f"{MODEL_GATE[1]:g} x the tree and lists it prices "
                f"({priced:.3f} s)"
            )
    return out


def measure_checkout(checkout: Path, quick: bool) -> list[dict]:
    """This script's rows with ``checkout/src`` as the package under test
    (its gates may fail there: only the rows are read)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rows.json"
        cmd = [sys.executable, __file__, "--json", str(out)]
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        subprocess.run(
            cmd + ["--quick"] * quick, env=env, stdout=subprocess.DEVNULL
        )
        return json.loads(out.read_text())


def report(
    rows: list[dict], against: list[dict] | None = None, repeats: int = REPEATS
) -> None:
    other = {r["set"]: r for r in against or ()}
    headers = ["set", "boxes", "stage", "ms"]
    if other:
        headers += ["other ms", "x other"]
    table = []
    for r in rows:
        for stage in STAGES:
            line = [r["set"], r["nboxes"], stage, r[stage] * 1e3]
            if other:
                base = other[r["set"]][stage]
                line += [base * 1e3, r[stage] / base if base else float("nan")]
            table.append(tuple(line))
    print(format_table(
        headers, table, title=f"Setup by stage, best of {repeats} (1 BLAS thread)"
    ))


def test_lists_are_not_the_slow_stage():
    """Bench smoke: one repeat per stage, both gates."""
    rows = measure(repeats=1)
    print()
    report(rows, repeats=1)
    assert not failed_gates(rows)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"time every stage once, not {REPEATS} times")
    ap.add_argument("--json", type=Path, help="write the rows here")
    ap.add_argument("--against", type=Path, metavar="OTHER_CHECKOUT",
                    help="another checkout of this repository: print ratios to it")
    args = ap.parse_args()
    repeats = 1 if args.quick else REPEATS
    against = measure_checkout(args.against, args.quick) if args.against else None
    rows = measure(repeats)
    report(rows, against, repeats)
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    failures = failed_gates(rows)
    for line in failures:
        print("GATE FAILED:", line)
    raise SystemExit(1 if failures else 0)
