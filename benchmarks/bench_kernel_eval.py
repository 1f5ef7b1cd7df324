"""Cost of one kernel-matrix block, against the passes it cannot avoid.

S2M, the U/W/X lists and L2T all spend their time inside
``Kernel.matrix_local`` (``docs/architecture.md``, "Kernel evaluation:
the pass budget"), so this bench times that one call for all eight
kernels on the block shapes the end-to-end workloads produce — a leaf
against its 27 neighbours at ~39 points per leaf (39x1053,
``laplace_near_20k``) and at ~12 (12x324, ``laplace_far_50k``), and a
p=6 surface against a chunk of points (152x600, S2M/L2T/X) — and prints
ns per matrix entry and per point pair.

Absolute times move 30 % with the host's mood, so the gate is
*self-calibrated*: the time of the call over the time of the two passes
any ``1/r`` kernel must make, ``np.sqrt(out=)`` + ``np.divide(out=)`` on
an ``(nt, ns)`` array, measured in the same loop.  Laplace
``matrix_local`` at 39x1053 must stay within 3.0 of that floor (7.5
before the pass budget) and Stokes ``matrix`` at 70x900 within 35 (88
before).  Run directly::

    python benchmarks/bench_kernel_eval.py [--json OUT] [--against OTHER.json]

(``PYTHONPATH=<other checkout>/src ... --json OTHER.json`` times another
commit's kernels with this script; ``--against`` then prints the ratio
of every row to it) or through pytest::

    python -m pytest benchmarks/bench_kernel_eval.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.kernels import (
    LaplaceKernel,
    ModifiedLaplaceKernel,
    NavierKernel,
    StokesKernel,
)
from repro.kernels.derived import (
    LaplaceDipoleKernel,
    LaplaceGradientKernel,
    ModifiedLaplaceDipoleKernel,
    ModifiedLaplaceGradientKernel,
)
from repro.util.tables import format_table

KERNELS = (
    LaplaceKernel(),
    ModifiedLaplaceKernel(1.3),
    StokesKernel(0.8),
    NavierKernel(1.2, 0.25),
    LaplaceGradientKernel(),
    LaplaceDipoleKernel(),
    ModifiedLaplaceGradientKernel(0.9),
    ModifiedLaplaceDipoleKernel(0.9),
)
SHAPES = ((39, 1053), (12, 324), (152, 600), (70, 900))
#: (kernel name, shape) -> largest allowed ratio to the sqrt + divide floor.
GATES = {("laplace", (39, 1053)): 3.0, ("stokes", (70, 900)): 35.0}
REPEATS = 40


def _block(rng: np.random.Generator, nt: int, ns: int):
    """A leaf of half-width 0.5 against its neighbourhood, self pairs included."""
    targets = rng.uniform(-0.5, 0.5, (nt, 3))
    sources = rng.uniform(-1.5, 1.5, (ns, 3))
    shared = min(nt, ns // 27)
    sources[:shared] = targets[:shared]
    return targets, sources


def _best(call, repeats: int = REPEATS) -> float:
    call()
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(repeats: int = REPEATS) -> list[dict]:
    rng = np.random.default_rng(17)
    rows = []
    for nt, ns in SHAPES:
        targets, sources = _block(rng, nt, ns)
        r2 = rng.uniform(0.1, 9.0, (nt, ns))
        scratch = np.empty_like(r2)

        def floor():
            np.sqrt(r2, out=scratch)
            np.divide(0.25, scratch, out=scratch)

        for kernel in KERNELS:
            floor_s = _best(floor, repeats)
            call_s = _best(lambda: kernel.matrix_local(targets, sources), repeats)
            entries = nt * ns * kernel.target_dof * kernel.source_dof
            rows.append({
                "kernel": kernel.name, "nt": nt, "ns": ns,
                "call_us": call_s * 1e6,
                "ns_per_entry": call_s / entries * 1e9,
                "ns_per_pair": call_s / (nt * ns) * 1e9,
                "floor_ns_per_pair": floor_s / (nt * ns) * 1e9,
                "ratio_to_floor": call_s / floor_s,
            })
    return rows


def failed_gates(rows: list[dict]) -> list[str]:
    out = []
    for r in rows:
        limit = GATES.get((r["kernel"], (r["nt"], r["ns"])))
        if limit is not None and r["ratio_to_floor"] > limit:
            out.append(
                f"{r['kernel']} {r['nt']}x{r['ns']}: {r['ratio_to_floor']:.1f}x "
                f"the sqrt+divide floor, gate {limit}"
            )
    return out


def report(rows: list[dict], against: list[dict] | None = None) -> None:
    other = {(r["kernel"], r["nt"], r["ns"]): r for r in against or ()}
    headers = ["kernel", "block", "call us", "ns/entry", "ns/pair", "x floor"]
    if other:
        headers.append("x other")
    table = []
    for r in rows:
        line = [
            r["kernel"], f"{r['nt']}x{r['ns']}", r["call_us"],
            r["ns_per_entry"], r["ns_per_pair"], r["ratio_to_floor"],
        ]
        if other:
            base = other.get((r["kernel"], r["nt"], r["ns"]))
            line.append(r["call_us"] / base["call_us"] if base else float("nan"))
        table.append(tuple(line))
    print(format_table(
        headers, table,
        title="Kernel.matrix_local: one block (floor = sqrt + divide on (nt, ns))",
    ))


def test_kernel_eval_stays_near_its_floor():
    """Bench smoke: the two gated blocks stay within their pass budget."""
    rows = measure()
    print()
    report(rows)
    assert not failed_gates(rows)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", type=Path, help="write the rows here")
    ap.add_argument("--against", type=Path,
                    help="rows of another commit (its --json): print ratios to them")
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()
    rows = measure(args.repeats)
    report(rows, json.loads(args.against.read_text()) if args.against else None)
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    failures = failed_gates(rows)
    for line in failures:
        print("GATE FAILED:", line)
    raise SystemExit(1 if failures else 0)
