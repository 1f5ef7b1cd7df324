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
before).

Where the host built the compiled pair loops (``repro.kernels.native``;
the header says whether it did), two more rows per compiled profile —
Laplace (``inv_r``) and Stokes (``kelvin``) — and U block shape, 39x1053
and 12x324, time a U block both ways, per block of a level of
``U_BLOCKS`` such blocks as the apply meets them: the numpy node's work
(gather and shift into the box frame, ``matrix_local``, GEMV, add into
the potentials) and one call of the compiled loop over the level.  The
compiled block must take at most 0.5 of the numpy one, measured in the
same loop.  Run directly::

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
from repro.kernels import native
from repro.kernels.derived import (
    LaplaceDipoleKernel,
    LaplaceGradientKernel,
    ModifiedLaplaceDipoleKernel,
    ModifiedLaplaceGradientKernel,
)
from repro.core.plan import NearBlocks
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
#: Kernels and block shapes of the compiled-U rows, and the largest
#: allowed ratio of the compiled block to the numpy one (``matrix_local``
#: + GEMV).
U_KERNELS = (LaplaceKernel(), StokesKernel(0.8))
U_SHAPES = ((39, 1053), (12, 324))
U_GATE = 0.5
U_BLOCKS = 64
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


def _row(name: str, nt: int, ns: int, entries: int, call_s: float,
         floor_s: float) -> dict:
    return {
        "kernel": name, "nt": nt, "ns": ns,
        "call_us": call_s * 1e6,
        "ns_per_entry": call_s / entries * 1e9,
        "ns_per_pair": call_s / (nt * ns) * 1e9,
        "floor_ns_per_pair": floor_s / (nt * ns) * 1e9,
        "ratio_to_floor": call_s / floor_s,
    }


def _u_level(rng: np.random.Generator, kernel, nt: int, ns: int):
    """``U_BLOCKS`` U blocks of ``nt`` targets against ``ns`` sources
    drawn around box centres, and the level of ``kernel`` both ways:
    ``(numpy, compiled)`` callables that add its potentials into one
    array."""
    nb = U_BLOCKS
    centers = rng.uniform(-8.0, 8.0, (nb, 3))
    parts = [_block(rng, nt, ns) for _ in range(nb)]
    targets = np.concatenate([t + c for (t, _), c in zip(parts, centers)])
    sources = np.concatenate([s + c for (_, s), c in zip(parts, centers)])
    edges = np.arange(nb + 1, dtype=np.int64)
    blocks = NearBlocks(
        edges[:-1], edges[:-1] * nt, edges[1:] * nt, edges * ns,
        np.arange(nb * ns, dtype=np.int64), edges[:-1],
    )
    dof = kernel.source_dof
    phi3 = rng.standard_normal((nb * ns, dof, 1))
    pot = np.zeros((1, nb * nt, dof))
    run_u = native.loops_for(kernel).u(
        blocks, centers, targets, sources, False
    )

    def numpy_level():
        for i in range(nb):
            t0, t1 = int(blocks.trg_start[i]), int(blocks.trg_stop[i])
            pos = blocks.src_pos[int(blocks.seg[i]) : int(blocks.seg[i + 1])]
            ctr = centers[i]
            K = kernel.matrix_local(targets[t0:t1] - ctr, sources[pos] - ctr)
            pot[0, t0:t1] += (K @ phi3[pos].reshape(-1)).reshape(t1 - t0, dof)

    return numpy_level, lambda: run_u(phi3, pot)


def measure(repeats: int = REPEATS) -> list[dict]:
    rng = np.random.default_rng(17)
    compiled = native.loops_for(LaplaceKernel()) is not None
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
            rows.append(_row(kernel.name, nt, ns, entries, call_s, floor_s))
        if not (compiled and (nt, ns) in U_SHAPES):
            continue
        for kernel in U_KERNELS:
            numpy_level, compiled_level = _u_level(
                np.random.default_rng(29), kernel, nt, ns
            )
            floor_s = _best(floor, repeats)
            numpy_s = _best(numpy_level, repeats) / U_BLOCKS
            compiled_s = _best(compiled_level, repeats) / U_BLOCKS
            entries = nt * ns * kernel.target_dof * kernel.source_dof
            for way, seconds in (("numpy", numpy_s), ("compiled", compiled_s)):
                rows.append(_row(f"{kernel.name} U {way}", nt, ns, entries,
                                 seconds, floor_s))
    return rows


def failed_gates(rows: list[dict]) -> list[str]:
    out = []
    by_key = {(r["kernel"], r["nt"], r["ns"]): r for r in rows}
    for r in rows:
        limit = GATES.get((r["kernel"], (r["nt"], r["ns"])))
        if limit is not None and r["ratio_to_floor"] > limit:
            out.append(
                f"{r['kernel']} {r['nt']}x{r['ns']}: {r['ratio_to_floor']:.1f}x "
                f"the sqrt+divide floor, gate {limit}"
            )
        if r["kernel"].endswith(" U compiled"):
            numpy_name = r["kernel"].replace("compiled", "numpy")
            base = by_key[numpy_name, r["nt"], r["ns"]]
            ratio = r["call_us"] / base["call_us"]
            if ratio > U_GATE:
                out.append(
                    f"{r['kernel']} {r['nt']}x{r['ns']}: {ratio:.2f}x the "
                    f"numpy matrix_local + GEMV block, gate {U_GATE}"
                )
    return out


def header() -> str:
    """Whether the compiled near-field loops are in use on this host."""
    lib = native.library()
    if lib is None:
        return "compiled pair loops: not in use (no working C compiler)"
    return f"compiled pair loops: in use ({lib._name})"


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
    """Bench smoke: the two gated blocks stay within their pass budget,
    and a compiled U block of each profile takes at most half the numpy
    one."""
    rows = measure()
    print()
    print(header())
    report(rows)
    assert not failed_gates(rows)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", type=Path, help="write the rows here")
    ap.add_argument("--against", type=Path,
                    help="rows of another commit (its --json): print ratios to them")
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args()
    print(header())
    rows = measure(args.repeats)
    report(rows, json.loads(args.against.read_text()) if args.against else None)
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    failures = failed_gates(rows)
    for line in failures:
        print("GATE FAILED:", line)
    raise SystemExit(1 if failures else 0)
