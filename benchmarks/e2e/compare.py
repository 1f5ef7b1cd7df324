"""``--compare A.json B.json``: did B get worse than A?

One row per (end-to-end metric, workload): both medians with their
quartiles over the runs in each file, and a verdict under the bound
``BENCHMARK.json`` fixes for the metric:

- *worse*: B's median is worse than A's by more than the bound;
- *better*: every run of B reads better than every run of A, and the
  medians differ by more than the distance between A's quartiles;
- *unresolved*: the run-to-run spread (quartile distance over median, of
  either file) is wider than the bound and the two sets of runs overlap,
  so the rows cannot show "no worse";
- *no worse*: otherwise.

Counts the program makes exactly (tree shape, flops, messages, Krylov
iterations) must be identical in both files.  Files from different
machines, seeds or workload parameters are refused, not compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from benchmarks.e2e.machine import COMPARABLE

#: Per-layer rows that repeat bit for bit while the program is unchanged.
EXACT = (
    "octree.depth", "octree.nboxes", "octree.nleaves", "octree.u_pairs",
    "octree.v_pairs", "octree.w_pairs", "octree.x_pairs",
    "core.m2lschedule.levels_fft", "core.m2lschedule.levels_dense",
    "core.m2lschedule.levels_rsvd", "core.precompute.m2l_rsvd_mean_rank",
    "core.evaluator.up_flops", "core.evaluator.down_v_flops",
    "core.evaluator.down_u_flops", "core.evaluator.down_w_flops",
    "core.evaluator.down_x_flops", "core.evaluator.eval_flops",
    "parallel.simmpi.messages_per_apply", "parallel.simmpi.bytes_per_apply",
    "linalg.gmres.iters", "linalg.gmres.matvecs",
)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile; a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a = [sign * v for v in a]  # now lower is better for every metric
    b = [sign * v for v in b]
    qa, qb = quartiles(a), quartiles(b)
    if max(b) < min(a) and qa[1] - qb[1] > qa[2] - qa[0]:
        return "better"
    spread = max((q[2] - q[0]) / abs(q[1]) for q in (qa, qb) if q[1])
    overlap = min(b) <= max(a) and min(a) <= max(b)
    if spread > bound and overlap:
        return "unresolved"
    if qb[1] - qa[1] > bound * abs(qa[1]):
        return "worse"
    return "no worse"


def mismatches(a: dict, b: dict) -> list[str]:
    """Why two result files may not be compared (empty: they may)."""
    why = [
        f"fingerprint.{k}: {a['fingerprint'].get(k)!r} != {b['fingerprint'].get(k)!r}"
        for k in COMPARABLE
        if a["fingerprint"].get(k) != b["fingerprint"].get(k)
    ]

    def stamp(doc: dict) -> dict:
        return {
            (r["workload"], r["traced"]): (
                r["seed"], r["quick"], r["seconds"], r["params"]
            )
            for r in doc["records"]
        }

    sa, sb = stamp(a), stamp(b)
    for name, traced in sorted(set(sa) | set(sb)):
        if sa.get((name, traced)) != sb.get((name, traced)):
            kind = "traced" if traced else "untraced"
            why.append(f"{name} ({kind}): seed, run length or parameters differ")
    return why


def values(doc: dict, workload: str, metric: str, traced: bool) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in doc["records"]
        if r["workload"] == workload and r["traced"] == traced
        and metric in r["metrics"]
    ]


def compare_files(path_a: Path, path_b: Path, contract: dict) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    why = mismatches(a, b)
    if why:
        print("refusing to compare:", *why, sep="\n  ", file=sys.stderr)
        return 2
    print(f"A {path_a}  ({a['fingerprint']['git_sha'][:12]})")
    print(f"B {path_b}  ({b['fingerprint']['git_sha'][:12]})")
    counts = {"better": 0, "no worse": 0, "worse": 0, "unresolved": 0}
    head = f"{'workload':<20s}{'metric':<18s}{'A q1/median/q3':>34s}{'B q1/median/q3':>34s}  bound  verdict"
    print(head)
    for w in contract["workloads"]:
        for m in contract["end_to_end"]:
            va = values(a, w["name"], m["name"], False)
            vb = values(b, w["name"], m["name"], False)
            if not va or not vb:
                continue
            v = verdict(va, vb, m["better"], m["bound"])
            counts[v] += 1
            fa = "/".join(f"{q:.4g}" for q in quartiles(va))
            fb = "/".join(f"{q:.4g}" for q in quartiles(vb))
            print(f"{w['name']:<20s}{m['name']:<18s}{fa:>34s}{fb:>34s}"
                  f"  {m['bound']:.2f}   {v}")
    differing = 0
    for w in contract["workloads"]:
        for name in EXACT:
            seen = set(values(a, w["name"], name, True))
            seen |= set(values(b, w["name"], name, True))
            if len(seen) > 1:
                differing += 1
                print(f"exact count differs: {w['name']} {name} {sorted(seen)}")
    print(", ".join(f"{k}: {n}" for k, n in counts.items())
          + f", exact counts differing: {differing}")
    return 1 if counts["worse"] or differing else 0
