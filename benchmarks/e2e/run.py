"""One command for the end-to-end benchmark and its per-layer ledger.

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py [--runs N] [--traced] [--quick] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

The first form is the contract in ``BENCHMARK.json``: one workload in
this process, every metric printed by name with its unit, every output
checked against an oracle, and one JSON object as the last line of
standard output.  The exit code is non-zero when a check failed.  The
second form runs every workload that way, each in a child process of
its own (cold caches for ``setup_s``, its own ``ru_maxrss``), and
gathers the runs into one result file.  The third compares two such
files under the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = 1


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _make_importable() -> None:
    """Put the repository root and ``src`` on the path when run as a script.

    The script's own directory is dropped: ``trace.py`` in it would
    shadow the standard library's ``trace``.
    """
    if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
        del sys.path[0]
    for entry in (ROOT, ROOT / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))


def parse_args(argv: list[str] | None, contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run this one, in-process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="length of the steady measuring window",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--traced", action="store_true",
        help="also make the traced run (alone: same as --trace 1)",
    )
    ap.add_argument(
        "--quick", action="store_true",
        help="tiny inputs, two steady samples, no bounds: a smoke run",
    )
    ap.add_argument("--runs", type=int, default=1, help="runs per workload")
    ap.add_argument("--out", type=Path, help="write the result file here")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    return ap.parse_args(argv)


def print_rows(title: str, rows: dict[str, dict]) -> None:
    print(title)
    for name, m in rows.items():
        print(f"  {name:<44s} {m['value']:>14.6g} {m['unit']}")


def run_one(args: argparse.Namespace, contract: dict) -> int:
    """Measure one workload here and print the contract's result line."""
    from benchmarks.e2e import machine

    machine.pin_blas_threads()
    from benchmarks.e2e import workloads
    from benchmarks.e2e.trace import Tracer

    traced = bool(args.trace or args.traced)
    seconds = 0.0 if args.quick else args.seconds / (2 if traced else 1)
    params = workloads.params_for(args.workload, args.quick, traced)
    tracer = Tracer(args.workload, traced)
    out = workloads.Outcome()
    t0 = time.perf_counter()
    rows = workloads.RUNNERS[args.workload](params, args.seed, seconds, tracer, out)
    calibration = None
    if traced:
        calibration = machine.calibrate(args.quick)
        rows.update({k: v for k, v in calibration.items() if k.startswith("machine.")})
    wall = time.perf_counter() - t0

    # A layer this workload does not enter reports 0: no messages sent,
    # no Krylov iterations, no batches formed.
    wanted = contract["per_layer" if traced else "end_to_end"]
    metrics = {
        m["name"]: {"value": float(rows.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    correct = out.failed == 0
    print_rows(
        f"{args.workload}  seed={args.seed}  "
        f"{'traced' if traced else 'untraced'}",
        metrics,
    )
    for check in out.checks:
        verdict = "ok" if check["ok"] else "FAILED"
        print(f"  check {check['name']}: {check['value']:.3e} "
              f"<= {check['limit']:.1e}  {verdict}")
    for name, count in out.samples.items():
        if isinstance(count, dict):  # quartiles of the steady samples
            count = "  ".join(f"{k}={v:.4g}" for k, v in count.items())
        print(f"  samples {name}: {count}")
    print(f"  fail_share {out.failed}/{out.attempted}   wall {wall:.1f} s")

    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "traced": traced,
            "quick": args.quick, "seconds": seconds, "params": params,
            "samples": out.samples, "attempted": out.attempted,
            "failed": out.failed, "correct": correct, "checks": out.checks,
            "metrics": metrics, "wall_s": wall,
        }
        if traced:
            record["spans"] = tracer.to_json()
            record["layer_self_s"] = tracer.self_seconds()
        write_set(args.out, [record], machine.fingerprint(ROOT), calibration)
    print(json.dumps({
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def write_set(
    path: Path, records: list[dict], fingerprint: dict, calibration: dict | None
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema": SCHEMA, "fingerprint": fingerprint,
        "calibration": calibration, "records": records,
    }, indent=1))


def run_all(args: argparse.Namespace, contract: dict) -> int:
    """Every workload, each run in its own child; gather one result file."""
    from benchmarks.e2e import machine

    machine.pin_blas_threads()  # inherited by the children
    names = [w["name"] for w in contract["workloads"]]
    modes = (0, 1) if args.traced else (0,)
    records: list[dict] = []
    fingerprint = calibration = None
    status = 0
    scratch_parent = args.out.parent if args.out else Path.cwd()
    scratch_parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_parent, prefix=".e2e-") as tmp:
        part = Path(tmp) / "part.json"
        # Runs of one workload are spread across the session, not back to
        # back, so slow drift of the host lands on every workload alike.
        for _ in range(args.runs):
            for name in names:
                for mode in modes:
                    cmd = [
                        sys.executable, str(HERE / "run.py"),
                        "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(mode),
                        "--out", str(part),
                    ] + (["--quick"] if args.quick else [])
                    done = subprocess.run(cmd, cwd=ROOT)
                    status = status or done.returncode
                    if not part.exists():
                        continue
                    child = json.loads(part.read_text())
                    part.unlink()
                    records += child["records"]
                    fingerprint = fingerprint or child["fingerprint"]
                    calibration = calibration or child["calibration"]
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(f"\n{len(records)} runs, fail_share {failed}/{attempted}, "
          f"{'all checks passed' if status == 0 else 'A CHECK FAILED'}")
    if args.out and records:
        write_set(
            args.out, records, fingerprint,
            calibration or machine.calibrate(args.quick),
        )
        print(f"wrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    args = parse_args(argv, contract)
    _make_importable()
    if args.compare:
        from benchmarks.e2e.compare import compare_files

        return compare_files(*args.compare, contract)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
