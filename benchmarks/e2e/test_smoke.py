"""Smoke test of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

One ``--quick --traced`` pass over all six workloads, then: the names in
``BENCHMARK.json`` and the names the harness emits are the same sets,
every oracle check ran and passed, and a corrupted potential is caught.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import run

CONTRACT = run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CHECKS = {name: {"rel_err"} for name in WORKLOADS}
CHECKS["laplace_p2_50k"] |= {"matches_sequential"}
CHECKS["stokes_gmres"] |= {"first_matvec_err"}


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--quick", "--traced",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert set(doc["fingerprint"]) >= {
        "cpu_model", "nproc", "python", "numpy", "blas", "blas_threads", "git_sha",
    }
    assert doc["calibration"]["machine.dgemm_gflops"] > 0
    return doc["records"]


def test_names_are_well_formed():
    names = WORKLOADS + [
        m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_every_declared_metric_is_emitted_and_vice_versa(records):
    assert {r["workload"] for r in records} == set(WORKLOADS)
    for traced, declared in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in CONTRACT[declared]}
        measured: set[str] = set()
        for r in (r for r in records if r["traced"] == traced):
            assert {k: v["unit"] for k, v in r["metrics"].items()} == units
            measured |= {k for k, v in r["metrics"].items() if v["value"] != 0}
        # a row no workload fills is a misspelt name, not a quiet layer
        always_zero = {
            "core.m2lschedule.levels_fft", "serve.backlog_end",
        }
        assert set(units) - measured <= always_zero
    for r in (r for r in records if not r["traced"]):
        assert all(v["value"] > 0 for v in r["metrics"].values()), r["workload"]


def test_every_oracle_check_runs_and_passes(records):
    for r in records:
        assert {c["name"] for c in r["checks"]} == CHECKS[r["workload"]]
        assert all(c["ok"] for c in r["checks"]), r["checks"]
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0


def test_traced_run_carries_spans(records):
    for r in (r for r in records if r["traced"]):
        ids = {s["id"] for s in r["spans"]}
        assert all(s["parent"] is None or s["parent"] in ids for s in r["spans"])
        assert all(s["end_s"] >= s["start_s"] for s in r["spans"])
        assert all(v >= -1e-9 for v in r["layer_self_s"].values())


def test_corrupted_potential_fails_the_run(monkeypatch, capsys):
    from repro.core.fmm import KIFMM

    honest = KIFMM.apply
    monkeypatch.setattr(KIFMM, "apply", lambda self, phi: 1.001 * honest(self, phi))
    status = run.main(["--workload", "laplace_near_20k", "--quick"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
