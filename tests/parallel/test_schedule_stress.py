"""Seeded schedule-perturbation stress tests.

The per-apply exchange (``ApplyExchange``, both payload kinds), the
contributor allgather every rank derives its roles from and the whole
parallel FMM must be schedule
independent: whatever interleaving the thread scheduler produces, every
rank must end up with bitwise-identical data.  We fuzz perturbed
schedules (seeded random yields inside every SimComm call), compare
against an unperturbed reference run, and require every run that has a
compiled schedule to follow it: each rank asks of its communicator
exactly its program (recorded test-side), or holds exactly the
certified programs.
"""

import numpy as np
import pytest

from repro.analysis.commcheck_static import run_checks
from repro.analysis.commir import extract_comm_ir, static_plan_inputs
from repro.core.fmm import FMMOptions
from repro.geometry import corner_clusters, uniform_cube
from repro.kernels import LaplaceKernel
from repro.parallel.owners import gather_contributors
from repro.parallel.pfmm import ParallelFMM
from repro.parallel.simmpi import run_spmd

from tests.conftest import coarse_v_levels, uniform_cloud
from tests.parallel.exchange_harness import (
    exchange_ir,
    flatten,
    run_exchange,
)
from tests.parallel.recording import program_messages

NRANKS = 4
NBOXES = 24
NSCHEDULES = 10


def _random_topology(rng):
    """Random contributor/user matrices with a consistent owner map."""
    contrib = rng.random((NRANKS, NBOXES)) < 0.45
    contrib[rng.integers(0, NRANKS, size=NBOXES), np.arange(NBOXES)] = True
    users = rng.random((NRANKS, NBOXES)) < 0.45
    owner = np.array([
        rng.choice(np.nonzero(contrib[:, b])[0]) for b in range(NBOXES)
    ])
    return contrib, users, owner


def _exchange_once(contrib, users, owner, kind, seed):
    """One recorded ApplyExchange round of one payload kind, which must
    run the compiled programs as written.

    ``phi`` ships rank- and box-tagged density rows (concatenated at the
    owner), ``pue`` random partial equivalent densities (summed).
    """
    none = np.zeros_like(users)
    pieces = [{} for _ in range(NRANKS)]
    partials = np.zeros((NRANKS, NBOXES, 6))
    if kind == "phi":
        pieces = [
            {b: np.full((3, 2), 10.0 * r + b)
             for b in range(NBOXES) if contrib[r, b]}
            for r in range(NRANKS)
        ]
    else:
        values = np.random.default_rng(7).standard_normal(partials.shape)
        partials[contrib] = values[contrib]
    users_src = users if kind == "phi" else none
    users_equiv = users if kind == "pue" else none
    record = {}
    results = run_exchange(
        contrib, users_src, users_equiv, owner, pieces, partials,
        record=record, schedule_seed=seed,
    )
    ir = exchange_ir(contrib, users_src, users_equiv, owner)
    report = run_checks(ir)
    assert report.ok, [str(f) for f in report.findings[:5]]
    for rank, program in enumerate(ir.programs):
        assert record[rank].messages() == program_messages(program)
    return flatten(results)


def _assert_schedule_independent(contrib, users, owner, kind):
    reference = _exchange_once(contrib, users, owner, kind, None)
    assert reference, "the random topology must move some data"
    for seed in range(NSCHEDULES):
        got = _exchange_once(contrib, users, owner, kind, seed)
        assert got == reference, f"schedule {seed} diverged"


def test_ghost_exchange_bitwise_identical_across_schedules(rng):
    contrib, users, owner = _random_topology(rng)
    _assert_schedule_independent(contrib, users, owner, "phi")


def test_equiv_density_reduction_bitwise_identical_across_schedules(rng):
    contrib, users, owner = _random_topology(rng)
    _assert_schedule_independent(contrib, users, owner, "pue")


def test_gather_contributors_bitwise_identical_across_schedules(rng):
    """parallel/owners.py: the allgathered contributor matrices — every
    rank's roles are derived from them — are schedule free."""
    masks = rng.random((NRANKS, 2, NBOXES)) < 0.5

    def main(comm):
        cs, ct = gather_contributors(
            comm, masks[comm.rank, 0].copy(), masks[comm.rank, 1].copy()
        )
        return cs.tobytes(), ct.tobytes()

    reference = run_spmd(NRANKS, main)
    # identical everywhere, and the stacked masks
    assert all(r == reference[0] for r in reference)
    assert reference[0] == (masks[:, 0].tobytes(), masks[:, 1].tobytes())
    for seed in range(NSCHEDULES):
        results = run_spmd(NRANKS, main, schedule_seed=seed)
        assert results == reference, f"schedule {seed} diverged"


@pytest.mark.parametrize("seed", [0, 1])
def test_perturbation_is_reproducible(seed, rng):
    """Same seed, same received bytes: the fuzzing itself is
    deterministic."""
    contrib, users, owner = _random_topology(rng)
    first = _exchange_once(contrib, users, owner, "phi", seed)
    assert _exchange_once(contrib, users, owner, "phi", seed) == first


@pytest.mark.parametrize("overlap", [True, False])
@pytest.mark.parametrize("case", ["uniform-p3", "uniform-p4", "clusters-p8"])
def test_parallel_fmm_bitwise_identical_across_schedules(case, overlap):
    """The whole operator under three ``schedule_seed``s: every setup
    leaves the certified programs on the ranks, and the potentials
    agree bit for bit — at P = 3 and 4 on uniform points, and at P = 8
    on two corner clusters, whose V level 2 has fewer boxes than
    ranks."""
    rng = np.random.default_rng(21)
    if case.startswith("uniform"):
        nranks, pts = int(case[-1]), uniform_cloud(rng, 500)
    else:
        nranks, pts = 8, np.vstack([
            rng.uniform(0.0, 0.12, (120, 3)),
            rng.uniform(0.88, 1.0, (120, 3)),
        ])
    opts = FMMOptions(p=3, max_points=20)
    density = rng.standard_normal(pts.shape[0])
    inputs = static_plan_inputs(pts, nranks, opts)
    assert bool(coarse_v_levels(inputs.tree, nranks)) == (
        case == "clusters-p8"
    )
    ir = extract_comm_ir(inputs)
    potentials = []
    for seed in range(3):
        op = ParallelFMM(nranks, LaplaceKernel(), opts, overlap=overlap)
        op.setup(pts, schedule_seed=seed)
        potentials.append(op.apply(density, schedule_seed=seed))
        report = run_checks(ir, states=op.states)
        assert report.ok, [str(f) for f in report.findings[:5]]
    for pot in potentials[1:]:
        assert np.array_equal(pot, potentials[0])


#: ``(nranks, workload, nrhs, m2l, dtype)``: 600 points, p = 4, 40 per
#: leaf — the persistent apply at 4 ranks with single and 4-column
#: densities and with float32 rsvd factors, and the tree-top path of 8
#: ranks on corner clusters.
SANITIZED = {
    "p4": (4, uniform_cube, 1, "auto", "float64"),
    "p4-nrhs4": (4, uniform_cube, 4, "auto", "float64"),
    "p4-rsvd-float32": (4, uniform_cube, 1, "rsvd", "float32"),
    "p8-corners": (8, corner_clusters, 1, "auto", "float64"),
}


@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "no-overlap"])
@pytest.mark.parametrize("case", sorted(SANITIZED))
def test_sanitized_applies_bitwise_identical_across_schedules(case, overlap):
    """With the runtime sanitizers armed, a setup and two applies under
    three ``schedule_seed``s give the potentials of the unperturbed run
    (whose applies run on rank processes) bit for bit; a sanitizer
    diagnosis raises."""
    nranks, workload, nrhs, m2l, dtype = SANITIZED[case]
    rng = np.random.default_rng(0)
    pts = workload(600, rng)
    density = rng.random((600, 1, nrhs) if nrhs > 1 else (600, 1))
    opts = FMMOptions(p=4, max_points=40, m2l=m2l, dtype=dtype, sanitize=True)
    runs = []
    for seed in (None, 0, 1, 2):
        with ParallelFMM(nranks, LaplaceKernel(), opts, overlap=overlap) as op:
            op.setup(pts, schedule_seed=seed)
            runs.append([
                op.apply(density, schedule_seed=seed) for _ in range(2)
            ])
    reference = runs[0][0]
    for seed, pots in zip((None, 0, 1, 2), runs):
        for pot in pots:
            assert np.array_equal(pot, reference), f"schedule {seed}"
