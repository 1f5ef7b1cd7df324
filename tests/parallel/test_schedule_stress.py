"""Seeded schedule-perturbation stress tests (satellite of the analysis PR).

The per-apply exchange (``ApplyExchange``, both payload kinds) and the
LET gather protocol must be schedule independent: whatever interleaving
the thread scheduler produces, every rank must end up with
bitwise-identical data.  We fuzz 10 perturbed schedules per
protocol (seeded random yields inside every SimComm call) and compare
against an unperturbed reference run.
"""

import numpy as np
import pytest

from repro.analysis import CommTrace, check_trace, compare_traces
from repro.parallel.let import LETUsage, gather_users
from repro.parallel.simmpi import run_spmd

from tests.parallel.exchange_harness import flatten, run_exchange

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
    """One traced ApplyExchange round of one payload kind.

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
    trace = CommTrace()
    results = run_exchange(
        contrib,
        users if kind == "phi" else none,
        users if kind == "pue" else none,
        owner, pieces, partials,
        trace=trace, schedule_seed=seed,
    )
    report = check_trace(trace)
    assert report.ok, report.summary()
    return flatten(results), trace


def _assert_schedule_independent(contrib, users, owner, kind):
    reference, _ = _exchange_once(contrib, users, owner, kind, None)
    assert reference, "the random topology must move some data"
    traces = []
    for seed in range(NSCHEDULES):
        got, trace = _exchange_once(contrib, users, owner, kind, seed)
        assert got == reference, f"schedule {seed} diverged"
        traces.append(trace)
    assert compare_traces(traces).ok


def test_ghost_exchange_bitwise_identical_across_schedules(rng):
    contrib, users, owner = _random_topology(rng)
    _assert_schedule_independent(contrib, users, owner, "phi")


def test_equiv_density_reduction_bitwise_identical_across_schedules(rng):
    contrib, users, owner = _random_topology(rng)
    _assert_schedule_independent(contrib, users, owner, "pue")


def test_let_gather_users_bitwise_identical_across_schedules(rng):
    """parallel/let.py: the allgathered usage matrices are schedule free."""
    masks = rng.random((NRANKS, 2, NBOXES)) < 0.5

    def main(comm):
        usage = LETUsage(
            uses_equiv=masks[comm.rank, 0].copy(),
            uses_source=masks[comm.rank, 1].copy(),
        )
        ue, us = gather_users(comm, usage)
        return ue.tobytes(), us.tobytes()

    reference = run_spmd(NRANKS, main)
    assert all(r == reference[0] for r in reference)  # identical everywhere
    for seed in range(NSCHEDULES):
        trace = CommTrace()
        results = run_spmd(NRANKS, main, trace=trace, schedule_seed=seed)
        assert results == reference, f"schedule {seed} diverged"
        report = check_trace(trace)
        assert report.ok, report.summary()


@pytest.mark.parametrize("seed", [0, 1])
def test_perturbation_is_reproducible(seed, rng):
    """Same seed, same trace digests: the fuzzing itself is deterministic."""
    contrib, users, owner = _random_topology(rng)
    _, t1 = _exchange_once(contrib, users, owner, "phi", seed)
    _, t2 = _exchange_once(contrib, users, owner, "phi", seed)
    assert compare_traces([t1, t2]).ok
