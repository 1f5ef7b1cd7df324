"""The process world: mailbox semantics, rank lifetime, loud failure.

The cross-transport parity of whole applies lives in the parity suites
(``apply_on_both``); here are the parts of :mod:`repro.parallel.procworld`
those cannot see — what the shared-memory channel guarantees a
``SimComm``, when rank processes exist, and what a failing rank looks
like from the caller's side.
"""

import gc
import multiprocessing
import os
import queue
import signal
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.analysis.sanitize import NonFiniteError
from repro.core.fmm import FMMOptions
from repro.kernels import LaplaceKernel
from repro.parallel import ParallelFMM
from repro.parallel.procworld import (
    MailboxFullError,
    RankDiedError,
    RankProcesses,
    _Channel,
)
from repro.parallel.simmpi import MailboxLeakError, RankAbortedError

from tests.conftest import uniform_cloud
from tests.parallel.transports import rank_pids, thread_world

FORK = multiprocessing.get_context("fork")
OPTS = FMMOptions(p=3, max_points=15)


@contextmanager
def deadline(seconds=10.0):
    """Fail, rather than hang, if the block outlives ``seconds``."""

    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def case(rng):
    pts = uniform_cloud(rng, 300)
    return pts, rng.standard_normal((300, 1))


@pytest.fixture
def operator(case):
    pts, _ = case
    with ParallelFMM(2, LaplaceKernel(), OPTS) as op:
        yield op.setup(pts)
    assert rank_pids() == []


# -- the channel ------------------------------------------------------------


def test_channel_is_fifo_per_tag_and_matches_tags_out_of_order():
    ch = _Channel(FORK, 4096)
    a, b = np.arange(6.0).reshape(2, 3), np.arange(4, dtype=np.int64)
    ch.put(("phi", 1), a)
    ch.put(("pue", 7), b)
    ch.put(("phi", 1), 2 * a)
    ch.put("meta", {"not": "an array"})
    ch.at = 0  # this process now reads what it wrote
    got = ch.get(("pue", 7), timeout=0.1)
    assert got.dtype == np.int64 and np.array_equal(got, b)
    first, second = ch.get(("phi", 1), 0.1), ch.get(("phi", 1), 0.1)
    assert np.array_equal(first, a) and np.array_equal(second, 2 * a)
    assert first.flags.owndata  # a copy, not a view of the shared map
    assert ch.get("meta", 0.1) == {"not": "an array"}
    with pytest.raises(queue.Empty):
        ch.get(("phi", 1), timeout=0.01)
    assert ch.undelivered() == []


def test_channel_lists_what_nobody_received_and_rewinds():
    ch = _Channel(FORK, 4096)
    for box in (3, 4, 5):
        ch.put(("phi", box), np.full(2, float(box)))
    ch.at = 0
    assert ch.get(("phi", 4), 0.1)[0] == 4.0  # 3 is read past, never handed out
    assert ch.undelivered() == [("phi", 3), ("phi", 5)]
    ch.begin_round(writer=True)
    assert ch.undelivered() == []


def test_send_that_does_not_fit_is_an_error_not_a_wait():
    ch = _Channel(FORK, 1024)
    ch.put("fits", np.zeros(64))
    with pytest.raises(MailboxFullError, match="does not fit"):
        ch.put("too big", np.zeros(64))


# -- SimComm over the process world -------------------------------------------


def test_point_to_point_and_binomial_collectives_cross_processes():
    """One communicator implementation, two worlds: tag matching,
    irecv/wait, an allreduce and an allgather between three forked
    ranks — every collective is messages, so none needs the threads."""

    def serve(comm, scale):
        right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        late = comm.irecv(left, tag="late")
        comm.send(right, np.full(3, 10.0 * comm.rank), tag="late")
        comm.send(right, np.full(2, 1.0 + comm.rank), tag="early")
        early = comm.recv(left, tag="early")
        total = comm.allreduce(np.array([scale * (comm.rank + 1)]))
        masks = comm.allgather(np.full(2, comm.rank, dtype=np.uint8))
        return early, late.wait(), total, masks, comm.stats

    ranks = RankProcesses(3)
    ranks.start(serve, np.full((3, 3), 4096))
    try:
        with deadline():
            replies = ranks.call([2.0, 2.0, 2.0])
        for rank, (early, late, total, masks, stats) in enumerate(replies):
            left = (rank - 1) % 3
            assert np.array_equal(early, np.full(2, 1.0 + left))
            assert np.array_equal(late, np.full(3, 10.0 * left))
            assert total[0] == 2.0 * 6 and stats.messages_sent >= 2
            assert np.array_equal(np.stack(masks)[:, 0], [0, 1, 2])
            assert stats.allgather_calls == 1 and stats.allgather_bytes == 2
        assert len(rank_pids()) == 3
    finally:
        ranks.stop()
    assert rank_pids() == []


def test_unreceived_message_is_a_leak_naming_its_channel():
    def serve(comm, _):
        if comm.rank == 0:
            comm.send(1, np.zeros(2), tag=("phi", 9))

    ranks = RankProcesses(2)
    ranks.start(serve, np.full((2, 2), 1024))
    with deadline(), pytest.raises(MailboxLeakError) as err:
        ranks.call([None, None])
    assert err.value.leaked == [((0, 1, ("phi", 9)), 1)]
    assert rank_pids() == []


# -- which world an apply runs on ---------------------------------------------


def test_one_rank_seeded_and_forkless_applies_stay_on_threads(case):
    pts, phi = case
    one = ParallelFMM(1, LaplaceKernel(), OPTS).setup(pts)
    one.apply(phi)
    op = ParallelFMM(2, LaplaceKernel(), OPTS).setup(pts)
    seeded = op.apply(phi, schedule_seed=3)
    with thread_world():
        forkless = op.apply(phi)
    assert rank_pids() == []  # nobody forked so far
    on_processes = op.apply(phi)
    assert len(rank_pids()) == 2
    for other in (seeded, forkless):
        assert np.array_equal(on_processes, other)
    op.close()


# -- lifetime -----------------------------------------------------------------


def test_ranks_end_with_close_with_a_second_setup_and_with_the_operator(case):
    pts, phi = case
    op = ParallelFMM(2, LaplaceKernel(), OPTS).setup(pts)
    first = op.apply(phi)
    team = rank_pids()
    assert len(team) == 2
    assert np.array_equal(op.apply(phi), first) and rank_pids() == team
    op.close()
    assert rank_pids() == []
    assert np.array_equal(op.apply(phi), first)  # forks again
    team = rank_pids()
    op.setup(pts)  # the old geometry's ranks are reaped here
    assert rank_pids() == []
    op.apply(phi)
    assert len(rank_pids()) == 2 and not set(rank_pids()) & set(team)
    del op
    gc.collect()
    assert rank_pids() == [] and multiprocessing.active_children() == []


def test_wider_block_refits_the_channels_once(operator, case):
    _, phi = case
    single = operator.apply(phi)
    narrow = rank_pids()
    operator.apply(np.repeat(phi[:, :, None], 8, axis=2))
    assert not set(rank_pids()) & set(narrow)  # sized for one column
    team = rank_pids()
    assert np.array_equal(operator.apply(phi), single)
    assert rank_pids() == team  # a narrower block fits what is there


def test_concurrent_applies_on_one_operator_take_turns(operator, case):
    """More callers than cores on one operator: every answer is the
    lone caller's, none is lost, and nothing interleaves on the pipes."""
    _, phi = case
    expected = operator.apply(phi)
    results, errors = [], []

    def caller():
        try:
            for _ in range(3):
                results.append(operator.apply(phi))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=caller) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(results) == 12
    assert all(np.array_equal(r, expected) for r in results)
    assert operator.napplies == 13


# -- failure ------------------------------------------------------------------


def _raise(kind, text):
    def apply(comm, density, **kwargs):
        raise kind(text)

    return apply


def test_rank_exception_reaches_the_caller_with_its_type_and_rank(operator, case):
    """Rank 1 fails while rank 0 waits for its data: rank 0's
    RankAbortedError is the echo and never the one reported."""
    _, phi = case
    expected = operator.apply(phi)
    operator.states[1].apply = _raise(ValueError, "poisoned operator")
    operator.close()  # the next team forks with the fault in place
    with deadline(), pytest.raises(ValueError, match="rank 1: poisoned") as err:
        operator.apply(phi)
    assert not isinstance(err.value, RankAbortedError)
    assert "poisoned operator" in str(err.value.__cause__)  # rank 1's traceback
    assert rank_pids() == []  # an apply that raised leaves no rank behind
    del operator.states[1].apply
    with deadline():
        assert np.array_equal(operator.apply(phi), expected)


def test_primary_failures_are_reported_in_rank_order(operator, case):
    _, phi = case
    operator.states[0].apply = _raise(KeyError, "first")
    operator.states[1].apply = _raise(ValueError, "second")
    with deadline(), pytest.raises(KeyError, match="rank 0"):
        operator.apply(phi)
    assert rank_pids() == []


def test_killed_rank_is_a_named_error_and_the_next_apply_reforks(operator, case):
    _, phi = case
    expected = operator.apply(phi)
    operator.close()

    def killed(comm, density, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    operator.states[1].apply = killed
    start = time.perf_counter()
    with deadline(), pytest.raises(RankDiedError) as err:
        operator.apply(phi)
    assert (err.value.rank, err.value.exitcode) == (1, -signal.SIGKILL)
    assert time.perf_counter() - start < 5.0  # rank 0 was told, not timed out
    assert rank_pids() == []
    del operator.states[1].apply
    with deadline():
        assert np.array_equal(operator.apply(phi), expected)
    assert len(rank_pids()) == 2


# -- sanitizers inside rank processes -------------------------------------------


def test_sanitized_applies_run_clean_in_rank_processes(case, monkeypatch):
    pts, phi = case
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with ParallelFMM(2, LaplaceKernel(), OPTS) as op:
        clean = op.setup(pts).apply(phi)
        assert len(rank_pids()) == 2
        monkeypatch.delenv("REPRO_SANITIZE")
        with thread_world():
            assert np.array_equal(op.apply(phi), clean)
        bad = phi.copy()
        bad[5] = np.nan
        with deadline(), pytest.raises(NonFiniteError, match="rank [01]: .*density"):
            op.apply(bad)  # the ranks still carry the flag they forked with
