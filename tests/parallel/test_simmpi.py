"""Simulated MPI runtime tests."""

import time

import numpy as np
import pytest

from repro.parallel.procworld import RankProcesses
from repro.parallel.simmpi import (
    CommStats,
    MailboxLeakError,
    PerRank,
    run_spmd,
)

from tests.parallel.transports import rank_pids


class TestPointToPoint:
    def test_send_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(5))
                return None
            return comm.recv(0)

        results = run_spmd(2, main)
        assert np.array_equal(results[1], np.arange(5))

    def test_tags_demultiplex(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, "beta", tag="b")
                comm.send(1, "alpha", tag="a")
                return None
            # receive in the opposite order of sending
            return comm.recv(0, tag="a"), comm.recv(0, tag="b")

        results = run_spmd(2, main)
        assert results[1] == ("alpha", "beta")

    def test_many_messages_preserve_order(self):
        """One FIFO queue per ``(src, dst, tag)`` channel: a channel
        delivers in send order."""
        def main(comm):
            if comm.rank == 0:
                for i in range(50):
                    comm.send(1, i)
                return None
            return [comm.recv(0) for _ in range(50)]

        assert run_spmd(2, main)[1] == list(range(50))

    def test_invalid_rank_raises(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(5, "x")

        with pytest.raises(ValueError):
            run_spmd(2, main)


def _use_after_send(comm, wrap):
    """Rank 0 sends a buffer, overwrites it, then sends "go"; rank 1
    reads the payload only after "go", keeps a copy of what it saw, and
    writes into it; rank 0 looks at its buffer once rank 1 is done.

    ``wrap`` is ``"array"`` (the payload is the buffer) or ``"list"``
    (the payload is a list holding it, as allgather ships).
    """
    if comm.rank == 0:
        buf = np.arange(8.0)
        comm.isend(1, buf if wrap == "array" else [buf], tag="data")
        buf[:4] = -1.0
        comm.send(1, None, tag="go")
        comm.recv(1, tag="done")
        return buf
    data = comm.irecv(0, tag="data")
    comm.recv(0, tag="go")
    payload = data.wait()
    arr = payload if wrap == "array" else payload[0]
    seen = arr.copy()
    arr[:] = 99.0
    comm.send(0, None, tag="done")
    return seen


class TestMessagesAreValues:
    """A message is a value on both worlds: the sender may overwrite its
    buffer as soon as the send returns, and the receiver owns what it
    received — no array the exchange touches is shared between ranks.
    The process world gets this from its shared-memory copies, the
    thread world from its mailbox's."""

    SENT = np.arange(8.0)
    OVERWRITTEN = np.r_[[-1.0] * 4, np.arange(4.0, 8.0)]

    def _check(self, results):
        sender, seen = results
        assert np.array_equal(seen, self.SENT)  # the pre-send bytes
        assert np.array_equal(sender, self.OVERWRITTEN)  # not the 99s

    @pytest.mark.parametrize("wrap", ["array", "list"])
    def test_thread_world(self, wrap):
        self._check(run_spmd(2, _use_after_send, wrap))

    @pytest.mark.parametrize("wrap", ["array", "list"])
    def test_process_world(self, wrap):
        ranks = RankProcesses(2)
        ranks.start(_use_after_send, np.full((2, 2), 4096))
        try:
            self._check(ranks.call([wrap, wrap]))
        finally:
            ranks.stop()
        assert rank_pids() == []


class TestCollectives:
    @pytest.mark.parametrize("op,expected", [("sum", 6), ("max", 3), ("min", 0)])
    def test_allreduce_ops(self, op, expected):
        def main(comm):
            return comm.allreduce(np.array([comm.rank]), op=op)

        results = run_spmd(4, main)
        for r in results:
            assert r[0] == expected

    def test_allreduce_array_shape(self):
        def main(comm):
            return comm.allreduce(np.full((2, 3), comm.rank + 1.0))

        results = run_spmd(3, main)
        assert np.all(results[0] == 6.0)
        assert results[0].shape == (2, 3)

    def test_repeated_collectives_generation_safe(self):
        def main(comm):
            out = []
            for i in range(20):
                out.append(int(comm.allreduce(np.array([comm.rank + i]))[0]))
            return out

        results = run_spmd(3, main)
        expected = [3 * i + 3 for i in range(20)]
        assert results[0] == expected
        assert results[1] == expected

    def test_allgather(self):
        def main(comm):
            return comm.allgather(comm.rank * 10)

        results = run_spmd(4, main)
        assert results[2] == [0, 10, 20, 30]

    def test_unknown_op_raises(self):
        def main(comm):
            comm.allreduce(np.zeros(1), op="median")

        with pytest.raises(ValueError):
            run_spmd(2, main)

    def test_unknown_op_error_lists_supported_reductions(self):
        """Validation happens up front, before any synchronisation."""

        def main(comm):
            if comm.rank == 0:
                comm.allreduce(np.zeros(1), op="prod")
            # rank 1 never reaches a collective; rank 0 must still fail fast
            return None

        with pytest.raises(ValueError, match=r"max, min, sum"):
            run_spmd(2, main)

    def test_mismatched_shapes_raise_clear_error(self):
        def main(comm):
            return comm.allreduce(np.zeros(2 if comm.rank == 0 else (2, 2)))

        with pytest.raises(ValueError, match="shape mismatch") as exc:
            run_spmd(2, main)
        assert "(2,)" in str(exc.value)
        assert "(2, 2)" in str(exc.value)

    def test_allreduce_message_pattern_is_logarithmic(self):
        """The tree collective sends O(log P) point-to-point messages
        per rank — never the O(P) fan-in of a flat root reduce."""

        def main(comm):
            comm.allreduce(np.zeros(4))
            return comm.stats

        nranks = 8
        stats = run_spmd(nranks, main)
        # Rank 0 is the tree root: log2(8) = 3 receives, 3 bcast sends.
        assert stats[0].messages_received == 3
        assert stats[0].messages_sent == 3
        for s in stats:
            assert s.messages_sent <= 3
            assert s.messages_received <= 3
        total = CommStats.total(stats)
        assert total.messages_sent == total.messages_received == 2 * (nranks - 1)

    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 5, 8])
    def test_allgather_keeps_rank_order(self, nranks):
        """The binomial gather concatenates subtree lists: every rank
        gets every object in rank order, over 2 * (P - 1) messages."""

        def main(comm):
            out = comm.allgather(np.full(3, float(comm.rank)))
            return out, comm.stats

        results = run_spmd(nranks, main)
        for out, _ in results:
            assert [float(a[0]) for a in out] == list(range(nranks))
        total = CommStats.total(stats for _, stats in results)
        assert total.messages_sent == 2 * (nranks - 1)

    def test_allgather_counts_per_primitive(self):
        def main(comm):
            comm.allgather(np.zeros(10))
            return comm.stats

        stats = run_spmd(4, main)
        for s in stats:
            assert s.allgather_calls == 1
            assert s.allgather_bytes == 80
            assert s.allreduce_calls == 0


class TestRunner:
    def test_single_rank(self):
        assert run_spmd(1, lambda comm: comm.size) == [1]

    def test_per_rank_arguments(self):
        def main(comm, mine, shared):
            return mine + shared

        results = run_spmd(3, main, PerRank([1, 2, 3]), 10)
        assert results == [11, 12, 13]

    def test_exception_propagates(self):
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 died")
            comm.allreduce(np.zeros(1))

        with pytest.raises(RuntimeError, match="rank 1 died"):
            run_spmd(3, main)

    def test_timeout_bounds_the_whole_run(self):
        """One deadline for all joins: rank 0 finishing late must not
        restart the clock for rank 1, blocked in a receive."""

        def main(comm):
            if comm.rank == 0:
                time.sleep(0.6)
                return None
            comm.recv(0, tag="never-sent")

        start = time.monotonic()
        with pytest.raises(TimeoutError, match="exceeded 1.0s"):
            run_spmd(2, main, timeout=1.0)
        assert time.monotonic() - start < 1.0 + 0.3

    def test_rejects_bad_nranks(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    def test_failure_aborts_ranks_blocked_in_recv_promptly(self):
        """A dying rank must not leave its peers to hit the recv
        timeout: they are aborted and its real error is raised."""

        def main(comm):
            if comm.rank == 2:
                raise ValueError("rank 2 exploded")
            comm.recv(2, tag="never-sent")  # would block forever

        start = time.monotonic()
        with pytest.raises(ValueError, match="rank 2 exploded"):
            run_spmd(3, main, timeout=30.0)
        assert time.monotonic() - start < 10.0

    def test_first_error_by_rank_order_wins_deterministically(self):
        """With several failing ranks the propagated exception is the
        lowest rank's, independent of thread scheduling."""

        def main(comm, delay):
            time.sleep(delay)
            if comm.rank == 0:
                raise KeyError("rank 0")
            if comm.rank == 2:
                raise ValueError("rank 2")
            comm.allreduce(np.zeros(1))

        # rank 2 fails *first* in wall-clock; rank 0 still wins
        for _ in range(3):
            with pytest.raises(KeyError, match="rank 0"):
                run_spmd(3, main, PerRank([0.2, 0.0, 0.0]))

    def test_secondary_abort_errors_are_suppressed(self):
        """Ranks killed by the abort (RankAbortedError, in a receive or
        inside a collective) never mask the primary exception."""

        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("the real bug")
            if comm.rank == 0:
                comm.recv(1, tag="x")  # aborted mid-recv
            else:
                comm.allreduce(np.zeros(1))  # aborted in the collective

        for _ in range(3):
            with pytest.raises(RuntimeError, match="the real bug"):
                run_spmd(3, main)


class TestStats:
    def test_traffic_accounting(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(100), phase="ghost")
            else:
                comm.recv(0)
            comm.allreduce(np.zeros(10))
            return comm.stats

        stats = run_spmd(2, main)
        # Collective-internal messages are first-class accounted sends:
        # the 2-rank allreduce adds one reduce send on rank 1 and one
        # broadcast send on rank 0 (none of them phase-tagged).
        assert stats[0].messages_sent == 2
        assert stats[0].bytes_sent == 880
        assert stats[0].by_phase["ghost"] == 800
        assert stats[1].messages_sent == 1
        assert stats[0].allreduce_calls == 1
        assert stats[0].allreduce_bytes == 80

    def test_receive_side_accounting_symmetric_to_sends(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(50), phase="gather")
                comm.send(1, np.zeros(25))
            else:
                comm.recv(0, phase="gather")
                comm.recv(0)
            return comm.stats

        stats = run_spmd(2, main)
        assert stats[1].messages_received == 2
        assert stats[1].bytes_received == 600
        assert stats[1].by_phase["gather"] == 400
        assert stats[0].messages_received == 0
        # world totals balance exactly when nothing is dropped
        total = CommStats.total(stats)
        assert total.messages_sent == total.messages_received == 2
        assert total.bytes_sent == total.bytes_received == 600

    def test_total_merges_phases(self):
        a = CommStats()
        a.record_send(10, "x")
        b = CommStats()
        b.record_send(5, "x")
        b.record_recv(10, "y")
        total = CommStats.total([a, b])
        assert total.messages_sent == 2
        assert total.bytes_sent == 15
        assert total.messages_received == 1
        assert dict(total.by_phase) == {"x": 15, "y": 10}


class TestMailboxDrain:
    def test_leaked_message_raises_with_keys(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, "orphan", tag=("src", 7))

        with pytest.raises(MailboxLeakError) as exc:
            run_spmd(2, main)
        assert exc.value.leaked == [((0, 1, ("src", 7)), 1)]
        assert "('src', 7)" in str(exc.value)

    def test_multiple_leaks_all_reported(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, 1, tag="a")
                comm.send(1, 2, tag="a")
                comm.send(2, 3, tag="b")

        with pytest.raises(MailboxLeakError) as exc:
            run_spmd(3, main)
        leaked = dict(exc.value.leaked)
        assert leaked == {(0, 1, "a"): 2, (0, 2, "b"): 1}

    def test_rank_error_takes_precedence_over_leak(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, "never read")
            raise RuntimeError("rank died")

        with pytest.raises(RuntimeError, match="rank died"):
            run_spmd(2, main)

    def test_drained_world_passes(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, "x")
                return None
            return comm.recv(0)

        assert run_spmd(2, main)[1] == "x"


class TestNonblockingReceive:
    def test_irecv_wait_returns_payload(self):
        def main(comm):
            if comm.rank == 0:
                comm.isend(1, np.arange(4))
                return None
            req = comm.irecv(0)
            return req.wait()

        results = run_spmd(2, main)
        assert np.array_equal(results[1], np.arange(4))

    def test_irecv_posts_before_send_arrives(self):
        """A posted receive completes even when the send comes later."""
        def main(comm):
            if comm.rank == 1:
                req = comm.irecv(0, tag="late")
                comm.send(0, "go", tag="sync")
                return req.wait()
            comm.recv(1, tag="sync")
            comm.send(1, "payload", tag="late")
            return None

        assert run_spmd(2, main)[1] == "payload"

    def test_wait_is_idempotent(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, 42)
                return None
            req = comm.irecv(0)
            return req.wait(), req.wait()

        assert run_spmd(2, main)[1] == (42, 42)

    def test_waits_in_posting_order_respect_fifo(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.isend(1, i)
                return None
            reqs = [comm.irecv(0) for _ in range(5)]
            return [r.wait() for r in reqs]

        assert run_spmd(2, main)[1] == list(range(5))

    def test_recv_wait_seconds_accounted(self):
        def main(comm):
            if comm.rank == 0:
                comm.allreduce(np.zeros(1))
                comm.send(1, "x")
                return None
            req = comm.irecv(0)
            comm.allreduce(np.zeros(1))
            req.wait()
            return comm.stats

        stats = run_spmd(2, main)[1]
        assert stats.recv_wait_seconds >= 0.0
        # the message, plus the allreduce's broadcast from rank 0
        assert stats.messages_received == 2

    def test_unwaited_request_leaks_mailbox(self):
        def main(comm):
            if comm.rank == 0:
                comm.isend(1, "never waited")
                return None
            comm.irecv(0)  # posted but never completed
            return None

        with pytest.raises(MailboxLeakError):
            run_spmd(2, main)


class TestInjectedDefects:
    """Protocol bugs planted in small SPMD programs: the runtime names
    each one — a stuck receive times out within ``recv_timeout``
    naming rank, peer and tag, a dropped message is a
    :class:`MailboxLeakError` naming its channel."""

    TIMEOUT = 0.2

    def _times_out(self, nranks, fn, pattern):
        t0 = time.perf_counter()
        with pytest.raises(TimeoutError, match=pattern):
            run_spmd(nranks, fn, recv_timeout=self.TIMEOUT)
        assert time.perf_counter() - t0 < self.TIMEOUT + 3.0

    def test_crossed_blocking_receives(self):
        """Two ranks receive from each other before either sends."""
        def crossed(comm):
            other = 1 - comm.rank
            got = comm.recv(other, tag="x")
            comm.send(other, comm.rank, tag="x")
            return got

        self._times_out(
            2, crossed, r"rank [01] timed out receiving from [01] tag 'x'"
        )

    def test_three_rank_cycle(self):
        def ring(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            got = comm.recv(prv, tag="ring")
            comm.send(nxt, comm.rank, tag="ring")
            return got

        self._times_out(
            3, ring, r"rank \d timed out receiving from \d tag 'ring'"
        )

    def test_orphan_wait_on_a_finished_peer(self):
        def lonely(comm):
            if comm.rank == 0:
                return comm.recv(1, tag="never")
            return None  # rank 1 exits without sending

        self._times_out(
            2, lonely, r"rank 0 timed out receiving from 1 tag 'never'"
        )

    def test_diverging_collectives(self):
        """Two collectives at one generation mint different tags, so
        each rank waits for a message of its own primitive that never
        comes: the error names the collective's tag."""
        def diverge(comm):
            if comm.rank == 0:
                comm.allreduce(np.zeros(2))
            else:
                comm.allgather(0)

        self._times_out(
            2, diverge, r"tag \('__coll__', 'all(reduce|gather)', 0\)"
        )

    def test_dropped_message(self):
        def dropper(comm):
            if comm.rank == 0:
                comm.send(1, np.ones(3), tag="lost")
                comm.send(1, np.ones(3), tag="lost")
            elif comm.rank == 1:
                comm.recv(0, tag="lost")  # consumes only one of two

        with pytest.raises(MailboxLeakError, match=r"0->1 tag='lost' x1"):
            run_spmd(2, dropper)

    def test_unwaited_irecv(self):
        def leaky(comm):
            if comm.rank == 0:
                comm.send(1, np.ones(2), tag="t")
            elif comm.rank == 1:
                comm.irecv(0, tag="t")  # never waited

        with pytest.raises(MailboxLeakError, match=r"0->1 tag='t' x1"):
            run_spmd(2, leaky)

    def test_clean_exchange_completes(self):
        def main(comm):
            nxt = (comm.rank + 1) % comm.size
            comm.send(nxt, np.full(4, comm.rank), tag="ring")
            got = comm.recv((comm.rank - 1) % comm.size, tag="ring")
            comm.allgather(comm.rank)
            return comm.allreduce(got)

        results = run_spmd(4, main)
        for total in results:
            assert np.array_equal(total, np.full(4, 6.0))

    def test_promptly_waited_requests_leave_no_leak(self):
        """isend/irecv pairs waited before the next collective drain
        every mailbox: the run returns instead of raising
        :class:`MailboxLeakError`."""
        def main(comm):
            other = 1 - comm.rank
            comm.isend(other, np.full(3, comm.rank), tag="x")
            got = comm.irecv(other, tag="x").wait()
            comm.allreduce(np.zeros(1))
            return got

        results = run_spmd(2, main)
        assert np.array_equal(results[0], np.full(3, 1))
        assert np.array_equal(results[1], np.full(3, 0))

    def test_fifo_order_on_a_tagged_channel(self):
        """Ten sends on one tagged channel arrive in send order, and the
        drained run raises no leak."""
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(1, i, tag="seq")
                return None
            return [comm.recv(0, tag="seq") for _ in range(10)]

        assert run_spmd(2, main)[1] == list(range(10))

    def test_mismatched_allreduce_lengths(self):
        """Vectors of different lengths on two ranks are a ValueError
        naming both shapes, not a silent broadcast."""
        def main(comm):
            comm.allreduce(np.zeros(2 if comm.rank == 0 else 3))

        with pytest.raises(ValueError, match="shape mismatch") as exc:
            run_spmd(2, main)
        assert "(2,)" in str(exc.value)
        assert "(3,)" in str(exc.value)
