"""The comm-trace analyzer: injected bugs are diagnosed, pfmm is clean.

The acceptance bar of the analysis subsystem: commcheck must *detect* an
injected deadlock (crossed blocking receives) and an injected dropped
message, and must report the real 4-rank parallel FMM trace clean under
at least 5 perturbed schedules.
"""

import numpy as np
import pytest

from repro.analysis import CommTrace, check_trace, compare_traces
from repro.analysis.commcheck import main as commcheck_main
from repro.core.fmm import FMMOptions
from repro.kernels import LaplaceKernel
from repro.parallel.pfmm import ParallelFMM
from repro.parallel.simmpi import MailboxLeakError, run_spmd

from tests.conftest import clustered_cloud


class TestInjectedDeadlock:
    def test_crossed_blocking_recvs_reported_as_cycle(self):
        """Two ranks recv from each other before either sends."""

        def crossed(comm):
            other = 1 - comm.rank
            got = comm.recv(other, tag="x")  # blocks forever
            comm.send(other, comm.rank, tag="x")
            return got

        trace = CommTrace()
        with pytest.raises(TimeoutError):
            run_spmd(2, crossed, trace=trace, recv_timeout=0.2)
        report = check_trace(trace)
        cycles = report.by_rule("deadlock-cycle")
        assert len(cycles) == 1
        assert set(cycles[0].ranks) == {0, 1}
        # the blocked (src, dst, tag) edges are named
        assert "recv 1->0 tag='x'" in cycles[0].message
        assert "recv 0->1 tag='x'" in cycles[0].message

    def test_three_rank_cycle(self):
        def ring(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            got = comm.recv(prv, tag="ring")
            comm.send(nxt, comm.rank, tag="ring")
            return got

        trace = CommTrace()
        with pytest.raises(TimeoutError):
            run_spmd(3, ring, trace=trace, recv_timeout=0.2)
        cycles = check_trace(trace).by_rule("deadlock-cycle")
        assert len(cycles) == 1
        assert set(cycles[0].ranks) == {0, 1, 2}

    def test_orphan_wait_when_peer_finished(self):
        def lonely(comm):
            if comm.rank == 0:
                return comm.recv(1, tag="never")
            return None  # rank 1 exits without sending

        trace = CommTrace()
        with pytest.raises(TimeoutError):
            run_spmd(2, lonely, trace=trace, recv_timeout=0.2)
        report = check_trace(trace)
        orphans = report.by_rule("orphan-wait")
        assert len(orphans) == 1
        assert orphans[0].ranks == (0, 1)


class TestInjectedDrop:
    def test_dropped_message_raises_and_is_diagnosed(self):
        def dropper(comm):
            if comm.rank == 0:
                comm.send(1, np.ones(3), tag="lost")
                comm.send(1, np.ones(3), tag="lost")
            elif comm.rank == 1:
                comm.recv(0, tag="lost")  # consumes only one of two

        trace = CommTrace()
        with pytest.raises(MailboxLeakError) as exc:
            run_spmd(2, dropper, trace=trace)
        assert exc.value.leaked == [(((0, 1, "lost")), 1)]
        report = check_trace(trace)
        unmatched = report.by_rule("unmatched-send")
        assert len(unmatched) == 1
        assert "0->1" in unmatched[0].message
        assert "'lost'" in unmatched[0].message
        # runtime leak report and trace agree, so no meta-finding
        assert report.by_rule("trace-runtime-mismatch") == []


class TestRequestLeak:
    """Dynamic complement of the ``request-waited`` lint rule."""

    def test_never_waited_request_flagged_at_end_of_trace(self):
        def leaky(comm):
            if comm.rank == 0:
                comm.send(1, np.ones(2), tag="fire-and-forget")
            elif comm.rank == 1:
                comm.irecv(0, tag="fire-and-forget")  # never waited

        trace = CommTrace()
        # the un-drained mailbox also trips the runtime leak check
        with pytest.raises(MailboxLeakError):
            run_spmd(2, leaky, trace=trace)
        leaks = check_trace(trace).by_rule("request-leak")
        assert len(leaks) == 1
        assert leaks[0].ranks == (1,)
        assert "never waited" in leaks[0].message
        assert "0->1" in leaks[0].message and "'fire-and-forget'" in leaks[0].message

    def test_request_outstanding_across_collective_flagged(self):
        """Entering a collective with an un-waited irecv is flagged even
        though the run completes (the wait lands after the collective)."""

        def straddler(comm):
            if comm.rank == 0:
                comm.send(1, np.ones(2), tag="late")
                comm.allreduce(np.zeros(1))
            elif comm.rank == 1:
                req = comm.irecv(0, tag="late")
                comm.allreduce(np.zeros(1))
                req.wait()

        trace = CommTrace()
        run_spmd(2, straddler, trace=trace)
        assert trace.completed
        leaks = check_trace(trace).by_rule("request-leak")
        assert len(leaks) == 1
        assert leaks[0].ranks == (1,)
        assert "allreduce[0]" in leaks[0].message

    def test_promptly_waited_requests_are_clean(self):
        def clean(comm):
            other = 1 - comm.rank
            comm.isend(other, np.full(3, comm.rank), tag="x")
            req = comm.irecv(other, tag="x")
            got = req.wait()
            comm.allreduce(np.zeros(1))
            return got

        trace = CommTrace()
        run_spmd(2, clean, trace=trace)
        assert check_trace(trace).by_rule("request-leak") == []


class TestCollectiveDivergence:
    def test_different_collectives_at_same_index(self):
        """Two collectives at one index mint different tags, so each
        rank waits for a message of its own primitive that never comes:
        a bounded failure, diagnosed by name."""

        def diverge(comm):
            if comm.rank == 0:
                comm.allreduce(np.zeros(2))
            else:
                comm.allgather(0)

        trace = CommTrace()
        with pytest.raises(TimeoutError):
            run_spmd(2, diverge, trace=trace, recv_timeout=0.2)
        found = check_trace(trace).by_rule("collective-divergence")
        assert len(found) == 1
        assert "allreduce" in found[0].message
        assert "allgather" in found[0].message
        # rank 1's gather leg reached rank 0 on a tag nobody received
        assert [key for key, _ in trace.leaked] == [
            (1, 0, ("__coll__", "allgather", 0))
        ]

    def test_mismatched_allreduce_shapes_flagged(self):
        def shapes(comm):
            comm.allreduce(np.zeros(2 if comm.rank == 0 else 3))

        trace = CommTrace()
        with pytest.raises(ValueError, match="shape mismatch"):
            run_spmd(2, shapes, trace=trace)
        found = check_trace(trace).by_rule("collective-divergence")
        assert len(found) == 1
        assert "shape" in found[0].message


class TestCleanTraces:
    def test_clean_exchange_reports_clean(self):
        def main(comm):
            nxt = (comm.rank + 1) % comm.size
            comm.send(nxt, np.full(4, comm.rank), tag="ring")
            got = comm.recv((comm.rank - 1) % comm.size, tag="ring")
            comm.allgather(comm.rank)
            total = comm.allreduce(got)
            return total

        trace = CommTrace()
        results = run_spmd(4, main, trace=trace)
        report = check_trace(trace)
        assert report.ok, report.summary()
        assert trace.completed
        assert np.array_equal(results[0], results[1])

    def test_fifo_order_verified(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(1, i, tag="seq")
                return None
            return [comm.recv(0, tag="seq") for _ in range(10)]

        trace = CommTrace()
        results = run_spmd(2, main, trace=trace)
        assert results[1] == list(range(10))
        report = check_trace(trace)
        assert report.by_rule("channel-order") == []
        assert report.ok, report.summary()


class TestParallelFMMClean:
    """Acceptance: the full 4-rank pfmm trace, >= 5 perturbed schedules."""

    def test_pfmm_trace_clean_under_perturbed_schedules(self, rng):
        pts = clustered_cloud(rng, 450)
        phi = rng.standard_normal((450, 1))
        opts = FMMOptions(p=3, max_points=25)
        traces, potentials = [], []
        for seed in range(5):
            trace = CommTrace()
            op = ParallelFMM(4, LaplaceKernel(), opts)
            op.setup(pts, trace=trace, schedule_seed=seed)
            potentials.append(
                op.apply(phi, trace=trace, schedule_seed=seed)
            )
            report = check_trace(trace, stats=op.comm_stats)
            assert report.ok, f"seed {seed}: {report.summary()}"
            assert trace.completed and trace.regions == 2
            traces.append(trace)
        # observable determinism across schedules
        cross = compare_traces(traces)
        assert cross.ok, cross.summary()
        for pot in potentials[1:]:
            assert np.array_equal(potentials[0], pot)

    def test_stats_cross_check_catches_tampering(self, rng):
        pts = clustered_cloud(rng, 300)
        phi = rng.standard_normal((300, 1))
        trace = CommTrace()
        op = ParallelFMM(2, LaplaceKernel(), FMMOptions(p=3, max_points=30))
        op.setup(pts, trace=trace).apply(phi, trace=trace)
        assert check_trace(trace, stats=op.comm_stats).ok
        op.comm_stats[0].messages_sent += 1  # tamper
        tampered = check_trace(trace, stats=op.comm_stats)
        assert tampered.by_rule("stats-mismatch")


class TestCLI:
    def test_saved_trace_analyzed_clean(self, tmp_path, capsys):
        def main(comm):
            comm.send((comm.rank + 1) % 2, np.ones(2), tag="t")
            comm.recv((comm.rank + 1) % 2, tag="t")
            comm.allreduce(np.zeros(1))

        trace = CommTrace()
        run_spmd(2, main, trace=trace)
        path = tmp_path / "ok.jsonl"
        trace.to_jsonl(str(path))
        assert commcheck_main([str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_saved_bad_trace_fails(self, tmp_path, capsys):
        def dropper(comm):
            if comm.rank == 0:
                comm.send(1, b"zzz", tag="gone")

        trace = CommTrace()
        with pytest.raises(MailboxLeakError):
            run_spmd(2, dropper, trace=trace)
        path = tmp_path / "bad.jsonl"
        trace.to_jsonl(str(path))
        assert commcheck_main([str(path)]) == 1
        assert "unmatched-send" in capsys.readouterr().out

    def test_empty_trace_directory_exits_2(self, tmp_path, capsys):
        """A directory with zero trace files must never read as
        certified (satellite: empty input is a usage error)."""
        empty = tmp_path / "traces"
        empty.mkdir()
        assert commcheck_main([str(empty)]) == 2
        out = capsys.readouterr().out
        assert "no *.jsonl trace files" in out
        assert "nothing to certify" in out

    def test_missing_trace_path_exits_2(self, capsys):
        assert commcheck_main(["does/not/exist.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().out

    def test_directory_expands_to_its_traces(self, tmp_path, capsys):
        def main(comm):
            comm.send((comm.rank + 1) % 2, np.ones(2), tag="t")
            comm.recv((comm.rank + 1) % 2, tag="t")
            comm.allreduce(np.zeros(1))

        trace = CommTrace()
        run_spmd(2, main, trace=trace)
        trace.to_jsonl(str(tmp_path / "run.jsonl"))
        assert commcheck_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repro_commcheck_traces_flag(self, tmp_path, capsys):
        """`repro commcheck --traces DIR` delegates to the offline
        analyzer, including its exit-2 empty-input semantics."""
        from repro.cli import main as cli_main

        empty = tmp_path / "none"
        empty.mkdir()
        assert cli_main(["commcheck", "--traces", str(empty)]) == 2
        assert "no *.jsonl trace files" in capsys.readouterr().out
        assert cli_main(
            ["commcheck", "--traces", "missing/dir/x.jsonl"]
        ) == 2
