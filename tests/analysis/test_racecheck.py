"""The happens-before race detector: seeded races fire, pfmm is clean.

Acceptance bar of the tentpole: the detector must flag a seeded
use-after-send and a seeded no-edge race — naming the conflicting
access pair and the missing happens-before edge — must accept
message-ordered accesses, and must certify the real overlapped 4-rank
persistent apply race-free with overlap on and off.
"""

import numpy as np
import pytest

from repro.analysis import CommTrace, RaceDetector
from repro.core.fmm import FMMOptions
from repro.kernels import LaplaceKernel
from repro.parallel.pfmm import ParallelFMM
from repro.parallel.simmpi import current_recorder, run_spmd

from tests.conftest import clustered_cloud


class TestSeededRaces:
    def test_no_edge_write_read_is_flagged(self):
        """Closure-shared array, no message between the ranks: race."""
        shared = np.zeros(8)

        def main(comm):
            rec = current_recorder()
            rec.register("shared", shared)
            if comm.rank == 0:
                rec.write(shared[:4], "producer")
                shared[:4] = 1.0
            else:
                rec.read(shared[:4], "consumer")
            comm.allreduce(np.zeros(1))

        det = RaceDetector()
        run_spmd(2, main, trace=det)
        report = det.report()
        assert not report.ok
        assert len(report.races) == 1
        race = report.races[0]
        assert race.region == "shared"
        assert race.first.kind == "write"
        assert race.second.kind == "read"
        assert "no happens-before edge" in race.missing_edge
        # both access sites are named with file:line locations
        assert "test_racecheck.py" in race.first.site
        assert "clock" in str(race)

    def test_use_after_send_is_flagged_with_channel(self):
        """Mutating a sent buffer races with the receiver's read.

        The strict clock comparison is what catches this: the write
        shares the send's clock entry, so the receiver's merged clock
        is not strictly greater and the pair stays concurrent.  The
        report must name the (src, dst, tag) channel whose edge failed
        to order the pair.
        """

        def main(comm):
            rec = current_recorder()
            if comm.rank == 0:
                buf = np.arange(6.0)
                rec.register("buf", buf)
                comm.isend(1, buf, tag="uas")
                rec.write(buf, "mutate-after-send")
                buf[:] = -1.0
            elif comm.rank == 1:
                req = comm.irecv(0, tag="uas")
                payload = req.wait()
                rec.read(payload, "reader")
            comm.allreduce(np.zeros(1))

        det = RaceDetector()
        run_spmd(2, main, trace=det)
        report = det.report()
        assert len(report.races) == 1
        edge = report.races[0].missing_edge
        assert "channel 0->1 tag='uas'" in edge
        assert "no later message orders the pair" in edge

    def test_disjoint_byte_ranges_do_not_conflict(self):
        shared = np.zeros(8)

        def main(comm):
            rec = current_recorder()
            rec.register("shared", shared)
            half = shared[:4] if comm.rank == 0 else shared[4:]
            rec.write(half, "mine")
            half[:] = comm.rank
            comm.allreduce(np.zeros(1))

        det = RaceDetector()
        run_spmd(2, main, trace=det)
        assert det.report().ok

    def test_read_read_sharing_is_not_a_race(self):
        shared = np.ones(4)

        def main(comm):
            rec = current_recorder()
            rec.register("shared", shared)
            rec.read(shared, "reader")
            comm.allreduce(np.zeros(1))

        det = RaceDetector()
        run_spmd(3, main, trace=det)
        assert det.report().ok


class TestOrderedAccesses:
    def test_message_edge_orders_write_before_read(self):
        """send/recv between write and read: happens-before, no race."""
        shared = np.zeros(4)

        def main(comm):
            rec = current_recorder()
            rec.register("shared", shared)
            if comm.rank == 0:
                rec.write(shared, "producer")
                shared[:] = 7.0
                comm.send(1, "done", tag="sync")
            else:
                comm.recv(0, tag="sync")
                rec.read(shared, "consumer")
            comm.allreduce(np.zeros(1))

        det = RaceDetector()
        run_spmd(2, main, trace=det)
        assert det.report().ok

    def test_wait_completion_merges_the_senders_clock(self):
        """The Request.wait edge alone must order the pair."""
        shared = np.zeros(4)

        def main(comm):
            rec = current_recorder()
            rec.register("shared", shared)
            if comm.rank == 0:
                rec.write(shared, "producer")
                shared[:] = 3.0
                comm.isend(1, "done", tag="sync")
            else:
                comm.irecv(0, tag="sync").wait()
                rec.read(shared, "consumer")
            comm.allreduce(np.zeros(1))

        det = RaceDetector()
        run_spmd(2, main, trace=det)
        assert det.report().ok

    def test_collective_orders_the_pair(self):
        shared = np.zeros(4)

        def main(comm):
            rec = current_recorder()
            rec.register("shared", shared)
            if comm.rank == 0:
                rec.write(shared, "producer")
                shared[:] = 2.0
            comm.allreduce(np.zeros(1))
            if comm.rank == 1:
                rec.read(shared, "consumer")
            comm.allreduce(np.zeros(1))

        det = RaceDetector()
        run_spmd(2, main, trace=det)
        assert det.report().ok

    def test_race_detection_is_region_based_not_name_based(self):
        """Views of one allocation resolve to the same region."""
        shared = np.zeros((4, 4))

        def main(comm):
            rec = current_recorder()
            if comm.rank == 0:
                rec.register("matrix", shared)
                rec.write(shared.reshape(-1)[2:6], "flat-view")
                shared.reshape(-1)[2:6] = 1.0
            else:
                rec.read(shared[1], "row-view")
            comm.allreduce(np.zeros(1))

        det = RaceDetector()
        run_spmd(2, main, trace=det)
        report = det.report()
        # flat [2:6] overlaps row 1 (bytes 32:64 vs 16:48)
        assert len(report.races) == 1
        assert report.races[0].region == "matrix"


class TestRegions:
    """One detector over several ``run_spmd`` regions: the join between
    regions orders them, and races inside a later region still fire."""

    def test_use_after_send_in_a_later_region_is_flagged(self):
        def quiet(comm):
            comm.allreduce(np.zeros(1))

        def racy(comm):
            rec = current_recorder()
            if comm.rank == 0:
                buf = np.arange(6.0)
                rec.register("buf", buf)
                comm.isend(1, buf, tag="uas")
                rec.write(buf, "mutate-after-send")
                buf[:] = -1.0
            else:
                rec.read(comm.irecv(0, tag="uas").wait(), "reader")

        det = RaceDetector()
        run_spmd(2, quiet, trace=det)
        run_spmd(2, racy, trace=det)
        report = det.report()
        assert det.regions == 2
        assert len(report.races) == 1
        assert "channel 0->1 tag='uas'" in report.races[0].missing_edge

    def test_join_orders_a_read_before_a_later_write(self):
        """Rank 1 reads rank 0's buffer and nothing follows; in the next
        region rank 0 overwrites it.  Only the join orders the pair."""
        shared = np.zeros(4)

        def reader(comm):
            rec = current_recorder()
            rec.register("shared", shared)
            if comm.rank == 1:
                rec.read(shared, "region-1 read")

        def writer(comm):
            if comm.rank == 0:
                current_recorder().write(shared, "region-2 write")
                shared[:] = 1.0

        det = RaceDetector()
        run_spmd(2, reader, trace=det)
        run_spmd(2, writer, trace=det)
        report = det.report()
        assert report.ok, report.summary()
        assert report.naccesses == 2


class TestRealParallelApply:
    @pytest.mark.parametrize("overlap", [True, False], ids=["on", "off"])
    def test_overlapped_apply_certifies_race_free(self, rng, overlap):
        """The certification: 4 ranks, a traced setup and 2 applies,
        real tree."""
        pts = clustered_cloud(rng, 500)
        density = rng.random(500)
        det = RaceDetector()
        op = ParallelFMM(
            4, LaplaceKernel(), FMMOptions(p=4, max_points=30),
            overlap=overlap,
        )
        op.setup(pts, trace=det)
        for _ in range(2):
            potential = op.apply(density, trace=det)
        report = det.report()
        assert report.ok, report.summary()
        assert det.regions == 3
        assert report.naccesses > 0
        assert report.nregions >= 4  # every rank registered shared arrays
        assert np.all(np.isfinite(potential))

    def test_perturbed_schedules_stay_race_free(self, rng):
        pts = clustered_cloud(rng, 400)
        density = rng.random(400)
        for seed in range(3):
            det = RaceDetector()
            op = ParallelFMM(4, LaplaceKernel(), FMMOptions(p=4, max_points=30))
            op.setup(pts, trace=det, schedule_seed=seed)
            op.apply(density, trace=det, schedule_seed=seed)
            assert det.report().ok

    def test_race_arg_without_trace_builds_one(self, rng):
        """The detector alone, with no separate CommTrace, still gets
        clock and event data: it is the trace."""
        pts = clustered_cloud(rng, 300)
        det = RaceDetector()
        op = ParallelFMM(2, LaplaceKernel(), FMMOptions(p=4, max_points=30))
        op.setup(pts, trace=det).apply(rng.random(300), trace=det)
        report = det.report()
        assert report.ok
        assert report.naccesses > 0
        assert isinstance(det, CommTrace) and det.nevents() > 0


class TestCLI:
    def test_seed_race_self_test_passes(self, capsys):
        from repro.cli import main

        assert main(["racecheck", "--seed-race", "--ranks", "2"]) == 0
        out = capsys.readouterr().out
        assert "seeded race detected" in out
        assert "channel 0->1 tag='race'" in out

    def test_real_run_exits_zero(self, capsys):
        from repro.cli import main

        assert main([
            "racecheck", "--n", "300", "--ranks", "2",
            "--schedules", "1", "--applies", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "certified race-free" in out
        assert "overlap=on" in out and "overlap=off" in out

    @pytest.mark.parametrize("flag, value, least", [
        ("--schedules", 0, 1), ("--applies", 0, 1), ("--ranks", 1, 2),
        ("--n", 0, 1),
    ])
    def test_run_that_certifies_nothing_exits_2(
        self, capsys, flag, value, least
    ):
        """No schedule, no apply (the overlap window never runs), one
        rank (no message) or no points: refused, not certified."""
        from repro.cli import main

        assert main(["racecheck", flag, str(value)]) == 2
        assert capsys.readouterr().out == (
            f"racecheck: nothing to certify ({flag} {value} is below "
            f"{least})\n"
        )
