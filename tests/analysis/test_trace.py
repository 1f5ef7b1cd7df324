"""Event-trace recording: vector clocks and regions."""

import numpy as np
import pytest

from repro.analysis.trace import CommTrace
from repro.parallel.simmpi import run_spmd


def _pingpong(comm):
    if comm.rank == 0:
        comm.send(1, np.arange(4.0), tag="a")
        back = comm.recv(1, tag="b")
        comm.allreduce(np.zeros(1))
        return back
    got = comm.recv(0, tag="a")
    comm.send(0, got * 2, tag="b")
    comm.allreduce(np.zeros(1))
    return got


def test_events_recorded_per_rank():
    trace = CommTrace()
    run_spmd(2, _pingpong, trace=trace)
    assert trace.completed
    assert trace.error is None
    assert trace.leaked == []
    # the allreduce is messages between its enter and exit events: rank
    # 1 sends its partial up the tree, rank 0 broadcasts the total down
    kinds0 = [e.kind for e in trace.events_by_rank[0]]
    assert kinds0 == ["send", "recv-post", "recv", "coll-enter",
                      "recv-post", "recv", "send", "coll-exit"]
    kinds1 = [e.kind for e in trace.events_by_rank[1]]
    assert kinds1 == ["recv-post", "recv", "send", "coll-enter",
                      "send", "recv-post", "recv", "coll-exit"]


def test_vector_clock_monotone_and_merged():
    trace = CommTrace()
    run_spmd(2, _pingpong, trace=trace)
    for evs in trace.events_by_rank:
        for before, after in zip(evs, evs[1:]):
            assert all(a >= b for a, b in zip(after.clock, before.clock))
    # the recv happens-after its matching send
    send0 = trace.events_by_rank[0][0]
    recv1 = trace.events_by_rank[1][1]
    assert (send0.kind, recv1.kind) == ("send", "recv")
    assert all(a >= b for a, b in zip(recv1.clock, send0.clock))
    assert recv1.clock != send0.clock


def test_collective_exit_merges_all_clocks():
    def main(comm):
        if comm.rank == 2:
            for _ in range(3):
                comm.send(0, np.ones(2), tag="pre")
        if comm.rank == 0:
            for _ in range(3):
                comm.recv(2, tag="pre")
        comm.allreduce(np.zeros(1))
        return None

    trace = CommTrace()
    run_spmd(3, main, trace=trace)
    exits = [
        [e for e in evs if e.kind == "coll-exit"][0]
        for evs in trace.events_by_rank
    ]
    # after the collective every rank's clock dominates every event
    # before it: its reduce and broadcast messages carry the merges
    for evs in trace.events_by_rank:
        for ev in evs:
            for ex in exits:
                assert all(x >= y for x, y in zip(ex.clock, ev.clock))
            if ev.kind == "coll-enter":
                break


def test_regions_append_and_start_after_the_join():
    """A trace passed to two runs records both, one region each; the
    second region's ranks start strictly after every event of the
    first."""
    trace = CommTrace()
    run_spmd(2, _pingpong, trace=trace)
    split = [len(evs) for evs in trace.events_by_rank]
    last = [evs[-1] for evs in trace.events_by_rank]
    run_spmd(2, _pingpong, trace=trace)
    assert trace.regions == 2 and trace.completed
    for rank, evs in enumerate(trace.events_by_rank):
        assert len(evs) == 2 * split[rank]
        assert [e.seq for e in evs] == list(range(len(evs)))
        first = evs[split[rank]]
        for end in last:
            assert all(x > y for x, y in zip(first.clock, end.clock))
        assert [e.coll_index for e in evs if e.kind == "coll-enter"] == [0, 1]
        assert trace.region_events(rank) == [
            evs[:split[rank]], evs[split[rank]:]
        ]
    assert trace.leaked == []
    with pytest.raises(ValueError, match="2-rank trace"):
        run_spmd(3, _pingpong, trace=trace)


def test_untraced_world_unchanged():
    """No trace argument: payloads travel unwrapped, results identical."""
    plain = run_spmd(2, _pingpong)
    traced_trace = CommTrace()
    traced = run_spmd(2, _pingpong, trace=traced_trace)
    assert np.array_equal(plain[0], traced[0])
    assert np.array_equal(plain[1], traced[1])
