"""Event-trace recording: per-rank events and regions."""

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


def test_regions_append_and_start_after_the_join():
    """A trace passed to two runs records both, one region each; the
    second region's collectives continue the first's numbering."""
    trace = CommTrace()
    run_spmd(2, _pingpong, trace=trace)
    split = [len(evs) for evs in trace.events_by_rank]
    run_spmd(2, _pingpong, trace=trace)
    assert trace.regions == 2 and trace.completed
    for rank, evs in enumerate(trace.events_by_rank):
        assert len(evs) == 2 * split[rank]
        assert [e.seq for e in evs] == list(range(len(evs)))
        assert [e.coll_index for e in evs if e.kind == "coll-enter"] == [0, 1]
        assert trace.region_events(rank) == [
            evs[:split[rank]], evs[split[rank]:]
        ]
    assert trace.leaked == []
    with pytest.raises(ValueError, match="2-rank trace"):
        run_spmd(3, _pingpong, trace=trace)


def test_untraced_world_unchanged():
    """No trace argument: results identical to a traced run."""
    plain = run_spmd(2, _pingpong)
    traced_trace = CommTrace()
    traced = run_spmd(2, _pingpong, trace=traced_trace)
    assert np.array_equal(plain[0], traced[0])
    assert np.array_equal(plain[1], traced[1])
