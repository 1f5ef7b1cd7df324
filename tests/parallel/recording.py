"""Record what each rank asks of its communicator.

:class:`RecordingComm` wraps a :class:`~repro.parallel.simmpi.SimComm`
and forwards every call.  The point-to-point calls land in ``ops`` as
``(kind, peer, tag)`` — ``"send"``, ``"post"`` for a posted receive,
``"complete"`` when a posted receive is waited on — the message fields
of a :class:`~repro.parallel.exchange.CommOp`; a collective lands as
its name alone.  :func:`recorded_runs` wraps the communicators of every
thread-world region a :class:`~repro.parallel.pfmm.ParallelFMM` starts.
"""

from contextlib import contextmanager
from unittest import mock

from repro.parallel import pfmm

MESSAGE_KINDS = ("send", "post", "complete")


class _RecordedRequest:
    def __init__(self, ops: list, request) -> None:
        self._ops = ops
        self._request = request

    def wait(self):
        self._ops.append(("complete", self._request.source, self._request.tag))
        return self._request.wait()


class RecordingComm:
    """A :class:`~repro.parallel.simmpi.SimComm` that records its calls."""

    def __init__(self, comm) -> None:
        self._comm = comm
        self.ops: list[tuple] = []

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def send(self, dst, obj, tag=0, phase=None):
        self.ops.append(("send", dst, tag))
        self._comm.send(dst, obj, tag=tag, phase=phase)

    isend = send

    def irecv(self, src, tag=0, phase=None):
        self.ops.append(("post", src, tag))
        return _RecordedRequest(
            self.ops, self._comm.irecv(src, tag=tag, phase=phase)
        )

    def allreduce(self, array, op="sum"):
        self.ops.append(("allreduce",))
        return self._comm.allreduce(array, op)

    def allgather(self, obj):
        self.ops.append(("allgather",))
        return self._comm.allgather(obj)

    def messages(self) -> list[tuple]:
        """The point-to-point calls, in the order they were made."""
        return [op for op in self.ops if op[0] in MESSAGE_KINDS]


@contextmanager
def recorded_runs():
    """Yield a list that receives, per ``run_spmd`` region the parallel
    driver starts (a setup, or an apply on rank threads), every rank's
    :class:`RecordingComm` in rank order."""
    regions: list[list[RecordingComm]] = []
    real = pfmm.run_spmd

    def run_spmd(nranks, fn, *args, **kwargs):
        comms: list[RecordingComm | None] = [None] * nranks

        def recorded(comm, *rank_args):
            comms[comm.rank] = RecordingComm(comm)
            return fn(comms[comm.rank], *rank_args)

        try:
            return real(nranks, recorded, *args, **kwargs)
        finally:
            regions.append(comms)

    with mock.patch.object(pfmm, "run_spmd", run_spmd):
        yield regions


def program_messages(program) -> list[tuple]:
    """The ``(kind, peer, tag)`` of a list of message ops."""
    return [(op.kind, op.peer, op.tag) for op in program]


def region_messages(regions) -> list[list[list[tuple]]]:
    """Per region, every rank's recorded point-to-point calls."""
    return [[comm.messages() for comm in comms] for comms in regions]


def divergent_regions(ir, messages) -> list[tuple[int, int]]:
    """The ``(rank, region)`` pairs whose messages (as from
    :func:`region_messages`) are not their IR program's: the first
    region (a setup) must make, per rank, exactly the ``geo`` ops of the
    program, and every later region (one apply each) exactly the rest,
    in order."""
    out = []
    for rank in range(ir.nranks):
        ops = program_messages(ir.programs[rank])
        cut = sum(1 for op in ops if op[2][0] in ("geo", "geog"))
        for region, per_rank in enumerate(messages):
            want = ops[:cut] if region == 0 else ops[cut:]
            if per_rank[rank] != want:
                out.append((rank, region))
    return out


def assert_regions_follow(ir, regions) -> None:
    """Every recorded region follows the IR (:func:`divergent_regions`)."""
    assert divergent_regions(ir, region_messages(regions)) == []
