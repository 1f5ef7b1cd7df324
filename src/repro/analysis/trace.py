"""Communication event traces for the simulated MPI runtime.

Every :class:`~repro.parallel.simmpi.SimComm` operation can be recorded
as a :class:`TraceEvent` of its rank, in program order.  The
conformance check
(:func:`~repro.analysis.commcheck_static.check_conformance`) reads a
trace: it requires each rank's traced messages to equal its compiled
exchange program, region by region.

A receive emits *two* events: ``recv-post`` when it is posted and
``recv`` when it completes.  A collective is point-to-point messages
between a ``coll-enter`` and a ``coll-exit`` event.

This module is runtime-agnostic: it only defines the event model.  The
instrumentation hooks live in ``repro/parallel/simmpi.py``; nothing
here imports ``threading``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Event kinds emitted by the instrumented runtime.
EVENT_KINDS = ("send", "recv-post", "recv", "coll-enter", "coll-exit")


@dataclass
class TraceEvent:
    """One communication event of one rank.

    ``peer`` is the destination rank for sends and the source rank for
    receives (``None`` for collectives).
    """

    rank: int
    seq: int
    kind: str
    peer: int | None = None
    tag: Any = None
    nbytes: int = 0
    coll: str | None = None  # allreduce / allgather
    coll_index: int | None = None
    op: str | None = None
    shape: tuple[int, ...] | None = None

    def channel(self) -> tuple[int, int, Any] | None:
        """The ``(src, dst, tag)`` channel of a point-to-point event."""
        if self.kind == "send":
            return (self.rank, self.peer, self.tag)
        if self.kind in ("recv", "recv-post"):
            return (self.peer, self.rank, self.tag)
        return None


class RankTracer:
    """Per-rank event emitter.

    Owned by exactly one rank thread; appends to that rank's private
    event list, so no locking is needed.  Starts from the collective
    index its region opens at (:meth:`CommTrace.begin_region`).
    """

    def __init__(self, trace: "CommTrace", rank: int, coll_index: int) -> None:
        self.rank = rank
        self.coll_index = coll_index
        self._events = trace.events_by_rank[rank]

    def _emit(self, kind: str, **fields: Any) -> None:
        self._events.append(TraceEvent(
            rank=self.rank,
            seq=len(self._events),
            kind=kind,
            **fields,
        ))

    # -- point to point ----------------------------------------------------

    def on_send(self, dst: int, tag: Any, nbytes: int) -> None:
        self._emit("send", peer=dst, tag=tag, nbytes=nbytes)

    def on_recv_post(self, src: int, tag: Any) -> None:
        self._emit("recv-post", peer=src, tag=tag)

    def on_recv(self, src: int, tag: Any, nbytes: int) -> None:
        self._emit("recv", peer=src, tag=tag, nbytes=nbytes)

    # -- collectives -------------------------------------------------------
    #
    # A collective is messages (``simmpi.SimComm._collective``): its
    # enter and exit events bracket the sends and receives it is made of.

    def on_coll_enter(
        self,
        coll: str,
        nbytes: int = 0,
        op: str | None = None,
        shape: tuple[int, ...] | None = None,
    ) -> None:
        self._emit(
            "coll-enter",
            coll=coll,
            coll_index=self.coll_index,
            nbytes=nbytes,
            op=op,
            shape=shape,
        )

    def on_coll_exit(self, coll: str) -> None:
        self._emit("coll-exit", coll=coll, coll_index=self.coll_index)
        self.coll_index += 1


class CommTrace:
    """A multi-rank execution trace plus runtime exit metadata.

    Pass an instance to :func:`repro.parallel.simmpi.run_spmd` via
    ``trace=``; the runtime fills it, including on abnormal exits
    (timeouts, deadlocks, rank exceptions).  Passed to several runs — a
    :class:`~repro.parallel.pfmm.ParallelFMM` setup and its applies —
    it appends each as one *region* of a single execution.
    """

    def __init__(self) -> None:
        self.reset(0)

    def reset(self, nranks: int) -> None:
        self.nranks = nranks
        self.events_by_rank: list[list[TraceEvent]] = [
            [] for _ in range(nranks)
        ]
        #: Messages left in mailboxes at exit: ``((src, dst, tag), count)``.
        self.leaked: list[tuple[tuple[int, int, Any], int]] = []
        #: ``repr`` of the first per-rank exception, if the run failed.
        self.error: str | None = None
        #: Whether every region so far ran to a clean exit.
        self.completed = False
        #: Per region recorded so far, the index of each rank's first
        #: event of that region in ``events_by_rank``.
        self.region_starts: list[tuple[int, ...]] = []
        #: The collective index the open region's ranks start from, and
        #: the ranks' tracers.
        self._coll_start = 0
        self._tracers: list[RankTracer | None] = []

    def begin_region(self, nranks: int) -> None:
        """Open one ``run_spmd`` region of ``nranks`` ranks.

        The first region sizes the trace; later ones must match it.
        Every rank of the next region continues at the largest
        collective index the previous region reached.
        """
        if self.nranks == 0:
            self.reset(nranks)
        elif nranks != self.nranks:
            raise ValueError(
                f"a {self.nranks}-rank trace cannot record a "
                f"{nranks}-rank region"
            )
        done = [t for t in self._tracers if t is not None]
        if done:
            self._coll_start = max(t.coll_index for t in done)
        self._tracers = [None] * nranks
        self.region_starts.append(
            tuple(len(evs) for evs in self.events_by_rank)
        )

    @property
    def regions(self) -> int:
        """Regions recorded so far."""
        return len(self.region_starts)

    def region_events(self, rank: int) -> list[list[TraceEvent]]:
        """Rank ``rank``'s events, one list per region."""
        evs = self.events_by_rank[rank]
        bounds = [start[rank] for start in self.region_starts] + [len(evs)]
        return [evs[a:b] for a, b in zip(bounds, bounds[1:])]

    def tracer(self, rank: int) -> RankTracer:
        """Rank ``rank``'s event emitter for the open region."""
        tracer = RankTracer(self, rank, self._coll_start)
        self._tracers[rank] = tracer
        return tracer

    def end_region(
        self,
        leaked: list[tuple[tuple[int, int, Any], int]],
        error: BaseException | None,
        completed: bool,
    ) -> None:
        """Close the open region with the runtime's exit report."""
        self.leaked += leaked
        if self.error is None and error is not None:
            self.error = repr(error)
        self.completed = completed and (self.regions == 1 or self.completed)

    def nevents(self) -> int:
        return sum(len(evs) for evs in self.events_by_rank)
