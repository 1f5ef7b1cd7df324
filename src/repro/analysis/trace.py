"""Communication event traces for the simulated MPI runtime.

Every :class:`~repro.parallel.simmpi.SimComm` operation can be recorded
as a :class:`TraceEvent` carrying logical time — a per-rank Lamport
clock and a full vector clock — plus payload metadata (byte size and a
content digest).  The offline analyzer (:mod:`repro.analysis.commcheck`)
reconstructs the happens-before relation from these clocks and the
explicit send/recv matching, so ordering bugs (dropped messages,
wait-for cycles, diverging collectives) are diagnosed from the trace
alone, without re-running the program.

A receive emits *two* events: ``recv-post`` when it is posted and
``recv`` when it completes.  A rank whose final event is a
``recv-post`` was blocked there when the run ended — that is exactly
the information the deadlock detector needs.  A collective is
point-to-point messages between a ``coll-enter`` and a ``coll-exit``
event, so a rank stuck in one ends on a named ``recv-post`` too.

This module is runtime-agnostic: it only defines the event model and
clock bookkeeping.  The instrumentation hooks live in
``repro/parallel/simmpi.py``; nothing here imports ``threading``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

#: Event kinds emitted by the instrumented runtime.
EVENT_KINDS = ("send", "recv-post", "recv", "coll-enter", "coll-exit")


def payload_digest(obj: Any) -> str:
    """Stable content fingerprint of a message payload.

    Used to compare the message streams of two executions: if the same
    channel carries the same digest sequence under every schedule, the
    communication is observably deterministic.
    """
    h = hashlib.sha1()
    _digest_into(h, obj)
    return h.hexdigest()[:16]


def _digest_into(h: "hashlib._Hash", obj: Any) -> None:
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"nd")
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"seq")
        for x in obj:
            _digest_into(h, x)
    elif isinstance(obj, dict):
        h.update(b"map")
        for k in sorted(obj, key=repr):
            h.update(repr(k).encode())
            _digest_into(h, obj[k])
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"b")
        h.update(bytes(obj))
    else:
        h.update(b"o")
        h.update(repr(obj).encode())


@dataclass
class TraceEvent:
    """One communication event of one rank.

    ``clock`` is the rank's vector clock *after* the event; ``lamport``
    the scalar Lamport time.  ``peer`` is the destination rank for sends
    and the source rank for receives (``None`` for collectives).
    ``match_seq`` on a ``recv`` event is the per-rank event sequence
    number of the matching ``send`` on the sending rank — the edge the
    analyzer uses to stitch the happens-before graph together.
    """

    rank: int
    seq: int
    kind: str
    peer: int | None = None
    tag: Any = None
    nbytes: int = 0
    lamport: int = 0
    clock: tuple[int, ...] = ()
    coll: str | None = None  # allreduce / allgather
    coll_index: int | None = None
    op: str | None = None
    shape: tuple[int, ...] | None = None
    digest: str | None = None
    match_seq: int | None = None

    def channel(self) -> tuple[int, int, Any] | None:
        """The ``(src, dst, tag)`` channel of a point-to-point event."""
        if self.kind == "send":
            return (self.rank, self.peer, self.tag)
        if self.kind in ("recv", "recv-post"):
            return (self.peer, self.rank, self.tag)
        return None

    def describe(self) -> str:
        if self.kind == "send":
            return f"send {self.rank}->{self.peer} tag={self.tag!r}"
        if self.kind in ("recv", "recv-post"):
            return f"recv {self.peer}->{self.rank} tag={self.tag!r}"
        extra = f" op={self.op!r}" if self.op else ""
        return f"{self.coll}[{self.coll_index}]{extra}"


@dataclass
class Envelope:
    """Wire wrapper carrying clock metadata alongside a traced payload."""

    payload: Any
    src: int
    seq: int
    lamport: int
    clock: tuple[int, ...]
    digest: str


class RankTracer:
    """Per-rank clock state and event emitter.

    Owned by exactly one rank thread; appends to that rank's private
    event list, so no locking is needed.  Starts from the
    ``(lamport, vector clock, collective index)`` its region opens at
    (:meth:`CommTrace.begin_region`).
    """

    def __init__(self, trace: "CommTrace", rank: int, start: tuple) -> None:
        self.rank = rank
        self.lamport, clock, self.coll_index = start
        self.clock = list(clock)
        self._events = trace.events_by_rank[rank]

    def _emit(self, kind: str, **fields: Any) -> TraceEvent:
        ev = TraceEvent(
            rank=self.rank,
            seq=len(self._events),
            kind=kind,
            lamport=self.lamport,
            clock=tuple(self.clock),
            **fields,
        )
        self._events.append(ev)
        return ev

    def _tick(self) -> None:
        self.lamport += 1
        self.clock[self.rank] += 1

    # -- point to point ----------------------------------------------------

    def on_send(self, dst: int, tag: Any, obj: Any, nbytes: int) -> Envelope:
        """Record a send; returns the envelope to put on the wire."""
        self._tick()
        digest = payload_digest(obj)
        ev = self._emit("send", peer=dst, tag=tag, nbytes=nbytes, digest=digest)
        return Envelope(
            payload=obj,
            src=self.rank,
            seq=ev.seq,
            lamport=self.lamport,
            clock=tuple(self.clock),
            digest=digest,
        )

    def on_recv_post(self, src: int, tag: Any) -> None:
        """Record that a blocking receive was posted (no clock tick)."""
        self._emit("recv-post", peer=src, tag=tag)

    def on_recv(self, src: int, tag: Any, env: Envelope, nbytes: int) -> None:
        """Record a completed receive, merging the sender's clocks."""
        self.lamport = max(self.lamport, env.lamport) + 1
        self.clock[self.rank] += 1
        for i, c in enumerate(env.clock):
            self.clock[i] = max(self.clock[i], c)
        self._emit(
            "recv",
            peer=src,
            tag=tag,
            nbytes=nbytes,
            digest=env.digest,
            match_seq=env.seq,
        )

    # -- collectives -------------------------------------------------------
    #
    # A collective is messages (``simmpi.SimComm._collective``): its
    # enter and exit events bracket the sends and receives that carry
    # every clock merge, so neither merges anything itself.

    def on_coll_enter(
        self,
        coll: str,
        nbytes: int = 0,
        op: str | None = None,
        shape: tuple[int, ...] | None = None,
    ) -> None:
        self._tick()
        self._emit(
            "coll-enter",
            coll=coll,
            coll_index=self.coll_index,
            nbytes=nbytes,
            op=op,
            shape=shape,
        )

    def on_coll_exit(self, coll: str) -> None:
        self._tick()
        self._emit("coll-exit", coll=coll, coll_index=self.coll_index)
        self.coll_index += 1

    def position(self) -> int:
        """Number of events emitted so far — this rank's event cursor.

        The race detector stamps each access record with the cursor so
        the offline analysis can locate the communication events that
        surround an access without timestamps.
        """
        return len(self._events)


class CommTrace:
    """A multi-rank execution trace plus runtime exit metadata.

    Pass an instance to :func:`repro.parallel.simmpi.run_spmd` via
    ``trace=``; the runtime fills it, including on abnormal exits
    (timeouts, deadlocks, rank exceptions), which is when the analyzer
    is most useful.  Passed to several runs — a
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
        #: Regions recorded so far.
        self.regions = 0
        #: ``(lamport, vector clock, collective index)`` the open
        #: region's ranks start from, and the ranks' tracers.
        self._start = (0, (0,) * nranks, 0)
        self._tracers: list[RankTracer | None] = []

    def begin_region(self, nranks: int) -> None:
        """Open one ``run_spmd`` region of ``nranks`` ranks.

        The first region sizes the trace; later ones must match it.  A
        region boundary joins every rank thread and spawns new ones:
        each rank's exit is an event, and every rank of the next region
        starts after all of them — one tick past the element-wise
        maximum of the ranks' final clocks, at the largest collective
        index reached.  That is the happens-before edge the boundary
        provides, and without it accesses of consecutive regions would
        read as concurrent.
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
            self._start = (
                max(t.lamport for t in done) + 1,
                tuple(max(c) + 1 for c in zip(*(t.clock for t in done))),
                max(t.coll_index for t in done),
            )
        self._tracers = [None] * nranks
        self.regions += 1

    def tracer(self, rank: int) -> RankTracer:
        """Rank ``rank``'s event emitter for the open region."""
        tracer = RankTracer(self, rank, self._start)
        self._tracers[rank] = tracer
        return tracer

    def recorder_for(self, rank: int, tracer: RankTracer) -> Any:
        """The access recorder the runtime installs on ``rank``'s thread:
        none for a plain trace (the race detector overrides this)."""
        return None

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

    def events(self) -> Iterator[TraceEvent]:
        """All events, ordered by Lamport time (ties by rank, seq)."""
        merged = [ev for evs in self.events_by_rank for ev in evs]
        merged.sort(key=lambda e: (e.lamport, e.rank, e.seq))
        return iter(merged)

    def nevents(self) -> int:
        return sum(len(evs) for evs in self.events_by_rank)

    # -- serialisation (CLI / CI artifacts) --------------------------------

    def to_jsonl(self, path: str) -> None:
        """Write the trace as a JSON-lines file (header, then events).

        Tags are serialised via ``repr`` — matching stays consistent on
        load because both send and recv sides serialise identically.
        """
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "nranks": self.nranks,
                "completed": self.completed,
                "error": self.error,
                "leaked": [
                    {"src": k[0], "dst": k[1], "tag": repr(k[2]), "count": n}
                    for k, n in self.leaked
                ],
            }
            fh.write(json.dumps(header) + "\n")
            for ev in self.events():
                d = {f: getattr(ev, f) for f in (
                    "rank", "seq", "kind", "peer", "nbytes", "lamport",
                    "coll", "coll_index", "op", "digest", "match_seq",
                )}
                d["tag"] = repr(ev.tag) if ev.tag is not None else None
                d["clock"] = list(ev.clock)
                d["shape"] = list(ev.shape) if ev.shape is not None else None
                fh.write(json.dumps(d) + "\n")

    @classmethod
    def from_jsonl(cls, path: str) -> "CommTrace":
        trace = cls()
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            trace.reset(int(header["nranks"]))
            trace.completed = bool(header["completed"])
            trace.error = header["error"]
            trace.leaked = [
                ((d["src"], d["dst"], d["tag"]), d["count"])
                for d in header["leaked"]
            ]
            for line in fh:
                d = json.loads(line)
                ev = TraceEvent(
                    rank=d["rank"],
                    seq=d["seq"],
                    kind=d["kind"],
                    peer=d["peer"],
                    tag=d["tag"],
                    nbytes=d["nbytes"],
                    lamport=d["lamport"],
                    clock=tuple(d["clock"]),
                    coll=d["coll"],
                    coll_index=d["coll_index"],
                    op=d["op"],
                    shape=tuple(d["shape"]) if d["shape"] is not None else None,
                    digest=d["digest"],
                    match_seq=d["match_seq"],
                )
                trace.events_by_rank[ev.rank].append(ev)
        return trace
