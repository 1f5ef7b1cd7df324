"""Ranks as processes: a shared-memory mailbox under :class:`SimComm`.

:mod:`repro.parallel.simmpi` keeps the communicator — ``SimComm``,
``Request``, ``CommStats``, tag matching, the binomial collectives —
over a *world* that only has to provide a mailbox, ``box(src, dst,
tag)`` with ``put`` / ``get``, and an abort flag.  Its thread world
(``queue.Queue`` per key holding payload copies, one interpreter lock)
is the deterministic substrate of the verifiers; this module is the
world measured parallelism runs on:

:class:`ProcessWorld`
    One shared anonymous memory map per ordered rank pair, sized from
    the send ops of the programs compiled at setup, so a buffered send
    never blocks: it copies the payload into the map and posts a
    semaphore.  The receiver copies it out.  Messages of a pair are
    read in the order they were written, which keeps every
    ``(src, dst, tag)`` FIFO.
:class:`RankProcesses`
    The rank processes of one operator: forked from the process that
    ran the setup — the states, the plan and every operator are
    inherited copy-on-write, nothing is pickled on the way in — each
    answering one message per round (an apply) over its own pipe until
    it is told to stop.  They end with the object that owns them.

The processes are forked, not spawned: sharing the operators without a
copy is the point.  A process that holds other threads at that moment
forks them away; the repo confines threads to the two transport
modules (the ``thread-confinement`` lint rule), and the thread world's
rank threads are joined before ``run_spmd`` returns.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import pickle
import queue
import struct
import threading
import traceback
import weakref
from collections import defaultdict, deque
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any

import numpy as np

from repro.parallel.simmpi import MailboxLeakError, RankAbortedError, SimComm

#: Bytes a message takes in its channel beside the payload: the header,
#: the pickled ``(tag, dtype, shape)`` and the alignment padding.
MESSAGE_OVERHEAD = 256

#: meta bytes (0 ends the round's messages), payload bytes, delivered.
_HEADER = struct.Struct("<qqq")
_ALIGN = 16


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


class MailboxFullError(RuntimeError):
    """A send found no room left in its channel.

    A buffered send never blocks, so a channel holds a whole round; the
    capacities come from the compiled programs, and running out of one
    means a message no program declared.
    """


class RankDiedError(RuntimeError):
    """A rank process ended without answering (killed, or crashed)."""

    def __init__(self, rank: int, exitcode: int | None) -> None:
        self.rank, self.exitcode = rank, exitcode
        super().__init__(
            f"rank {rank}'s process died during the apply "
            f"(exit code {exitcode})"
        )


class _Flag:
    """One shared byte.  No lock: a rank killed while setting or
    reading it leaves nothing held."""

    def __init__(self) -> None:
        self._byte = mmap.mmap(-1, 1)

    def set(self) -> None:
        self._byte[0] = 1

    def is_set(self) -> bool:
        return self._byte[0] != 0


class _Channel:
    """The messages one rank sends another in one round, in send order.

    Written by the source rank and read by the destination, each through
    its own ``at`` (after the fork every process has its own copy of
    this object over the one shared map); ``ready`` counts the messages
    written and not yet read.  A message is a header, the pickled
    ``(tag, dtype, shape)`` and the array's bytes (any other payload
    travels pickled, with no dtype); the header after the last one is
    zero, and the reader marks a header once its message was handed
    out — so whoever maps the channel can list what was never received.
    """

    def __init__(self, ctx, capacity: int) -> None:
        self.capacity = _aligned(int(capacity)) + _HEADER.size
        self.buf = mmap.mmap(-1, self.capacity)
        self.ready = ctx.Semaphore(0)
        self.at = 0
        #: Reader side: tag -> (payload, header position) in arrival order.
        self.stash: dict[Any, deque] = defaultdict(deque)

    def begin_round(self, writer: bool) -> None:
        """Rewind this process's end; only the writer touches the map
        (its first message may land before the reader rewinds)."""
        self.at = 0
        self.stash.clear()
        if writer:
            _HEADER.pack_into(self.buf, 0, 0, 0, 0)

    def put(self, tag: Any, obj: Any) -> None:
        if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
            meta = pickle.dumps((tag, obj.dtype.str, obj.shape))
            payload = np.ascontiguousarray(obj).reshape(-1).view(np.uint8)
        else:
            meta = pickle.dumps((tag, None, None))
            payload = np.frombuffer(pickle.dumps(obj), np.uint8)
        start = _aligned(self.at + _HEADER.size + len(meta))
        end = _aligned(start + payload.size)
        if end + _HEADER.size > self.capacity:
            raise MailboxFullError(
                f"message {tag!r} of {payload.size} bytes does not fit the "
                f"{self.capacity - self.at} bytes left of a "
                f"{self.capacity}-byte channel"
            )
        buf = self.buf
        _HEADER.pack_into(buf, self.at, len(meta), payload.size, 0)
        buf[self.at + _HEADER.size : self.at + _HEADER.size + len(meta)] = meta
        if payload.size:
            np.frombuffer(buf, np.uint8, payload.size, start)[:] = payload
        _HEADER.pack_into(buf, end, 0, 0, 0)
        self.at = end
        self.ready.release()

    def _read(self, at: int) -> tuple[Any, Any, int]:
        """``(tag, payload copy, next position)`` of the message at ``at``."""
        nmeta, nbytes, _ = _HEADER.unpack_from(self.buf, at)
        head = at + _HEADER.size
        tag, dtype, shape = pickle.loads(self.buf[head : head + nmeta])
        start = _aligned(head + nmeta)
        raw = np.frombuffer(self.buf, np.uint8, nbytes, start)
        if dtype is None:
            obj = pickle.loads(raw.tobytes())
        else:
            obj = raw.view(dtype).reshape(shape).copy()
        return tag, obj, _aligned(start + nbytes)

    def get(self, tag: Any, timeout: float) -> Any:
        """The oldest undelivered message of ``tag``; ``queue.Empty``
        when none arrives within ``timeout`` of the last arrival."""
        arrived = self.stash[tag]
        while not arrived:
            if not self.ready.acquire(timeout=timeout):
                raise queue.Empty
            at = self.at
            other, obj, self.at = self._read(at)
            self.stash[other].append((obj, at))
        obj, at = arrived.popleft()
        struct.pack_into("<q", self.buf, at + 16, 1)  # delivered
        return obj

    def undelivered(self) -> list[Any]:
        """Tags of the round's messages nobody received."""
        tags, at = [], 0
        while True:
            nmeta, nbytes, delivered = _HEADER.unpack_from(self.buf, at)
            if nmeta == 0:
                return tags
            head = at + _HEADER.size
            if not delivered:
                tags.append(pickle.loads(self.buf[head : head + nmeta])[0])
            at = _aligned(_aligned(head + nmeta) + nbytes)


class _Box:
    """One ``(src, dst, tag)`` key of a :class:`ProcessWorld`."""

    __slots__ = ("_channel", "_tag")

    def __init__(self, channel: _Channel, tag: Any) -> None:
        self._channel, self._tag = channel, tag

    def put(self, obj: Any) -> None:
        self._channel.put(self._tag, obj)

    def get(self, timeout: float) -> Any:
        return self._channel.get(self._tag, timeout)


class ProcessWorld:
    """What the rank processes of one operator share.

    ``capacity[src][dst]`` is the bytes rank ``src`` may send rank
    ``dst`` in one round.  The thread world's instrument,
    ``schedule_seed``, has no meaning across address spaces and stays
    ``None``, a receive times out after ``SimComm.TIMEOUT``;
    the collectives are point-to-point messages and work here within
    those capacities.
    """

    schedule_seed = recv_timeout = None

    def __init__(self, ctx, capacity) -> None:
        self.size = len(capacity)
        self.aborted = _Flag()
        self._channels = {
            (src, dst): _Channel(ctx, capacity[src][dst])
            for src in range(self.size) for dst in range(self.size)
            if src != dst
        }

    def box(self, src: int, dst: int, tag: Any) -> _Box:
        return _Box(self._channels[src, dst], tag)

    def begin_round(self, rank: int) -> None:
        """Rewind the channels ``rank`` writes or reads."""
        for (src, dst), channel in self._channels.items():
            if rank in (src, dst):
                channel.begin_round(writer=rank == src)

    def leaked_messages(self) -> list[tuple[tuple[int, int, Any], int]]:
        """Messages of the finished round that were never received, as
        the thread world reports them."""
        leaked: dict[tuple[int, int, Any], int] = defaultdict(int)
        for (src, dst), channel in self._channels.items():
            for tag in channel.undelivered():
                leaked[src, dst, tag] += 1
        return sorted(leaked.items(), key=lambda item: repr(item[0]))


@dataclass
class _Team:
    """One fork of the ranks: what must be reaped together."""

    world: ProcessWorld
    capacity: np.ndarray
    procs: list
    conns: list[Connection]
    #: The process that forked them; only it may reap them.
    pid: int


def _reap(team: _Team) -> None:
    """End a team: ask, wait a second, kill what is left."""
    if os.getpid() != team.pid:  # a forked copy of the owner was collected
        return
    team.world.aborted.set()  # a rank blocked in a receive gives up
    for conn in team.conns:
        try:
            conn.send(None)
        except (OSError, ValueError):  # already gone
            pass
        conn.close()
    for proc in team.procs:
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        proc.close()


def _rank_main(
    world: ProcessWorld, rank: int, conn: Connection, serve: Callable,
    inherited: list[Connection],
) -> None:
    """A rank process: answer each message with ``serve(comm, message)``
    until told to stop, the parent is gone, or a round fails."""
    for other in inherited:  # the pipe ends of the parent and the peers
        other.close()
    while True:
        try:
            request = conn.recv()  # ``(message,)``, or None to stop
        except (EOFError, OSError):
            return
        if request is None:
            return
        (message,) = request
        world.begin_round(rank)
        try:
            reply = ("ok", serve(SimComm(world, rank), message))
        except Exception as exc:  # reported to the caller, who re-raises
            world.aborted.set()
            kind, text = type(exc), str(exc)
            try:
                pickle.dumps(kind)
            except Exception:  # a class pickle cannot name
                kind, text = RuntimeError, f"{kind.__qualname__}: {text}"
            reply = ("error", kind, text, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return
        if reply[0] == "error":
            return


class RankTraceback(Exception):
    """The traceback a rank process printed, as the cause of the
    exception re-raised for it in the caller."""


def _raised_on(rank: int, kind: type, text: str, trace: str) -> Exception:
    """The exception a rank reported, as its own type where the type
    takes a message."""
    message = f"rank {rank}: {text}"
    try:
        exc = kind(message)
    except Exception:
        exc = RuntimeError(f"{kind.__qualname__}: {message}")
    exc.__cause__ = RankTraceback(f"in rank {rank}'s process:\n{trace}")
    return exc


class RankProcesses:
    """The rank processes of one operator, forked on demand.

    ``start(serve, capacity)`` forks ``nranks`` processes over a fresh
    :class:`ProcessWorld`; ``call(messages)`` hands rank ``r``
    ``messages[r]`` and returns the ranks' ``serve(comm, message)``
    results.  A round that fails ends the team, and the caller forks
    the next one from its own intact state.  The team also ends with
    ``stop()``, with this object (``weakref.finalize``, so ``del`` of
    the owning operator reaps its ranks) and, the processes being
    daemonic, with the interpreter.  ``lock`` serialises the owner's
    calls.
    """

    #: Whether ranks can be processes here at all (``os.fork`` exists).
    available = "fork" in multiprocessing.get_all_start_methods()

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.lock = threading.Lock()
        self._team: _Team | None = None
        self._finalizer: weakref.finalize | None = None

    def fits(self, capacity: np.ndarray) -> bool:
        """Whether a live team's channels hold rounds of ``capacity``."""
        return self._team is not None and bool(
            (capacity <= self._team.capacity).all()
        )

    def start(
        self, serve: Callable[[SimComm, Any], Any], capacity: np.ndarray
    ) -> None:
        self.stop()
        ctx = multiprocessing.get_context("fork")
        world = ProcessWorld(ctx, capacity.tolist())
        pipes = [ctx.Pipe() for _ in range(self.nranks)]
        ends = [end for pipe in pipes for end in pipe]
        procs = [
            ctx.Process(
                target=_rank_main, name=f"procworld-rank-{rank}", daemon=True,
                args=(world, rank, child, serve,
                      [end for end in ends if end is not child]),
            )
            for rank, (_, child) in enumerate(pipes)
        ]
        team = _Team(
            world, capacity, procs, [parent for parent, _ in pipes], os.getpid()
        )
        # Registered before the first fork: whatever starts is reaped.
        self._team = team
        self._finalizer = weakref.finalize(self, _reap, team)
        for proc, (_, child) in zip(procs, pipes):
            proc.start()
            child.close()

    def stop(self) -> None:
        """Reap the team, if any (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()
        self._team = self._finalizer = None

    def call(self, messages: list) -> list:
        """One round: ``messages[r]`` to rank ``r``, the replies back.

        Raises what a rank raised — the first *primary* failure in rank
        order, as ``run_spmd`` does: a peer's ``RankAbortedError`` is the
        echo of that failure, not a cause — or :class:`RankDiedError`
        for a rank that ended without an answer, or
        :class:`~repro.parallel.simmpi.MailboxLeakError` for messages
        nobody received.
        """
        team = self._team
        if team is None:
            raise RuntimeError("RankProcesses.call before start()")
        for conn, message in zip(team.conns, messages):
            try:
                conn.send((message,))
            except OSError:  # the rank is gone: found below
                pass
        replies: list = [None] * self.nranks
        failures: dict[int, Exception] = {}
        try:
            self._collect(team, replies, failures)
        except BaseException:  # an interrupted round cannot be resumed
            self.stop()
            raise
        if failures:
            self.stop()
            raise next(
                (e for _, e in sorted(failures.items())
                 if not isinstance(e, RankAbortedError)),
                failures[min(failures)],
            )
        leaked = team.world.leaked_messages()
        if leaked:
            self.stop()
            raise MailboxLeakError(leaked)
        return replies

    def _collect(
        self, team: _Team, replies: list, failures: dict[int, Exception]
    ) -> None:
        """Every rank's reply or failure, as they come; the first
        failure raises the abort flag for the ranks still running."""
        pending = set(range(self.nranks))
        while pending:
            ready = wait(
                [team.conns[r] for r in pending]
                + [team.procs[r].sentinel for r in pending]
            )
            for rank in sorted(pending):
                conn, proc = team.conns[rank], team.procs[rank]
                reply = None
                if conn in ready:
                    try:
                        reply = conn.recv()
                    except EOFError:
                        pass
                elif proc.sentinel not in ready:
                    continue
                pending.discard(rank)
                if reply is None:
                    proc.join()
                    failures[rank] = RankDiedError(rank, proc.exitcode)
                elif reply[0] == "ok":
                    replies[rank] = reply[1]
                else:
                    failures[rank] = _raised_on(rank, *reply[1:])
                if rank in failures:
                    team.world.aborted.set()
