"""Simulated MPI: logical ranks, message-passing semantics.

Provides the MPI subset the paper's implementation uses — buffered
send, blocking and nonblocking receives, ``Allreduce`` over the global
tree array (Section 3.1) and ``Allgather`` of the per-box contributor
masks (Section 3.2) — with per-rank traffic accounting so
tests and the performance model can inspect communication volumes.
Point-to-point messages go through per-``(src, dst, tag)`` mailboxes.

The communicator (:class:`SimComm`, :class:`Request`,
:class:`CommStats`, tag matching, the collectives) is written once over
a *world* whose whole contract is the mailbox — ``box(src, dst, tag)``
with ``put`` / ``get`` — and the abort flag.  Two worlds exist.  The
one here puts ranks on threads of this process (:func:`run_spmd`):
``queue.Queue`` mailboxes, deterministic and seedable — every setup
runs on it.
:mod:`repro.parallel.procworld` puts them in forked processes with
shared-memory mailboxes: what :class:`~repro.parallel.pfmm.ParallelFMM`
applies on beyond one rank.

A message is a value on both worlds: ranks share no array the exchange
touches.  The process world copies every payload into shared memory;
the thread world's mailbox stores a private copy of each payload
(:class:`_Mailbox`).  So a sender may overwrite its buffer the
moment :meth:`SimComm.send` returns, and a receiver may write into
what it received, on either world
(``tests/parallel/test_simmpi.py::TestMessagesAreValues``).

Every collective is messages: ``allreduce`` and ``allgather`` are a
reduction to rank 0 along a deterministic binomial tree of real
point-to-point messages followed by a broadcast down the same edges, so
each rank sends and receives O(log P) messages per call instead of the
O(P) fan-in of a flat root-style reduce — the tree-top pattern the
paper needs at thousands of ranks.  Every internal message is a
first-class accounted send, so the collectives run on either world.
The exchange layer (:mod:`repro.parallel.exchange`) lays the same
binomial shape (:func:`tree_order` / :func:`tree_children`) over a
rank *subset* rooted at a box's owner.

The binomial association is fixed (:func:`combine_tree` reproduces it
locally), so reduction results are bitwise independent of the thread
schedule.

This is the DESIGN.md substitution for the paper's MPI/Quadrics stack:
the algorithm exchanges real messages between ranks; the transport is
threads under one interpreter lock here, and processes on one host in
``procworld`` — message passing between address spaces, shared memory
inside one, never a network.

Correctness tooling (see ``docs/architecture.md``):

- the schedule a run follows is checked offline, not recorded:
  ``repro commir`` certifies the compiled exchange programs and
  requires every rank's stored programs to *be* them, op for op
  (:func:`~repro.analysis.commcheck_static.check_conformance`);
- pass ``schedule_seed=`` to perturb the thread interleaving with
  seeded random yields, so tests can fuzz schedules reproducibly;
- at exit, :func:`run_spmd` asserts every mailbox is drained and raises
  :class:`MailboxLeakError` naming the leaked ``(src, dst, tag)`` keys —
  a dropped message is an algorithmic bug, never silent — and a receive
  that waits out ``recv_timeout`` (a wait-for cycle, a peer that never
  sends, two ranks in different collectives) raises
  :class:`TimeoutError` naming the rank, its peer and the tag.

Error propagation is deterministic: when any rank fails, the others are
aborted (their blocked receives raise :class:`RankAbortedError`), and
the caller receives the first *primary* exception in rank order — never
a secondary abort artifact — so sanitizer failures reproduce
identically across schedules.
"""

from __future__ import annotations

import copy
import queue
import random
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np


class RankAbortedError(RuntimeError):
    """A rank's blocked receive was interrupted because a peer failed.

    A *secondary* failure: :func:`run_spmd` never propagates it while
    any rank holds a primary exception, so the root cause wins
    deterministically regardless of which thread died first.
    """


# ---------------------------------------------------------------------------
# Message-tag registry.  Every point-to-point tag in the repo is a
# structured tuple ``(family, *discriminators)`` minted through
# :func:`mk_tag` from a family registered here: a single source of truth
# the static verifier (:mod:`repro.analysis.commir`) introspects to know
# which tag families exist, how many discriminator fields each carries
# and which traffic phases its messages are counted under.  Ad-hoc
# literal tags are rejected statically by the ``tag-registry`` lint rule.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TagFamily:
    """One registered tag family (the first element of its tags)."""

    name: str
    #: Names of the discriminator fields following the family name
    #: (e.g. ``("box",)`` or ``("primitive", "seq")``).
    fields: tuple[str, ...]
    #: ``CommStats.by_phase`` keys this family's messages are counted
    #: under.
    phases: tuple[str, ...]
    #: ``"exchange"`` (owner-centric box exchange) or ``"collective"``
    #: (binomial collectives).
    kind: str = "exchange"


#: family name -> :class:`TagFamily`; populated by the modules that own
#: each protocol (this module for the collectives, ``exchange.py`` for
#: the box exchanges).
TAG_FAMILIES: dict[str, TagFamily] = {}


def register_tag_family(
    name: str,
    *,
    fields: Iterable[str],
    phases: Iterable[str] = (),
    kind: str = "exchange",
) -> TagFamily:
    """Register (idempotently) one tag family.

    Re-registration with an identical spec is a no-op so module reloads
    stay harmless; a *conflicting* re-registration is an error — two
    protocols silently sharing a family name is exactly the tag-space
    collision the static verifier exists to rule out.
    """
    fam = TagFamily(name, tuple(fields), tuple(phases), kind)
    existing = TAG_FAMILIES.get(name)
    if existing is not None:
        if existing != fam:
            raise ValueError(
                f"tag family {name!r} already registered with a "
                f"different spec: {existing} vs {fam}"
            )
        return existing
    TAG_FAMILIES[name] = fam
    return fam


def mk_tag(family: str, *ids) -> tuple:
    """Mint one structured message tag ``(family, *ids)``.

    The family must be registered and ``ids`` must match its declared
    field count — the runtime half of the ``tag-registry`` invariant.
    """
    fam = TAG_FAMILIES.get(family)
    if fam is None:
        raise KeyError(
            f"unregistered tag family {family!r} (known: "
            f"{sorted(TAG_FAMILIES)})"
        )
    if len(ids) != len(fam.fields):
        raise ValueError(
            f"tag family {family!r} takes {len(fam.fields)} field(s) "
            f"{fam.fields}, got {len(ids)}"
        )
    return (family, *ids)


register_tag_family(
    "__coll__", fields=("primitive", "seq"), kind="collective",
)


@dataclass
class CommStats:
    """Per-rank communication accounting (both directions).

    Send- and receive-side counters are symmetric: over a whole world,
    ``sum(messages_sent) == sum(messages_received)`` exactly when no
    message was dropped, and the parity suites hold each rank's counts
    to its compiled exchange programs' send and completion ops.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    allreduce_calls: int = 0
    allreduce_bytes: int = 0
    #: Calls and this rank's contributed bytes; the messages that carry
    #: them are counted above like any other.
    allgather_calls: int = 0
    allgather_bytes: int = 0
    #: Wall seconds this rank spent blocked waiting for messages (the
    #: receive side of :meth:`SimComm.recv` / :meth:`Request.wait`).
    #: Together with the ``pack``/``wait`` timer phases this makes
    #: overlap efficiency directly measurable.
    recv_wait_seconds: float = 0.0
    by_phase: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record_send(self, nbytes: int, phase: str | None) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if phase:
            self.by_phase[phase] += nbytes

    def record_recv(self, nbytes: int, phase: str | None = None) -> None:
        self.messages_received += 1
        self.bytes_received += nbytes
        if phase:
            self.by_phase[phase] += nbytes

    def record_wait(self, seconds: float) -> None:
        self.recv_wait_seconds += seconds

    def record_allreduce(self, nbytes: int) -> None:
        self.allreduce_calls += 1
        self.allreduce_bytes += nbytes

    def record_allgather(self, nbytes: int) -> None:
        self.allgather_calls += 1
        self.allgather_bytes += nbytes

    #: Counter fields accumulated by :meth:`merge` — every integer/float
    #: counter above except the ``by_phase`` dict.  Enumerated once so a
    #: newly added collective counter cannot be silently dropped from
    #: :meth:`total` aggregation again.
    _SUM_FIELDS = (
        "messages_sent", "bytes_sent", "messages_received",
        "bytes_received", "allreduce_calls", "allreduce_bytes",
        "allgather_calls", "allgather_bytes", "recv_wait_seconds",
    )

    def merge(self, other: "CommStats") -> None:
        """Accumulate ``other`` into this instance."""
        for name in self._SUM_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for phase, nbytes in other.by_phase.items():
            self.by_phase[phase] += nbytes

    @classmethod
    def total(cls, per_rank: Iterable["CommStats"]) -> "CommStats":
        """Aggregate per-rank stats into world totals."""
        out = cls()
        for stats in per_rank:
            out.merge(stats)
        return out


class MailboxLeakError(RuntimeError):
    """A run left undelivered messages in mailboxes at exit.

    ``leaked`` holds ``((src, dst, tag), count)`` for every non-empty
    mailbox — the exact channels whose messages were dropped.
    """

    def __init__(self, leaked: list[tuple[tuple[int, int, Any], int]]) -> None:
        self.leaked = leaked
        keys = ", ".join(
            f"{src}->{dst} tag={tag!r} x{n}" for (src, dst, tag), n in leaked
        )
        super().__init__(
            f"{sum(n for _, n in leaked)} message(s) left undelivered at "
            f"exit: {keys}"
        )


def _payload_bytes(obj: Any) -> int:
    """Approximate wire size of a message payload."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(k) + _payload_bytes(v) for k, v in obj.items())
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    return 8  # scalars and small objects


#: Supported allreduce reductions (validated up front on every rank).
#: Pairwise operators: the collectives combine two accumulated partials
#: per binomial-tree round.
_ALLREDUCE_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": lambda a, b: a + b,
    "max": np.maximum,
    "min": np.minimum,
}


# -- binomial-tree topology --------------------------------------------------
#
# All hierarchical collectives share one deterministic shape: the
# participants are laid out on *positions* 0..n-1 with the root at
# position 0, and position q is the child of q with its lowest set bit
# cleared.  A reduction runs rounds mask = 1, 2, 4, ...: positions with
# ``pos & mask`` send their partial to ``pos - mask`` and exit, the
# rest receive-and-combine.  A broadcast mirrors the same edges
# downward.  Each participant therefore touches at most ceil(log2 n)
# messages, and the association of the combines is a pure function of
# n — never of the thread schedule.


def tree_order(ranks: Iterable[int], root: int) -> list[int]:
    """Deterministic position layout of a participant set.

    Sorted ascending, then rotated so ``root`` sits at position 0 — the
    same layout on every rank, so all participants derive identical
    parent/child edges without communicating.
    """
    order = sorted({int(r) for r in ranks} | {int(root)})
    i = order.index(int(root))
    return order[i:] + order[:i]


def tree_parent(pos: int) -> int:
    """Parent position (lowest set bit cleared); position 0 is the root."""
    return pos & (pos - 1)


def tree_children(pos: int, n: int) -> list[int]:
    """Child positions of ``pos`` in an ``n``-participant binomial tree.

    Ascending-mask order — the order a reduction *receives* them.  A
    broadcast sends to ``reversed(tree_children(...))`` so the largest
    subtree is released first.
    """
    kids = []
    mask = 1
    while mask < n and not pos & mask:
        if pos + mask < n:
            kids.append(pos + mask)
        mask <<= 1
    return kids


def combine_tree(values: list, combine: Callable[[Any, Any], Any]):
    """Combine ``values`` (indexed by tree position) with the *exact*
    association of the binomial-tree message pattern.

    ``None`` entries mark absent contributions and are skipped.  The
    exchange layer folds every gather node's slots with this helper, so
    a box's combined data is ``combine_tree`` over all its pieces in
    tree-position order, whatever the schedule.
    """
    vals = list(values)
    n = len(vals)
    mask = 1
    while mask < n:
        for p in range(0, n, 2 * mask):
            q = p + mask
            if q < n:
                a, c = vals[p], vals[q]
                vals[p] = c if a is None else (a if c is None else combine(a, c))
        mask <<= 1
    return vals[0] if vals else None


class _Mailbox(queue.Queue):
    """One ``(src, dst, tag)`` key of the thread world: a FIFO of
    private payload copies — an array's own buffer, a deep copy of
    anything else — so a message is a value here as it is in the
    process world's shared memory."""

    def put(self, obj: Any) -> None:  # type: ignore[override]
        super().put(
            obj.copy() if isinstance(obj, np.ndarray) else copy.deepcopy(obj)
        )


class _World:
    """State shared by all ranks of one SPMD run."""

    def __init__(
        self,
        size: int,
        schedule_seed: int | None = None,
        recv_timeout: float | None = None,
    ) -> None:
        self.size = size
        self.mailbox: dict[tuple[int, int, Any], _Mailbox] = {}
        self._mailbox_lock = threading.Lock()
        self.schedule_seed = schedule_seed
        self.recv_timeout = recv_timeout
        #: Set when any rank fails; blocked receives poll it so they can
        #: abort promptly instead of timing out minutes later.
        self.aborted = threading.Event()

    def box(self, src: int, dst: int, tag: Any) -> _Mailbox:
        key = (src, dst, tag)
        with self._mailbox_lock:
            q = self.mailbox.get(key)
            if q is None:
                q = self.mailbox[key] = _Mailbox()
            return q

    def leaked_messages(self) -> list[tuple[tuple[int, int, Any], int]]:
        """Non-empty mailboxes at exit, sorted for stable reporting."""
        with self._mailbox_lock:
            leaked = [
                (key, q.qsize()) for key, q in self.mailbox.items()
                if not q.empty()
            ]
        return sorted(leaked, key=lambda item: repr(item[0]))


class SimComm:
    """Communicator handle passed to each rank's SPMD function."""

    #: Default receive timeout (seconds); a deadlocked exchange raises
    #: instead of hanging the test suite.
    TIMEOUT = 120.0

    def __init__(self, world: _World, rank: int) -> None:
        self._world = world
        self.rank = rank
        self.size = world.size
        self.stats = CommStats()
        #: Per-rank collective generation counter.  SPMD code calls
        #: collectives in the same order on every rank, so the counter
        #: values agree and the internal point-to-point tags they mint
        #: are generation unique (no cross-call mailbox mixing).
        self._coll_seq = 0
        self._timeout = (
            world.recv_timeout if world.recv_timeout is not None else self.TIMEOUT
        )
        if world.schedule_seed is not None:
            self._rng: random.Random | None = random.Random(
                world.schedule_seed * 1_000_003 + rank * 7_919
            )
        else:
            self._rng = None

    def _jitter(self) -> None:
        """Seeded schedule perturbation: yield or briefly sleep.

        Communication results must be schedule independent; tests fuzz
        interleavings by re-running with different ``schedule_seed``
        values and asserting bitwise-identical outputs.
        """
        if self._rng is None:
            return
        r = self._rng.random()
        if r < 0.5:
            time.sleep(r * 4e-4)  # push this thread behind its peers
        else:
            time.sleep(0)  # plain yield

    # -- point to point ----------------------------------------------------

    def send(self, dst: int, obj: Any, tag: Any = 0, phase: str | None = None) -> None:
        """Buffered send (MPI_Isend semantics: never blocks).

        The world's mailbox keeps its own copy of ``obj``, so the caller
        may reuse its buffer at once and the receiver gets a value.
        """
        if not 0 <= dst < self.size:
            raise ValueError(f"invalid destination rank {dst}")
        self._jitter()
        self.stats.record_send(_payload_bytes(obj), phase)
        self._world.box(self.rank, dst, tag).put(obj)

    isend = send  # buffered sends complete immediately

    def recv(self, src: int, tag: Any = 0, phase: str | None = None) -> Any:
        """Blocking receive from a specific source and tag."""
        if not 0 <= src < self.size:
            raise ValueError(f"invalid source rank {src}")
        self._jitter()
        return self._complete_recv(src, tag, phase)

    def _complete_recv(self, src: int, tag: Any, phase: str | None) -> Any:
        """Shared blocking tail of :meth:`recv` and :meth:`Request.wait`.

        Blocks in short slices so a peer failure (``world.aborted``)
        interrupts the wait promptly as :class:`RankAbortedError` — a
        classified *secondary* error — instead of a timeout minutes
        later that would mask the root cause.  A receive that exhausts
        ``recv_timeout`` with no failed peer is still a genuine
        :class:`TimeoutError` (the deadlock-detection contract).
        """
        t0 = time.perf_counter()
        box = self._world.box(src, self.rank, tag)
        deadline = t0 + self._timeout
        slice_s = min(0.05, self._timeout)
        while True:
            try:
                obj = box.get(timeout=slice_s)
                break
            except queue.Empty:
                if self._world.aborted.is_set():
                    raise RankAbortedError(
                        f"rank {self.rank} receive from {src} tag {tag!r} "
                        f"interrupted: a peer rank failed"
                    ) from None
                if time.perf_counter() >= deadline:
                    raise TimeoutError(
                        f"rank {self.rank} timed out receiving from {src} "
                        f"tag {tag!r}"
                    ) from None
        self.stats.record_wait(time.perf_counter() - t0)
        self.stats.record_recv(_payload_bytes(obj), phase)
        return obj

    def irecv(self, src: int, tag: Any = 0, phase: str | None = None) -> "Request":
        """Nonblocking receive: post now, complete later with ``wait()``.

        The receive is *posted* immediately (like MPI_Irecv), but the
        message is only pulled from the mailbox — and counted in
        :class:`CommStats` — when :meth:`Request.wait` is called.  Waits on one
        ``(src, tag)`` channel must be issued in posting order (the
        mailbox is FIFO per channel).
        """
        if not 0 <= src < self.size:
            raise ValueError(f"invalid source rank {src}")
        self._jitter()
        return Request(self, src, tag, phase)

    # -- collectives ---------------------------------------------------------

    def _next_coll_tag(self, name: str) -> tuple:
        tag = mk_tag("__coll__", name, self._coll_seq)
        self._coll_seq += 1
        return tag

    def _reduce_to_root(
        self, value: Any, tag: Any, combine: Callable[[Any, Any, int], Any]
    ) -> Any:
        """Binomial reduction of ``value`` to rank 0: each node folds
        its children's partials in ascending-mask order with
        ``combine(acc, partial, child)``, then sends the result to its
        parent.  Returns the total on rank 0, ``None`` elsewhere."""
        pos, n = self.rank, self.size
        mask = 1
        while mask < n:
            if pos & mask:
                self.send(pos - mask, value, tag=tag)
                return None
            if pos + mask < n:
                value = combine(
                    value, self.recv(pos + mask, tag=tag), pos + mask
                )
            mask <<= 1
        return value

    def _bcast_from_root(self, value: Any, tag: Any) -> Any:
        """Binomial broadcast of rank 0's ``value`` over the world."""
        if self.rank:
            value = self.recv(tree_parent(self.rank), tag=tag)
        for child in reversed(tree_children(self.rank, self.size)):
            self.send(child, value, tag=tag)
        return value

    def _collective(
        self, name: str, value: Any, combine: Callable[[Any, Any, int], Any]
    ) -> Any:
        """Every collective: the reduction of ``value`` to rank 0, then
        the broadcast of the total down the same edges — O(log P)
        messages per rank."""
        self._jitter()
        tag = self._next_coll_tag(name)
        return self._bcast_from_root(
            self._reduce_to_root(value, tag, combine), tag
        )

    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        """MPI_Allreduce over numpy arrays (sum/max/min).

        This is the collective the paper's level-by-level tree
        construction relies on ("an MPI_Allreduce is used over all local
        copies of the global tree array", Section 3.1).  ``op`` is
        validated before any rank synchronisation so an unsupported
        reduction fails fast with a clear error on every rank.  Shape
        agreement is verified edge by edge, so a mismatch surfaces at
        the first tree node that sees both shapes.  The combine
        association is fixed by the tree shape, so results are bitwise
        schedule independent.
        """
        if op not in _ALLREDUCE_OPS:
            raise ValueError(
                f"unsupported allreduce op {op!r}; supported ops: "
                f"{', '.join(sorted(_ALLREDUCE_OPS))}"
            )
        array = np.asarray(array)
        fold = _ALLREDUCE_OPS[op]

        def combine(acc: np.ndarray, other: Any, child: int) -> np.ndarray:
            other = np.asarray(other)
            if other.shape != acc.shape:
                raise ValueError(
                    f"allreduce shape mismatch across ranks: rank "
                    f"{self.rank} contributed {acc.shape}, rank {child} "
                    f"contributed {other.shape} (every rank must "
                    f"contribute the same shape)"
                )
            return fold(acc, other)

        self.stats.record_allreduce(array.nbytes)
        total = self._collective("allreduce", array, combine)
        # At one rank no message was sent: ``total`` is the caller's own
        # array.
        return np.array(total, copy=True)

    def allgather(self, obj: Any) -> list[Any]:
        """MPI_Allgather: every rank's ``obj``, in rank order, everywhere.

        The reduction's combine is list concatenation: a node's partial
        lists its subtree's consecutive ranks, so appending each child's
        keeps rank order.
        """
        self.stats.record_allgather(_payload_bytes(obj))
        return self._collective(
            "allgather", [obj], lambda acc, part, _: acc + part
        )


class Request:
    """In-flight nonblocking receive returned by :meth:`SimComm.irecv`."""

    __slots__ = ("_comm", "_src", "_tag", "_phase", "_done", "_value")

    def __init__(
        self, comm: SimComm, src: int, tag: Any, phase: str | None
    ) -> None:
        self._comm = comm
        self._src = src
        self._tag = tag
        self._phase = phase
        self._done = False
        self._value: Any = None

    @property
    def source(self) -> int:
        return self._src

    @property
    def tag(self) -> Any:
        return self._tag

    def wait(self) -> Any:
        """Block until the message arrives; idempotent after completion."""
        if not self._done:
            self._value = self._comm._complete_recv(
                self._src, self._tag, self._phase
            )
            self._done = True
        return self._value


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 600.0,
    schedule_seed: int | None = None,
    recv_timeout: float | None = None,
) -> list[Any]:
    """Run ``fn(comm, rank_args...)`` on ``nranks`` logical ranks.

    ``args`` may contain per-rank sequences wrapped in :class:`PerRank`;
    other arguments are broadcast.  Returns the per-rank return values.
    Any rank exception is re-raised in the caller.  ``timeout`` bounds
    the whole run, not each rank's join.

    ``schedule_seed`` enables seeded schedule perturbation (random
    yields before every communication call).  ``recv_timeout`` overrides
    :attr:`SimComm.TIMEOUT` — deadlock-detection tests use a small value
    so a wait-for cycle surfaces as a :class:`TimeoutError` naming rank,
    peer and tag in milliseconds, not minutes.

    After a successful run every mailbox must be empty; leftover
    messages raise :class:`MailboxLeakError` naming the leaked
    ``(src, dst, tag)`` keys.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    world = _World(
        nranks, schedule_seed=schedule_seed, recv_timeout=recv_timeout
    )
    results: list[Any] = [None] * nranks
    errors: list[BaseException | None] = [None] * nranks

    def runner(rank: int) -> None:
        comm = SimComm(world, rank)
        rank_args = [a.values[rank] if isinstance(a, PerRank) else a for a in args]
        try:
            results[rank] = fn(comm, *rank_args)
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            errors[rank] = exc
            world.aborted.set()  # interrupt peers blocked in receives

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}")
        for r in range(nranks)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    try:
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                world.aborted.set()
                raise TimeoutError(f"SPMD run exceeded {timeout}s ({t.name} alive)")
    finally:
        leaked = world.leaked_messages()
        # Secondary failures (a peer aborted this rank's receive) never
        # outrank the primary exception: propagation is by rank order
        # over primaries, so the same root cause surfaces under every
        # schedule.
        failed = [e for e in errors if e is not None]
        first = next(
            (e for e in failed if not isinstance(e, RankAbortedError)),
            failed[0] if failed else None,
        )
    if first is not None:
        raise first
    if leaked:
        raise MailboxLeakError(leaked)
    return results


def single_rank_comm() -> SimComm:
    """The communicator of a one-rank run, for the calling thread: its
    collectives return at once and nothing is ever sent."""
    return SimComm(_World(1), 0)


@dataclass
class PerRank:
    """Wrapper marking an argument as per-rank in :func:`run_spmd`."""

    values: list[Any]
