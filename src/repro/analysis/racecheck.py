"""Happens-before data-race detection for the threaded simmpi backend.

The simulated MPI runtime runs logical ranks on threads, and the
persistent parallel operator (PR 3) deliberately overlaps its
nonblocking density exchange with owned-data computation.  Bitwise
parity tests prove the *observed* schedules raced nowhere; this module
proves it from first principles for any traced execution:

- instrumented code records lightweight :class:`AccessRecord` entries
  (byte ranges of shared-array reads/writes, with the rank's vector
  clock at access time) through a per-rank :class:`RankRecorder`;
- the happens-before order between accesses is derived from the vector
  clocks the runtime already maintains for every send/recv
  (:mod:`repro.analysis.trace`) — ``Request.wait`` completions merge the
  sender's clock exactly like blocking receives, so wait edges come for
  free, and the collectives are such messages.  One detector spans
  several ``run_spmd`` regions (a setup and its applies): the join
  between two regions orders everything before it before everything
  after it (:meth:`~repro.analysis.trace.CommTrace.begin_region`);
- two accesses to overlapping bytes from different ranks, at least one
  a write, with neither ordered before the other, are a data race.
  The report names both access sites and the last ``(src, dst, tag)``
  channel edge between the two ranks — the edge that failed to order
  them.

Ordering rule.  Every traced communication event on rank ``a`` *after*
an access ``A`` ticks ``clock[a]``; therefore an access ``B`` on rank
``b`` happens-after ``A`` iff ``B.clock[a] > A.clock[a]`` (strictly:
rank ``b`` must have transitively heard from an event of ``a`` that
followed ``A``).  The strict comparison is what catches use-after-send
bugs: a write issued after a send shares the send's clock entry, so the
receiver's merged clock is *not* strictly greater and the pair is
correctly flagged concurrent.

Region identity is by memory, not by name: recorders walk each array's
``.base`` chain to its owning allocation and pin a reference to it, so
byte ranges stay valid and two views of one buffer — including a view
that travelled to another rank inside a message — resolve to the same
region.

This module is runtime-agnostic and thread-free (the thread-local
recorder slot lives in ``repro/parallel/simmpi.py``; see the
``thread-confinement`` lint rule): recorders append to per-rank private
lists, and :meth:`RaceDetector.report` merges them single-threaded
after the run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.trace import CommTrace

try:  # numpy >= 2.0
    from numpy.lib.array_utils import byte_bounds as _byte_bounds
except ImportError:  # pragma: no cover - numpy < 2.0
    _byte_bounds = np.byte_bounds


def _ultimate_base(array: np.ndarray) -> np.ndarray:
    """The owning allocation at the root of a view's ``.base`` chain."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _call_site(depth: int) -> str:
    """``file.py:line`` of the instrumented caller, package-relative."""
    frame = sys._getframe(depth)
    parts = Path(frame.f_code.co_filename).parts
    tail = "/".join(parts[-2:]) if len(parts) >= 2 else parts[-1]
    return f"{tail}:{frame.f_lineno}"


@dataclass
class AccessRecord:
    """One recorded shared-array access.

    ``start``/``stop`` are byte offsets relative to the owning
    allocation (the envelope of the accessed view).  ``clock`` is the
    rank's vector clock at access time and ``pos`` the number of trace
    events the rank had emitted — the cursor used to locate the
    communication that surrounds the access.
    """

    rank: int
    kind: str  # "read" | "write"
    region: int  # id() of the owning allocation
    start: int
    stop: int
    label: str
    site: str
    clock: tuple[int, ...]
    pos: int

    def describe(self, name: str) -> str:
        return (
            f"{self.kind} of {name}[bytes {self.start}:{self.stop}] "
            f"by rank {self.rank} at {self.site} ({self.label}), "
            f"clock {list(self.clock)}"
        )


class RankRecorder:
    """Per-rank access recorder; owned by exactly one rank thread.

    Appends to private lists only (no locks — the same confinement
    contract the tracer relies on).  ``register`` names a shared region;
    ``read``/``write`` record accesses to any array whose allocation was
    registered by *some* rank — unregistered arrays are skipped, which
    keeps the instrumentation opt-in and cheap.
    """

    def __init__(self, rank: int, tracer: Any) -> None:
        self.rank = rank
        self._tracer = tracer
        #: ``(region id, name)`` pairs registered by this rank.
        self.regions: list[tuple[int, str]] = []
        self.accesses: list[AccessRecord] = []
        #: Pinned owning allocations: keeps region memory alive so ids
        #: and byte ranges cannot be reused by a later allocation.
        self.pins: dict[int, np.ndarray] = {}

    def register(self, name: str, array: np.ndarray) -> None:
        """Declare ``array``'s allocation a shared region named ``name``."""
        base = _ultimate_base(array)
        rid = id(base)
        if rid not in self.pins:
            self.pins[rid] = base
            self.regions.append((rid, name))

    def read(self, array: np.ndarray, label: str = "") -> None:
        self._record("read", array, label)

    def write(self, array: np.ndarray, label: str = "") -> None:
        self._record("write", array, label)

    def _record(self, kind: str, array: np.ndarray, label: str) -> None:
        if not isinstance(array, np.ndarray) or array.size == 0:
            return
        base = _ultimate_base(array)
        rid = id(base)
        self.pins.setdefault(rid, base)
        lo, hi = _byte_bounds(array)
        base_lo = _byte_bounds(base)[0]
        self.accesses.append(AccessRecord(
            rank=self.rank,
            kind=kind,
            region=rid,
            start=lo - base_lo,
            stop=hi - base_lo,
            label=label,
            site=_call_site(3),
            clock=tuple(self._tracer.clock),
            pos=self._tracer.position(),
        ))


@dataclass
class Race:
    """One conflicting concurrent access pair, plus its diagnosis."""

    region: str
    first: AccessRecord
    second: AccessRecord
    missing_edge: str

    def __str__(self) -> str:
        return (
            f"data race on {self.region}: "
            f"{self.first.describe(self.region)} is concurrent with "
            f"{self.second.describe(self.region)}; {self.missing_edge}"
        )


@dataclass
class RaceReport:
    """All races found in one traced execution."""

    races: list[Race] = field(default_factory=list)
    naccesses: int = 0
    nregions: int = 0
    nranks: int = 0

    @property
    def ok(self) -> bool:
        return not self.races

    def summary(self) -> str:
        head = (
            f"racecheck: {self.naccesses} access(es) over {self.nregions} "
            f"region(s), {self.nranks} ranks — "
            + ("race free" if self.ok else f"{len(self.races)} race(s)")
        )
        return "\n".join([head] + [f"  {r}" for r in self.races])


def _ordered(a: AccessRecord, b: AccessRecord) -> bool:
    """Happens-before between accesses on different ranks: ``a -> b``.

    ``b`` heard (transitively) from an event of ``a.rank`` that ticked
    past ``a``'s clock entry — see the module docstring for why the
    comparison must be strict.
    """
    return b.clock[a.rank] > a.clock[a.rank]


class RaceDetector(CommTrace):
    """A comm trace that also records shared-array accesses.

    Pass an instance as the ``trace=`` of
    :func:`repro.parallel.simmpi.run_spmd` (or of
    :meth:`~repro.parallel.pfmm.ParallelFMM.setup` / ``apply``): the
    runtime installs a :class:`RankRecorder` in each rank thread
    (reachable from instrumented code through
    :func:`repro.parallel.simmpi.current_recorder`), ordered by this
    trace's vector clocks, and after the run :meth:`report` performs the
    offline pairwise analysis over every region recorded.
    """

    def reset(self, nranks: int) -> None:
        super().reset(nranks)
        #: Per rank, one recorder per region.
        self._recorders: list[list[RankRecorder]] = [
            [] for _ in range(nranks)
        ]

    def recorder_for(self, rank: int, tracer: Any) -> RankRecorder:
        rec = RankRecorder(rank, tracer)
        self._recorders[rank].append(rec)
        return rec

    # -- offline analysis --------------------------------------------------

    def report(self) -> RaceReport:
        recs = [rec for per_rank in self._recorders for rec in per_rank]
        names: dict[int, str] = {}
        for rec in recs:
            for rid, name in rec.regions:
                names.setdefault(rid, name)
        by_region: dict[int, list[AccessRecord]] = {}
        for rec in recs:
            for acc in rec.accesses:
                by_region.setdefault(acc.region, []).append(acc)
        report = RaceReport(
            naccesses=sum(len(r.accesses) for r in recs),
            nregions=len(by_region),
            nranks=self.nranks,
        )
        seen: set[tuple] = set()
        for rid, accesses in sorted(by_region.items()):
            name = names.get(rid, f"<unregistered:{rid:#x}>")
            accesses.sort(key=lambda a: (a.rank, a.pos))
            for i, a in enumerate(accesses):
                for b in accesses[i + 1:]:
                    if a.rank == b.rank:  # program order on one thread
                        continue
                    if a.kind == "read" and b.kind == "read":
                        continue
                    if a.stop <= b.start or b.stop <= a.start:
                        continue
                    if _ordered(a, b) or _ordered(b, a):
                        continue
                    key = (rid, a.rank, b.rank, a.kind, b.kind,
                           a.label, b.label)
                    if key in seen:
                        continue
                    seen.add(key)
                    first, second = (a, b) if a.kind == "write" else (b, a)
                    report.races.append(Race(
                        region=name,
                        first=first,
                        second=second,
                        missing_edge=self._diagnose(first, second),
                    ))
        return report

    def _diagnose(self, a: AccessRecord, b: AccessRecord) -> str:
        """Name the channel edge between the two ranks that failed.

        Scans rank ``b``'s events before its access for the last
        happens-before edge arriving from rank ``a`` — the most recent
        point at which ``b`` synchronised with ``a``.  If that edge
        exists it necessarily predates ``a``'s access (otherwise the
        pair would be ordered), so the report can say precisely which
        channel was the stale edge and that nothing later ordered the
        pair.
        """
        last_recv = None
        last_coll = None
        for ev in self.events_by_rank[b.rank][:b.pos]:
            if ev.kind == "recv" and ev.peer == a.rank:
                last_recv = ev
            elif ev.kind == "coll-exit":
                last_coll = ev
        if last_recv is not None and (
            last_coll is None or last_recv.seq > last_coll.seq
        ):
            src, dst, tag = last_recv.channel()
            return (
                f"the last happens-before edge from rank {a.rank} to rank "
                f"{b.rank} is channel {src}->{dst} tag={tag!r} (recv event "
                f"#{last_recv.seq}), established before the {a.kind}; no "
                f"later message orders the pair"
            )
        if last_coll is not None:
            return (
                f"the last happens-before edge from rank {a.rank} to rank "
                f"{b.rank} is collective {last_coll.coll}"
                f"[{last_coll.coll_index}], established before the "
                f"{a.kind}; no later message orders the pair"
            )
        return (
            f"no happens-before edge from rank {a.rank} to rank {b.rank} "
            f"exists before the {b.kind}"
        )
