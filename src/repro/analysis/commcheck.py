"""Offline analyzer for simulated-MPI communication traces.

Consumes the :class:`~repro.analysis.trace.CommTrace` recorded by
:func:`repro.parallel.simmpi.run_spmd` and reports, from the trace
alone:

- **unmatched sends** — messages put on a ``(src, dst, tag)`` channel
  and never received (cross-checked against the runtime's mailbox-leak
  report);
- **wait-for deadlock cycles** — ranks whose final event is a blocked
  receive (a collective is receives too), with the cycle's blocked
  ``(src, dst, tag)`` edges named;
- **collective divergence** — ranks entering different collectives (or
  the same collective with different op/shape) at the same collective
  index;
- **channel-order violations** — receives consuming a channel out of
  FIFO send order, or two sends on one channel not ordered by
  happens-before (each channel has a single sending rank, so concurrent
  sends would mean the runtime's ordering guarantee is broken);
- **request leaks** — nonblocking receives posted but not completed
  before a collective entry (or, on runs whose ranks all returned, never
  completed at all): the dynamic complement of the ``request-waited``
  lint rule;
- **stats mismatches** — event counts inconsistent with the
  :class:`~repro.parallel.simmpi.CommStats` send/receive accounting.

:func:`compare_traces` additionally checks *observable determinism*
across repeated runs under perturbed schedules: per-channel payload
digest sequences and per-rank collective sequences must be identical.

CLI::

    python -m repro.analysis.commcheck TRACE.jsonl [TRACE2.jsonl ...]

analyzes saved traces (and compares them when several are given).  The
live smoke — run a 4-rank parallel FMM under perturbed schedules and
verify the traces clean — is ``python -m repro commcheck``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analysis.trace import CommTrace, TraceEvent


@dataclass
class Finding:
    """One analyzer diagnosis."""

    rule: str
    message: str
    ranks: tuple[int, ...] = ()

    def __str__(self) -> str:
        where = f" (ranks {', '.join(map(str, self.ranks))})" if self.ranks else ""
        return f"[{self.rule}]{where} {self.message}"


@dataclass
class CommReport:
    """All findings for one trace (or one cross-trace comparison)."""

    findings: list[Finding] = field(default_factory=list)
    nevents: int = 0
    nranks: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def by_rule(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def summary(self) -> str:
        head = (
            f"commcheck: {self.nevents} events over {self.nranks} ranks — "
            + ("clean" if self.ok else f"{len(self.findings)} finding(s)")
        )
        return "\n".join([head] + [f"  {f}" for f in self.findings])


def _channel_events(
    trace: CommTrace,
) -> tuple[dict[tuple, list[TraceEvent]], dict[tuple, list[TraceEvent]]]:
    """Per-channel send and completed-recv event lists, in rank order."""
    sends: dict[tuple, list[TraceEvent]] = defaultdict(list)
    recvs: dict[tuple, list[TraceEvent]] = defaultdict(list)
    for evs in trace.events_by_rank:
        for ev in evs:
            if ev.kind == "send":
                sends[ev.channel()].append(ev)
            elif ev.kind == "recv":
                recvs[ev.channel()].append(ev)
    return sends, recvs


def _happens_before(a: TraceEvent, b: TraceEvent) -> bool:
    """Vector-clock happens-before: ``a -> b``."""
    if not a.clock or not b.clock:
        return False
    return all(x <= y for x, y in zip(a.clock, b.clock)) and a.clock != b.clock


def _check_channels(trace: CommTrace, report: CommReport) -> None:
    sends, recvs = _channel_events(trace)
    runtime_leaks = {tuple(k) if isinstance(k, list) else k: n
                     for k, n in trace.leaked}
    for chan in sorted(set(sends) | set(recvs), key=repr):
        s, r = sends.get(chan, []), recvs.get(chan, [])
        src, dst, tag = chan
        if len(s) > len(r):
            report.findings.append(Finding(
                "unmatched-send",
                f"{len(s) - len(r)} message(s) on channel {src}->{dst} "
                f"tag={tag!r} sent but never received",
                ranks=(src, dst),
            ))
        elif len(r) > len(s):  # impossible unless the runtime itself is broken
            report.findings.append(Finding(
                "phantom-recv",
                f"channel {src}->{dst} tag={tag!r} completed {len(r)} recvs "
                f"for only {len(s)} sends",
                ranks=(src, dst),
            ))
        # FIFO matching: the i-th completed recv must consume the i-th send.
        for i, ev in enumerate(r):
            if i < len(s) and ev.match_seq is not None and ev.match_seq != s[i].seq:
                report.findings.append(Finding(
                    "channel-order",
                    f"recv #{i} on channel {src}->{dst} tag={tag!r} matched "
                    f"send seq {ev.match_seq}, expected seq {s[i].seq} "
                    f"(non-FIFO consumption)",
                    ranks=(src, dst),
                ))
                break
        # Sends on one channel come from a single rank, so they must form
        # a happens-before chain; a violation means recv order on this
        # channel is not determined by the program (nondeterminism).
        for a, b in zip(s, s[1:]):
            if not _happens_before(a, b):
                report.findings.append(Finding(
                    "channel-order",
                    f"two sends on channel {src}->{dst} tag={tag!r} are "
                    f"concurrent (seq {a.seq} and {b.seq}); receive order "
                    f"is nondeterministic",
                    ranks=(src,),
                ))
                break
    # Cross-check the runtime's own mailbox-leak report.
    for chan, count in sorted(runtime_leaks.items(), key=repr):
        s = sends.get(chan, [])
        r = recvs.get(chan, [])
        if len(s) - len(r) != count:
            report.findings.append(Finding(
                "trace-runtime-mismatch",
                f"runtime reports {count} leaked message(s) on channel "
                f"{chan!r} but the trace shows {len(s)} send(s) / "
                f"{len(r)} recv(s)",
            ))


def _check_deadlock(trace: CommTrace, report: CommReport) -> None:
    if trace.completed:
        return
    # A rank was stuck at exit when its final event is a ``recv-post``
    # with no completion; one stuck in a collective is stuck in one of
    # its receives.
    blocked = {
        r: evs[-1] for r, evs in enumerate(trace.events_by_rank)
        if evs and evs[-1].kind == "recv-post"
    }
    # Wait-for graph: a blocked rank waits on the one rank it receives
    # from, so walking those edges from each rank finds every cycle.
    waits = {r: ev.peer for r, ev in blocked.items()}
    reported: set[frozenset[int]] = set()
    for r in sorted(blocked):
        path: list[int] = []
        u = r
        while u in waits and u not in path:
            path.append(u)
            u = waits[u]
        if u not in path:
            continue
        cycle = path[path.index(u):]
        if frozenset(cycle) in reported:
            continue
        reported.add(frozenset(cycle))
        report.findings.append(Finding(
            "deadlock-cycle",
            "wait-for cycle: " + "; ".join(
                f"rank {v} blocked in {blocked[v].describe()} waiting on "
                f"rank {waits[v]}" for v in cycle
            ),
            ranks=tuple(cycle),
        ))
    # Blocked on a peer that terminated: no cycle, still a fatal wait.
    for r in sorted(blocked):
        if any(r in c for c in reported):
            continue
        ev = blocked[r]
        if ev.peer not in blocked:
            report.findings.append(Finding(
                "orphan-wait",
                f"rank {r} blocked in {ev.describe()} but rank {ev.peer} "
                f"finished without sending",
                ranks=(r, ev.peer),
            ))


def _check_collectives(trace: CommTrace, report: CommReport) -> None:
    seqs: list[list[TraceEvent]] = [
        [e for e in evs if e.kind == "coll-enter"]
        for evs in trace.events_by_rank
    ]
    if not seqs:
        return
    depth = max(len(s) for s in seqs)
    for i in range(depth):
        entries = {r: s[i] for r, s in enumerate(seqs) if i < len(s)}
        kinds = {(e.coll, e.op) for e in entries.values()}
        if len(kinds) > 1:
            desc = ", ".join(
                f"rank {r}: {e.coll}" + (f"(op={e.op})" if e.op else "")
                for r, e in sorted(entries.items())
            )
            report.findings.append(Finding(
                "collective-divergence",
                f"collective #{i}: ranks entered different collectives — {desc}",
                ranks=tuple(sorted(entries)),
            ))
            return  # later indices are meaningless after a divergence
        if trace.completed and len(entries) != trace.nranks:
            missing = sorted(set(range(trace.nranks)) - set(entries))
            report.findings.append(Finding(
                "collective-divergence",
                f"collective #{i}: ranks {missing} never entered it",
                ranks=tuple(missing),
            ))
            return
        shapes = {e.shape for e in entries.values() if e.coll == "allreduce"}
        if len(shapes) > 1:
            report.findings.append(Finding(
                "collective-divergence",
                f"collective #{i}: allreduce contributions disagree on "
                f"shape: {sorted(shapes, key=repr)}",
                ranks=tuple(sorted(entries)),
            ))
            return


def _check_clocks(trace: CommTrace, report: CommReport) -> None:
    """Happens-before sanity: every recv follows its matching send."""
    for evs in trace.events_by_rank:
        last = 0
        for ev in evs:
            if ev.lamport < last:
                report.findings.append(Finding(
                    "clock-regression",
                    f"rank {ev.rank} Lamport clock went backwards at "
                    f"event #{ev.seq} ({ev.describe()})",
                    ranks=(ev.rank,),
                ))
                return
            last = ev.lamport
    sends, recvs = _channel_events(trace)
    for chan, r in recvs.items():
        s = sends.get(chan, [])
        by_seq = {ev.seq: ev for ev in s}
        for ev in r:
            if ev.match_seq is None:
                continue
            send_ev = by_seq.get(ev.match_seq)
            if send_ev is not None and not _happens_before(send_ev, ev):
                report.findings.append(Finding(
                    "clock-regression",
                    f"{ev.describe()} does not happen-after its matching "
                    f"send (seq {ev.match_seq})",
                    ranks=(send_ev.rank, ev.rank),
                ))
                return


def _check_requests(trace: CommTrace, report: CommReport) -> None:
    """Every posted nonblocking receive must complete before a collective.

    Walks each rank's event stream counting outstanding ``recv-post``
    events per channel (a ``recv`` completes the oldest post on its
    channel — FIFO, matching the runtime).  Outstanding posts at a
    collective entry mean a ``Request`` crossed it un-waited;
    outstanding posts at the end of a run whose ranks all returned
    (``completed``, or failed only by the exit-time mailbox leak check
    — no per-rank ``error``) mean a request was posted and never waited
    at all.  Runs where a rank died are left to the
    deadlock checker: a rank blocked in its last ``recv-post`` is a
    wait, not a leak.
    """
    ranks_returned = trace.completed or trace.error is None
    for rank, evs in enumerate(trace.events_by_rank):
        outstanding: dict[tuple, int] = defaultdict(int)
        for ev in evs:
            if ev.kind == "recv-post":
                outstanding[ev.channel()] += 1
            elif ev.kind == "recv":
                outstanding[ev.channel()] -= 1
            elif ev.kind == "coll-enter":
                open_chans = {c: n for c, n in outstanding.items() if n > 0}
                if open_chans:
                    desc = ", ".join(
                        f"{src}->{dst} tag={tag!r} ({n} open)"
                        for (src, dst, tag), n in sorted(
                            open_chans.items(), key=repr
                        )
                    )
                    report.findings.append(Finding(
                        "request-leak",
                        f"rank {rank} entered {ev.coll}[{ev.coll_index}] "
                        f"with un-waited receive request(s) on channel(s) "
                        f"{desc}",
                        ranks=(rank,),
                    ))
                    break
        else:
            if ranks_returned and any(n > 0 for n in outstanding.values()):
                desc = ", ".join(
                    f"{src}->{dst} tag={tag!r} ({n} open)"
                    for (src, dst, tag), n in sorted(
                        outstanding.items(), key=repr
                    )
                    if n > 0
                )
                report.findings.append(Finding(
                    "request-leak",
                    f"rank {rank} finished with receive request(s) never "
                    f"waited on channel(s) {desc}",
                    ranks=(rank,),
                ))


def _check_stats(
    trace: CommTrace, stats: Sequence[Any], report: CommReport
) -> None:
    n_send_ev = sum(
        1 for evs in trace.events_by_rank for e in evs if e.kind == "send"
    )
    n_recv_ev = sum(
        1 for evs in trace.events_by_rank for e in evs if e.kind == "recv"
    )
    sent = sum(s.messages_sent for s in stats)
    received = sum(s.messages_received for s in stats)
    if sent != n_send_ev:
        report.findings.append(Finding(
            "stats-mismatch",
            f"CommStats counted {sent} sends but the trace has {n_send_ev} "
            f"send events",
        ))
    if received != n_recv_ev:
        report.findings.append(Finding(
            "stats-mismatch",
            f"CommStats counted {received} receives but the trace has "
            f"{n_recv_ev} recv events",
        ))


def check_trace(trace: CommTrace, stats: Sequence[Any] | None = None) -> CommReport:
    """Run every single-trace analysis; optionally cross-check ``stats``.

    ``stats`` is the per-rank :class:`~repro.parallel.simmpi.CommStats`
    list of the same run (e.g. ``ParallelFMM.comm_stats``).
    """
    report = CommReport(nevents=trace.nevents(), nranks=trace.nranks)
    _check_channels(trace, report)
    _check_deadlock(trace, report)
    _check_collectives(trace, report)
    _check_clocks(trace, report)
    _check_requests(trace, report)
    if stats is not None:
        _check_stats(trace, stats, report)
    return report


def _channel_digests(trace: CommTrace) -> dict[tuple, tuple[str, ...]]:
    sends, _ = _channel_events(trace)
    return {
        chan: tuple(e.digest or "" for e in evs) for chan, evs in sends.items()
    }


def _coll_signature(trace: CommTrace) -> list[tuple]:
    return [
        [(e.coll, e.op, e.shape) for e in evs if e.kind == "coll-enter"]
        for evs in trace.events_by_rank
    ]


def compare_traces(traces: Sequence[CommTrace]) -> CommReport:
    """Cross-run determinism check over perturbed-schedule executions.

    Every trace must exhibit the same per-channel payload digest
    sequences and the same per-rank collective sequences; a difference
    means the communication pattern (not just its interleaving) depends
    on the schedule — recv-order nondeterminism made observable.
    """
    report = CommReport(
        nevents=sum(t.nevents() for t in traces),
        nranks=traces[0].nranks if traces else 0,
    )
    if len(traces) < 2:
        return report
    ref = traces[0]
    ref_digests = _channel_digests(ref)
    ref_colls = _coll_signature(ref)
    for i, other in enumerate(traces[1:], start=1):
        if other.nranks != ref.nranks:
            report.findings.append(Finding(
                "schedule-divergence",
                f"trace #{i} ran {other.nranks} ranks, reference ran "
                f"{ref.nranks}",
            ))
            continue
        digests = _channel_digests(other)
        for chan in sorted(set(ref_digests) | set(digests), key=repr):
            a, b = ref_digests.get(chan, ()), digests.get(chan, ())
            if a != b:
                report.findings.append(Finding(
                    "schedule-divergence",
                    f"trace #{i}: channel {chan!r} carried a different "
                    f"message sequence than the reference run "
                    f"({len(b)} vs {len(a)} messages)",
                ))
        if _coll_signature(other) != ref_colls:
            report.findings.append(Finding(
                "schedule-divergence",
                f"trace #{i}: collective sequence differs from the "
                f"reference run",
            ))
    return report


def main(argv: Sequence[str] | None = None) -> int:
    """Analyze saved trace files: non-zero exit on any finding.

    Arguments are trace files, or directories which expand to their
    ``*.jsonl`` files (sorted).  A missing path, or a directory holding
    no trace files, exits 2 with a diagnostic — an empty input must
    never read as "certified".
    """
    import os

    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if args else 2
    files: list[str] = []
    for path in args:
        if os.path.isdir(path):
            found = sorted(
                os.path.join(path, f) for f in os.listdir(path)
                if f.endswith(".jsonl")
            )
            if not found:
                print(
                    f"commcheck: no *.jsonl trace files in directory "
                    f"{path!r} — nothing to certify"
                )
                return 2
            files.extend(found)
        elif os.path.exists(path):
            files.append(path)
        else:
            print(f"commcheck: trace path {path!r} does not exist")
            return 2
    traces = []
    failed = False
    for path in files:
        trace = CommTrace.from_jsonl(path)
        traces.append(trace)
        report = check_trace(trace)
        print(f"== {path}")
        print(report.summary())
        failed |= not report.ok
    if len(traces) > 1:
        report = compare_traces(traces)
        print("== cross-trace determinism")
        print(report.summary())
        failed |= not report.ok
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests/CLI
    sys.exit(main())
