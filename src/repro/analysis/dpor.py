"""Exhaustive schedule-space model checking of the exchange protocol.

The static IR (:mod:`repro.analysis.commir`) fixes each rank's op
sequence; the runtime scheduler only chooses how the per-rank programs
interleave.  This module explores that schedule space *completely* for
small rank counts and proves two properties:

* **Deadlock-freedom everywhere** — not just along one schedule (the
  greedy execution of
  :func:`~repro.analysis.commcheck_static.check_deadlock`), but in
  every reachable scheduler state: no reachable non-final state has an
  empty enabled set.
* **Observable determinism** — every complete interleaving delivers
  the same data.  The argument: a channel ``(src, dst, tag)`` has a
  single sender and a single receiver, so the k-th completion on it
  always pairs with the k-th send — FIFO pairing is schedule-invariant,
  hence the payload every receive observes is too.  The explorer
  validates the premise at every state by checking *persistence*: an
  enabled transition of one rank stays enabled after any other rank's
  transition fires (sends/posts are always enabled; a completion's
  enabling condition — enough sends executed on its channel — is
  monotone).  With persistence certified at every reachable state, all
  interleavings are permutations of pairwise-independent transitions:
  one Mazurkiewicz trace class.

The state of the induced transition system is just the tuple of
per-rank program counters (channel send counts are a function of the
PCs), so dynamic-programming over reachable states counts the *exact*
number of interleavings — typically astronomically more than could be
run — while visiting each state once.  This is the sense in which the
check is exhaustive where a traced run (one schedule per seed, held to
the programs by ``commir``'s conformance check) is a spot check.

:func:`bitwise_determinism` complements the model-level proof with an
end-to-end harness: the same problem solved under several randomized
runtime schedules must produce bitwise-identical potentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.commir import CommIR


@dataclass
class DporReport:
    """Result of exhaustively exploring one IR's schedule space."""

    nranks: int
    nops: int
    nstates: int
    ninterleavings: int
    nclasses: int
    deadlocks: list[str]
    persistence_violations: list[str]
    truncated: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (not self.deadlocks and not self.persistence_violations
                and not self.truncated)

    def summary(self) -> str:
        if self.truncated:
            return (
                f"dpor: INCOMPLETE — state budget exhausted after "
                f"{self.nstates} states (shrink the problem)"
            )
        if not self.ok:
            return (
                f"dpor: FAILED ({len(self.deadlocks)} deadlock(s), "
                f"{len(self.persistence_violations)} persistence "
                f"violation(s) in {self.nstates} states)"
            )
        count = self.ninterleavings
        shown = (
            f"{count}" if count < 10**9 else f"~10^{len(str(count)) - 1}"
        )
        return (
            f"dpor: certified — {shown} interleavings over "
            f"{self.nstates} states collapse to {self.nclasses} "
            f"observable class(es), 0 deadlocks"
        )


def _transition(ir: CommIR, pcs: list[int], sent: dict, rank: int):
    """Fire ``rank``'s next op in place; return an undo token."""
    op = ir.programs[rank][pcs[rank]]
    token = None
    if op.kind == "send":
        chan = (rank, op.peer, op.tag)
        sent[chan] = sent.get(chan, 0) + 1
        token = chan
    pcs[rank] += 1
    return token


def _undo(pcs: list[int], sent: dict, rank: int, token) -> None:
    pcs[rank] -= 1
    if token is not None:
        sent[token] -= 1


def _enabled(ir: CommIR, pcs, sent, recvd_by_pc, rank: int) -> bool:
    """Is ``rank``'s next op enabled in the current state?

    Sends and posts always are; a completion needs its FIFO-matched
    send executed.  The completion's ordinal on its channel is a pure
    function of the rank's PC (precomputed in ``recvd_by_pc``).
    """
    prog = ir.programs[rank]
    i = pcs[rank]
    if i >= len(prog):
        return False
    op = prog[i]
    if op.kind != "complete":
        return True
    chan = (op.peer, rank, op.tag)
    return sent.get(chan, 0) > recvd_by_pc[rank][i]


def _describe(ir: CommIR, pcs) -> str:
    parts = []
    for r, prog in enumerate(ir.programs):
        if pcs[r] >= len(prog):
            parts.append(f"rank {r}: done")
        else:
            op = prog[pcs[r]]
            parts.append(
                f"rank {r}: {op.kind} peer {op.peer} tag={op.tag!r}"
            )
    return "; ".join(parts)


def explore(ir: CommIR, *, max_states: int = 2_000_000) -> DporReport:
    """Exhaustively model-check the IR's full schedule space.

    Visits every reachable scheduler state once (memoized DFS over PC
    tuples), counts the exact number of interleavings by dynamic
    programming, records every deadlock state, and certifies
    persistence (see module docstring) at every state along the way.
    """
    import sys

    nranks = ir.nranks
    lens = [len(p) for p in ir.programs]
    depth_need = sum(lens) + 100
    if sys.getrecursionlimit() < depth_need:
        sys.setrecursionlimit(depth_need)
    # Completion ordinal per (rank, op index): how many completes on the
    # same channel precede this one in the rank's own program.
    recvd_by_pc: list[dict[int, int]] = []
    for rank, prog in enumerate(ir.programs):
        seen: dict[tuple, int] = {}
        ords: dict[int, int] = {}
        for i, op in enumerate(prog):
            if op.kind == "complete":
                chan = (op.peer, rank, op.tag)
                ords[i] = seen.get(chan, 0)
                seen[chan] = ords[i] + 1
        recvd_by_pc.append(ords)

    pcs = [0] * nranks
    sent: dict[tuple, int] = {}
    memo: dict[tuple, int] = {}
    deadlocks: list[str] = []
    violations: list[str] = []
    nstates = 0
    truncated = False

    def visit() -> int:
        nonlocal nstates, truncated
        key = tuple(pcs)
        hit = memo.get(key)
        if hit is not None:
            return hit
        nstates += 1
        if truncated or nstates > max_states:
            truncated = True
            memo[key] = 0
            return 0
        enabled = [
            r for r in range(nranks)
            if _enabled(ir, pcs, sent, recvd_by_pc, r)
        ]
        if not enabled:
            if all(pcs[r] == lens[r] for r in range(nranks)):
                memo[key] = 1
                return 1
            if len(deadlocks) < 5:
                deadlocks.append(_describe(ir, pcs))
            memo[key] = 0
            return 0
        # Persistence: firing one rank's transition must not disable
        # another rank's enabled transition (monotone enabling).
        if len(enabled) > 1 and len(violations) < 5:
            for r in enabled:
                token = _transition(ir, pcs, sent, r)
                for q in enabled:
                    if q != r and not _enabled(
                        ir, pcs, sent, recvd_by_pc, q
                    ):
                        violations.append(
                            f"firing rank {r} disabled rank {q} at "
                            f"state {key}"
                        )
                _undo(pcs, sent, r, token)
        total = 0
        for r in enabled:
            token = _transition(ir, pcs, sent, r)
            total += visit()
            _undo(pcs, sent, r, token)
        memo[key] = total
        return total

    count = visit()
    ok = not deadlocks and not violations and not truncated
    return DporReport(
        nranks=nranks,
        nops=sum(lens),
        nstates=nstates,
        ninterleavings=count,
        nclasses=1 if ok and count else (0 if not count else 1),
        deadlocks=deadlocks,
        persistence_violations=violations,
        truncated=truncated,
        meta=dict(ir.meta),
    )


def bitwise_determinism(
    kernel,
    points: np.ndarray,
    density: np.ndarray,
    opts,
    nranks: int,
    *,
    seeds: tuple[int, ...] = (0, 1, 2, 3),
    overlap: bool = True,
) -> tuple[bool, float]:
    """End-to-end determinism: the same problem under several
    randomized runtime schedules must give bitwise-equal potentials.

    Returns ``(identical, max_abs_diff)``.
    """
    from repro.parallel.pfmm import ParallelFMM

    ref = None
    worst = 0.0
    identical = True
    for seed in seeds:
        op = ParallelFMM(nranks, kernel, opts, overlap=overlap)
        op.setup(points, schedule_seed=seed)
        pot = op.apply(density, schedule_seed=seed)
        if ref is None:
            ref = pot
            continue
        if not np.array_equal(ref, pot):
            identical = False
            worst = max(worst, float(np.max(np.abs(ref - pot))))
    return identical, worst
