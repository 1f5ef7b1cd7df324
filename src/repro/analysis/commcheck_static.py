"""Static certification of the parallel message schedule.

Five checks run over the :class:`~repro.analysis.commir.CommIR` —
no apply (and no SimComm run) is executed, yet together they certify
the properties an execution at that rank count would exhibit:

``matching``
    Exact endpoint conservation per ``(src, dst, tag)`` channel: the
    number of sends equals the number of posted receives equals the
    number of completed receives.  An unmatched send is a leaked
    mailbox; a completion without a send is a phantom receive (a hang
    at runtime); a post without a completion is a leaked request.
``tags``
    Tag-space discipline: every tag must be a structured tuple minted
    by the :func:`~repro.parallel.simmpi.mk_tag` registry, its family
    must be the one the op's protocol phase owns, and no channel may be
    shared by two phases — the static guarantee that concurrently
    posted receives of different phases can never steal each other's
    messages.
``deadlock``
    Deadlock-freedom of the wait graph: nodes are the per-rank ops in
    program order; edges are program order (an op runs only after its
    predecessor) plus completion -> matching send (FIFO pairing per
    channel).  A cycle is a schedule that cannot make progress under
    *any* interleaving.
``conservation``
    Payload conservation against the roles the programs were compiled
    from (``CommIR.roles``): interpreting the message edges per
    exchanged box, every contributor's piece must reach the owner
    through the gather edges and the owner's combined data must reach
    every user through the scatter edges.  Boxes already reported by
    ``matching`` are skipped (an unmatched schedule has no well-defined
    payload flow), keeping each seeded defect attributable to exactly
    one check.
``conformance``
    The programs a real setup of the same configuration left on every
    rank must *be* the IR's: per rank, the message ops of its
    :class:`~repro.parallel.exchange.GhostLayout` programs in
    :func:`~repro.analysis.commir.rank_ops` order must equal its IR
    program, op for op.  A rank runs nothing else — its setup walks the
    ``geo`` program and every apply the ``phi`` / ``pue`` ones, both in
    :func:`~repro.parallel.pfmm.exchange_schedule`'s order, through the
    one interpreter :class:`~repro.parallel.exchange.ApplyExchange` —
    so a divergence means the offline plan inputs differ from what the
    ranks assembled, or the IR was changed after compilation.

There is no waiver mechanism: a finding fails certification.  The
``seed_*`` functions plant one defect each (a dropped relay forward, a
gather message retagged into a concurrent phase's family, a leaf's
gather send reordered after its scatter wait, a scatter edge deleted
whole) and :func:`run_selftests` asserts each is caught by *exactly*
the intended check; ``conformance`` needs the ranks' states, and its
seeded defect (two sends of one rank swapped in the IR) is a test.
CLI: ``python -m repro commir``.
"""

from __future__ import annotations

import copy
from collections import defaultdict, deque
from dataclasses import dataclass, replace

from repro.analysis.commir import CommIR, gc_paused, rank_ops
from repro.parallel.exchange import CommOp
from repro.parallel.simmpi import TAG_FAMILIES, mk_tag

CHECKS = ("matching", "tags", "deadlock", "conservation", "conformance")


@dataclass(frozen=True)
class Finding:
    """One certification failure, pinned to a check and a location."""

    check: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.check}: {self.where}: {self.message}"


@dataclass
class StaticCommReport:
    """The result of certifying one communication IR."""

    name: str
    findings: list[Finding]
    counts: dict[str, int]
    nops: int = 0
    nmessages: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.name}: certified ({self.nmessages} messages / "
                f"{self.nops} ops, {len(self.counts)} checks clean)"
            )
        parts = ", ".join(
            f"{c}={n}" for c, n in sorted(self.counts.items()) if n
        )
        return f"{self.name}: FAILED ({parts})"


def _channel(op: CommOp, rank: int) -> tuple[int, int, tuple]:
    """The ``(src, dst, tag)`` channel of a rank's op."""
    if op.kind == "send":
        return (rank, op.peer, op.tag)
    return (op.peer, rank, op.tag)


class IRIndex:
    """Single-pass derived views of one IR, shared by all checks.

    An IR at P=4096 holds millions of ops; each full program walk costs
    seconds in pure Python, so the per-channel op counts and the
    per-box message-edge lists are built in one pass and reused by
    every check of the IR.
    """

    __slots__ = (
        "sends", "posts", "completes", "gather_edges", "scatter_edges",
        "_bad",
    )

    def __init__(self, ir: CommIR) -> None:
        self.sends: dict[tuple, int] = {}
        self.posts: dict[tuple, int] = {}
        self.completes: dict[tuple, int] = {}
        self.gather_edges: dict[tuple, list] = defaultdict(list)
        self.scatter_edges: dict[tuple, list] = defaultdict(list)
        self._bad: set[tuple] | None = None
        for rank, prog in enumerate(ir.programs):
            for op in prog:
                if op.kind == "send":
                    chan = (rank, op.peer, op.tag)
                    self.sends[chan] = self.sends.get(chan, 0) + 1
                    group = op.group
                    if group.endswith("g"):
                        self.scatter_edges[(group[:-1], op.ids)].append(
                            (rank, op.peer)
                        )
                    else:
                        self.gather_edges[(group, op.ids)].append(
                            (rank, op.peer)
                        )
                else:
                    chan = (op.peer, rank, op.tag)
                    d = (self.posts if op.kind == "post"
                         else self.completes)
                    d[chan] = d.get(chan, 0) + 1

    def bad_channels(self) -> set[tuple]:
        """Channels whose send/post/complete counts disagree (cached —
        the key union alone costs seconds at P=4096)."""
        if self._bad is not None:
            return self._bad
        bad = set()
        posts_get = self.posts.get
        completes_get = self.completes.get
        for chan, ns in self.sends.items():
            if ns != posts_get(chan, 0) or ns != completes_get(chan, 0):
                bad.add(chan)
        sends = self.sends
        for chan in self.posts:
            if chan not in sends:
                bad.add(chan)
        for chan in self.completes:
            if chan not in sends and chan not in self.posts:
                bad.add(chan)
        self._bad = bad
        return bad


def _mismatched_boxes(
    ir: CommIR, index: IRIndex | None = None
) -> set[tuple[str, tuple]]:
    """The ``(exchange kind, ids)`` groups with a matching defect —
    the boxes the conservation interpretation must skip."""
    index = index or IRIndex(ir)
    bad_chans = index.bad_channels()
    bad: set[tuple[str, tuple]] = set()
    if not bad_chans:
        return bad
    for rank, prog in enumerate(ir.programs):
        for op in prog:
            if _channel(op, rank) in bad_chans:
                kind = op.group[:-1] if op.group.endswith("g") else op.group
                bad.add((kind, op.ids))
    return bad


def check_matching(
    ir: CommIR, index: IRIndex | None = None
) -> list[Finding]:
    """Exact send/post/complete balance on every channel."""
    index = index or IRIndex(ir)
    sends, posts, completes = index.sends, index.posts, index.completes
    findings: list[Finding] = []
    for chan in index.bad_channels():
        ns = sends.get(chan, 0)
        np_ = posts.get(chan, 0)
        nc = completes.get(chan, 0)
        src, dst, tag = chan
        where = f"{src}->{dst} tag={tag!r}"
        if ns > nc:
            findings.append(Finding(
                "matching", where,
                f"{ns - nc} message(s) sent but never received "
                f"(leaked mailbox)",
            ))
        elif nc > ns:
            findings.append(Finding(
                "matching", where,
                f"{nc} receive completion(s) for only {ns} send(s) "
                f"(phantom receive — a runtime hang)",
            ))
        if np_ != nc:
            findings.append(Finding(
                "matching", where,
                f"{np_} receive(s) posted but {nc} completed "
                f"(leaked request)",
            ))
    findings.sort(key=lambda f: f.where)
    return findings


def check_tags(ir: CommIR) -> list[Finding]:
    """Registry discipline and cross-phase channel disjointness.

    A disciplined op's tag is ``(op.group, *ids)``, so the group a
    channel serves is determined by the tag itself — two phases can
    share a channel only if some op carries a tag of the *other*
    phase's family, which the per-op discipline check reports.  Hence
    one linear pass with a constant-time fast path (an IR holds
    millions of ops but only a few thousand distinct tags; each
    distinct tag is registry-validated once) covers both properties.
    """
    findings: list[Finding] = []
    valid_tags: set[tuple] = set()
    bad_tags: dict[tuple, str] = {}
    shared: dict[tuple[int, int, tuple], set[str]] = {}
    for rank, prog in enumerate(ir.programs):
        for i, op in enumerate(prog):
            tag = op.tag
            if tag in valid_tags:
                if tag[0] == op.group:
                    continue
            else:
                msg = bad_tags.get(tag)
                if msg is None and tag not in bad_tags:
                    if not (isinstance(tag, tuple) and tag and
                            isinstance(tag[0], str)
                            and tag[0] in TAG_FAMILIES):
                        msg = (
                            f"tag {tag!r} is not a registered structured "
                            f"tag (must be minted via mk_tag)"
                        )
                    else:
                        try:
                            mk_tag(tag[0], *tag[1:])
                        except (KeyError, ValueError) as exc:
                            msg = f"malformed tag {tag!r}: {exc}"
                    if msg is None:
                        valid_tags.add(tag)
                    else:
                        bad_tags[tag] = msg
                if msg is not None:
                    findings.append(Finding(
                        "tags",
                        f"rank {rank} op {i} ({op.kind} peer {op.peer})",
                        msg,
                    ))
                    continue
                if tag[0] == op.group:
                    continue
            findings.append(Finding(
                "tags",
                f"rank {rank} op {i} ({op.kind} peer {op.peer})",
                f"op of the {op.group!r} phase carries a "
                f"{tag[0]!r}-family tag {tag!r} — tag reuse across "
                f"concurrent phases",
            ))
            shared.setdefault(_channel(op, rank), set()).update(
                (op.group, tag[0])
            )
    for chan, groups in sorted(shared.items(), key=repr):
        src, dst, tag = chan
        findings.append(Finding(
            "tags", f"{src}->{dst} tag={tag!r}",
            f"channel claimed by phases {sorted(groups)} — messages "
            f"of concurrent phases can steal each other",
        ))
    return findings


def check_deadlock(
    ir: CommIR, index: IRIndex | None = None
) -> list[Finding]:
    """Deadlock-freedom by greedy schedule execution.

    The wait graph (program-order edges plus completion -> FIFO-matched
    send) is monotone: executing an op never disables another, so the
    greedy maximal execution retires every op iff the graph is acyclic.
    That one run decides every interleaving.  Sends and posts are always
    enabled and a completion is enabled once its channel has more sends
    than its FIFO ordinal, a count no op ever lowers, so the schedule is
    persistent, and in a persistent system every maximal execution
    fires the same ops (Keller's confluence).  A channel has one sender
    and one receiver, so the k-th completion pairs with the k-th send
    under every interleaving and each receive's payload is
    schedule-invariant.  We run exactly that execution — each rank
    advances until its next completion's matching send has not yet
    executed, and a send wakes the (single, since a channel has one
    destination) rank blocked on its channel.  O(ops) total, which is
    what admits millions of ops at P=4096.  A completion whose FIFO
    ordinal exceeds the channel's total send count never blocks — an
    unmatched completion is ``matching``'s defect, not a wait edge.
    """
    sends_total = (index or IRIndex(ir)).sends
    nranks = ir.nranks
    pc = [0] * nranks
    sent: dict[tuple, int] = {}
    recvd: dict[tuple, int] = {}
    waiter: dict[tuple, int] = {}
    ready = deque(range(nranks))
    queued = [True] * nranks
    sent_get = sent.get
    recvd_get = recvd.get
    total_get = sends_total.get
    waiter_pop = waiter.pop
    append = ready.append
    while ready:
        r = ready.popleft()
        queued[r] = False
        prog = ir.programs[r]
        n = len(prog)
        i = pc[r]
        while i < n:
            op = prog[i]
            kind = op.kind
            if kind == "send":
                chan = (r, op.peer, op.tag)
                sent[chan] = sent_get(chan, 0) + 1
                w = waiter_pop(chan, None)
                if w is not None and not queued[w]:
                    queued[w] = True
                    append(w)
            elif kind == "complete":
                chan = (op.peer, r, op.tag)
                k = recvd_get(chan, 0)
                if k < total_get(chan, 0) and sent_get(chan, 0) <= k:
                    waiter[chan] = r
                    break
                recvd[chan] = k + 1
            i += 1
        pc[r] = i
    blocked = {
        r for r in range(nranks) if pc[r] < len(ir.programs[r])
    }
    if not blocked:
        return []
    # Name one actual cycle: each blocked rank waits on a send of a
    # rank that is itself blocked (its remaining sends are behind its
    # own stalled completion), so following "waits on the sender of"
    # from any blocked rank must revisit a rank.
    def sender_of(r: int) -> int:
        return ir.programs[r][pc[r]].peer

    trail: list[int] = []
    on_trail: set[int] = set()
    r = next(iter(blocked))
    while r not in on_trail:
        trail.append(r)
        on_trail.add(r)
        r = sender_of(r)
    steps = []
    for u in trail[trail.index(r):] + [r]:
        op = ir.programs[u][pc[u]]
        steps.append(
            f"rank {u} waits recv from {op.peer} tag={op.tag!r}"
        )
    return [Finding(
        "deadlock",
        f"{len(blocked)} rank(s) stalled, "
        f"{sum(len(ir.programs[r]) - pc[r] for r in blocked)} op(s) "
        f"unreachable",
        "wait-for cycle: " + " <- ".join(steps),
    )]


def _reachable(start: int, edges: dict[int, list[int]]) -> set[int]:
    """The ranks ``edges`` leads to from ``start``, ``start`` included."""
    seen, stack = {start}, [start]
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def check_conservation(
    ir: CommIR,
    skip: set[tuple[str, tuple]] | None = None,
    index: IRIndex | None = None,
) -> list[Finding]:
    """Endpoint payload conservation against the roles.

    Per exchanged box, the ranks that can feed the owner through the
    gather edges must include every contributor, and the ranks the
    owner's combined data reaches through the scatter edges every user.
    ``skip`` holds the boxes ``matching`` already reported.
    """
    index = index or IRIndex(ir)
    skip = skip or set()
    findings: list[Finding] = []
    for kind, boxes in ir.roles.items():
        for ids, (owner, contribs, users) in sorted(
            boxes.items(), key=repr
        ):
            if (kind, ids) in skip:
                continue
            to_owner: dict[int, list[int]] = defaultdict(list)
            for s, d in index.gather_edges.get((kind, ids), ()):
                to_owner[d].append(s)
            from_owner: dict[int, list[int]] = defaultdict(list)
            for s, d in index.scatter_edges.get((kind, ids), ()):
                from_owner[s].append(d)
            where = f"{kind} box {ids}"
            lost = contribs - _reachable(owner, to_owner)
            if lost:
                findings.append(Finding(
                    "conservation", where,
                    f"contributor piece(s) of rank(s) {sorted(lost)} "
                    f"never reach owner {owner}",
                ))
            starved = users - _reachable(owner, from_owner)
            if starved:
                findings.append(Finding(
                    "conservation", where,
                    f"combined data never delivered to user rank(s) "
                    f"{sorted(starved)}",
                ))
    return findings


def check_conformance(ir: CommIR, states) -> list[Finding]:
    """Every rank's stored programs must be its IR program op for op
    (``states`` are the ranks' :class:`~repro.parallel.pfmm.RankFMM`
    setup products, in rank order).  One finding per rank, at the first
    op that differs."""
    if len(states) != ir.nranks:
        return [Finding(
            "conformance", "states",
            f"{len(states)} rank states, IR describes {ir.nranks} ranks",
        )]
    findings: list[Finding] = []
    for rank, state in enumerate(states):
        lay = state.layout
        held = rank_ops({"geo": lay.geo, "phi": lay.phi, "pue": lay.pue})
        expected = ir.programs[rank]
        if held == expected:
            continue
        n = min(len(expected), len(held))
        at = next((i for i in range(n) if expected[i] != held[i]), n)
        exp = expected[at] if at < len(expected) else "(end of program)"
        got = held[at] if at < len(held) else "(end of program)"
        findings.append(Finding(
            "conformance", f"rank {rank} op {at}",
            f"the rank holds {got!r} where the schedule has {exp!r} "
            f"({len(held)} held vs {len(expected)} scheduled ops)",
        ))
    return findings


def run_checks(
    ir: CommIR,
    *,
    states=None,
    name: str = "commir",
) -> StaticCommReport:
    """All checks over one IR (one :class:`IRIndex` shared by all);
    ``states`` (every rank's setup product) enables conformance."""
    with gc_paused():
        index = IRIndex(ir)
        findings: list[Finding] = []
        matching = check_matching(ir, index)
        findings += matching
        findings += check_tags(ir)
        findings += check_deadlock(ir, index)
        findings += check_conservation(
            ir, skip=_mismatched_boxes(ir, index) if matching else set(),
            index=index,
        )
        if states is not None:
            findings += check_conformance(ir, states)
    counts = {c: 0 for c in CHECKS}
    for f in findings:
        counts[f.check] = counts.get(f.check, 0) + 1
    return StaticCommReport(
        name=name, findings=findings, counts=counts,
        nops=ir.nops(), nmessages=ir.nmessages(),
    )


# ---------------------------------------------------------------------------
# Seeded defects: each plants exactly one protocol bug; the self-test
# requires exactly the intended check to fire.
# ---------------------------------------------------------------------------


def _edited(ir: CommIR, edits: dict[int, list[CommOp]]) -> CommIR:
    """``ir`` with rank ``r``'s program replaced by ``edits[r]``.

    Copy on write: the IR is copied shallowly and only the edited
    programs are new lists, whose changed ops are new ops, so a seed
    leaves its input as it was without copying the whole schedule.
    """
    out = copy.copy(ir)
    out.programs = [edits.get(r, prog) for r, prog in enumerate(ir.programs)]
    return out


def seed_dropped_relay(ir: CommIR) -> CommIR:
    """Delete an interior gather node's forward send — the partial fold
    silently vanishes.  Caught by ``matching`` (the parent's posted
    receive never completes against a send); ``conservation`` skips the
    box precisely because matching owns it."""
    for rank, prog in enumerate(ir.programs):
        for i, op in enumerate(prog):
            if op.kind == "send" and op.note == "relay":
                return _edited(ir, {rank: prog[:i] + prog[i + 1:]})
    raise ValueError(
        "IR has no interior relay send to drop — needs a box whose "
        "binomial gather tree has an interior node (>= 4 participants)"
    )


def seed_reused_tag(ir: CommIR) -> CommIR:
    """Retag one ``pue`` gather message (send, post and completion
    together) into the concurrently posted ``phi`` family.  Endpoints
    still balance and no wait cycle appears — only the tag-space
    discipline is broken."""
    fresh = 1 + max(
        (ids[-1] for boxes in ir.roles.values() for ids in boxes),
        default=0,
    )
    target = next((
        _channel(op, rank)
        for rank, prog in enumerate(ir.programs) for op in prog
        if op.kind == "send" and op.group == "pue"
    ), None)
    if target is None:
        raise ValueError("IR exchanges no equivalent densities to retag")
    bad = mk_tag("phi", fresh)
    return _edited(ir, {
        rank: [
            replace(op, tag=bad) if _channel(op, rank) == target else op
            for op in ir.programs[rank]
        ]
        for rank in {target[0], target[1]}
    })


def seed_swapped_post_wait(ir: CommIR) -> CommIR:
    """Reorder a leaf contributor's gather send *after* its own scatter
    wait.  Every message still matches and every tag is disciplined,
    but the owner's scatter (transitively) waits on the very send the
    rank withholds until the scatter arrives — a wait cycle."""
    for rank, prog in enumerate(ir.programs):
        for i, op in enumerate(prog):
            if not (op.kind == "send" and op.note == "inject"
                    and op.group in ("phi", "pue")):
                continue
            sfam = op.group + "g"
            j = next(
                (k for k in range(len(prog))
                 if prog[k].kind == "complete"
                 and prog[k].group == sfam and prog[k].ids == op.ids),
                None,
            )
            if j is None:
                continue
            moved = prog[:i] + prog[i + 1:]
            if j > i:
                j -= 1
            moved.insert(j + 1, replace(op))
            return _edited(ir, {rank: moved})
    raise ValueError(
        "IR has no rank that both contributes to and uses a box — "
        "cannot seed the post/wait inversion"
    )


def seed_starved_user(ir: CommIR) -> CommIR:
    """Delete one scatter edge whole: the parent's send, the child's
    posted receive and its completion.  Every remaining channel still
    matches, no tag changes family and no wait is added, but the box's
    combined data never reaches that child — only ``conservation``
    sees it."""
    target = next((
        _channel(op, rank)
        for rank, prog in enumerate(ir.programs) for op in prog
        if op.kind == "send" and op.note == "scatter"
    ), None)
    if target is None:
        raise ValueError("IR scatters no combined data to starve a user of")
    return _edited(ir, {
        rank: [op for op in ir.programs[rank] if _channel(op, rank) != target]
        for rank in {target[0], target[1]}
    })


SEEDS = {
    "dropped-relay": (seed_dropped_relay, "matching"),
    "reused-tag": (seed_reused_tag, "tags"),
    "swapped-post-wait": (seed_swapped_post_wait, "deadlock"),
    "starved-user": (seed_starved_user, "conservation"),
}


def run_selftests(ir: CommIR) -> list[tuple[str, bool, str]]:
    """Plant each seeded defect and verify exactly its check catches it.

    Returns ``(seed name, passed, detail)`` rows.  A self-test passes
    only if the seeded IR produces findings, *every* finding belongs to
    the intended check, and the unseeded IR is clean — so a checker
    that flags everything (or nothing) fails its own certification.
    """
    results: list[tuple[str, bool, str]] = []
    base = run_checks(ir, name="selftest-base")
    if not base.ok:
        return [(
            "baseline", False,
            f"unseeded IR not clean: {base.findings[0]}",
        )]
    for seed_name, (seed, intended) in SEEDS.items():
        try:
            seeded = seed(ir)
        except ValueError as exc:
            results.append((
                seed_name, False, f"defect not plantable: {exc}"
            ))
            continue
        report = run_checks(seeded, name=f"seed:{seed_name}")
        fired = {f.check for f in report.findings}
        if not report.findings:
            results.append((seed_name, False, "defect not detected"))
        elif fired != {intended}:
            results.append((
                seed_name, False,
                f"expected only {intended!r} to fire, got {sorted(fired)}",
            ))
        else:
            results.append((
                seed_name, True,
                f"caught by {intended} "
                f"({report.counts[intended]} finding(s))",
            ))
    return results
