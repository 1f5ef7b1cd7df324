"""Run one apply of a :class:`ParallelFMM` on both worlds and compare.

Shared by the parity suites: whatever they assert about a parallel
potential, they assert it about the *process* world's (the default
beyond one rank), and :func:`apply_on_both` first pins that potential,
the per-rank flops and the per-rank traffic to the thread world's, bit
for bit and count for count.  The process world records no calls, so
its traffic equal to the send / completion ops of the compiled programs
is its "run == program".
"""

import dataclasses
import multiprocessing
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.parallel.pfmm import exchange_traffic
from repro.parallel.procworld import RankProcesses
from repro.parallel.simmpi import CommStats


@contextmanager
def thread_world():
    """Applies inside run on rank threads, as on a host that cannot fork."""
    with mock.patch.object(RankProcesses, "available", False):
        yield


def rank_pids():
    """Pids of the live rank processes of every operator in this process."""
    return sorted(
        p.pid for p in multiprocessing.active_children()
        if p.name.startswith("procworld-rank")
    )


def _counters(op):
    """Cumulative per-rank flops and traffic of ``op``."""
    return (
        [st.flops.by_phase() for st in op.states],
        [dataclasses.replace(c, by_phase=dict(c.by_phase)) for c in op.comm_stats],
    )


def _since(before, after):
    """Per-rank flops and traffic between two :func:`_counters`."""
    flops = [
        {ph: new[ph] - old.get(ph, 0.0) for ph in new}
        for old, new in zip(before[0], after[0])
    ]
    traffic = []
    for old, new in zip(before[1], after[1]):
        fields = {
            name: getattr(new, name) - getattr(old, name)
            for name in CommStats._SUM_FIELDS if name != "recv_wait_seconds"
        }
        fields["by_phase"] = {
            ph: n - old.by_phase.get(ph, 0) for ph, n in new.by_phase.items()
        }
        traffic.append(fields)
    return flops, traffic


def program_op_counts(op):
    """Per rank, the ``(send, complete)`` ops of one apply's programs."""
    counts = []
    for st in op.states:
        lay = st.layout
        ops = [
            o.kind
            for program in (lay.phi, lay.pue)
            for phase in program for o in phase
        ]
        counts.append((ops.count("send"), ops.count("complete")))
    return counts


def apply_on_both(op, density):
    """``op.apply(density)`` on rank processes — after checking it
    against the same apply on rank threads: equal potentials, equal
    per-rank flops, equal per-rank messages and bytes, and the message
    counts those of the compiled programs."""
    c0 = _counters(op)
    with thread_world():
        on_threads = op.apply(density)
    c1 = _counters(op)
    on_processes = op.apply(density)
    c2 = _counters(op)
    assert np.array_equal(on_threads, on_processes)
    thread_flops, thread_traffic = _since(c0, c1)
    process_flops, process_traffic = _since(c1, c2)
    assert thread_flops == process_flops
    assert thread_traffic == process_traffic
    sent_to = exchange_traffic(op.states)[0]
    for rank, (sends, completes) in enumerate(program_op_counts(op)):
        assert process_traffic[rank]["messages_sent"] == sends
        assert process_traffic[rank]["messages_received"] == completes
        assert sends == sent_to[rank].sum() and completes == sent_to[:, rank].sum()
    return on_processes
