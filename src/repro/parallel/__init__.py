"""The SC'03 parallel algorithm (Section 3) on a one-host runtime.

The paper's MPI implementation is reproduced verbatim at the algorithm
level — Morton-curve partitioning of surface patches, level-by-level
global tree array construction with Allreduce, local essential trees,
contributor/owner/user assignment, the Algorithm-1 gather/scatter of
ghost sources and the reduction of partial upward equivalent densities,
and the three-stage compute / communicate / compute interaction
calculation — but runs over :mod:`repro.parallel.simmpi`, a
message-passing runtime with logical ranks on threads (setup, the
verifiers) or, for the applies of a persistent operator, on forked
processes (:mod:`repro.parallel.procworld`) — the substitution for real
MPI hardware documented in DESIGN.md.  Every message, the two
collectives included, is a point-to-point send.

There is one driver, :class:`ParallelFMM` (setup once, apply many), and
one rank operator, :class:`RankFMM`, which is also the sequential
:class:`~repro.core.fmm.KIFMM` at one rank.
"""

from repro.parallel.simmpi import CommStats, MailboxLeakError, SimComm, run_spmd
from repro.parallel.procworld import RankDiedError
from repro.parallel.partition import morton_order_patches, partition_patches, partition_points
from repro.parallel.pfmm import ParallelFMM, RankFMM, rank_setup

__all__ = [
    "SimComm",
    "run_spmd",
    "CommStats",
    "MailboxLeakError",
    "RankDiedError",
    "morton_order_patches",
    "partition_patches",
    "partition_points",
    "rank_setup",
    "ParallelFMM",
    "RankFMM",
]
