"""The SC'03 parallel algorithm (Section 3) on an in-process runtime.

The paper's MPI implementation is reproduced verbatim at the algorithm
level — Morton-curve partitioning of surface patches, level-by-level
global tree array construction with Allreduce, local essential trees,
contributor/owner/user assignment, the Algorithm-1 gather/scatter of
ghost sources and the reduction of partial upward equivalent densities,
and the three-stage compute / communicate / compute interaction
calculation — but runs over :mod:`repro.parallel.simmpi`, an in-process
message-passing runtime with logical ranks on threads (the substitution
for real MPI hardware documented in DESIGN.md).
"""

from repro.parallel.simmpi import CommStats, MailboxLeakError, SimComm, run_spmd
from repro.parallel.partition import morton_order_patches, partition_patches, partition_points
from repro.parallel.pfmm import (
    ParallelFMM,
    ParallelFMMResult,
    RankFMM,
    rank_setup,
    run_parallel_fmm,
)

__all__ = [
    "SimComm",
    "run_spmd",
    "CommStats",
    "MailboxLeakError",
    "morton_order_patches",
    "partition_patches",
    "partition_points",
    "rank_setup",
    "run_parallel_fmm",
    "ParallelFMM",
    "RankFMM",
    "ParallelFMMResult",
]
