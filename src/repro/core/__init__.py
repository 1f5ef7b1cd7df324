"""The kernel-independent FMM core (Section 2 of the paper).

Equivalent densities on cube surfaces replace analytic multipole/local
expansions; the M2M/M2L/L2L translations of classical FMM become kernel
evaluations followed by regularised integral-equation inversions
(equations 2.1–2.5).  The paper accelerates the M2L translations with
local FFTs (Section 1); here they run as dense or randomized-SVD
compressed GEMMs — on every benchmark tree the one the ``auto`` picker
chooses measured faster than the FFT — and only the performance model
prices the FFT.
"""

from repro.core.fmm import KIFMM, FMMOptions
from repro.core.plan import ExecutionPlan, build_plan
from repro.core.surfaces import surface_grid, surface_lattice_indices
from repro.core.precompute import OperatorCache

__all__ = [
    "KIFMM",
    "FMMOptions",
    "ExecutionPlan",
    "OperatorCache",
    "build_plan",
    "surface_grid",
    "surface_lattice_indices",
]
