"""repro — a parallel kernel-independent fast multipole method.

Reproduction of Ying, Biros, Zorin & Langston, *A new parallel
kernel-independent fast multipole method*, SC 2003.

The package is organised bottom-up:

- :mod:`repro.kernels` — single-layer kernels of second-order elliptic PDEs
  (Laplace, modified Laplace, Stokes, Navier) plus the direct O(N^2) baseline.
- :mod:`repro.octree` — adaptive hierarchical octree and the U/V/W/X
  interaction lists of the adaptive FMM.
- :mod:`repro.core` — the kernel-independent FMM itself: equivalent/check
  surfaces, density translations, dense and rsvd-compressed M2L, and the
  public :class:`~repro.core.fmm.KIFMM` driver.
- :mod:`repro.parallel` — the SC'03 parallel algorithm (Morton partitioning,
  local essential trees, owner assignment, Algorithm-1 gather/scatter) on an
  in-process simulated MPI.
- :mod:`repro.perfmodel` — TCS-1 machine model used to regenerate the
  paper's scalability tables and figures.
- :mod:`repro.geometry` — the paper's workloads (512 spheres,
  corner-clustered points, uniform cube).
- :mod:`repro.linalg` — restarted GMRES and regularised pseudo-inverses.
- :mod:`repro.bie` — Stokes boundary-integral application layer
  (the Figure 4.1 fluid-structure showcase).
- :mod:`repro.twod` — the complete 2D instantiation (quadtree, square
  surfaces, 2D kernels, :class:`~repro.twod.fmm.KIFMM2D`).
"""

from repro.core.fmm import KIFMM, FMMOptions
from repro.kernels import (
    LaplaceKernel,
    ModifiedLaplaceKernel,
    NavierKernel,
    StokesKernel,
)
from repro.kernels.direct import direct_evaluate

__all__ = [
    "KIFMM",
    "FMMOptions",
    "LaplaceKernel",
    "ModifiedLaplaceKernel",
    "StokesKernel",
    "NavierKernel",
    "direct_evaluate",
]

__version__ = "1.0.0"
