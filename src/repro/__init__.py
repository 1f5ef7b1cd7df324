"""repro — a parallel kernel-independent fast multipole method.

Reproduction of Ying, Biros, Zorin & Langston, *A new parallel
kernel-independent fast multipole method*, SC 2003.

The package is organised bottom-up:

- :mod:`repro.kernels` — single-layer kernels of second-order elliptic PDEs
  (Laplace, modified Laplace, Stokes, Navier; the plane's Laplace,
  Bessel-K0 and Stokeslet kernels) plus the direct O(N^2) baseline.
- :mod:`repro.octree` — adaptive hierarchical octree and the U/V/W/X
  interaction lists of the adaptive FMM.  Everything from here to the
  parallel driver takes its dimension from its input — the points'
  column count, ``Kernel.dim`` — so a 2D kernel runs the same code on a
  quadtree (Section 2 poses the method for ``d = 2, 3``).
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
- :mod:`repro.linalg` — restarted GMRES and truncated SVDs.
- :mod:`repro.bie` — Stokes boundary-integral application layer
  (the Figure 4.1 fluid-structure showcase).
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
