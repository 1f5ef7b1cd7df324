"""Single-layer kernels of non-oscillatory second-order elliptic PDEs.

These are the kernels of the paper's Appendix A: given the singularity
location ``y`` and evaluation point ``x`` with ``r = x - y``, ``r = |r|``:

- Laplace:          ``S(x, y) = 1/(4 pi r)``
- modified Laplace: ``S(x, y) = exp(-lambda r)/(4 pi r)``
- Stokes:           ``S(x, y) = 1/(8 pi mu) (I/r + r (x) r / r^3)``

plus, as an extension exercised by the paper's introduction (linearly
elastic materials, fracture mechanics), the Navier/Kelvin kernel of
linear elastostatics, and the plane's Laplace, modified Laplace and
Stokes kernels (:mod:`repro.kernels.planar`, ``dim = 2``: Section 2
poses the method for ``d = 2, 3``).

The KIFMM algorithm never needs anything from a kernel beyond point
evaluation — that is the paper's headline property — so the interface in
:mod:`repro.kernels.base` is just "assemble the dense pair-interaction
matrix between two point sets".  That assembly is also where an apply
spends its time (S2M, U, W, X, L2T), so the module writes it once for
all kernels: exact difference planes for the tensor kernels, one GEMM
for the radial kernels' box-local distances.
"""

from repro.kernels.base import Kernel
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.modified_laplace import ModifiedLaplaceKernel
from repro.kernels.navier import NavierKernel
from repro.kernels.planar import (
    Laplace2DKernel,
    ModifiedLaplace2DKernel,
    Stokes2DKernel,
)
from repro.kernels.stokes import StokesKernel

ALL_KERNELS = (
    LaplaceKernel, ModifiedLaplaceKernel, StokesKernel, NavierKernel,
    Laplace2DKernel, ModifiedLaplace2DKernel, Stokes2DKernel,
)

__all__ = [
    "Kernel",
    "LaplaceKernel",
    "ModifiedLaplaceKernel",
    "StokesKernel",
    "NavierKernel",
    "Laplace2DKernel",
    "ModifiedLaplace2DKernel",
    "Stokes2DKernel",
    "ALL_KERNELS",
]
