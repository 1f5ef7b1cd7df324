"""Self-contained numerical linear algebra used across the package.

The paper relies on PETSc for its Krylov iterative solvers; here the
application layer (:mod:`repro.bie`) uses our own restarted GMRES, and
the KIFMM density solves (equations 2.1–2.5) use the factors of a
truncated SVD.
"""

from repro.linalg.pinv import svd_rank, truncated_svd
from repro.linalg.rsvd import randomized_svd
from repro.linalg.gmres import (
    BlockGMRESResult,
    GMRESResult,
    gmres,
    gmres_block,
)

__all__ = [
    "svd_rank",
    "truncated_svd",
    "randomized_svd",
    "gmres",
    "gmres_block",
    "GMRESResult",
    "BlockGMRESResult",
]
