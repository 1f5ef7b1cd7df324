"""2D Stokes flow — a vortex-sheet-like interaction in the plane.

Section 2 of the paper poses the method for d = 2, 3; this example runs
the one `KIFMM` on the plane's kernels (`repro.kernels.planar`, whose
`dim = 2` makes the tree a quadtree): point forces arranged on concentric
rings (a discretised rotor wake) interacting through the 2D Stokeslet,
plus a screened-interaction comparison with the Bessel-K0 kernel — a
kernel no analytic FMM expansion ships for.

Run:  python examples/vortex_sheet_2d.py
"""

import time

import numpy as np

from repro import KIFMM
from repro.core.fmm import FMMOptions
from repro.kernels import (
    Laplace2DKernel,
    ModifiedLaplace2DKernel,
    Stokes2DKernel,
)
from repro.kernels.direct import direct_evaluate


def ring_wake(n: int, rng: np.random.Generator) -> np.ndarray:
    """Points on concentric perturbed rings (a rolled-up sheet)."""
    nrings = 12
    per = n // nrings
    blocks = []
    for k in range(nrings):
        radius = 0.15 + 0.07 * k
        theta = np.linspace(0, 2 * np.pi, per, endpoint=False)
        theta += 0.3 * k  # spiral offset
        ring = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ring += 0.004 * rng.standard_normal(ring.shape)
        blocks.append(ring)
    return np.vstack(blocks)


def main() -> None:
    rng = np.random.default_rng(17)
    n = 12_000
    points = ring_wake(n, rng)
    n = points.shape[0]

    # tangential point forces (the sheet's traction)
    radial = points / np.linalg.norm(points, axis=1, keepdims=True)
    forces = np.stack([-radial[:, 1], radial[:, 0]], axis=1)

    kernel = Stokes2DKernel(mu=1.0)
    fmm = KIFMM(kernel, FMMOptions(p=8, max_points=40)).setup(points)
    t0 = time.perf_counter()
    velocity = fmm.apply(forces)
    t_fmm = time.perf_counter() - t0

    sample = rng.choice(n, size=300, replace=False)
    exact = direct_evaluate(kernel, points[sample], points, forces)
    err = np.linalg.norm(velocity[sample] - exact) / np.linalg.norm(exact)
    print(f"2D Stokes, {n} sheet points: FMM {t_fmm:.2f}s, "
          f"rel error {err:.2e}")
    swirl = np.mean(
        velocity[:, 0] * (-radial[:, 1]) + velocity[:, 1] * radial[:, 0]
    )
    print(f"mean swirl velocity: {swirl:+.4f} (the wake co-rotates)")

    # kernel independence in 2D: swap in the Bessel-K0 screened kernel
    for kern in (Laplace2DKernel(), ModifiedLaplace2DKernel(lam=8.0)):
        phi = rng.random((n, 1))
        f2 = KIFMM(kern, FMMOptions(p=8, max_points=40)).setup(points)
        t0 = time.perf_counter()
        u = f2.apply(phi)
        dt = time.perf_counter() - t0
        ex = direct_evaluate(kern, points[sample], points, phi)
        e = np.linalg.norm(u[sample] - ex) / np.linalg.norm(ex)
        print(f"{kern.name:22s} FMM {dt:.2f}s, rel error {e:.2e}")


if __name__ == "__main__":
    main()
