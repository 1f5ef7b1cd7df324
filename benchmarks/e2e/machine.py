"""Machine fingerprint and the two roofline calibration numbers.

The fingerprint is what two result sets must share before their numbers
may be compared; the calibration (`machine.dgemm_gflops`,
`machine.triad_gbs`) is measured in the same run as the ledger so the
``*_gflops`` rows can be read against a roofline.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fields that must be equal for two result sets to be comparable.  The
#: git sha is stamped but not compared: comparing two commits is the point.
COMPARABLE = ("cpu_model", "nproc", "python", "numpy", "blas", "blas_threads")


def pin_blas_threads() -> None:
    """One BLAS thread per process, set before numpy loads its BLAS.

    The sequential workloads are then the plain single-threaded baseline
    and the 2-rank workload uses exactly its two rank threads.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _blas_threads_in_force() -> str:
    """The thread setting the loaded BLAS actually runs with."""
    try:
        from threadpoolctl import threadpool_info

        pools = threadpool_info()
        if pools:
            return ",".join(
                f"{p.get('internal_api')}={p.get('num_threads')}" for p in pools
            )
    except ImportError:
        pass
    # OpenBLAS reads the variable once, when numpy loads it; pin_blas_threads
    # ran before that, so the environment is what is in force.
    return ",".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)


def llc_bytes() -> int:
    """Size of the largest cache the kernel reports for cpu0."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        digits = text[:-1] if text[-1] in "KMG" else text
        best = max(best, int(digits) * mult)
    return best or 32 << 20


def fingerprint(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads_in_force(),
        "git_sha": _git_sha(root),
    }


#: Largest triad array.  A 2-vCPU guest reports its host's whole L3
#: (260 MiB where this was written); three arrays of four times that
#: take ten seconds to fault in, which the traced runs cannot afford
#: under the contract's time cap.
TRIAD_CAP = 256 << 20


def calibrate(quick: bool = False) -> dict[str, float]:
    """Best-of-five DGEMM rate and best-of-two STREAM-triad bandwidth.

    Each triad array is four times the last-level cache, capped at
    ``TRIAD_CAP`` (a smoke run uses 16 MiB); both sizes are returned so
    a capped run says so.
    """
    import numpy as np

    n = 1024
    a = np.random.default_rng(0).standard_normal((n, n))
    b = a.T.copy()
    a @ b
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    dgemm = 2.0 * n**3 / best / 1e9

    llc = llc_bytes()
    per_array = 16 << 20 if quick else min(4 * llc, TRIAD_CAP)
    m = per_array // 8
    x = np.ones(m)
    y = np.full(m, 2.0)
    z = np.empty(m)
    best = float("inf")
    for _ in range(2):  # the first pass also faults z in
        t0 = time.perf_counter()
        np.multiply(y, 3.0, out=z)
        np.add(z, x, out=z)
        best = min(best, time.perf_counter() - t0)
    # two numpy passes: read y, write z; read z and x, write z = 5 streams
    triad = 5.0 * 8.0 * m / best / 1e9
    return {
        "machine.dgemm_gflops": dgemm,
        "machine.triad_gbs": triad,
        "llc_mb": llc / 2**20,
        "triad_array_mb": per_array / 2**20,
    }
