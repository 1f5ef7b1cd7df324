"""Index arithmetic over CSR-style segments, without Python loops."""

from __future__ import annotations

import numpy as np


def multi_arange(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], stops[i])`` as one int64 array.

    Empty ranges are skipped.  The classic cumsum construction — no
    Python-level loop over the ranges.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    counts = stops - starts
    keep = counts > 0
    starts, counts = starts[keep], counts[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.ones(int(ends[-1]), dtype=np.int64)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(out)


def chunk_segments(seg: np.ndarray, max_points: int) -> list[tuple[int, int]]:
    """Split CSR segments into runs of at most ``max_points`` points.

    ``seg`` holds cumulative point offsets (length ``nsegments + 1``).
    Returns ``(lo, hi)`` segment-index ranges; a single segment larger
    than ``max_points`` gets its own run (never split).
    """
    n = len(seg) - 1
    out: list[tuple[int, int]] = []
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(seg, seg[lo] + max_points, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        out.append((lo, hi))
        lo = hi
    return out


def run_bounds(values: np.ndarray) -> np.ndarray:
    """Boundaries of the runs of equal entries in ``values``.

    Run ``i`` is ``values[bounds[i] : bounds[i + 1]]``; ``bounds[:-1]``
    are the run starts and ``bounds[-1] == len(values)``.  On a grouped
    (e.g. sorted) array these are its distinct values without a sort or
    a hash table.
    """
    if values.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.flatnonzero(np.r_[True, values[1:] != values[:-1], True])


def distinct(indices: np.ndarray, size: int) -> np.ndarray:
    """The distinct entries of an index array over ``[0, size)``,
    ascending: a mask and ``flatnonzero``, for indices in no known
    order."""
    seen = np.zeros(size, dtype=bool)
    seen[indices] = True
    return np.flatnonzero(seen)
