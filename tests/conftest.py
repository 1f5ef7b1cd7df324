"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import repro.core.precompute as precompute
from repro.kernels import (
    LaplaceKernel,
    ModifiedLaplaceKernel,
    NavierKernel,
    StokesKernel,
)
from repro.perfmodel.simulate import coarse_split_levels


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(200301)


@pytest.fixture(
    params=[
        LaplaceKernel(),
        ModifiedLaplaceKernel(lam=1.5),
        StokesKernel(mu=0.7),
        NavierKernel(mu=1.0, nu=0.3),
    ],
    ids=["laplace", "modified_laplace", "stokes", "navier"],
)
def kernel(request):
    """All four kernels — used to assert kernel independence."""
    return request.param


@pytest.fixture(
    params=[LaplaceKernel(), StokesKernel(mu=0.7)], ids=["laplace", "stokes"]
)
def fast_kernel(request):
    """A scalar and a vector kernel, for the more expensive tests."""
    return request.param


def traced_peak(call):
    """``(peak bytes allocated, result)`` of ``call()`` under ``tracemalloc``.

    numpy reports its array buffers to ``tracemalloc``, so the peak counts
    every temporary alive at once — a deterministic stand-in for "how many
    full-size passes does this make".
    """
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def uniform_cloud(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=(n, 3))


def cloud(
    rng: np.random.Generator, n: int, dim: int, clustered: bool = False
) -> np.ndarray:
    """``n`` points in ``dim`` dimensions: uniform in ``[-1, 1]^dim``, or
    piled into the ``2^dim`` corners of the unit cube (deep adaptive
    trees, non-empty W/X lists)."""
    if not clustered:
        return rng.uniform(-1.0, 1.0, size=(n, dim))
    corners = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    pts = corners[rng.integers(0, 1 << dim, n)]
    return np.abs(pts - 0.08 * np.abs(rng.standard_normal((n, dim))))


def clustered_cloud(rng: np.random.Generator, n: int) -> np.ndarray:
    """Corner-clustered points: deep adaptive trees, non-empty W/X lists."""
    corners = np.array(
        [[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(8)], dtype=np.float64
    )
    per = max(1, -(-n // 8))  # ceil division so at least n points exist
    blocks = [
        c + 0.08 * np.abs(rng.standard_normal((per, 3))) for c in corners
    ]
    return np.vstack(blocks)[:n]


def coarse_v_levels(tree, nranks: int) -> list[int]:
    """The V levels (level 2 and deeper) with fewer boxes than ranks:
    the tree top every contributor computes redundantly, where the
    performance model prices a coarse split."""
    coarse = coarse_split_levels(np.diff(tree.topology.level_ptr), nranks)
    return sorted(lvl for lvl in coarse if lvl >= 2)


@contextmanager
def count_factorisations():
    """Count the factorisations :class:`OperatorCache` runs inside the block.

    Yields a dict ``{"randomized_svd": n, "truncated_svd": n}`` that
    counting wrappers around the two functions (as ``core.precompute``
    calls them: the rsvd M2L factors and the check-to-equivalent
    inversions) keep up to date; the wrappers forward every call.
    """
    calls = {"randomized_svd": 0, "truncated_svd": 0}

    def counting(name):
        inner = getattr(precompute, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return mock.patch.object(precompute, name, wrapper)

    with counting("randomized_svd"), counting("truncated_svd"):
        yield calls
