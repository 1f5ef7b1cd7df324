"""Runtime sanitizers for the planned evaluation path.

Enabled via the ``REPRO_SANITIZE=1`` environment variable or the
``FMMOptions.sanitize`` flag, four checkers run inside the core and
parallel evaluators (see ``docs/architecture.md`` § "Messages are
values & sanitizers"):

- **BufferPool lifecycle** — :class:`~repro.core.plan.BufferPool` gains
  explicit ``release``: released buffers are poisoned with NaN (so any
  stale read propagates into the finite checks below), double releases
  raise :class:`DoubleReleaseError`, reads guarded with ``check_live``
  raise :class:`UseAfterReleaseError`, and results are checked against
  every pool allocation at function exit (the dynamic complement of the
  ``bufferpool-escape`` lint rule).
- **Finite ingress checks** — :func:`check_finite` runs at every
  ExecutionPlan phase boundary and names the phase and the box range
  that first produced a NaN/Inf, instead of letting it surface as a
  wrong potential many phases later.
- **GEMM aliasing guards** — :func:`guard_gemm` verifies the output of
  a plan GEMM stack shares no memory with its inputs
  (``np.may_share_memory``); writing through an aliased output corrupts
  later rows of the same batched product.

- **Operator invariant** — a sanitized apply reads its operators
  through sealed views of the caches
  (:meth:`~repro.core.precompute.OperatorCache.sealed`): one that setup
  did not build raises :class:`OperatorMissError` instead of being built
  under the apply.

All checkers raise subclasses of :class:`SanitizerError`, so callers
(and CI) can catch the whole family.  The module is dependency-free by
design: ``repro.core`` imports it without cycles.
"""

from __future__ import annotations

import os

import numpy as np

def enabled() -> bool:
    """Whether the environment requests sanitized runs."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class SanitizerError(RuntimeError):
    """Base class of every sanitizer diagnosis."""


class UseAfterReleaseError(SanitizerError):
    """A released (poisoned) pool buffer was used without reacquisition."""


class DoubleReleaseError(SanitizerError):
    """A pool buffer was released twice without reacquisition."""


class BufferEscapeError(SanitizerError):
    """A returned result aliases recycled pool scratch memory."""


class NonFiniteError(SanitizerError):
    """A NaN/Inf crossed an ExecutionPlan phase boundary."""


class GemmAliasError(SanitizerError):
    """A GEMM stack's output aliases one of its inputs."""


class OperatorMissError(SanitizerError):
    """An apply asked for an operator its setup did not build."""


def check_finite(
    array: np.ndarray, phase: str, what: str, rows_are: str = "boxes"
) -> None:
    """Raise :class:`NonFiniteError` naming the phase and box range.

    ``rows_are`` documents what the leading axis indexes ("boxes" for
    the per-box equivalent/check stacks, "targets" for potentials,
    "points" for densities) so the report reads as a range of the
    offending entities.
    """
    finite = np.isfinite(array)
    if finite.all():
        return
    bad = ~finite
    rows = np.flatnonzero(bad.reshape(array.shape[0], -1).any(axis=1))
    raise NonFiniteError(
        f"{int(bad.sum())} non-finite value(s) in {what} at the "
        f"{phase!r} phase boundary ({rows_are} {int(rows[0])}..."
        f"{int(rows[-1])}, {rows.size} affected)"
    )


def guard_gemm(out: np.ndarray, *inputs: np.ndarray, site: str) -> None:
    """Raise :class:`GemmAliasError` if ``out`` aliases any input.

    Uses the bounds-level memory-overlap test (cheap and exact for the
    plan's sliced pool buffers, which are contiguous row ranges).
    """
    for i, arr in enumerate(inputs):
        if arr is None or arr.size == 0 or out.size == 0:
            continue
        if np.may_share_memory(out, arr):
            raise GemmAliasError(
                f"GEMM stack at {site}: output aliases input #{i} "
                f"(shape {arr.shape}); in-place accumulation through an "
                f"aliased operand corrupts later rows of the batch"
            )


def check_escape(result: np.ndarray, pool, context: str) -> None:
    """Raise :class:`BufferEscapeError` if ``result`` aliases ``pool``.

    Called on values returned across an apply boundary; anything backed
    by pool storage will be silently overwritten by the next apply.
    """
    for buf in pool.allocations():
        if np.may_share_memory(result, buf):
            raise BufferEscapeError(
                f"{context}: result aliases BufferPool scratch memory; "
                f"it will be overwritten by the next apply()"
            )
