"""The micro-batching evaluation service.

A serving scenario evaluates the same persistent operator for many
independent densities arriving at unpredictable times.  Applying them
one by one pays the per-apply overhead (step-list compile, buffer
setup, Python dispatch per step) once per request; a multi-RHS block
pays it once per batch.  That is all a block saves: to keep every
column bit for bit the single-RHS apply, the stages loop over the
columns with the single-RHS shapes, so the arithmetic runs at the same
intensity either way (``core.evaluator.nrhs8_speedup`` reads ~1 on
``serve_poisson``).  The service bridges the two: requests enqueue per
operator, a per-operator batcher drains up to ``max_batch`` requests —
waiting at most ``max_delay`` seconds after the first — and issues ONE
blocked apply whose columns answer the individual requests.

Everything is single-threaded asyncio: the apply itself runs inline on
the event loop (the repo's thread-confinement invariant bans worker
threads outside the simulated MPI), so batching wins by amortising the
per-apply overhead across the batch, not by parallelism.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels.base import Kernel

_SHUTDOWN = object()


def percentile_summary(latencies: list[float]) -> dict[str, float]:
    """p50/p95/p99 of a latency sample, in the sample's units."""
    if not latencies:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    arr = np.asarray(latencies, dtype=np.float64)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


class OperatorRegistry:
    """Shared persistent operators keyed ``(kernel, level, p)``.

    One setup per geometry; every request against the same key reuses
    the operator's tree, plan and precomputed translation operators.
    Keys collide only for identical (kernel name, tree depth, surface
    order) triples — registering a second geometry under an existing
    key replaces the operator (the key identifies the operator class a
    request wants, not a particular point set).
    """

    def __init__(self) -> None:
        self._ops: dict[tuple[str, int, int], KIFMM] = {}

    def register(
        self,
        kernel: Kernel,
        points: np.ndarray,
        options: FMMOptions | None = None,
    ) -> tuple[str, int, int]:
        opts = options or FMMOptions()
        op = KIFMM(kernel, opts).setup(np.asarray(points, dtype=np.float64))
        key = (kernel.name, op.tree.depth, opts.p)
        self._ops[key] = op
        return key

    def get(self, key: tuple[str, int, int]) -> KIFMM:
        try:
            return self._ops[key]
        except KeyError:
            raise KeyError(
                f"no operator registered under {key!r}; known keys: "
                f"{sorted(self._ops)}"
            ) from None

    def keys(self) -> list[tuple[str, int, int]]:
        return sorted(self._ops)


@dataclass
class ServiceStats:
    """Per-service counters and the raw latency sample."""

    requests: int = 0
    completed: int = 0
    dropped: int = 0
    batches: int = 0
    batched_requests: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def mean_batch(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0


class EvaluationService:
    """Asyncio front door: single-density requests, blocked applies.

    Parameters
    ----------
    registry:
        The shared operators requests address by key.
    max_batch:
        Largest number of requests folded into one multi-RHS apply.
    max_delay:
        Seconds the batcher waits for followers after the first request
        of a batch (the latency the first requester donates to let the
        batch fill).
    """

    def __init__(
        self,
        registry: OperatorRegistry,
        max_batch: int = 8,
        max_delay: float = 0.002,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0.0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.registry = registry
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.stats = ServiceStats()
        self._queues: dict[tuple[str, int, int], asyncio.Queue] = {}
        self._workers: dict[tuple[str, int, int], asyncio.Task] = {}
        self._running = False

    async def start(self) -> "EvaluationService":
        """Spawn one batcher task per registered operator."""
        if self._running:
            return self
        self._running = True
        for key in self.registry.keys():
            queue: asyncio.Queue = asyncio.Queue()
            self._queues[key] = queue
            self._workers[key] = asyncio.ensure_future(
                self._batcher(key, queue)
            )
        return self

    async def stop(self) -> None:
        """Drain the queues and retire the batcher tasks."""
        if not self._running:
            return
        self._running = False
        for queue in self._queues.values():
            await queue.put(_SHUTDOWN)
        for task in self._workers.values():
            await task
        self._queues.clear()
        self._workers.clear()

    async def evaluate(
        self, key: tuple[str, int, int], density: np.ndarray
    ) -> np.ndarray:
        """Evaluate one density; resolves when its batch completes."""
        if not self._running:
            raise RuntimeError("EvaluationService.evaluate before start()")
        queue = self._queues[key]
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self.stats.requests += 1
        t0 = loop.time()
        await queue.put((np.asarray(density, dtype=np.float64), future, t0))
        result = await future
        self.stats.latencies.append(loop.time() - t0)
        self.stats.completed += 1
        return result

    async def _collect(
        self, queue: asyncio.Queue, first
    ) -> tuple[list, bool]:
        """One batch: the first request plus followers within the policy."""
        batch = [first]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_delay
        while len(batch) < self.max_batch:
            remaining = deadline - loop.time()
            if remaining <= 0.0:
                if queue.empty():
                    break
                item = queue.get_nowait()
            else:
                try:
                    item = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if item is _SHUTDOWN:
                return batch, True
            batch.append(item)
        return batch, False

    def _apply_batch(self, key: tuple[str, int, int], batch: list) -> None:
        """One blocked apply; its columns resolve the batch's futures."""
        op = self.registry.get(key)
        self.stats.batches += 1
        self.stats.batched_requests += len(batch)
        dof = op.kernel.source_dof
        n = op.tree.sources.shape[0]
        try:
            if len(batch) == 1:
                density, future, _ = batch[0]
                out = op.apply(density.reshape(n, dof))
                if not future.cancelled():
                    future.set_result(out)
                return
            block = np.stack(
                [d.reshape(n, dof) for d, _, _ in batch], axis=2
            )
            out = op.apply(block)
            for r, (_, future, _) in enumerate(batch):
                if not future.cancelled():
                    future.set_result(np.ascontiguousarray(out[:, :, r]))
        except Exception as exc:  # surface the failure on every waiter
            self.stats.dropped += len(batch)
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)

    async def _batcher(
        self, key: tuple[str, int, int], queue: asyncio.Queue
    ) -> None:
        while True:
            first = await queue.get()
            if first is _SHUTDOWN:
                return
            batch, shutdown = await self._collect(queue, first)
            self._apply_batch(key, batch)
            if shutdown:
                return
            # With max_delay=0.0 and a non-empty queue, neither
            # _collect (get_nowait) nor queue.get (items ready) ever
            # suspends, so without an explicit yield this worker would
            # monopolise the event loop: resolved futures' waiters and
            # new producers would starve until the queue drained.
            await asyncio.sleep(0)
