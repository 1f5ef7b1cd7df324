"""Open-loop load driver for ``EvaluationService``.

Independent users do not wait for each other, so requests are sent on a
schedule fixed before the run, whatever the service is doing.  The
service applies its batches inline on the event loop, which also stalls
this generator; when it gets the loop back it submits every request that
has fallen due, without yielding in between, and each request is timed
from the instant it was *due*, so the stall is charged to the requests
it delayed.  How late the generator ran is reported next to the
latencies (``repro.serve.load.run_load`` sleeps between submissions on
the same loop and times from submission, which turns it into a closed
loop under load).
"""

from __future__ import annotations

import asyncio
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.serve.service import EvaluationService

from benchmarks.e2e.trace import Tracer


def stratified_gaps(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` exponential inter-arrival gaps at ``rate``, order seeded.

    The gaps are the ``n`` quantile mid-points of Exp(rate), shuffled by
    the seed: every seed offers the same load over the same duration
    with the same gap distribution, and only the order of bursts and
    lulls changes.  Independent draws would let the offered load itself
    wander by 1/sqrt(n) from seed to seed, which at two thirds
    utilisation moves the median latency by a fifth.
    """
    gaps = -np.log1p(-(np.arange(n) + 0.5) / n) / rate
    rng.shuffle(gaps)
    return gaps


@dataclass
class LoadResult:
    latency: list[float]  # seconds from due time; completed requests only
    late: list[float]  # submission instant minus due instant, per request
    wall: float  # first due instant to last completion
    backlog_end: int  # outstanding when the last request was submitted
    failed: int = 0
    responses: dict[int, np.ndarray] = field(default_factory=dict)


async def run_open_loop(
    service: EvaluationService,
    key: tuple[str, int, int],
    densities: np.ndarray,
    due: np.ndarray,
    tracer: Tracer,
    phase: str,
    keep: frozenset[int] = frozenset(),
) -> LoadResult:
    """Submit ``densities[i]`` at ``due[i]`` seconds; await every reply.

    ``keep`` names the request indices whose responses are returned for
    the oracle check.
    """
    loop = asyncio.get_running_loop()
    n = len(due)
    done: list[float | None] = [None] * n
    late: list[float] = []
    responses: dict[int, np.ndarray] = {}
    failed = 0

    with tracer.span(f"serve.service.{phase}") as phase_span:
        t0 = loop.time()

        async def one(i: int) -> None:
            nonlocal failed
            try:
                out = await service.evaluate(key, densities[i])
            except Exception:  # the service surfaces batch failures here
                traceback.print_exc(file=sys.stderr)
                failed += 1
                return
            end = loop.time()
            done[i] = float(end - (t0 + due[i]))
            if not np.isfinite(out).all():
                failed += 1
            if i in keep:
                responses[i] = out
            tracer.add(
                "serve.request.evaluate",
                phase_span.start + due[i], phase_span.start + (end - t0),
                phase_span.id,
            )

        tasks: list[asyncio.Task] = []
        i = 0
        while i < n:
            now = loop.time() - t0
            while i < n and due[i] <= now:
                late.append(float(now - due[i]))
                tasks.append(asyncio.ensure_future(one(i)))
                i += 1
            if i < n:
                await asyncio.sleep(max(0.0, due[i] - (loop.time() - t0)))
        backlog_end = sum(1 for d in done if d is None)
        await asyncio.gather(*tasks)
        wall = loop.time() - t0
    return LoadResult(
        latency=[d for d in done if d is not None],
        late=late, wall=wall, backlog_end=backlog_end,
        failed=failed, responses=responses,
    )
