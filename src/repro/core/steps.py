"""The step list: one description of an apply that is both run and certified.

An apply is compiled into an ordered list of :class:`Step` objects
(:meth:`repro.core.evaluator.PlanStages.compile`).  Each step declares
the buffer *regions* it reads, writes and releases, its flop count per
right-hand side and the dtype of what it writes, and carries the
``run`` callable that performs it.  :func:`run_steps` executes the list;
:mod:`repro.analysis.planir` copies the same declarations into the IR
that ``repro plancheck`` certifies.  There is no second description to
keep in step.

Regions are level-granular slices of the apply-time buffers, named
``family@level`` (``"ue@3"``, ``"dc@2"``) or ``family:split``
for the parts the exchange delivers (``"ue:own"``, ``"phi:ghost"``).
A step's ``run`` receives a :class:`StepBuffers` holding only the
*families* it declared, so a stage that touches anything else fails on
the first apply that reaches it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import sanitize as _san

#: What each persistent family holds, the entity its box/point axis
#: indexes, and that axis — for the sanitizer's phase-boundary reports.
_FINITE_CHECKS = {
    "ue": ("upward equivalent densities", "boxes", 0),
    "dc": ("downward check potentials", "boxes", 1),
    "de": ("downward equivalent densities", "boxes", 1),
    "phi": ("combined own + ghost source densities", "points", 0),
    "pot": ("potentials", "targets", 1),
}


@dataclass(frozen=True)
class BufferSpec:
    """Shape and dtype of one buffer region (rows, row width)."""

    name: str
    shape: tuple[int, ...]
    dtype: str


def region_family(region: str) -> str:
    """Base buffer family of a region (``"ue:own"``/``"ue@3"`` → ``"ue"``)."""
    return region.split("@", 1)[0].split(":", 1)[0]


class UndeclaredBufferError(LookupError):
    """A step touched a buffer family missing from its declaration."""


@dataclass
class Step:
    """One stage instance of a compiled apply.

    ``kind`` is ``"compute"``, or ``"post"`` / ``"relay"`` / ``"wait"``
    for the steps of an exchange (those time themselves and carry no
    flops).  ``stage`` names the :class:`PlanStages` method or exchange
    call behind ``run``.  ``flops`` is per right-hand side; a callable
    is evaluated after the step ran (rsvd ranks are only known once the
    factors exist, and compiling must not build operators).
    ``operators`` asks the caches for every operator ``run`` reads: a
    setup calls it, so that no apply builds one.  A step whose output is
    of lower precision than its inputs sets ``narrowing`` — the declared
    mixed-precision mode.
    """

    name: str
    phase: str
    run: Callable[["StepBuffers"], None] = field(repr=False)
    kind: str = "compute"
    stage: str | None = None
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    releases: tuple[str, ...] = ()
    flops: float | Callable[[], float] = 0.0
    operators: Callable[[], object] | None = field(default=None, repr=False)
    dtype: str = "float64"
    narrowing: bool = False

    def flops_per_rhs(self) -> float:
        return float(self.flops() if callable(self.flops) else self.flops)


@dataclass
class StepList:
    """A compiled apply: the steps, every region's shape, the live-outs.

    ``live_out`` are regions legitimately written but never read (the
    output potential).
    """

    steps: list[Step]
    buffers: dict[str, BufferSpec]
    live_out: frozenset[str]


class StepBuffers:
    """The buffer families one step declared — nothing else resolves.

    ``bufs[family]`` is the live array: writable iff the step declared a
    write of that family, a read-only view otherwise.  Scratch a step
    creates (``check``) lives under the region the step
    declared written, from :meth:`scratch` until a step declares the
    region released.
    """

    def __init__(self, step: Step, live: dict, nrhs: int) -> None:
        self.nrhs = nrhs
        self._step = step
        self._live = live
        self._written = {region_family(w): w for w in step.writes}
        self._declared = {region_family(r): r for r in step.reads}
        self._declared.update(self._written)

    def _undeclared(self, family: str, access: str) -> UndeclaredBufferError:
        return UndeclaredBufferError(
            f"step {self._step.name!r} {access} buffer family {family!r} "
            f"but declares reads={self._step.reads} "
            f"writes={self._step.writes}"
        )

    def __getitem__(self, family: str):
        region = self._declared.get(family)
        if region is None:
            raise self._undeclared(family, "reads")
        value = self._live[region if region in self._live else family]
        if family not in self._written and isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
        return value

    def scratch(self, family: str, make: Callable[[], object]):
        """The declared-written scratch region of ``family``, made once."""
        region = self._written.get(family)
        if region is None:
            raise self._undeclared(family, "writes")
        if region not in self._live:
            self._live[region] = make()
        return self._live[region]


def run_steps(
    program: StepList, live: dict, pool, nrhs: int, flops, timer
) -> None:
    """Execute a compiled apply over the ``live`` buffer families.

    Compute steps run under ``timer.phase(step.phase)`` and charge
    ``step.flops × nrhs`` to that phase; every step sees only the
    families it declared, and the regions it declares released leave
    ``live`` (poisoned when the pool is sanitizing).  Sanitized runs
    also check, wherever the phase changes, that what the phase's
    compute steps and completed receives wrote is finite.
    """
    steps = program.steps
    wrote: set[str] = set()
    for i, step in enumerate(steps):
        bufs = StepBuffers(step, live, nrhs)
        if step.kind == "compute":
            with timer.phase(step.phase):
                step.run(bufs)
            flops.add(step.phase, step.flops_per_rhs() * nrhs)
        else:
            step.run(bufs)
        for region in step.releases:
            live.pop(region, None)
            pool.release(region_family(region))
        if not pool.sanitize:
            continue
        if step.kind in ("compute", "wait"):
            wrote.update(region_family(w) for w in step.writes)
        if i + 1 == len(steps) or steps[i + 1].phase != step.phase:
            for family in sorted(wrote & _FINITE_CHECKS.keys()):
                what, rows_are, axis = _FINITE_CHECKS[family]
                _san.check_finite(
                    np.moveaxis(live[family], axis, 0),
                    step.phase, what, rows_are=rows_are,
                )
            wrote.clear()
