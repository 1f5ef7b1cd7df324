"""The step list's run-time contract: a step touches what it declared.

``run_steps`` hands each step a :class:`StepBuffers` that resolves only
the buffer families of the step's declared reads and writes.  That is
the enforcement the plan verifier relies on — it certifies the
declarations, every apply checks the code against them.
"""

import numpy as np
import pytest

from repro.core.evaluator import PlanStages
from repro.core.fmm import FMMOptions, KIFMM
from repro.core.plan import BufferPool
from repro.core.steps import (
    Step,
    StepList,
    UndeclaredBufferError,
    run_steps,
)
from repro.kernels import LaplaceKernel
from repro.util.flops import FlopCounter
from repro.util.timing import PhaseTimer


def _run(step, live):
    flops, timer = FlopCounter(), PhaseTimer()
    run_steps(
        StepList([step], {}, frozenset()), live, BufferPool(), 2, flops, timer
    )
    return flops, timer


def test_undeclared_read_is_a_named_error():
    step = Step(
        "l2l@2", "eval", lambda b: b["ue"], reads=("de@1",), writes=("dc@2",)
    )
    live = {"ue": np.zeros(3), "de": np.zeros(3), "dc": np.zeros(3)}
    with pytest.raises(UndeclaredBufferError, match=r"'l2l@2' reads .*'ue'"):
        _run(step, live)


def test_undeclared_write_is_a_named_error():
    def run(b):
        b.scratch("check", lambda: np.zeros(3))

    step = Step("m2m@1", "up", run, reads=("ue@2",), writes=("ue@1",))
    with pytest.raises(UndeclaredBufferError, match=r"'m2m@1' writes .*'check'"):
        _run(step, {"ue": np.zeros(3)})


def test_a_family_declared_read_only_cannot_be_written():
    def run(b):
        b["dc"][0] += b["de"][0]  # fine: dc is a declared write
        b["de"][0] = 1.0          # de is only read

    step = Step("l2l@2", "eval", run, reads=("de@1",), writes=("dc@2",))
    live = {"de": np.ones(3), "dc": np.zeros(3)}
    with pytest.raises(ValueError, match="read-only"):
        _run(step, live)
    assert live["dc"][0] == 1.0 and live["de"][0] == 1.0


def test_loop_times_charges_and_releases_what_the_step_declared():
    def make(b):
        b.scratch("check", lambda: np.ones(2))[:] += b["phi"]

    def use(b):
        b["ue"][:] = b["check"]

    live = {"phi": np.ones(2), "ue": np.zeros(2)}
    steps = [
        Step("s2m@1", "up", make, reads=("phi",), writes=("check@1",),
             flops=3.0),
        Step("uc2ue@1", "up", use, reads=("check@1",), writes=("ue@1",),
             releases=("check@1",), flops=lambda: 4.0),
    ]
    flops, timer = FlopCounter(), PhaseTimer()
    run_steps(
        StepList(steps, {}, frozenset()), live, BufferPool(), 2, flops, timer
    )
    assert live["ue"].tolist() == [2.0, 2.0]
    assert "check@1" not in live  # released regions leave the live set
    assert flops.by_phase() == {"up": 14.0}  # (3 + 4) per RHS x 2 RHS
    assert timer.get("up") > 0.0


def test_real_apply_fails_when_a_stage_outgrows_its_declaration(monkeypatch):
    """Drop one declared read from a compiled apply: the stage that
    still performs it is stopped by name on the first apply."""
    compile_ = PlanStages.compile

    def undeclare(self, *args, **kwargs):
        program = compile_(self, *args, **kwargs)
        x = next(s for s in program.steps if s.name.startswith("m2m@"))
        x.reads = ()
        return program

    monkeypatch.setattr(PlanStages, "compile", undeclare)
    rng = np.random.default_rng(5)
    fmm = KIFMM(LaplaceKernel(), FMMOptions(p=3, max_points=20))
    fmm.setup(rng.random((400, 3)))
    with pytest.raises(UndeclaredBufferError, match=r"'m2m@\d+' reads .*'ue'"):
        fmm.apply(rng.standard_normal(400))
