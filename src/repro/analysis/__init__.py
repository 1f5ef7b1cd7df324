"""Static and runtime correctness analysis.

See ``docs/architecture.md`` § "Analysis & correctness tooling" and
§ "Messages are values & sanitizers".  Nothing here records an
execution: the runtime itself names a dropped message
(``MailboxLeakError``) and a stuck receive (``TimeoutError`` with rank,
peer and tag) on every run, and a message is a value on both worlds, so
ranks share no array the exchange touches
(``tests/parallel/test_simmpi.py::TestMessagesAreValues``).

- :mod:`repro.analysis.sanitize` — the ``REPRO_SANITIZE=1`` runtime
  sanitizers (BufferPool lifecycle with NaN poisoning, phase-boundary
  finite checks, GEMM aliasing guards).
- :mod:`repro.analysis.lint` — an ``ast``-based lint of repo invariants
  (flop accounting, thread confinement, dtype width, buffer-pool
  escapes, mutable defaults, request completion, message tags)
  run as ``python -m repro.analysis.lint src/``.
- :mod:`repro.analysis.planir` / :mod:`repro.analysis.plancheck` — the
  static plan verifier (``repro plancheck``): the step list the
  drivers run, copied into a dataflow IR and certified without running
  an apply —
  buffer liveness, dtype-flow with explicit-narrowing enforcement,
  overlap-schedule happens-before consistency, and an exact flop-budget
  identity against the performance model, plus seeded-defect self-tests.
- :mod:`repro.analysis.commir` / :mod:`repro.analysis.commcheck_static`
  — the static *communication* verifier (``repro commir``): the
  complete message schedule extracted from the plan inputs as a CommIR
  for arbitrary rank counts (P=4096 included) and certified without
  executing an apply — send/recv matching, tag discipline,
  deadlock-freedom under *every* interleaving (one greedy run decides
  them all: no op ever disables another), payload conservation against
  the box roles, and conformance: the programs a real setup left on
  every rank are the IR's, op for op.
"""

from repro.analysis.sanitize import SanitizerError

# The plan-verifier modules import the evaluation core, whose modules in
# turn import this package (for the runtime sanitizers) — so their names
# resolve lazily (PEP 562) to keep the import graph acyclic.
_PLAN_EXPORTS = {
    "PlanIR": "planir",
    "extract_rank_ir": "planir",
    "PlanReport": "plancheck",
    "certify_parallel": "plancheck",
    "run_checks": "plancheck",
    "run_selftests": "plancheck",
    "CommIR": "commir",
    "CommOp": "commir",
    "extract_comm_ir": "commir",
    "static_plan_inputs": "commir",
    "StaticCommReport": "commcheck_static",
}


def __getattr__(name: str):
    if name in _PLAN_EXPORTS:
        import importlib

        mod = importlib.import_module(
            f"repro.analysis.{_PLAN_EXPORTS[name]}"
        )
        return getattr(mod, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "CommIR",
    "CommOp",
    "StaticCommReport",
    "PlanIR",
    "PlanReport",
    "SanitizerError",
    "certify_parallel",
    "extract_comm_ir",
    "extract_rank_ir",
    "static_plan_inputs",
    "run_checks",
    "run_selftests",
]
