"""Flop accounting.

The paper reports aggregate Gflop/s rates per phase of the interaction
computation (Tables 4.1–4.3).  We track floating-point work analytically:
every phase of the evaluator reports how many kernel pair-evaluations
and matrix-vector products it performed, and the counter converts
those to flops using the kernel's per-pair cost.
"""

from __future__ import annotations

from collections import defaultdict


class FlopCounter:
    """Accumulates flop counts keyed by phase name.

    Phases used by the evaluator mirror the paper's Figure 4.2 legend:
    ``up`` (S2M + M2M), ``down_u`` (dense near interactions), ``down_v``
    (M2L), ``down_w``, ``down_x``, and ``eval`` (L2L + L2T).
    """

    def __init__(self) -> None:
        self._flops: dict[str, float] = defaultdict(float)

    def add(self, phase: str, flops: float) -> None:
        """Accumulate ``flops`` floating point operations in ``phase``."""
        if flops < 0:
            raise ValueError(f"negative flop count for phase {phase!r}: {flops}")
        self._flops[phase] += flops

    def add_pairs(self, phase: str, npairs: float, flops_per_pair: float) -> None:
        """Accumulate work for ``npairs`` kernel pair evaluations."""
        self.add(phase, npairs * flops_per_pair)

    def get(self, phase: str) -> float:
        return self._flops.get(phase, 0.0)

    @property
    def total(self) -> float:
        return sum(self._flops.values())

    def by_phase(self) -> dict[str, float]:
        """Snapshot of per-phase flop counts."""
        return dict(self._flops)

    def merge(self, other: "FlopCounter") -> None:
        for phase, flops in other._flops.items():
            self._flops[phase] += flops

    def reset(self) -> None:
        self._flops.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.3g}" for k, v in sorted(self._flops.items()))
        return f"FlopCounter({parts})"
