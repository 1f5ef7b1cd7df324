"""Machine model calibrated to the paper's TCS-1 AlphaServer.

Calibration sources (all from the paper):

- 1 GHz EV-68 processors ("Each node is equipped with four Alpha EV-68
  processors at 1 GHz");
- per-phase sustained flop rates: "M2L computations run at about 300
  Mflops/s, while all other parts run at about 400+ Mflops/s"
  (Figure 4.3 caption); per-processor rates in Figures 4.2/4.3 plateau
  near 300-480 Mflops/s;
- interconnect: "over 500 MB/s of message-passing bandwidth per node"
  (four processes per node share it) and a few microseconds of latency,
  typical for Quadrics QsNet;
- tree construction: 13.97 s for 3.2M particles on one processor
  (Table 4.1) gives ~4.4 us/particle of local work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math


@dataclass
class MachineModel:
    """Time conversion constants for the performance simulation."""

    clock_hz: float = 1.0e9
    #: sustained flop rate per processor, per interaction phase (flops/s)
    phase_rates: dict[str, float] = field(
        default_factory=lambda: {
            "up": 4.0e8,
            "down_u": 4.5e8,
            "down_v": 3.0e8,  # the paper's "M2L ... about 300 Mflops/s"
            "down_w": 4.0e8,
            "down_x": 4.0e8,
            "eval": 4.2e8,
        }
    )
    #: point-to-point message latency (s) and per-process bandwidth (B/s)
    latency: float = 6.0e-6
    bandwidth: float = 1.25e8  # 500 MB/s per 4-process node
    #: local tree-construction work per particle (s)
    tree_local_per_particle: float = 4.4e-6
    #: bytes per global-tree-array entry (count + child indices)
    tree_entry_bytes: int = 16
    #: fraction of the owned-data near-field/V/W compute window usable to
    #: hide the receive wait (the persistent apply overlaps the in-flight
    #: equivalent-density exchange with owned-data work; the hidden time
    #: is min(wait, overlap_fraction * that window))
    overlap_fraction: float = 0.5
    #: per-kernel flop-rate factors: the paper observes higher sustained
    #: rates for the arithmetically denser Stokes kernel ("we get better
    #: performance for the Stokes kernel") and ~280 Mflops/s average for
    #: the scalar kernels at P=1 (Tables 4.1/4.2).
    kernel_rate_factors: dict[str, float] = field(
        default_factory=lambda: {
            "laplace": 0.75,
            "modified_laplace": 0.75,
            "stokes": 1.15,
            "navier": 1.10,
        }
    )

    def __post_init__(self) -> None:
        if self.clock_hz <= 0 or self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("machine constants must be positive")
        for phase, rate in self.phase_rates.items():
            if rate <= 0:
                raise ValueError(f"rate for phase {phase!r} must be positive")

    def rate(self, phase: str, kernel_name: str | None = None) -> float:
        try:
            base = self.phase_rates[phase]
        except KeyError:
            raise KeyError(f"no rate calibrated for phase {phase!r}") from None
        if kernel_name is None:
            return base
        return base * self.kernel_rate_factors.get(kernel_name, 1.0)

    def message_time(self, nbytes: float, nmessages: float = 1.0) -> float:
        """Latency-bandwidth cost of point-to-point traffic."""
        return nmessages * self.latency + nbytes / self.bandwidth

    def allreduce_time(self, nbytes: float, nprocs: int) -> float:
        """Tree-based Allreduce: log2(P) latency-bandwidth rounds."""
        if nprocs <= 1:
            return 0.0
        rounds = math.ceil(math.log2(nprocs))
        return rounds * (self.latency + nbytes / self.bandwidth)


#: The paper's platform.
TCS1 = MachineModel()
