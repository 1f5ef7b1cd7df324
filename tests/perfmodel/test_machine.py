"""Machine model tests."""

import pytest

from repro.perfmodel.machine import TCS1, MachineModel


class TestMachineModel:
    def test_tcs1_constants(self):
        assert TCS1.clock_hz == 1.0e9
        # the paper's observation: M2L is the slowest phase (~300 Mflops/s)
        assert TCS1.phase_rates["down_v"] == min(TCS1.phase_rates.values())

    def test_message_time(self):
        m = MachineModel(latency=1e-5, bandwidth=1e8)
        assert m.message_time(1e8) == pytest.approx(1.0 + 1e-5)
        assert m.message_time(0, nmessages=10) == pytest.approx(1e-4)

    def test_allreduce_time(self):
        m = MachineModel(latency=1e-6, bandwidth=1e9)
        assert m.allreduce_time(1000, 1) == 0.0
        t2 = m.allreduce_time(1000, 2)
        t16 = m.allreduce_time(1000, 16)
        assert t16 == pytest.approx(4 * t2)

    def test_kernel_rate_factors(self):
        assert TCS1.rate("up", "stokes") > TCS1.rate("up", "laplace")
        assert TCS1.rate("up") == TCS1.phase_rates["up"]
        assert TCS1.rate("up", "unknown_kernel") == TCS1.phase_rates["up"]

    def test_unknown_phase_raises(self):
        with pytest.raises(KeyError):
            TCS1.rate("warp_drive")

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel(clock_hz=0)
        with pytest.raises(ValueError):
            MachineModel(bandwidth=-1)
        with pytest.raises(ValueError):
            MachineModel(phase_rates={"up": 0.0})
