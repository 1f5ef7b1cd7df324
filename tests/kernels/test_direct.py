"""Direct summation baseline and error metric tests."""

import numpy as np
import pytest

from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.direct import direct_evaluate, relative_error
from repro.util.flops import FlopCounter

from tests.conftest import traced_peak


class TestDirectEvaluate:
    def test_matches_manual_loop(self, rng):
        kern = LaplaceKernel()
        x = rng.standard_normal((8, 3))
        y = rng.standard_normal((6, 3))
        phi = rng.standard_normal(6)
        expected = np.zeros(8)
        for i in range(8):
            for j in range(6):
                r = np.linalg.norm(x[i] - y[j])
                expected[i] += phi[j] / (4 * np.pi * r)
        u = direct_evaluate(kern, x, y, phi)
        assert np.allclose(u.ravel(), expected)

    def test_self_interaction_excluded(self, rng):
        kern = LaplaceKernel()
        pts = rng.standard_normal((5, 3))
        phi = np.ones(5)
        u = direct_evaluate(kern, pts, pts, phi)
        assert np.all(np.isfinite(u))

    def test_block_size_invariance(self, rng, kernel):
        pts = rng.standard_normal((30, 3))
        phi = rng.standard_normal((30, kernel.source_dof))
        a = direct_evaluate(kernel, pts, pts, phi, block=7)
        b = direct_evaluate(kernel, pts, pts, phi, block=1000)
        assert np.allclose(a, b)

    def test_sources_are_tiled_too(self, rng):
        """The benchmark oracle's shape: 256 targets against 50 000 sources.

        Untiled that is a 100 MB matrix plus its temporaries (627 MB
        traced at the parent commit); tiled, a few MB.
        """
        kern = LaplaceKernel()
        pts = rng.uniform(-1.0, 1.0, (50_000, 3))
        phi = rng.standard_normal(50_000)
        peak, u = traced_peak(lambda: direct_evaluate(kern, pts[:256], pts, phi))
        assert peak < 64e6
        untiled = kern.matrix(pts[:256], pts) @ phi
        assert relative_error(u, untiled) < 1e-13

    def test_linearity(self, rng, kernel):
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal((12, 3))
        p1 = rng.standard_normal((12, kernel.source_dof))
        p2 = rng.standard_normal((12, kernel.source_dof))
        u12 = direct_evaluate(kernel, x, y, p1 + 2 * p2)
        u1 = direct_evaluate(kernel, x, y, p1)
        u2 = direct_evaluate(kernel, x, y, p2)
        assert np.allclose(u12, u1 + 2 * u2)

    def test_flop_accounting(self, rng):
        kern = StokesKernel()
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal((20, 3))
        flops = FlopCounter()
        direct_evaluate(kern, x, y, rng.standard_normal((20, 3)), flops=flops)
        assert flops.get("direct") == 10 * 20 * kern.flops_per_pair

    def test_output_shape(self, rng):
        kern = StokesKernel()
        u = direct_evaluate(
            kern, rng.standard_normal((4, 3)), rng.standard_normal((6, 3)),
            rng.standard_normal((6, 3)),
        )
        assert u.shape == (4, 3)


class TestRelativeError:
    def test_zero_for_identical(self, rng):
        v = rng.standard_normal(20)
        assert relative_error(v, v) == 0.0

    def test_known_value(self):
        assert relative_error([1.1], [1.0]) == pytest.approx(0.1)

    def test_zero_reference_falls_back_to_absolute(self):
        assert relative_error([0.5], [0.0]) == pytest.approx(0.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros(3), np.zeros(4))

    def test_scale_invariance(self, rng):
        a = rng.standard_normal(10)
        b = rng.standard_normal(10)
        assert relative_error(a, b) == pytest.approx(
            relative_error(1e6 * a, 1e6 * b)
        )
