"""Tests for the tests' log-log rate fitter."""

import numpy as np
import pytest

from parabolica import model
from parabolica.paths import TimeGrid, euler_simulate
from rate_fit import estimate_rate


class TestEstimateRate:
    def test_exact_linear_law(self):
        rate = estimate_rate([(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)])
        assert rate.slope == 1.0
        assert rate.half_width == 0.0

    def test_exact_square_root_law(self):
        h = np.array([1.0, 0.5, 0.25, 0.125])
        rate = estimate_rate(np.stack([h, np.sqrt(h)], axis=1))
        assert rate.slope == pytest.approx(0.5, rel=1e-12)
        assert rate.half_width <= 1e-12

    def test_euler_strong_error_rate(self):
        spec = model.catalog_get("gbm_linear")
        pairs = []
        for N in (16, 32, 64, 128):
            batch = euler_simulate(spec, TimeGrid(0.0, 1.0, N), [1.0], 20_000, seed=7)
            w_T = batch.dW[:, :, 0].sum(axis=1)
            exact = np.exp((0.05 - 0.5 * 0.2**2) + 0.2 * w_T)
            pairs.append((1.0 / N, float(np.mean(np.abs(batch.X[:, -1, 0] - exact)))))
        rate = estimate_rate(pairs)
        assert 0.35 <= rate.slope <= 0.65
        assert rate.half_width > 0.0

    def test_degenerate_inputs_are_rejected(self):
        with pytest.raises(ValueError):
            estimate_rate([(1.0, 1.0), (0.5, 0.5)])
        with pytest.raises(ValueError):
            estimate_rate([(1.0, 1.0), (0.5, -0.5), (0.25, 0.25)])
        with pytest.raises(ValueError):
            estimate_rate([(0.5, 1.0), (0.5, 0.5), (0.5, 0.25)])
        with pytest.raises(ValueError):
            estimate_rate([(1.0, np.nan), (0.5, 0.5), (0.25, 0.25)])
