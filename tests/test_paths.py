"""Tests for increment generation, Euler simulation, and exit handling."""

import io

import numpy as np
import pytest

from parabolica.errors import (
    ConfigError,
    DimensionMismatch,
    DomainIsWholeSpace,
    NonFinite,
)
from parabolica.model import Box, ProblemSpec, catalog_get
from parabolica.paths import (
    PathBatch,
    TimeGrid,
    brownian_increments,
    encode_batch,
    euler_simulate,
    exit_time_stats,
    load_batch,
)

# Reference exit fraction for |W| leaving (-1, 1) before t = 1 observed
# on a 256-step grid, measured once from 10^7 paths (100 independent
# 10^5-path chunks); the sampling error of the reference is ~5e-4.
EXIT_FRACTION_REF = 0.595055


def drifting_spec(mu_value=0.0, sigma_value=1.0, domain=None):
    return ProblemSpec(
        dim=1,
        horizon=1.0,
        mu=lambda x: np.full_like(x, mu_value),
        sigma=lambda x: np.full((len(x), 1, 1), sigma_value),
        f=lambda t, x, y, z, gamma: np.zeros(len(x)),
        g=lambda x: x[:, 0],
        domain=domain,
    )


class TestTimeGrid:
    def test_nodes_and_spacing(self):
        grid = TimeGrid(0.5, 2.5, 4)
        assert grid.dt == 0.5
        np.testing.assert_array_equal(grid.times, [0.5, 1.0, 1.5, 2.0, 2.5])

    def test_endpoints_exact_for_awkward_n(self):
        grid = TimeGrid(0.0, 1.0, 7)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 1.0
        assert len(grid.times) == 8

    def test_invalid_grids(self):
        with pytest.raises(ConfigError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 1.0, 4)


class TestIncrements:
    def test_repeat_call_is_bit_identical(self):
        grid = TimeGrid(0.0, 1.0, 1)
        a = brownian_increments(grid, 1, 1, seed=42)
        b = brownian_increments(grid, 1, 1, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        grid = TimeGrid(0.0, 1.0, 4)
        a = brownian_increments(grid, 10, 1, seed=0)
        b = brownian_increments(grid, 10, 1, seed=1)
        assert not np.array_equal(a, b)

    def test_thread_count_does_not_change_bits(self):
        grid = TimeGrid(0.0, 1.0, 16)
        base = brownian_increments(grid, 403, 2, seed=9, threads=1)
        for threads in (2, 8):
            other = brownian_increments(grid, 403, 2, seed=9, threads=threads)
            np.testing.assert_array_equal(base, other)

    def test_prefix_property(self):
        # The first paths of a larger batch are the smaller batch: the
        # stream is keyed on absolute path index, not call shape.
        grid = TimeGrid(0.0, 1.0, 8)
        small = brownian_increments(grid, 50, 1, seed=3)
        large = brownian_increments(grid, 100, 1, seed=3)
        np.testing.assert_array_equal(small, large[:50])

    def test_variance_window(self):
        grid = TimeGrid(0.0, 1.0, 1)
        dw = brownian_increments(grid, 100_000, 1, seed=42)
        assert 0.99 <= dw.var(ddof=1) <= 1.01

    def test_mean_bound(self):
        grid = TimeGrid(0.0, 1.0, 8)
        dw = brownian_increments(grid, 10_000, 1, seed=7)
        assert abs(dw.mean()) <= 5 * np.sqrt(grid.dt / (10_000 * 8))

    def test_variance_scales_with_dt(self):
        grid = TimeGrid(0.0, 0.25, 4)  # dt = 1/16
        dw = brownian_increments(grid, 50_000, 1, seed=5)
        assert dw.var(ddof=1) == pytest.approx(1 / 16, rel=0.03)

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            brownian_increments(TimeGrid(0.0, 1.0, 2), 0, 1, seed=0)


class TestEuler:
    def test_zero_dynamics_is_constant(self):
        spec = drifting_spec(mu_value=0.0, sigma_value=0.0)
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 5), [7.0], 11, seed=0)
        assert np.all(batch.X == 7.0)

    def test_pure_drift_is_exact(self):
        spec = drifting_spec(mu_value=1.0, sigma_value=0.0)
        batch = euler_simulate(spec, TimeGrid(0.0, 2.0, 8), [1.5], 3, seed=0)
        # dt = 0.25 is a dyadic rational: eight exact additions
        assert np.all(batch.X[:, -1, 0] == 3.5)

    def test_initial_condition_and_shapes(self):
        spec = catalog_get("gbm_linear")
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 6), [1.0], 13, seed=4)
        assert batch.X.shape == (13, 7, 1)
        assert batch.dW.shape == (13, 6, 1)
        assert np.all(batch.X[:, 0, 0] == 1.0)
        assert np.all(batch.stop_index == 6)

    def test_determinism_across_threads(self):
        spec = catalog_get("gbm_linear")
        grid = TimeGrid(0.0, 1.0, 10)
        base = euler_simulate(spec, grid, [1.0], 101, seed=12, threads=1)
        other = euler_simulate(spec, grid, [1.0], 101, seed=12, threads=8)
        np.testing.assert_array_equal(base.X, other.X)
        np.testing.assert_array_equal(base.dW, other.dW)

    def test_strong_convergence_to_exact_lognormal(self):
        # Euler against the exact solution driven by the same Brownian
        # path; the strong error should shrink like ~N^(-1/2).
        spec = catalog_get("gbm_linear")
        errs = []
        Ns = [16, 32, 64, 128]
        for N in Ns:
            batch = euler_simulate(spec, TimeGrid(0.0, 1.0, N), [1.0], 30_000, seed=7)
            w_T = batch.dW[:, :, 0].sum(axis=1)
            exact = np.exp((0.05 - 0.5 * 0.2**2) + 0.2 * w_T)
            errs.append(np.mean(np.abs(batch.X[:, -1, 0] - exact)))
        slope = np.polyfit(np.log2(Ns), np.log2(errs), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_wrong_x0_length(self):
        with pytest.raises(DimensionMismatch):
            euler_simulate(catalog_get("heat"), TimeGrid(0.0, 1.0, 2), [0.0, 0.0], 5, seed=0)

    def test_blowup_raises_with_location(self):
        spec = ProblemSpec(
            dim=1, horizon=1.0,
            mu=lambda x: x**3,
            sigma=lambda x: np.zeros((len(x), 1, 1)),
            f=lambda t, x, y, z, gamma: np.zeros(len(x)),
            g=lambda x: x[:, 0],
        )
        with pytest.raises(NonFinite, match=r"path \d+, step \d+"):
            euler_simulate(spec, TimeGrid(0.0, 1.0, 8), [20.0], 2, seed=0)


class TestStopping:
    def test_frozen_after_exit(self):
        spec = drifting_spec(domain=Box(np.array([-1.0]), np.array([1.0])))
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 64), [0.0], 500, seed=11)
        stopped = np.flatnonzero(batch.stop_index < 64)
        assert stopped.size > 0
        for j in stopped[:20]:
            n = batch.stop_index[j]
            exit_value = batch.X[j, n, 0]
            assert abs(exit_value) >= 1.0
            assert np.all(batch.X[j, n:, 0] == exit_value)

    def test_start_outside_stops_immediately(self):
        spec = drifting_spec(domain=Box(np.array([-1.0]), np.array([1.0])))
        batch = euler_simulate(spec, TimeGrid(0.25, 1.0, 4), [1.5], 8, seed=0)
        stats = exit_time_stats(batch)
        assert stats["fraction_stopped"] == 1.0
        assert stats["mean_stop_time"] == 0.25
        assert np.all(batch.X == 1.5)

    def test_huge_box_never_stops(self):
        spec = drifting_spec(domain=Box(np.array([-1e9]), np.array([1e9])))
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 16), [0.0], 50, seed=1)
        stats = exit_time_stats(batch)
        assert stats["fraction_stopped"] == 0.0
        assert np.isnan(stats["mean_stop_time"])

    def test_exit_fraction_matches_reference(self):
        spec = drifting_spec(domain=Box(np.array([-1.0]), np.array([1.0])))
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 256), [0.0], 100_000, seed=7)
        stats = exit_time_stats(batch)
        assert stats["fraction_stopped"] == pytest.approx(EXIT_FRACTION_REF, abs=0.02)

    def test_whole_space_has_no_exit_stats(self):
        batch = euler_simulate(catalog_get("heat"), TimeGrid(0.0, 1.0, 4), [0.0], 10, seed=0)
        with pytest.raises(DomainIsWholeSpace):
            exit_time_stats(batch)

    def test_boundary_heat_catalog_stops_some_paths(self):
        spec = catalog_get("boundary_heat")
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 128), spec.x0_default, 2000, seed=3)
        stats = exit_time_stats(batch)
        assert 0.0 < stats["fraction_stopped"] < 1.0
        assert 0.0 < stats["mean_stop_time"] < 1.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = catalog_get("boundary_heat")
        batch = euler_simulate(spec, TimeGrid(0.25, 1.0, 6), [0.5], 17, seed=99)
        fname = tmp_path / "batch.bin"
        fname.write_bytes(encode_batch(batch))
        loaded = load_batch(str(fname))
        assert loaded.J == 17
        assert loaded.grid == TimeGrid(0.25, 1.0, 6)
        np.testing.assert_array_equal(loaded.dW, batch.dW)
        np.testing.assert_array_equal(loaded.X, batch.X)
        np.testing.assert_array_equal(loaded.stop_index, batch.stop_index)

    def test_rejects_foreign_file(self, tmp_path):
        fname = tmp_path / "junk.bin"
        fname.write_bytes(b"not a dump at all")
        with pytest.raises(ConfigError):
            load_batch(str(fname))

    def test_rejects_truncated_file(self, tmp_path):
        spec = catalog_get("heat")
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 4), [0.0], 5, seed=1)
        fname = tmp_path / "batch.bin"
        fname.write_bytes(encode_batch(batch)[:-16])
        with pytest.raises(ConfigError):
            load_batch(str(fname))

    @staticmethod
    def _records(*arrays) -> bytes:
        buf = io.BytesIO()
        for arr in arrays:
            np.save(buf, arr, allow_pickle=False)
        return buf.getvalue()

    def test_rejects_records_that_do_not_fit_together(self, tmp_path):
        batch = euler_simulate(catalog_get("heat"), TimeGrid(0.0, 1.0, 4), [0.0], 5, seed=1)
        times, X, dW, stop = batch.grid.times, batch.X, batch.dW, batch.stop_index
        fname = tmp_path / "batch.bin"
        for blob in (
            self._records(times, X, dW[:, :3], stop),       # one step short
            self._records(times, X, dW, stop[:4]),          # one path short
            self._records(times, X, dW, stop.astype(np.float64)),
            self._records(times, X, dW, stop, stop),        # a fifth record
            self._records(times, X, dW),                    # a missing record
            self._records(times ** 2, X, dW, stop),         # a non-uniform grid
            encode_batch(batch) + b"\0",
        ):
            fname.write_bytes(blob)
            with pytest.raises(ConfigError):
                load_batch(str(fname))

    @pytest.mark.parametrize("stop_value", [-3, 99])
    def test_rejects_a_stop_index_outside_the_grid(self, tmp_path, stop_value):
        batch = euler_simulate(catalog_get("heat"), TimeGrid(0.0, 1.0, 4), [0.0], 5, seed=1)
        stop = np.full(5, stop_value, dtype=np.int64)
        fname = tmp_path / "batch.bin"
        fname.write_bytes(self._records(batch.grid.times, batch.X, batch.dW, stop))
        with pytest.raises(ConfigError, match="stop_index"):
            load_batch(str(fname))

    @pytest.mark.parametrize("shape", [(10**12,), (-1,), (-2, -4)])
    def test_rejects_a_header_whose_stated_size_does_not_fit_the_file(self, tmp_path, shape):
        # 8 TB promised against 64 bytes present is rejected without
        # allocating; numpy's header reader lets negative extents through.
        buf = io.BytesIO()
        header = {"descr": "<f8", "fortran_order": False, "shape": shape}
        np.lib.format.write_array_header_1_0(buf, header)
        fname = tmp_path / "batch.bin"
        fname.write_bytes(buf.getvalue() + bytes(64))
        with pytest.raises(ConfigError, match="stated size"):
            load_batch(str(fname))
