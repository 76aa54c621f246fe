"""Tests for increment generation, Euler simulation, and exit handling."""

import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

from parabolica import paths
from parabolica.errors import (
    ConfigError,
    DimensionMismatch,
    NonFinite,
)
from parabolica.model import Box, ProblemSpec, catalog_get
from parabolica.paths import (
    PathBatch,
    TimeGrid,
    brownian_increments,
    euler_simulate,
    load_batch,
    write_batch,
)

# Reference exit fraction for |W| leaving (-1, 1) before t = 1 observed
# on a 256-step grid, measured once from 10^7 paths (100 independent
# 10^5-path chunks); the sampling error of the reference is ~5e-4.
EXIT_FRACTION_REF = 0.595055

# sqrt(66 ln 2) rounded to the nearest double: the largest |draw|, given by
# the smallest 32-bit uniform 2^-33.
SQRT_66_LN_2 = 6.763705635001895


def dump(batch) -> bytes:
    """The bytes ``write_batch`` writes for ``batch``."""
    buf = io.BytesIO()
    write_batch(batch, buf)
    return buf.getvalue()


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

    @pytest.mark.parametrize("sub_block", [1, 7, 1 << 22])
    def test_sub_block_size_does_not_change_bits(self, monkeypatch, sub_block):
        # At N = 3 a sub-block of 7 draws holds two paths at d = 1 and one
        # at d = 3; 1 hashes path by path and 2^22 the whole batch at once.
        grid = TimeGrid(0.0, 1.0, 3)
        want = {d: brownian_increments(grid, 41, d, seed=21, threads=1) for d in (1, 3)}
        monkeypatch.setattr(paths, "_SUB_BLOCK", sub_block)
        for d in (1, 3):
            for threads in (1, 3):
                got = brownian_increments(grid, 41, d, seed=21, threads=threads)
                np.testing.assert_array_equal(got, want[d])

    def test_extreme_hash_states_map_to_bounded_finite_draws(self):
        # A high word k gives the radius sqrt(-2 ln((k + 1/2) 2^-32)), so
        # k = 0 gives the largest, sqrt(66 ln 2); the low word 0 puts the
        # angle nearest 0, where the cosine is largest.  So state 0 gives
        # the largest draw, and no state leaves the bound.
        h = np.array([0, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
        out = np.empty(4)
        paths._to_normal(h, out, 1.0)
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) <= SQRT_66_LN_2)
        assert out[0] == np.max(np.abs(out))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_transient_memory_is_a_few_mb(self, threads):
        # Hashing the 1.28e6 draws in one block would take about 30 MB of
        # uint64 temporaries on top of the 10 MB output.
        grid = TimeGrid(0.0, 1.0, 64)
        tracemalloc.start()
        try:
            out = brownian_increments(grid, 20_000, 1, seed=3, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 4 * 2**20


def box_muller(h: int) -> float:
    """The Box-Muller draw of one 64-bit state, in Python floats with the C library's log and cos."""
    k, low = h >> 32, h & 0xFFFFFFFF
    r = math.sqrt(-2.0 * math.log((k + 0.5) * 2.0**-32))
    return r * math.cos((low + 0.5) * (2.0 * math.pi * 2.0**-32))


def kernel_draws(h) -> np.ndarray:
    """The package's N(0, 1) draws of the 64-bit states ``h``."""
    h = np.array(h, dtype=np.uint64)
    out = np.empty(h.shape)
    paths._to_normal(h, out, 1.0)
    return out


def states(high, low) -> np.ndarray:
    """The 64-bit states with high words ``high`` and low words ``low``."""
    return (np.asarray(high, dtype=np.uint64) << np.uint64(32)) | np.asarray(low, dtype=np.uint64)


class TestBoxMuller:
    """The in-package transform against its formula and its symmetries.

    numpy's vectorized ``log`` and ``cos`` may round differently from the C
    library's, so the kernel and the scalar formula agree to a few ulps of
    the radius, not to the bit.
    """

    # A few ulps of a draw's radius: r cos(theta) with r and cos each off by
    # at most a couple of ulps.
    ULPS = 8 * 2.0**-52

    def test_draws_are_the_formula_on_the_generators_states(self):
        h = paths._path_states(7, 0, 1 << 16)
        got = kernel_draws(h)
        want = np.array([box_muller(int(v)) for v in h])
        radius = np.sqrt(-2.0 * np.log(((h >> np.uint64(32)) + 0.5) * 2.0**-32))
        assert np.all(np.abs(got - want) <= self.ULPS * radius)

    def test_a_half_turn_of_the_low_word_negates_the_draw(self):
        # low and low + 2^31 put the angles pi apart, so every draw has its
        # negative in the state space and the draws are symmetric about 0.
        rng = np.random.default_rng(5)
        high = rng.integers(0, 2**32, 4096, dtype=np.uint64)
        low = rng.integers(0, 2**31, 4096, dtype=np.uint64)
        a = kernel_draws(states(high, low))
        b = kernel_draws(states(high, low + np.uint64(2**31)))
        np.testing.assert_allclose(b, -a, rtol=0, atol=1e-13)

    def test_mirrored_low_words_give_equal_draws(self):
        # low and 2^32 - 1 - low give the angles theta and 2 pi - theta,
        # whose cosines agree.
        rng = np.random.default_rng(6)
        high = rng.integers(0, 2**32, 4096, dtype=np.uint64)
        low = rng.integers(0, 2**32, 4096, dtype=np.uint64)
        a = kernel_draws(states(high, low))
        b = kernel_draws(states(high, np.uint64(2**32 - 1) - low))
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-13)

    def test_the_radius_falls_as_the_high_word_rises(self):
        # With the low word 0 the angle is 2 pi 2^-33, whose cosine is all
        # but 1: each draw is its radius, which falls strictly with k down
        # to sqrt(-2 ln(1 - 2^-33)) > 0 at the top word.
        high = [0, 1, 2, 3, 1000, 2**20, 2**31 - 1, 2**31, 2**32 - 3, 2**32 - 2, 2**32 - 1]
        got = kernel_draws(states(high, [0] * len(high)))
        assert got[0] == pytest.approx(SQRT_66_LN_2, rel=self.ULPS, abs=0)
        assert np.all(np.diff(got) < 0) and got[-1] > 0

    @pytest.mark.parametrize("scale", [0.25, 2.0**-7])
    def test_scale_multiplies_every_draw(self, scale):
        h = paths._path_states(11, 0, 4096)
        unit = kernel_draws(h)
        out = np.empty(h.shape)
        paths._to_normal(h.copy(), out, scale)
        np.testing.assert_array_equal(out, scale * unit)


class TestRngAudit:
    """Fixed-seed checks of N(0, 1) draws against the null distribution.

    Each bound is a quantile of its statistic for independent standard
    normals, not a value read off this generator's draws.
    """

    # Under independence a sample correlation r of n pairs is about
    # N(0, 1/n): four standard deviations.
    @staticmethod
    def _bound(n):
        return 4.0 / np.sqrt(n)

    @staticmethod
    def _sorted_draws():
        return np.sort(brownian_increments(TimeGrid(0.0, 1.0, 1), 1 << 20, 1, seed=2024).ravel())

    def test_kolmogorov_smirnov_on_a_million_draws(self):
        z = self._sorted_draws()
        n = z.size
        cdf = ndtr(z)
        d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        # Kolmogorov's limit law: P(sqrt(n) D > 1.95) is about 1e-3.
        assert np.sqrt(n) * d <= 1.95

    def test_anderson_darling_on_a_million_draws(self):
        # Weighted towards the tails, where KS is weak.  With the mean and
        # variance known, A^2 = -n - sum (2i - 1)/n [ln F(z_i) + ln(1 - F(z_{n+1-i}))]
        # tends to sum Z_j^2 / (j (j + 1)), whose 0.1% point is about 5.9.
        z = self._sorted_draws()
        n = z.size
        weights = np.arange(1, 2 * n, 2) / n
        a2 = -n - np.sum(weights * (log_ndtr(z) + log_ndtr(-z[::-1])))
        assert a2 <= 5.9

    def test_neighbouring_draws_are_uncorrelated(self):
        # Neighbours in each counter, the draws and their squares.
        grid = TimeGrid(0.0, 8.0, 8)  # dt = 1
        z = brownian_increments(grid, 1 << 14, 3, seed=11)
        pairs = {
            "path j, j+1": (z[:-1], z[1:]),
            "step n, n+1": (z[:, :-1], z[:, 1:]),
            "component i, i+1": (z[..., :-1], z[..., 1:]),
            "seed s, s+1": (z, brownian_increments(grid, 1 << 14, 3, seed=12)),
        }
        for name, (a, b) in pairs.items():
            for power in (1, 2):
                r = np.corrcoef((a**power).ravel(), (b**power).ravel())[0, 1]
                assert abs(r) <= self._bound(a.size), (name, power, r)

    def test_components_have_the_identity_covariance(self):
        z = brownian_increments(TimeGrid(0.0, 8.0, 8), 1 << 15, 3, seed=5).reshape(-1, 3)
        n = len(z)
        cov = np.cov(z, rowvar=False)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) <= self._bound(n)), cov
        # A sample variance of n standard normals has variance about 2/n.
        assert np.all(np.abs(np.diag(cov) - 1.0) <= 4.0 * np.sqrt(2.0 / n)), cov


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

    def test_blowup_location_does_not_depend_on_threads(self):
        # dX = X^3 dt + 1.5 dW from 0: each path blows up at its own step.
        # The reference steps every path to the end and takes the earliest
        # step, then the lowest path at it: paths 4 and 7 at step 23.  Path
        # 1 blows up at step 26, so the first of three blocks fails three
        # steps late, and the other two tie at step 23.
        spec = ProblemSpec(
            dim=1, horizon=1.0,
            mu=lambda x: x**3,
            sigma=lambda x: np.full((len(x), 1, 1), 1.5),
            f=lambda t, x, y, z, gamma: np.zeros(len(x)),
            g=lambda x: x[:, 0],
        )
        grid, J, seed = TimeGrid(0.0, 1.0, 32), 9, 24
        dw = brownian_increments(grid, J, 1, seed)[:, :, 0]
        x, first = np.zeros(J), np.full(J, grid.N + 1)
        with np.errstate(all="ignore"):
            for n in range(grid.N):
                x = x + x**3 * grid.dt + 1.5 * dw[:, n]
                first[~np.isfinite(x) & (first > grid.N)] = n + 1
        step = int(first.min())
        path = int(np.argmax(first == step))
        assert (step, path) == (23, 4) and first[1] == 26 and first[7] == 23
        for threads in (1, 2, 3):
            with pytest.raises(NonFinite) as info:
                euler_simulate(spec, grid, [0.0], J, seed=seed, threads=threads)
            assert str(info.value) == f"non-finite state at path {path}, step {step}"


class TestDiagonalNoise:
    """A diagonal sigma's Euler noise is sigma_ii dW_i, with the bits of the matrix product."""

    FINITE = np.array([0.0, -0.0, 1e200, -1e200, 1e-200, -1e-200])

    def sprinkled(self, rng, shape, specials):
        out = rng.standard_normal(shape) * np.exp(rng.uniform(-5.0, 5.0, shape))
        hit = rng.random(shape) < 0.1
        out[hit] = rng.choice(specials, int(hit.sum()))
        return out

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_noise_has_the_bits_of_the_einsum(self, d, monkeypatch):
        # sigma may hold any value; dW holds non-finite values only at d = 1,
        # since at d >= 2 the einsum's 0*inf products would make them NaN and
        # brownian_increments never draws one.
        non_finite = np.array([np.inf, -np.inf, np.nan])
        rng = np.random.default_rng(d)
        J, idx = 400, np.arange(d)
        vol = np.zeros((J, d, d))
        vol[:, idx, idx] = self.sprinkled(rng, (J, d), np.concatenate([self.FINITE, non_finite]))
        dw_specials = self.FINITE if d > 1 else np.concatenate([self.FINITE, non_finite])
        dw = self.sprinkled(rng, (J, d), dw_specials)
        # A zero sigma times a positive dW is -0.0 or +0.0 by the zero's
        # sign; the einsum adds it to +0.0 and returns +0.0.
        vol[:8, idx, idx] = rng.choice([0.0, -0.0], (8, d))
        dw[:8] = rng.uniform(0.5, 2.0, (8, d))
        want = np.einsum("jab,jb->ja", vol, dw)

        def no_einsum(*args, **kwargs):
            raise AssertionError("a diagonal sigma took the matrix product")

        monkeypatch.setattr(np, "einsum", no_einsum)
        with np.errstate(over="ignore", invalid="ignore"):  # as euler_simulate calls it
            got = paths._noise(vol, dw)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_tiny_off_diagonal_entry_keeps_the_matrix_product(self, monkeypatch):
        vol = np.broadcast_to(np.array([[1.0, 1e-300], [0.0, 2.0]]), (50, 2, 2))
        dw = np.random.default_rng(0).standard_normal((50, 2))
        want = np.einsum("jab,jb->ja", vol, dw)
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a: calls.append(a[0]) or einsum(*a))
        np.testing.assert_array_equal(paths._noise(vol, dw), want)
        assert calls == ["jab,jb->ja"]


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
        assert np.all(batch.stop_index == 0)
        assert np.all(batch.grid.times[batch.stop_index] == 0.25)
        assert np.all(batch.X == 1.5)

    def test_huge_box_never_stops(self):
        spec = drifting_spec(domain=Box(np.array([-1e9]), np.array([1e9])))
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 16), [0.0], 50, seed=1)
        assert np.all(batch.stop_index == 16)

    def test_exit_fraction_matches_reference(self):
        spec = drifting_spec(domain=Box(np.array([-1.0]), np.array([1.0])))
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 256), [0.0], 100_000, seed=7)
        fraction = np.mean(batch.stop_index < 256)
        assert fraction == pytest.approx(EXIT_FRACTION_REF, abs=0.02)

    def test_whole_space_never_stops(self):
        batch = euler_simulate(catalog_get("heat"), TimeGrid(0.0, 1.0, 4), [0.0], 10, seed=0)
        assert np.all(batch.stop_index == 4)

    def test_boundary_heat_catalog_stops_some_paths(self):
        spec = catalog_get("boundary_heat")
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 128), spec.x0_default, 2000, seed=3)
        stopped = batch.stop_index < 128
        assert 0.0 < np.mean(stopped) < 1.0
        assert 0.0 < np.mean(batch.grid.times[batch.stop_index[stopped]]) < 1.0


def layout_spec(d):
    vol = np.array([[0.3, 0.1], [0.0, 0.2]])[:d, :d]
    return ProblemSpec(
        dim=d,
        horizon=1.0,
        mu=lambda x: np.full_like(x, 0.1),
        sigma=lambda x: np.broadcast_to(vol, (len(x), d, d)),
        f=lambda t, x, y, z, gamma: np.zeros(len(x)),
        g=lambda x: x[:, 0],
        domain=Box([-0.5] * d, [0.5] * d),
    )


class TestLayout:
    # SHA-256 of the dump of the layout batch, recorded when the draws
    # became Box-Muller normals: a change of layout, chunking or threading
    # must not move a byte of it.
    DUMP_SHA256 = {
        1: "9f88948885e3a6b701aee1e355b43e0515a618737bb3b19c9920da1954593459",
        2: "68b10ae831ef6988b4ab023fec079b00a0edbf3aeb47958abe2b2e55cab83829",
    }

    @staticmethod
    def _batch(d, threads=1):
        return euler_simulate(layout_spec(d), TimeGrid(0.0, 1.0, 8), np.zeros(d), 257,
                              seed=11, threads=threads)

    @pytest.mark.parametrize("d", [1, 2])
    def test_node_columns_are_contiguous(self, d):
        batch = self._batch(d)
        assert batch.X.shape == (257, 9, d) and batch.dW.shape == (257, 8, d)
        for n in range(9):
            assert batch.X[:, n].flags.c_contiguous
        for n in range(8):
            assert batch.dW[:, n].flags.c_contiguous

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_bytes_counts_the_arrays_of_a_batch(self, d):
        batch = self._batch(d)
        held = batch.X.nbytes + batch.dW.nbytes + batch.stop_index.nbytes
        assert paths.batch_bytes(257, 8, d) == held

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_a_batch_without_increments_has_the_same_paths(self, d, threads):
        kept = self._batch(d)
        lean = euler_simulate(layout_spec(d), TimeGrid(0.0, 1.0, 8), np.zeros(d), 257,
                              seed=11, threads=threads, keep_increments=False)
        np.testing.assert_array_equal(lean.X, kept.X)
        np.testing.assert_array_equal(lean.stop_index, kept.stop_index)
        assert lean.dW.shape == (257, 0, d)
        held = lean.X.nbytes + lean.dW.nbytes + lean.stop_index.nbytes
        assert paths.batch_bytes(257, 8, d, keep_increments=False) == held
        with pytest.raises(ConfigError, match="no Brownian increments"):
            write_batch(lean, io.BytesIO())

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_dump_bytes_are_pinned(self, d, threads):
        batch = self._batch(d, threads)
        assert 0 < np.mean(batch.stop_index < 8) < 1
        assert hashlib.sha256(dump(batch)).hexdigest() == self.DUMP_SHA256[d]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = catalog_get("boundary_heat")
        batch = euler_simulate(spec, TimeGrid(0.25, 1.0, 6), [0.5], 17, seed=99)
        # At d = 1 the node-major X is F-contiguous, which np.save would
        # record in Fortran order unless write_batch writes it C-ordered.
        assert batch.X.flags.f_contiguous and not batch.X.flags.c_contiguous
        fname = tmp_path / "batch.bin"
        with open(fname, "wb") as fh:
            write_batch(batch, fh)
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
        fname.write_bytes(dump(batch)[:-16])
        with pytest.raises(ConfigError):
            load_batch(str(fname))

    @staticmethod
    def _records(*arrays) -> bytes:
        # C-ordered, as write_batch writes them, so each case is refused
        # for the defect it names and not for a Fortran-order header.
        buf = io.BytesIO()
        for arr in arrays:
            np.save(buf, np.ascontiguousarray(arr), allow_pickle=False)
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
            dump(batch) + b"\0",
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
        with pytest.raises(ConfigError, match="a stop_index lies outside"):
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
