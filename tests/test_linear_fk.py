"""Tests for the linear Monte Carlo estimator."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from parabolica import cli, model, paths
from parabolica.errors import ConfigError, NonFinite
from parabolica.linear_fk import (
    Estimate,
    LinearCoefficients,
    _tails,
    feynman_kac_estimate,
    pathwise_remainders,
)


def _deterministic_discount_spec():
    """sigma = 0, mu = 0, beta = -0.05, g = 1 on [0, 2]: v(0) = e^{-0.1}."""
    return model.ProblemSpec(
        dim=1,
        horizon=2.0,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.zeros((len(x), 1, 1)),
        f=lambda t, x, y, z, gamma: 0.05 * np.asarray(y),
        g=lambda x: np.ones(len(x)),
        linear_parts=(
            lambda t, x: np.zeros(len(x)),
            lambda t, x: np.full(len(x), -0.05),
        ),
    )


def _simulate(spec, N, J, seed, T=None, x0=None, threads=1):
    grid = paths.TimeGrid(0.0, T if T is not None else spec.horizon, N)
    start = spec.x0_default if x0 is None else np.asarray(x0, dtype=np.float64)
    return paths.euler_simulate(spec, grid, start, J=J, seed=seed, threads=threads)


class TestEstimateBasics:
    def test_constant_payout_has_zero_stderr(self):
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=4, J=37, seed=0)
        coeffs = LinearCoefficients(
            alpha=lambda t, x: np.zeros(len(x)),
            beta=lambda t, x: np.zeros(len(x)),
            g=lambda x: np.ones(len(x)),
        )
        est = feynman_kac_estimate(coeffs, batch)
        assert est.value == 1.0
        assert est.stderr == 0.0
        assert est.J == 37

    def test_stderr_is_sample_std_over_sqrt_J(self):
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=8, J=500, seed=3)
        coeffs = LinearCoefficients.from_spec(heat)
        est = feynman_kac_estimate(coeffs, batch)
        # alpha = beta = 0 for the heat problem, so the per-path functional
        # is exactly g(X_T) and the stderr formula can be checked directly.
        functional = heat.g(batch.X[:, -1])
        assert est.value == np.mean(functional)
        assert est.stderr == np.std(functional, ddof=1) / np.sqrt(500)

    def test_single_path_reports_zero_stderr(self):
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=4, J=1, seed=0)
        est = feynman_kac_estimate(LinearCoefficients.from_spec(heat), batch)
        assert est.stderr == 0.0
        assert est.J == 1
        assert np.isfinite(est.value)


class TestDiscounting:
    def test_constant_beta_is_exact_on_dyadic_grids(self):
        # Left-endpoint log accumulation of a constant beta on a dyadic grid
        # commits no rounding: the value is e^{-0.1} to the last bit.
        spec = _deterministic_discount_spec()
        coeffs = LinearCoefficients.from_spec(spec)
        for N in (1, 2, 8):
            est = feynman_kac_estimate(coeffs, _simulate(spec, N=N, J=16, seed=3))
            assert est.value == np.exp(-0.1)
            assert est.stderr == 0.0

    def test_constant_beta_fine_grid_accumulation_error_is_one_ulp(self):
        spec = _deterministic_discount_spec()
        coeffs = LinearCoefficients.from_spec(spec)
        est = feynman_kac_estimate(coeffs, _simulate(spec, N=64, J=4, seed=3))
        assert est.value == pytest.approx(np.exp(-0.1), rel=1e-15)

    def test_discount_bond_catalog_value_ignores_paths(self):
        # g is constant, so the diffusion never enters the functional.
        bond = model.catalog_get("discount_bond")
        est = feynman_kac_estimate(
            LinearCoefficients.from_spec(bond), _simulate(bond, N=2, J=8, seed=1)
        )
        assert est.value == np.exp(-0.1)
        assert est.stderr == 0.0


    def test_a_discount_past_the_exp_range_gives_true_remainders(self, tmp_path):
        # beta = -800 over T = 1: the deflator of a remainder formed by
        # division, e^{+800}, overflows; each remainder formed from the
        # next is e^{-800 (T - t_n)}, 0.0 at node 0.
        problem = {"dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["1"]],
                   "f": "800*y", "g": "1", "x0": [0.0], "linear": {"beta": "-800"}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": problem, "N": 16, "J": 64, "seed": 1}))
        out = tmp_path / "out"
        assert cli.main(["solve-linear", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["value"] == 0.0
        rows = np.loadtxt(out / "steps.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows[:, 2]))
        exact = np.exp(-800.0 * (1.0 - rows[:, 1]))
        normal = exact >= np.finfo(np.float64).tiny
        assert normal.sum() >= 14
        np.testing.assert_allclose(rows[normal, 2], exact[normal], rtol=1e-12, atol=0)


class TestHeatValue:
    def test_heat_value_within_clt_budget(self):
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=64, J=100_000, seed=11)
        est = feynman_kac_estimate(LinearCoefficients.from_spec(heat), batch)
        # analytic_v(0, 0) = 0^2 + 1 = 1; 0.01 covers Euler/quadrature bias.
        assert abs(est.value - 1.0) <= 3 * est.stderr + 0.01

    def test_gbm_linear_value_within_clt_budget(self):
        gbm = model.catalog_get("gbm_linear")
        batch = _simulate(gbm, N=64, J=100_000, seed=11)
        est = feynman_kac_estimate(LinearCoefficients.from_spec(gbm), batch)
        target = float(gbm.analytic_v.value(0.0, gbm.x0_default[None, :])[0])
        assert abs(est.value - target) <= 3 * est.stderr + 0.01


class TestLinearity:
    def test_exact_linearity_with_dyadic_pieces(self):
        # All intermediate floats are dyadic, so the identity holds bitwise.
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=8, J=64, seed=2, T=1.0)
        zero_beta = lambda t, x: np.zeros(len(x))
        c1 = LinearCoefficients(
            alpha=lambda t, x: np.full(len(x), 0.25),
            beta=zero_beta,
            g=lambda x: np.full(len(x), 0.75),
        )
        c2 = LinearCoefficients(
            alpha=lambda t, x: np.full(len(x), 0.5),
            beta=zero_beta,
            g=lambda x: np.full(len(x), 0.25),
        )
        c12 = LinearCoefficients(
            alpha=lambda t, x: np.full(len(x), 0.75),
            beta=zero_beta,
            g=lambda x: np.ones(len(x)),
        )
        v1 = feynman_kac_estimate(c1, batch)
        v2 = feynman_kac_estimate(c2, batch)
        v12 = feynman_kac_estimate(c12, batch)
        assert v1.value + v2.value == v12.value

    def test_linearity_holds_for_general_coefficients(self):
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=16, J=4096, seed=5, x0=[0.3])
        beta = lambda t, x: np.full(len(x), -0.03)
        c1 = LinearCoefficients(
            alpha=lambda t, x: np.sin(x[:, 0]) + t,
            beta=beta,
            g=lambda x: x[:, 0] ** 2,
        )
        c2 = LinearCoefficients(
            alpha=lambda t, x: np.cos(x[:, 0]),
            beta=beta,
            g=lambda x: np.exp(0.1 * x[:, 0]),
        )
        c12 = LinearCoefficients(
            alpha=lambda t, x: np.sin(x[:, 0]) + t + np.cos(x[:, 0]),
            beta=beta,
            g=lambda x: x[:, 0] ** 2 + np.exp(0.1 * x[:, 0]),
        )
        v1 = feynman_kac_estimate(c1, batch)
        v2 = feynman_kac_estimate(c2, batch)
        v12 = feynman_kac_estimate(c12, batch)
        assert v1.value + v2.value == pytest.approx(v12.value, rel=1e-13)


class TestStoppedPaths:
    def _hand_batch(self, beta_free=True):
        """Two paths on [0,1] with N=4: one exits at node 2, one survives."""
        grid = paths.TimeGrid(0.0, 1.0, 4)
        X = np.zeros((2, 5, 1))
        X[0, :, 0] = [0.1, 0.2, 1.5, 1.5, 1.5]  # frozen at the exit value
        X[1, :, 0] = [0.1, 0.2, 0.3, 0.4, 0.5]
        return paths.PathBatch(
            grid=grid,
            J=2,
            dW=np.zeros((2, 4, 1)),
            X=X,
            stop_index=np.array([2, 4], dtype=np.int64),
        )

    def test_source_integral_truncates_at_exit(self):
        batch = self._hand_batch()
        coeffs = LinearCoefficients(
            alpha=lambda t, x: np.ones(len(x)),
            beta=lambda t, x: np.zeros(len(x)),
            g=lambda x: x[:, 0] ** 2,
        )
        est = feynman_kac_estimate(coeffs, batch)
        # path 0: alpha accrues at nodes 0,1 only -> 0.5; payout 1.5^2 = 2.25
        # path 1: alpha accrues at nodes 0..3 -> 1.0; payout 0.5^2 = 0.25
        assert est.value == (2.75 + 1.25) / 2.0

    def test_discount_freezes_at_exit(self):
        batch = self._hand_batch()
        coeffs = LinearCoefficients(
            alpha=lambda t, x: np.ones(len(x)),
            beta=lambda t, x: np.full(len(x), -1.0),
            g=lambda x: x[:, 0] ** 2,
        )
        est = feynman_kac_estimate(coeffs, batch)
        dt = 0.25
        f0 = dt * (np.exp(0.0) + np.exp(-dt)) + np.exp(-2 * dt) * 2.25
        f1 = dt * np.exp(-np.arange(4) * dt).sum() + np.exp(-4 * dt) * 0.25
        assert est.value == pytest.approx((f0 + f1) / 2.0, rel=1e-15)

    def test_boundary_heat_value(self):
        bh = model.catalog_get("boundary_heat")
        batch = _simulate(bh, N=32, J=20_000, seed=9)
        est = feynman_kac_estimate(LinearCoefficients.from_spec(bh), batch)
        # v(0, 0.5) = 0.5; the open-box exit detection carries O(sqrt(dt)) bias.
        assert abs(est.value - 0.5) < 0.05


class TestStderrScaling:
    def test_doubling_paths_shrinks_stderr_like_sqrt_two(self):
        gbm = model.catalog_get("gbm_linear")
        coeffs = LinearCoefficients.from_spec(gbm)
        ratios = []
        for k in range(20):
            small = _simulate(gbm, N=8, J=5000, seed=10_000 + k, T=1.0)
            big = _simulate(gbm, N=8, J=10_000, seed=20_000 + k, T=1.0)
            e1 = feynman_kac_estimate(coeffs, small)
            e2 = feynman_kac_estimate(coeffs, big)
            ratios.append(e2.stderr / e1.stderr)
        assert 0.65 <= np.mean(ratios) <= 0.76


class TestErrors:
    def test_from_spec_requires_linear_parts(self):
        semilinear = model.catalog_get("semilinear_exp")
        with pytest.raises(ConfigError, match="linear"):
            LinearCoefficients.from_spec(semilinear)

    def test_non_finite_source_is_reported_with_path_index(self):
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=4, J=8, seed=0)
        coeffs = LinearCoefficients(
            alpha=lambda t, x: np.full(len(x), np.inf),
            beta=lambda t, x: np.zeros(len(x)),
            g=lambda x: np.ones(len(x)),
        )
        with pytest.raises(NonFinite, match=r"path \d+"):
            feynman_kac_estimate(coeffs, batch)

    def test_non_finite_payout_is_caught(self):
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=4, J=8, seed=0)
        coeffs = LinearCoefficients(
            alpha=lambda t, x: np.zeros(len(x)),
            beta=lambda t, x: np.zeros(len(x)),
            g=lambda x: np.where(x[:, 0] > -10, np.nan, 1.0),
        )
        with pytest.raises(NonFinite):
            feynman_kac_estimate(coeffs, batch)


def _remainders(coeffs, batch):
    """The streamed remainders stacked into a (J, N+1) matrix, node order N..0 checked."""
    columns = []

    def observe(n, column):
        assert n == batch.grid.N - len(columns)
        assert column.shape == (batch.J,) and column.flags.c_contiguous
        columns.append(column.copy())

    estimate = pathwise_remainders(coeffs, batch, observe)
    assert estimate == feynman_kac_estimate(coeffs, batch)
    assert len(columns) == batch.grid.N + 1
    return np.stack(columns[::-1], axis=1)


class TestPathwiseRemainders:
    def test_column_zero_mean_is_the_estimate(self):
        gbm = model.catalog_get("gbm_linear")
        batch = _simulate(gbm, N=16, J=400, seed=5)
        coeffs = LinearCoefficients.from_spec(gbm)
        remainders = _remainders(coeffs, batch)
        assert remainders.shape == (400, 17)
        assert np.mean(remainders[:, 0]) == feynman_kac_estimate(coeffs, batch).value

    def test_zero_coefficients_repeat_the_terminal_payoff(self):
        # alpha = beta = 0 leaves nothing to accumulate or discount, so
        # every column must hold g(X_T) bit for bit.
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=8, J=200, seed=1)
        remainders = _remainders(LinearCoefficients.from_spec(heat), batch)
        payoff = heat.g(batch.X[:, -1])
        assert np.array_equal(remainders, np.repeat(payoff[:, None], 9, axis=1))

    def test_terminal_column_deflates_back_to_the_payoff(self):
        bond = model.catalog_get("discount_bond")
        batch = _simulate(bond, N=16, J=50, seed=2)
        remainders = _remainders(LinearCoefficients.from_spec(bond), batch)
        payoff = bond.g(batch.X[:, -1])
        # B_T * g deflated by B_T: equal up to one rounding of exp.
        np.testing.assert_allclose(remainders[:, -1], payoff, rtol=0, atol=1e-12)

    def test_stopped_paths_freeze_at_the_exit_value(self):
        spec = model.ProblemSpec(
            dim=1,
            horizon=1.0,
            mu=lambda x: np.zeros_like(x),
            sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)),
            f=lambda t, x, y, z, gamma: np.zeros(len(x)),
            g=lambda x: x[:, 0].copy(),
            domain=model.Box(np.array([-0.4]), np.array([0.4])),
            linear_parts=(
                lambda t, x: np.full(len(x), 0.3),
                lambda t, x: np.full(len(x), -0.05),
            ),
            x0_default=np.array([0.0]),
        )
        batch = _simulate(spec, N=16, J=300, seed=4)
        stopped = batch.stop_index < 16
        assert np.any(stopped)
        remainders = _remainders(LinearCoefficients.from_spec(spec), batch)
        for j in np.flatnonzero(stopped)[:20]:
            tail = remainders[j, batch.stop_index[j]:]
            # Frozen accumulators make the tail constant to the bit, and
            # the constant is the payoff at the (frozen) exit state.
            assert np.ptp(tail) == 0.0
            np.testing.assert_allclose(tail[0], batch.X[j, -1, 0], rtol=0, atol=1e-12)

    def test_non_finite_tail_is_reported_with_path_index(self):
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=16, J=8, seed=0)
        # A growth rate this size overflows the discount factor mid-path.
        coeffs = LinearCoefficients(
            alpha=lambda t, x: np.ones(len(x)),
            beta=lambda t, x: np.full(len(x), 800.0),
            g=lambda x: np.ones(len(x)),
        )
        with pytest.raises(NonFinite, match=r"path \d+"):
            _remainders(coeffs, batch)

    def test_non_finite_tail_names_the_first_such_path(self):
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=8, J=6, seed=0)
        dt = batch.grid.dt
        # Path 3 grows by e^800 a step from node 1 on, so its tails overflow
        # at nodes 1..7, and the first step discounts by e^-10000, so its
        # functional is 0.0; path 5's payoff is NaN, so its functional is
        # non-finite already at node 0.
        coeffs = LinearCoefficients(
            beta=lambda t, x: np.where(
                np.arange(len(x)) == 3, (800.0 if t > 0 else -1e4) / dt, 0.0
            ),
            g=lambda x: np.where(np.arange(len(x)) == 5, np.nan, 1.0),
        )
        tails = {}
        _tails(coeffs, batch, lambda n, r: tails.update({n: r[3]}))
        assert tails[0] == 0.0
        assert all(tails[n] == np.inf for n in range(1, 8))
        # Path 5 is non-finite from node N on, so the observer sees no node.
        seen = []
        with pytest.raises(NonFinite, match=r"at path 3$"):
            pathwise_remainders(coeffs, batch, lambda n, r: seen.append(n))
        assert seen == []
        # The estimate alone keeps the same rule.
        with pytest.raises(NonFinite, match=r"at path 3$"):
            feynman_kac_estimate(coeffs, batch)

    def test_memory_does_not_grow_with_the_grid(self):
        # The parent held three (J, N+1) arrays, about 15x more at N = 256
        # than at N = 16; the stream holds a few (J,) arrays at any N.
        gbm = model.catalog_get("gbm_linear")
        coeffs = LinearCoefficients.from_spec(gbm)
        peaks = {}
        for N in (16, 256):
            batch = _simulate(gbm, N=N, J=20_000, seed=7)
            means = []
            tracemalloc.start()
            try:
                pathwise_remainders(coeffs, batch, lambda n, r: means.append(r.mean()))
                peaks[N] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(means) == N + 1
        assert peaks[256] <= 1.5 * peaks[16]


def _zero_rows(t, x):
    return np.full(len(x), 0.0)


class TestAbsentTerms:
    """An absent (None) alpha or beta gives the bits of a zero closure.

    ``threads`` is the worker count of the path simulation, the one threaded
    layer: the rule holds on a batch simulated at any count.
    """

    @pytest.mark.parametrize("name", ["heat", "discount_bond", "gbm_linear", "boundary_heat"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_catalog_none_terms_equal_zero_closures(self, name, threads):
        spec = model.catalog_get(name)
        batch = _simulate(spec, N=16, J=3001, seed=12, threads=threads)
        if name == "boundary_heat":
            assert np.any(batch.stop_index < 16)
        absent = LinearCoefficients.from_spec(spec)
        assert absent.alpha is None
        zero = LinearCoefficients(g=spec.g, alpha=_zero_rows, beta=absent.beta or _zero_rows)
        got = [(feynman_kac_estimate(c, batch), _remainders(c, batch)) for c in (absent, zero)]
        assert got[0][0] == got[1][0]
        assert got[0][1].tobytes() == got[1][1].tobytes()

    @pytest.mark.parametrize("alpha_zero, beta_zero", itertools.product([False, True], repeat=2))
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_negative_zero_payoff_starts_from_positive_zero(self, alpha_zero, beta_zero,
                                                                threads):
        # The zero source integral is +0.0, and +0.0 + -0.0 is +0.0: the
        # functional of a -0.0 payout is +0.0 with or without the terms.
        heat = model.catalog_get("heat")
        batch = _simulate(heat, N=8, J=501, seed=4, threads=threads)

        def g(x):
            return np.where(x[:, 0] < 0.0, -0.0, x[:, 0])

        assert np.any(np.signbit(g(batch.X[:, -1])))
        reference = LinearCoefficients(g=g, alpha=_zero_rows, beta=_zero_rows)
        coeffs = LinearCoefficients(g=g, alpha=_zero_rows if alpha_zero else None,
                                    beta=_zero_rows if beta_zero else None)
        remainders = _remainders(coeffs, batch)
        assert not np.any(np.signbit(remainders[:, 0]))
        assert remainders.tobytes() == _remainders(reference, batch).tobytes()
        assert feynman_kac_estimate(coeffs, batch) == feynman_kac_estimate(reference, batch)

    def test_an_inline_linear_block_may_omit_a_zero_term(self, tmp_path):
        problem = {
            "dim": 1, "horizon": 1.0, "mu": ["0.05*x[0]"], "sigma": [["0.2*x[0]"]],
            "f": "0.05*y", "g": "x[0]^2", "x0": [1.0],
        }
        outputs = []
        for k, linear in enumerate([{"alpha": "0", "beta": "-0.05"}, {"beta": "-0.05"}]):
            spec = model.problem_from_dict(dict(problem, linear=linear))
            assert (spec.linear_parts[0] is None) == ("alpha" not in linear)
            config = tmp_path / f"config{k}.json"
            config.write_text(json.dumps({"problem": dict(problem, linear=linear),
                                          "N": 8, "J": 2000, "seed": 2}))
            out = tmp_path / f"out{k}"
            assert cli.main(["solve-linear", "--config", str(config), "--out", str(out),
                             "--threads", "2"]) == 0
            summary = json.loads((out / "summary.json").read_text())
            summary.pop("environment")
            summary["config"].pop("problem")
            outputs.append((summary, (out / "steps.csv").read_bytes()))
        assert outputs[0] == outputs[1]
