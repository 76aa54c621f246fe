"""Tests for the fully non-linear backward solver."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from parabolica import backward, hjb, model, paths, regress
from parabolica.backward import (
    backward_solve_2bsde,
    backward_solve_semilinear,
    screen_driver,
    terminal_gradient,
)
from parabolica.errors import ConfigError, MissingGamma, NonFinite, SingularSigma
from parabolica.regress import BasisSpec

BASIS2 = BasisSpec(kind="polynomial", degree=2)


def _simulate(spec, N, J, seed):
    grid = paths.TimeGrid(0.0, spec.horizon, N)
    return paths.euler_simulate(spec, grid, spec.x0_default, J=J, seed=seed)


@pytest.mark.parametrize("solve", [backward_solve_semilinear, backward_solve_2bsde])
def test_a_batch_without_increments_is_refused(solve):
    spec = _drifting_martingale_spec()
    grid = paths.TimeGrid(0.0, spec.horizon, 4)
    batch = paths.euler_simulate(spec, grid, spec.x0_default, J=50, seed=1,
                                 keep_increments=False)
    with pytest.raises(ConfigError, match="no Brownian increments"):
        solve(spec, batch, BASIS2, observe=lambda *args: None)


def _drifting_martingale_spec(x0=0.7):
    """phi == 0 with a linear payoff: Y is a martingale pinned at x0."""
    return model.ProblemSpec(
        dim=1,
        horizon=1.0,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)).copy(),
        f=lambda t, x, y, z, gamma: -0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        g=lambda x: x[:, 0].copy(),
        dg=lambda x: np.ones_like(x),
        x0_default=np.array([x0]),
        name="linear_martingale",
    )


def _cross_term_spec():
    """Two-dimensional heat-type problem whose Hessian has off-diagonal mass."""

    def g(x):
        return x[:, 0] ** 2 + x[:, 0] * x[:, 1]

    def dg(x):
        out = np.empty_like(x)
        out[:, 0] = 2.0 * x[:, 0] + x[:, 1]
        out[:, 1] = x[:, 0]
        return out

    return model.ProblemSpec(
        dim=2,
        horizon=1.0,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(2), (len(x), 2, 2)).copy(),
        f=lambda t, x, y, z, gamma: -0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        g=g,
        dg=dg,
        x0_default=np.array([0.3, -0.2]),
        name="cross_term",
    )


class TestTerminalGradient:
    def test_supplied_gradient_is_used_verbatim(self):
        spec = model.catalog_get("heat")  # g = x^2 with dg = 2x
        x = np.array([[3.0], [-1.5], [0.0]])
        grad, kinked, used_fd = terminal_gradient(spec, x)
        np.testing.assert_array_equal(grad, spec.dg(x))
        assert used_fd is False and not kinked.any()

    def test_difference_fallback_is_exact_on_quadratics(self):
        spec = dataclasses.replace(model.catalog_get("heat"), dg=None, name="heat_nodg")
        x = np.array([[3.0], [0.25]])
        grad, kinked, used_fd = terminal_gradient(spec, x)
        np.testing.assert_allclose(grad, 2.0 * x, atol=1e-6)
        assert used_fd is True
        assert not kinked.any()

    def test_hinge_payoff_returns_half_slope_and_is_flagged(self):
        spec = model.ProblemSpec(
            dim=1,
            horizon=1.0,
            mu=lambda x: np.zeros_like(x),
            sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)).copy(),
            f=lambda t, x, y, z, gamma: np.zeros(len(x)),
            g=lambda x: np.maximum(0.0, x[:, 0] - 1.0),
            x0_default=np.array([1.0]),
            name="hinge",
        )
        x = np.array([[1.0], [2.0], [0.0]])
        grad, kinked, _ = terminal_gradient(spec, x)
        assert grad[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert grad[1, 0] == pytest.approx(1.0, abs=1e-9)
        assert grad[2, 0] == pytest.approx(0.0, abs=1e-9)
        assert kinked[0, 0] and not kinked[1:].any()
        # A solve whose paths end at these states reports the same fraction.
        batch = paths.PathBatch(
            grid=paths.TimeGrid(0.0, 1.0, 1),
            J=3,
            dW=np.zeros((3, 1, 1)),
            X=np.stack([x, x], axis=1),
            stop_index=np.ones(3, dtype=np.int64),
        )
        sol = backward_solve_2bsde(spec, batch, BasisSpec(kind="polynomial", degree=0))
        assert sol.diagnostics["terminal_kink_fraction"] == pytest.approx(1.0 / 3.0)


class TestPhiGenerator:
    """The Itô-form driver phi and the screen both entry points run on it."""

    def test_heat_transform_collapses_to_zero(self):
        spec = model.catalog_get("heat")
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 1))
        y, z = rng.normal(size=30), rng.normal(size=(30, 1))
        gamma = rng.normal(size=(30, 1, 1))
        sig = spec.sigma(x)
        mu_z, trace = model.ito_terms(spec.mu(x), sig, z, gamma, model.diagonal(sig))
        np.testing.assert_array_equal(
            (spec.f(0.3, x, y, z, gamma) + mu_z) + trace, np.zeros(30)
        )

    @pytest.mark.parametrize(
        "solve", [backward_solve_semilinear, backward_solve_2bsde], ids=["semilinear", "2bsde"]
    )
    def test_undefined_driver_is_rejected_at_construction(self, solve, monkeypatch):
        # A NaN driver has a NaN spread between Hessian arguments, which no
        # "spread > tolerance" test catches; the finiteness screen must name
        # the driver before the sweep builds a single design.
        spec = dataclasses.replace(
            model.catalog_get("heat"),
            f=lambda t, x, y, z, gamma: np.full(len(x), np.nan),
            analytic_v=None,
            name="undefined",
        )
        batch = _simulate(spec, 4, 50, 0)

        def no_design(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(regress, "design", no_design)
        with pytest.raises(NonFinite, match="driver of 'undefined'"):
            solve(spec, batch, BASIS2)


class TestMartingalePayoff:
    def test_root_tracks_x0_and_derivatives_track_slope(self):
        spec = _drifting_martingale_spec(0.7)
        sol = backward_solve_2bsde(spec, _simulate(spec, 16, 50_000, 9), BASIS2)
        rv = sol.root_value
        assert abs(rv.value - 0.7) <= 3.0 * rv.stderr
        mid = 8
        assert abs(float(np.mean(sol.Z[:, mid, 0])) - 1.0) <= 0.05
        assert abs(float(np.mean(sol.Gamma[:, mid, 0, 0]))) <= 0.1


class TestCatalogValues:
    def test_heat_root_value(self):
        spec = model.catalog_get("heat")
        sol = backward_solve_2bsde(spec, _simulate(spec, 64, 100_000, 7), BASIS2)
        rv = sol.root_value
        assert abs(rv.value - 1.0) <= 3.0 * rv.stderr + 0.02

    def test_uncertain_volatility_root_value(self):
        spec = model.catalog_get("bsb_uncertain_vol")
        sol = backward_solve_2bsde(spec, _simulate(spec, 32, 50_000, 7), BASIS2)
        target = float(spec.analytic_v.value(0.0, spec.x0_default[None, :])[0])
        assert abs(sol.root_value.value - target) / target <= 0.02


class TestReduction:
    """With a γ-free driver the Γ regression decouples and the full scheme
    reproduces the semi-linear one on the same batch."""

    def test_heat_reduction_is_bitwise(self):
        spec = model.catalog_get("heat")
        batch = _simulate(spec, 8, 3000, 3)
        full = backward_solve_2bsde(spec, batch, BASIS2)
        semi = backward_solve_semilinear(spec, batch, BASIS2)
        np.testing.assert_array_equal(full.Y, semi.Y)
        np.testing.assert_array_equal(full.Z, semi.Z)

    @pytest.mark.parametrize("name", ["gbm_linear", "semilinear_exp"])
    def test_reduction_within_float_noise(self, name):
        spec = model.catalog_get(name)
        batch = _simulate(spec, 16, 5000, 3)
        full = backward_solve_2bsde(spec, batch, BASIS2)
        semi = backward_solve_semilinear(spec, batch, BASIS2)
        assert np.abs(full.Y - semi.Y).max() <= 1e-12
        assert np.abs(full.Z - semi.Z).max() <= 1e-12


class TestGammaEstimates:
    def test_gamma_is_symmetric_at_every_node(self):
        spec = _cross_term_spec()
        batch = _simulate(spec, 8, 20_000, 6)
        sol = backward_solve_2bsde(spec, batch, BASIS2)
        for n in range(9):
            np.testing.assert_array_equal(
                sol.Gamma[:, n], np.transpose(sol.Gamma[:, n], (0, 2, 1))
            )

    def test_cross_terms_are_recovered(self):
        spec = _cross_term_spec()
        sol = backward_solve_2bsde(spec, _simulate(spec, 8, 20_000, 6), BASIS2)
        rv = sol.root_value
        # v = x0^2 + x0*x1 + (T - t), so v(0, (0.3, -0.2)) = 1.03 and the
        # Hessian is constant with a unit off-diagonal.
        assert abs(rv.value - 1.03) <= 3.0 * rv.stderr
        mean_gamma = sol.Gamma[:, 4].mean(axis=0)
        np.testing.assert_allclose(
            mean_gamma, [[2.0, 1.0], [1.0, 0.0]], atol=0.25
        )

    def test_all_entries_finite(self):
        spec = model.catalog_get("heat")
        sol = backward_solve_2bsde(spec, _simulate(spec, 8, 2000, 1), BASIS2)
        assert np.isfinite(sol.Y).all()
        assert np.isfinite(sol.Z).all()
        assert np.isfinite(sol.Gamma).all()


class TestDerivativeConvergence:
    def test_midpoint_derivative_errors_do_not_grow_under_refinement(self):
        # The error at t_{N/2} sits at the Monte Carlo noise floor, whose
        # expected size is invariant when N and J double together; pool a
        # fixed seed set so the reported factor is a stable statistic.
        spec = model.catalog_get("heat")
        sums = {}
        for N, J in ((16, 25_000), (32, 50_000)):
            z_sq, g_sq = 0.0, 0.0
            for seed in (3, 8, 9, 10):
                batch = _simulate(spec, N, J, seed)
                sol = backward_solve_2bsde(spec, batch, BASIS2)
                n = N // 2
                t = batch.grid.times[n]
                z_true = spec.analytic_v.gradient(t, batch.X[:, n])
                g_true = spec.analytic_v.hessian(t, batch.X[:, n])
                z_sq += float(np.mean((sol.Z[:, n] - z_true) ** 2))
                g_sq += float(np.mean((sol.Gamma[:, n] - g_true) ** 2))
            sums[N] = (z_sq, g_sq)
        z_factor = math.sqrt(sums[32][0] / sums[16][0])
        g_factor = math.sqrt(sums[32][1] / sums[16][1])
        assert z_factor <= 1.0
        assert g_factor <= 1.0


class TestControlExtraction:
    def test_convex_payoff_selects_the_high_volatility(self):
        spec = model.catalog_get("hjb_uncertain_vol")
        cp = hjb.uncertain_volatility_control()
        batch = _simulate(spec, 32, 20_000, 5)
        sol = backward_solve_2bsde(spec, batch, BASIS2)
        control = hjb.extract_control(cp, sol, batch)

        confident = sol.Gamma[:, :, 0, 0] > 0.01
        assert confident.sum() > 1000
        assert np.mean(control[confident, 0] == 0.2) >= 0.95

        target = float(spec.analytic_v.value(0.0, spec.x0_default[None, :])[0])
        assert abs(sol.root_value.value - target) / target <= 0.04

    def test_concave_payoff_selects_the_low_volatility(self):
        base = model.catalog_get("hjb_uncertain_vol")
        spec = dataclasses.replace(
            base,
            g=lambda x: -(x[:, 0] ** 2),
            dg=lambda x: -2.0 * x,
            analytic_v=None,
            name="hjb_concave",
        )
        cp = hjb.uncertain_volatility_control()
        batch = _simulate(spec, 32, 20_000, 5)
        sol = backward_solve_2bsde(spec, batch, BASIS2)
        control = hjb.extract_control(cp, sol, batch)

        confident = sol.Gamma[:, :, 0, 0] < -0.01
        assert confident.sum() > 1000
        assert np.mean(control[confident, 0] == 0.1) >= 0.95

    def test_extraction_requires_second_order_estimates(self):
        spec = model.catalog_get("heat")
        batch = _simulate(spec, 4, 500, 0)
        semi = backward_solve_semilinear(spec, batch, BASIS2)
        observed = backward_solve_2bsde(spec, batch, BASIS2, observe=lambda *node: None)
        for sol in (semi, observed):
            with pytest.raises(MissingGamma):
                hjb.extract_control(hjb.uncertain_volatility_control(), sol, batch)


class TestFailureModes:
    def test_degenerate_diffusion_names_path_and_step(self):
        spec = dataclasses.replace(
            model.catalog_get("heat"),
            sigma=lambda x: np.zeros((len(x), 1, 1)),
            analytic_v=None,
            name="flatline",
        )
        with pytest.raises(SingularSigma, match=r"path \d+, step \d+"):
            backward_solve_2bsde(spec, _simulate(spec, 2, 10, 0), BASIS2)

    def test_exploding_driver_reports_the_step(self):
        spec = dataclasses.replace(
            model.catalog_get("heat"),
            f=lambda t, x, y, z, gamma: 1e300 * np.asarray(y, dtype=np.float64),
            analytic_v=None,
            name="explode",
        )
        with np.errstate(over="ignore"), pytest.raises(NonFinite, match=r"step \d+"):
            backward_solve_2bsde(spec, _simulate(spec, 8, 200, 0), BASIS2)


class TestScreen:
    def test_both_orders_probe_eight_times_on_one_state_draw(self):
        base = model.catalog_get("heat")
        seen = {"t": [], "sigma": 0, "mu": 0}

        def f(t, x, y, z, gamma):
            seen["t"].append(float(t))
            return base.f(t, x, y, z, gamma)

        def counted(name, fn):
            def wrapper(x):
                seen[name] += 1
                return fn(x)
            return wrapper

        spec = dataclasses.replace(
            base, f=f, sigma=counted("sigma", base.sigma), mu=counted("mu", base.mu)
        )
        probed = {}
        for gamma_free in (True, False):
            seen.update(t=[], sigma=0, mu=0)
            screen_driver(spec, gamma_free=gamma_free)
            assert seen["sigma"] == 1 and seen["mu"] == 1
            probed[gamma_free] = seen["t"]
        assert probed[True] == [t for t in probed[False] for _ in range(2)]
        assert len(set(probed[False])) == 8
        assert all(0.0 <= t <= spec.horizon for t in probed[False])

    def test_driver_non_finite_early_in_the_horizon_fails_at_the_screen(self):
        spec = model.problem_from_dict({
            "dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["0.2*x[0]"]],
            "f": "-0.5*0.04*x[0]^2*gamma[0][0] + sqrt(t - 0.3)",
            "g": "x[0]^2", "dg": ["2*x[0]"], "x0": [1.0], "name": "late_root",
        })
        batch = _simulate(spec, 16, 2000, 3)
        with np.errstate(invalid="ignore"), pytest.raises(
            NonFinite, match=r"transformed driver of 'late_root' is non-finite"
        ):
            backward_solve_2bsde(spec, batch, BASIS2)


class TestNodeHamiltonians:
    """The sweep builds each node's control Hamiltonians once."""

    @staticmethod
    def _domain_control_spec():
        return model.problem_from_dict({
            "dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["0.3*x[0]"]],
            "g": "x[0]^2", "dg": ["2*x[0]"], "x0": [1.0],
            "domain": {"lower": [0.7], "upper": [1.4]},
            "control": {"control_dim": 1, "lower": [0.2], "upper": [0.4],
                        "alpha": "0.1*x[0]*u[0]", "beta": "-0.05*u[0]",
                        "b": ["0.1*u[0]*x[0]"], "a": [["u[0]*x[0]"]]},
        })

    def test_control_route_is_bitwise_the_generator_route(self):
        spec = model.catalog_get("hjb_uncertain_vol")
        batch = _simulate(spec, 16, 2000, 11)
        with_control = backward_solve_2bsde(spec, batch, BASIS2)
        through_f = backward_solve_2bsde(dataclasses.replace(spec, control=None), batch, BASIS2)
        for name in ("Y", "Z", "Gamma"):
            np.testing.assert_array_equal(getattr(with_control, name), getattr(through_f, name))
        assert through_f.control_means is None

    @pytest.mark.parametrize("which", ["catalog", "domain"])
    def test_control_means_are_the_extracted_control_means(self, which):
        spec = (model.catalog_get("hjb_uncertain_vol") if which == "catalog"
                else self._domain_control_spec())
        N = 16
        batch = _simulate(spec, N, 3000, 4)
        if which == "domain":
            assert 0 < np.count_nonzero(batch.stop_index < N) < batch.J
        sol = backward_solve_2bsde(spec, batch, BASIS2)
        control = hjb.extract_control(spec.control, sol, batch)
        assert sol.control_means.shape == (N + 1, spec.control.control_dim)
        for n in range(N + 1):
            np.testing.assert_array_equal(sol.control_means[n], control[:, n].mean(axis=0))

    # The x-dependent control of tests/test_cli.py, which gives all four terms.
    X_DEPENDENT = {"control_dim": 1, "lower": [0.1], "upper": [0.2],
                   "alpha": "0.01*u[0]*x[0]^2", "beta": "-0.01*u[0]*x[0]^2",
                   "b": ["0.01*u[0]*x[0]"], "a": [["u[0]*x[0]"]]}

    @pytest.mark.parametrize("coefficient", ["alpha", "beta", "b", "a"])
    @pytest.mark.parametrize("picard_iters", [1, 3])
    def test_sweep_evaluates_each_control_once_per_node(self, picard_iters, coefficient):
        calls = [0]
        # The catalog control gives only a.
        cp = (hjb.uncertain_volatility_control() if coefficient == "a"
              else hjb.control_problem_from_dict(self.X_DEPENDENT, 1))

        def counted(t, x, u):
            calls[0] += 1
            return getattr(cp, coefficient)(t, x, u)

        spec = hjb.as_problem(dataclasses.replace(cp, **{coefficient: counted}),
                              model.catalog_get("bsb_uncertain_vol"))
        N, G = 6, len(cp.grid())
        batch = _simulate(spec, N, 400, 2)
        calls[0] = 0  # as_problem screens beta
        screen_driver(spec, gamma_free=False)
        screen, calls[0] = calls[0], 0
        backward_solve_2bsde(spec, batch, BASIS2, picard_iters=picard_iters)
        assert calls[0] == screen + (N + 1) * G


def _correlated_spec(sigma_of_x, x0=(0.2, -0.1)):
    """Two-dimensional heat-type problem with a caller-supplied diffusion."""

    def f(t, x, y, z, gamma):
        sig = sigma_of_x(x)
        return -0.5 * np.einsum("jab,jcb,jca->j", sig, sig, gamma)

    def dg(x):
        out = np.empty_like(x)
        out[:, 0] = 2.0 * x[:, 0] + x[:, 1]
        out[:, 1] = x[:, 0]
        return out

    return model.ProblemSpec(
        dim=2,
        horizon=1.0,
        mu=lambda x: np.zeros_like(x),
        sigma=sigma_of_x,
        f=f,
        g=lambda x: x[:, 0] ** 2 + x[:, 0] * x[:, 1],
        dg=dg,
        x0_default=np.array(x0),
        name="correlated",
    )


CORRELATED = np.array([[1.0, 0.0], [0.5, 1.0]])


def _constant_sigma(x):
    return np.broadcast_to(CORRELATED, (len(x), 2, 2)).copy()


def _located(exc_info):
    match = re.search(r"path (\d+), step (\d+)", str(exc_info.value))
    assert match, str(exc_info.value)
    return int(match.group(1)), int(match.group(2))


class TestWorkCounts:
    """One sigma/mu evaluation and one factorization per backward step."""

    def test_two_bsde_solve_evaluates_sigma_and_factors_once_per_step(self, monkeypatch):
        base = model.catalog_get("bsb_uncertain_vol")
        calls = {"sigma": 0, "mu": 0, "design": 0, "eigvalsh": 0, "qr": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        spec = dataclasses.replace(
            base, sigma=counted("sigma", base.sigma), mu=counted("mu", base.mu)
        )
        N = 6
        batch = _simulate(spec, N, 400, 2)
        assert calls["sigma"] == N and calls["mu"] == N  # one per Euler step
        monkeypatch.setattr(regress, "design", counted("design", regress.design))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        backward_solve_2bsde(spec, batch, BASIS2, picard_iters=3)
        # Euler steps, the generator probe, then one per backward step.
        assert calls["sigma"] == N + 1 + N
        assert calls["mu"] == N + 1 + N
        # Every design forms its Gram matrix's spectrum; only the first
        # step's, where every path is at x0, is rank-deficient and takes QR.
        assert calls["design"] == N
        assert calls["eigvalsh"] == N
        assert calls["qr"] == 1


class TestGeneralSigma:
    """A correlated constant diffusion takes the batched-inverse route."""

    def test_z_and_gamma_match_independent_solves_on_the_same_fits(self):
        spec = _correlated_spec(_constant_sigma)
        batch = _simulate(spec, 8, 4000, 4)
        sol = backward_solve_2bsde(spec, batch, BASIS2)
        dt = batch.grid.dt
        for k in (0, 3, 7):
            x = batch.X[:, k]
            sig_T = np.transpose(_constant_sigma(x), (0, 2, 1))
            fits = sol.fits[k]
            e_z = regress.predict(fits["z"], x) / dt
            want_z = np.linalg.solve(sig_T, e_z[:, :, None])[:, :, 0]
            np.testing.assert_allclose(sol.Z[:, k], want_z, rtol=1e-12, atol=1e-12)
            e_g = regress.predict(fits["gamma"], x).reshape(-1, 2, 2) / dt
            g = np.transpose(np.linalg.solve(sig_T, np.transpose(e_g, (0, 2, 1))), (0, 2, 1))
            want_g = 0.5 * (g + np.transpose(g, (0, 2, 1)))
            np.testing.assert_allclose(sol.Gamma[:, k], want_g, rtol=1e-12, atol=1e-12)

    def test_singular_general_sigma_names_a_singular_path_and_step(self):
        def sigma(x):
            out = np.broadcast_to(CORRELATED, (len(x), 2, 2)).copy()
            out[x[:, 0] > 0.5] = 1.0  # [[1, 1], [1, 1]]
            return out

        spec = _correlated_spec(sigma)
        batch = _simulate(spec, 4, 200, 1)
        with pytest.raises(SingularSigma) as exc_info:
            backward_solve_2bsde(spec, batch, BASIS2)
        j, k = _located(exc_info)
        assert np.linalg.det(sigma(batch.X[j : j + 1, k]))[0] == 0.0

    def test_singular_diagonal_sigma_names_a_singular_path_and_step(self):
        def sigma(x):
            out = np.zeros((len(x), 2, 2))
            out[:, 0, 0] = 1.0
            out[:, 1, 1] = np.where(x[:, 0] > 0.5, 0.0, 1.0)
            return out

        spec = _correlated_spec(sigma)
        batch = _simulate(spec, 4, 200, 1)
        with pytest.raises(SingularSigma) as exc_info:
            backward_solve_2bsde(spec, batch, BASIS2)
        j, k = _located(exc_info)
        assert batch.X[j, k, 0] > 0.5


FINITE_SPECIALS = np.array([0.0, -0.0, 1e200, -1e200, 1e-200, -1e-200])
SPECIALS = np.concatenate([FINITE_SPECIALS, [np.inf, -np.inf, np.nan]])


def _sprinkled(rng, shape, specials):
    """Normal entries spread over many magnitudes, a tenth of them replaced by ``specials``."""
    out = rng.standard_normal(shape) * np.exp(rng.uniform(-5.0, 5.0, shape))
    hit = rng.random(shape) < 0.1
    out[hit] = rng.choice(specials, int(hit.sum()))
    return out


def _two_einsums(sig, gamma):
    """The dense half-trace: the reference the diagonal form must match bit for bit."""
    return 0.5 * np.einsum("jab,jba->j", np.einsum("jab,jcb->jac", sig, sig), gamma)


def _same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


class TestDiagonalDiffusion:
    """A diagonal sigma's half-trace is formed from its (J, d) diagonal with the dense form's bits."""

    @staticmethod
    def batch(d, seed, specials, J=300):
        rng = np.random.default_rng(seed)
        sig = np.zeros((J, d, d))
        idx = np.arange(d)
        sig[:, idx, idx] = _sprinkled(rng, (J, d), specials)
        gamma = _sprinkled(rng, (J, d, d), specials)
        # Rows whose every product is -0.0 (a zero sigma times a negative
        # gamma): the einsum adds them to +0.0 and returns +0.0.
        sig[:8, idx, idx] = rng.choice([0.0, -0.0], (8, d))
        gamma[:8, idx, idx] = -rng.uniform(0.5, 2.0, (8, d))
        return sig, gamma

    @pytest.mark.parametrize("layout", ["contiguous", "history"])
    @pytest.mark.parametrize("specials", ["finite", "non-finite"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 16])
    def test_half_trace_has_the_bits_of_the_two_einsums(self, d, specials, layout):
        values = FINITE_SPECIALS if specials == "finite" else SPECIALS
        for seed in range(3):
            sig, gamma = self.batch(d, seed, values)
            if layout == "history":  # one node of a (J, N+1, d, d) history
                gamma = np.stack([np.zeros_like(gamma), gamma], axis=1)[:, 1]
            diag = model.diagonal(sig)
            assert diag is not None and diag.shape == (len(sig), d)
            _same_bits(model.half_trace(sig, gamma, diag), _two_einsums(sig, gamma))

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_a_dense_half_trace_does_not_depend_on_the_layout_of_gamma(self, d):
        rng = np.random.default_rng(d)
        sig = rng.standard_normal((1000, d, d))
        gamma = np.transpose(rng.standard_normal((1000, d, d)), (0, 2, 1))
        assert not gamma.flags.c_contiguous
        _same_bits(model.half_trace(sig, gamma, None),
                   model.half_trace(sig, np.ascontiguousarray(gamma), None))

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_a_finite_diagonal_batch_forms_no_dense_product(self, d, monkeypatch):
        sig, gamma = self.batch(d, 9, FINITE_SPECIALS)
        want = _two_einsums(sig, gamma)

        def no_einsum(*args, **kwargs):
            raise AssertionError("a diagonal sigma formed sigma sigma'")

        monkeypatch.setattr(np, "einsum", no_einsum)
        _same_bits(model.half_trace(sig, gamma, model.diagonal(sig)), want)

    def test_a_tiny_off_diagonal_entry_takes_the_dense_path(self, monkeypatch):
        sig = np.array([[1.0, 1e-300], [0.0, 1.0]])
        assert model.diagonal(np.broadcast_to(sig, (3, 2, 2))) is None
        assert model.diagonal(np.broadcast_to(np.diag([1.0, -0.0]), (3, 2, 2))) is not None
        dense = []

        def spy(m):
            out = model.diagonal(m)
            dense.append(out is None)
            return out

        monkeypatch.setattr(backward, "diagonal", spy)
        monkeypatch.setattr(paths, "diagonal", spy)
        spec = _correlated_spec(lambda x: np.broadcast_to(sig, (len(x), 2, 2)).copy())
        N = 4
        sol = backward_solve_2bsde(spec, _simulate(spec, N, 300, 1), BASIS2)
        # Euler's N steps, the screen, then each backward step.
        assert dense == [True] * (N + 1 + N)
        assert np.all(np.isfinite(sol.Gamma))


class TestStoppedPaths:
    def test_stopped_paths_are_frozen_through_the_fit_fallback(self):
        # A narrow box stops most paths early: late steps have fewer alive
        # paths than basis functions (the fit falls back to every path) and
        # the last ones have none alive at all.
        base = model.catalog_get("boundary_heat")
        x0 = base.x0_default
        spec = dataclasses.replace(base, domain=model.Box(x0 - 0.3, x0 + 0.3))
        batch = _simulate(spec, 12, 40, 5)
        stop = batch.stop_index
        assert (stop < 12).sum() == 40 and (stop <= 2).sum() < 40
        sol = backward_solve_2bsde(spec, batch, BASIS2)
        for j in range(40):
            s = stop[j]
            np.testing.assert_array_equal(sol.Y[j, s:], sol.Y[j, 12])
            assert not sol.Z[j, s:12].any() and not sol.Gamma[j, s:12].any()
        assert np.isfinite(sol.Y).all() and np.isfinite(sol.Z).all()
        assert [f["alive"] for f in sol.fits] == [int((stop > k).sum()) for k in range(12)]


class _Columns:
    """Observer that keeps copies of the columns it is shown, by node."""

    def __init__(self):
        self.nodes, self.y, self.z, self.gamma = [], {}, {}, {}

    def __call__(self, n, y, z, gamma):
        self.nodes.append(n)
        self.y[n], self.z[n] = y.copy(), z.copy()
        self.gamma[n] = None if gamma is None else gamma.copy()

    def stacked(self, columns):
        return np.stack([columns[n] for n in sorted(columns)], axis=1)


class TestStream:
    """The sweep hands each node's columns to an observer and keeps none."""

    @pytest.mark.parametrize("solve", [backward_solve_2bsde, backward_solve_semilinear])
    def test_observer_sees_every_node_once_from_the_terminal_one(self, solve):
        spec = _correlated_spec(_constant_sigma)  # its driver is Gamma-free after the transform
        N, J = 5, 300
        seen = []

        def observe(n, y, z, gamma):
            seen.append(n)
            assert y.shape == (J,) and z.shape == (J, 2)
            assert y.flags.c_contiguous and z.flags.c_contiguous
            if solve is backward_solve_semilinear:
                assert gamma is None
            else:
                assert gamma.shape == (J, 2, 2) and gamma.flags.c_contiguous

        sol = solve(spec, _simulate(spec, N, J, 3), BASIS2, observe=observe)
        assert seen == list(range(N, -1, -1))
        assert sol.Y is None and sol.Z is None and sol.Gamma is None

    @pytest.mark.parametrize("case", ["hjb_uncertain_vol", "domain_control", "boundary_heat"])
    def test_history_is_the_observed_columns(self, case):
        if case == "domain_control":
            # Most paths leave the narrow box within a few steps, so late
            # nodes fit on every path (fewer alive than basis functions) or
            # have none alive.
            spec = dataclasses.replace(TestNodeHamiltonians._domain_control_spec(),
                                       domain=model.Box(np.array([0.92]), np.array([1.08])))
            N, J, solve = 16, 60, backward_solve_2bsde
        elif case == "boundary_heat":
            spec, N, J, solve = model.catalog_get(case), 16, 4000, backward_solve_semilinear
        else:
            spec, N, J, solve = model.catalog_get(case), 16, 3000, backward_solve_2bsde
        batch = _simulate(spec, N, J, 8)
        kept = solve(spec, batch, BASIS2)
        columns = _Columns()
        streamed = solve(spec, batch, BASIS2, observe=columns)
        if case == "domain_control":
            alive = [f["alive"] for f in kept.fits]
            p = regress.basis_size(BASIS2, 1)
            assert any(0 < a < p for a in alive) and 0 in alive  # fallback fits, none alive
        if case == "boundary_heat":
            assert 0 < np.count_nonzero(batch.stop_index < N) < J

        assert sorted(columns.nodes) == list(range(N + 1))
        np.testing.assert_array_equal(kept.Y, columns.stacked(columns.y))
        np.testing.assert_array_equal(kept.Z, columns.stacked(columns.z))
        if solve is backward_solve_2bsde:
            np.testing.assert_array_equal(kept.Gamma, columns.stacked(columns.gamma))
            np.testing.assert_array_equal(kept.control_means, streamed.control_means)
        else:
            assert kept.Gamma is None and set(columns.gamma.values()) == {None}
        assert kept.root_value == streamed.root_value

    def test_memory_does_not_grow_with_the_grid(self):
        spec = model.catalog_get("heat")
        peaks = {}
        for N in (16, 128):
            batch = _simulate(spec, N, 20_000, 7)
            means = []
            tracemalloc.start()
            try:
                backward_solve_2bsde(spec, batch, BASIS2,
                                     observe=lambda n, y, z, gamma: means.append(y.mean()))
                peaks[N] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(means) == N + 1
        assert peaks[128] <= 1.5 * peaks[16]
