"""Tests for the semi-linear backward solver."""

import dataclasses
import math

import numpy as np
import pytest

from parabolica import model, paths
from parabolica.backward import (
    BackwardSolution,
    backward_solve_semilinear,
    picard_y,
    screen_driver,
)
from parabolica.errors import GammaDependence, NonFinite
from parabolica.regress import BasisSpec

BASIS2 = BasisSpec(kind="polynomial", degree=2)


def _simulate(spec, N, J, seed):
    grid = paths.TimeGrid(0.0, spec.horizon, N)
    return paths.euler_simulate(spec, grid, spec.x0_default, J=J, seed=seed)


def _inverse_exp_spec():
    """phi(y) = +y after the transform; exact value e^{-T} for g == 1."""
    base = model.catalog_get("semilinear_exp")
    return dataclasses.replace(
        base,
        f=lambda t, x, y, z, gamma: (
            np.asarray(y, dtype=np.float64)
            - 0.5 * np.trace(gamma, axis1=-2, axis2=-1)
        ),
        analytic_v=None,
        name="inverse_exp",
    )


def _picard2_recurrence(c, N):
    """Root value the two-sweep scheme produces for phi(y) = c*y, g == 1.

    With constant targets the per-step regression returns the constant, so
    the solver reduces to y <- y_next * (1 - c*dt*(1 - c*dt)) at every step.
    """
    dt = 1.0 / N
    return (1.0 - c * dt * (1.0 - c * dt)) ** N


class TestGeneratorScreening:
    def test_catalog_problems_with_gamma_free_drivers_pass(self):
        for name in ("heat", "gbm_linear", "semilinear_exp"):
            screen_driver(model.catalog_get(name), gamma_free=True)

    def test_transformed_driver_drops_the_trace_term(self):
        # semilinear_exp has f = -y - (1/2)tr(gamma) with sigma = I, so the
        # transform cancels the trace exactly and phi(y) = -y survives.
        spec = model.catalog_get("semilinear_exp")
        screen_driver(spec, gamma_free=True)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 1))
        y = rng.normal(size=40)
        z = rng.normal(size=(40, 1))
        # The sweep evaluates a gamma-free phi = f + mu'z + trace at a zero Hessian.
        gamma = np.zeros((40, 1, 1))
        sig = spec.sigma(x)
        mu_z, trace = model.ito_terms(spec.mu(x), sig, z, gamma, model.diagonal(sig))
        np.testing.assert_array_equal((spec.f(0.25, x, y, z, gamma) + mu_z) + trace, -y)

    def test_discount_bond_driver_keeps_gamma_dependence(self):
        # f = r*y with a non-degenerate sigma leaves +tr(sigma sigma' gamma)/2
        # in phi, so the screen must push this problem to the full solver.
        with pytest.raises(GammaDependence, match="discount_bond"):
            screen_driver(model.catalog_get("discount_bond"), gamma_free=True)

    def test_uncertain_volatility_driver_is_rejected(self):
        with pytest.raises(GammaDependence):
            screen_driver(model.catalog_get("bsb_uncertain_vol"), gamma_free=True)

    def test_solver_entry_point_screens_too(self):
        batch = _simulate(model.catalog_get("discount_bond"), 4, 50, 0)
        with pytest.raises(GammaDependence):
            backward_solve_semilinear(
                model.catalog_get("discount_bond"), batch, BASIS2
            )


class TestTerminalPinning:
    def test_terminal_column_is_the_payoff_bitwise(self):
        spec = model.catalog_get("heat")
        batch = _simulate(spec, 4, 500, 0)
        sol = backward_solve_semilinear(spec, batch, BASIS2)
        np.testing.assert_array_equal(sol.Y[:, 4], spec.g(batch.X[:, 4]))
        np.testing.assert_array_equal(sol.Z[:, 4], spec.dg(batch.X[:, 4]))

    def test_gamma_is_absent_from_semilinear_solutions(self):
        spec = model.catalog_get("heat")
        sol = backward_solve_semilinear(spec, _simulate(spec, 4, 200, 1), BASIS2)
        assert isinstance(sol, BackwardSolution)
        assert sol.Gamma is None


class TestConstantPayoff:
    """phi == 0 with g == c: Y stays at c, Z is regression noise around 0."""

    def test_y_is_constant_and_z_is_noise_around_zero(self):
        spec = dataclasses.replace(
            model.catalog_get("heat"),
            g=lambda x: np.full(len(x), 2.0),
            dg=lambda x: np.zeros_like(x),
            analytic_v=None,
            name="flat",
        )
        sol = backward_solve_semilinear(spec, _simulate(spec, 8, 5000, 3), BASIS2)
        assert np.abs(sol.Y - 2.0).max() <= 1e-12
        assert math.sqrt(np.mean(sol.Z**2)) <= 0.3
        assert sol.root_value.value == pytest.approx(2.0, abs=1e-12)


class TestExponentialValues:
    def test_decay_driver_reaches_e_within_budget(self):
        spec = model.catalog_get("semilinear_exp")
        for N in (32, 64):
            sol = backward_solve_semilinear(spec, _simulate(spec, N, 20_000, 1), BASIS2)
            rv = sol.root_value
            budget = 0.5 / math.sqrt(N) + 3.0 * rv.stderr
            assert abs(rv.value - math.e) <= budget

    def test_two_sweep_fixed_point_matches_scalar_recurrence(self):
        # g == 1 makes every regression target constant, so the root value
        # is a pure function of N; pin it against the scalar recurrence.
        spec = model.catalog_get("semilinear_exp")
        sol = backward_solve_semilinear(spec, _simulate(spec, 32, 20_000, 1), BASIS2)
        expected = _picard2_recurrence(-1.0, 32)
        assert sol.root_value.value == pytest.approx(expected, rel=1e-10)

    def test_growth_driver_reaches_inverse_e(self):
        spec = _inverse_exp_spec()
        sol = backward_solve_semilinear(spec, _simulate(spec, 32, 20_000, 1), BASIS2)
        rv = sol.root_value
        assert abs(rv.value - math.exp(-1.0)) <= 0.5 / math.sqrt(32) + 3.0 * rv.stderr
        assert rv.value == pytest.approx(_picard2_recurrence(1.0, 32), rel=1e-10)

    def test_scaled_error_does_not_explode_as_steps_increase(self):
        spec = model.catalog_get("semilinear_exp")
        scaled = {}
        for N in (32, 128):
            sol = backward_solve_semilinear(spec, _simulate(spec, N, 20_000, 7), BASIS2)
            scaled[N] = math.sqrt(N) * abs(sol.root_value.value - math.e)
        assert scaled[128] <= 2.0 * scaled[32]


class TestMeanPreservation:
    def test_trivial_driver_root_equals_sample_mean_of_payoff(self):
        # With phi == 0 every step is a plain projection and the basis
        # contains constants, so the nested means telescope to mean(g(X_T)).
        spec = model.catalog_get("heat")
        batch = _simulate(spec, 8, 2000, 4)
        sol = backward_solve_semilinear(spec, batch, BASIS2)
        target = float(np.mean(spec.g(batch.X[:, 8])))
        assert sol.root_value.value == pytest.approx(target, rel=1e-13)


class TestPicardIteration:
    def test_iterates_contract_at_exactly_lipschitz_times_dt(self):
        expectation = np.array([2.0, -3.0, 0.7])
        correction = lambda y: -y  # noqa: E731 - Lipschitz constant 1
        diffs = []
        previous = None
        for iters in (1, 2, 3):
            y, _ = picard_y(expectation, correction, 0.125, iters)
            if previous is not None:
                diffs.append(np.abs(y - previous))
            previous = y
        ratio = diffs[1] / diffs[0]
        np.testing.assert_allclose(ratio, 0.125, rtol=1e-12)

    def test_solver_level_sweeps_contract_like_dt(self):
        # Across the whole backward pass the per-node contraction compounds
        # with re-fitted expectations, so allow a modest accumulation margin.
        spec = model.catalog_get("semilinear_exp")
        batch = _simulate(spec, 8, 5000, 3)
        roots = [
            backward_solve_semilinear(spec, batch, BASIS2, picard_iters=k).root_value.value
            for k in (1, 2, 3)
        ]
        d1, d2 = abs(roots[1] - roots[0]), abs(roots[2] - roots[1])
        lipschitz, dt = 1.0, 1.0 / 8
        assert d2 / d1 <= lipschitz * dt * 1.2


class TestStoppedPaths:
    def test_absorbed_paths_carry_their_exit_value(self):
        spec = model.catalog_get("boundary_heat")
        batch = _simulate(spec, 32, 20_000, 9)
        sol = backward_solve_semilinear(spec, batch, BASIS2)

        assert abs(sol.root_value.value - 0.5) <= 0.05
        stopped = np.flatnonzero(batch.stop_index < 32)
        assert stopped.size > 0
        for j in stopped[:25]:
            k = batch.stop_index[j]
            np.testing.assert_array_equal(sol.Y[j, k:], sol.Y[j, 32])
            assert np.all(sol.Z[j, k:32] == 0.0)

    def test_root_uncertainty_is_positive_for_random_payoffs(self):
        spec = model.catalog_get("heat")
        sol = backward_solve_semilinear(spec, _simulate(spec, 8, 4000, 2), BASIS2)
        assert sol.root_value.stderr > 0.0
        assert sol.root_value.J == 4000


class TestFitDiagnostics:
    def test_one_record_per_step_in_time_order(self):
        spec = model.catalog_get("heat")
        batch = _simulate(spec, 8, 1000, 5)
        sol = backward_solve_semilinear(spec, batch, BASIS2)
        assert len(sol.fits) == 8
        assert [f["n"] for f in sol.fits] == list(range(8))
        for record in sol.fits:
            assert set(record) >= {"n", "t", "y", "z", "gamma", "alive"}
            assert record["t"] == batch.grid.times[record["n"]]
            assert record["alive"] == 1000  # heat never stops
            assert record["gamma"] is None


class TestFailureModes:
    def test_exploding_driver_reports_the_step(self):
        spec = dataclasses.replace(
            model.catalog_get("semilinear_exp"),
            f=lambda t, x, y, z, gamma: (
                -1e8 * np.asarray(y, dtype=np.float64) ** 3
                - 0.5 * np.trace(gamma, axis1=-2, axis2=-1)
            ),
            analytic_v=None,
            name="blowup",
        )
        with np.errstate(over="ignore"), pytest.raises(NonFinite, match=r"step \d+"):
            backward_solve_semilinear(spec, _simulate(spec, 8, 200, 0), BASIS2)
