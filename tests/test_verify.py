"""Tests for the finite-difference and residual oracles."""

import dataclasses
import math

import numpy as np
import pytest

from parabolica import model, paths
from parabolica.errors import (
    CflViolation,
    ConfigError,
    DimensionMismatch,
    MissingAnalyticV,
    NonFinite,
)
from parabolica.model import ProblemSpec
from parabolica.paths import TimeGrid, euler_simulate
from parabolica.verify import (
    FdGrid,
    FdSolution,
    diffusion_slope,
    fd_solve_1d,
    twobsde_residuals,
    verify_problem,
)


def _heat_like_spec(g, name="payoff"):
    """1-D dynamics dX = dW with generator -(1/2) v_xx and payoff g."""
    return ProblemSpec(
        dim=1,
        horizon=0.5,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)).copy(),
        f=lambda t, x, y, z, gamma: -0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        g=g,
        x0_default=np.array([0.0]),
        name=name,
    )


class TestFdGrid:
    def test_stability_bound_enforced_at_construction(self):
        with pytest.raises(CflViolation, match="unstable"):
            FdGrid(-6.0, 6.0, 401, 100, 1.0, 0.5)

    def test_step_count_formula(self):
        # dx = 0.1, so dt <= 0.01 and a unit horizon needs 100 steps.
        assert FdGrid.cfl_steps(0.0, 1.0, 11, 1.0, 0.5) == 100
        assert FdGrid.cfl_steps(0.0, 1.0, 11, 1.0, 0.0) == 1

    def test_for_problem_sizes_to_the_probed_slope(self):
        grid = FdGrid.for_problem(model.catalog_get("heat"), -6.0, 6.0, 401)
        assert grid.dt <= grid.dx**2 / (2.0 * grid.a_max) * (1 + 1e-12)
        assert grid.a_max == pytest.approx(0.5, rel=1e-9)

    def test_malformed_grids_are_config_errors(self):
        with pytest.raises(ConfigError):
            FdGrid(1.0, -1.0, 11, 10, 1.0, 0.0)
        with pytest.raises(ConfigError):
            FdGrid(-1.0, 1.0, 2, 10, 1.0, 0.0)
        with pytest.raises(ConfigError):
            FdGrid(-1.0, 1.0, 11, 0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            FdGrid(-1.0, 1.0, 11, 10, 1.0, -0.5)


class TestDiffusionSlope:
    def test_heat_slope_is_half(self):
        assert diffusion_slope(model.catalog_get("heat"), -6.0, 6.0) == pytest.approx(
            0.5, rel=1e-9
        )

    def test_uncertain_vol_slope_peaks_at_the_far_edge(self):
        # |df/dgamma| = (1/2) * vol_hi^2 * x^2, largest at x = 5.
        slope = diffusion_slope(model.catalog_get("bsb_uncertain_vol"), 0.2, 5.0)
        assert slope == pytest.approx(0.5 * 0.04 * 25.0, rel=1e-6)

    def test_multidimensional_problems_are_rejected(self):
        spec = dataclasses.replace(
            model.catalog_get("heat"),
            dim=2,
            x0_default=np.zeros(2),
            name="heat2d",
        )
        with pytest.raises(DimensionMismatch):
            diffusion_slope(spec, -1.0, 1.0)


class TestFdSolve:
    def test_zero_dynamics_keep_the_surface_constant(self):
        spec = _heat_like_spec(lambda x: np.full(len(x), 3.25), name="flat")
        spec = dataclasses.replace(
            spec, f=lambda t, x, y, z, gamma: np.zeros(len(x))
        )
        grid = FdGrid(-1.0, 1.0, 21, 4, spec.horizon, 0.0)
        surface = fd_solve_1d(spec, grid)
        np.testing.assert_array_equal(surface.V, np.full((5, 21), 3.25))

    def test_heat_matches_the_closed_form_inside_the_window(self):
        spec = model.catalog_get("heat")
        grid = FdGrid.for_problem(spec, -6.0, 6.0, 401)
        surface = fd_solve_1d(spec, grid)
        window = np.abs(surface.xs) <= 3.0
        truth = np.stack(
            [spec.analytic_v.value(t, surface.xs[:, None]) for t in surface.times]
        )
        assert np.abs(surface.V[:, window] - truth[:, window]).max() <= 5e-3

    def test_uncertain_vol_matches_the_closed_form(self):
        spec = model.catalog_get("bsb_uncertain_vol")
        grid = FdGrid.for_problem(spec, 0.2, 5.0, 601)
        surface = fd_solve_1d(spec, grid)
        window = (surface.xs >= 0.5) & (surface.xs <= 2.0)
        truth = np.stack(
            [spec.analytic_v.value(t, surface.xs[:, None]) for t in surface.times]
        )
        rel = np.abs(surface.V[:, window] - truth[:, window]) / truth[:, window]
        assert rel.max() <= 1e-2

    def test_interpolation_hits_grid_nodes_and_clamps(self):
        spec = model.catalog_get("heat")
        grid = FdGrid.for_problem(spec, -6.0, 6.0, 101)
        surface = fd_solve_1d(spec, grid)
        assert surface.value_at(0.0, 0.0) == pytest.approx(1.0, abs=1e-6)
        # x = 3.0 is a grid node, so the terminal row is hit exactly
        assert surface.value_at(1.0, 3.0) == pytest.approx(9.0, abs=1e-9)
        # outside the box: clamped to the nearest node, not extrapolated
        assert surface.value_at(1.0, 50.0) == pytest.approx(36.0, abs=1e-9)

    def test_exploding_generator_reports_the_step(self):
        spec = dataclasses.replace(
            _heat_like_spec(lambda x: x[:, 0] ** 2),
            f=lambda t, x, y, z, gamma: np.full(len(x), np.nan),
        )
        grid = FdGrid(-1.0, 1.0, 21, 8, spec.horizon, 0.0)
        with pytest.raises(NonFinite, match=r"time step \d+"):
            fd_solve_1d(spec, grid)

    def test_multidimensional_problems_are_rejected(self):
        spec = dataclasses.replace(
            model.catalog_get("heat"), dim=2, x0_default=np.zeros(2), name="heat2d"
        )
        with pytest.raises(DimensionMismatch):
            fd_solve_1d(spec, FdGrid(-1.0, 1.0, 11, 50, 1.0, 0.5))


class TestComparisonPrinciple:
    def test_ordered_payoffs_give_ordered_surfaces(self):
        # Ten random payoff pairs with g1 >= g2 pointwise: the monotone
        # explicit scheme must keep the surfaces ordered at every node.
        rng = np.random.default_rng(2024)
        grid = FdGrid(-2.0, 2.0, 41, 50, 0.5, 0.5)
        for _ in range(10):
            amp = rng.uniform(0.2, 2.0, size=3)
            freq = rng.uniform(0.5, 3.0, size=2)
            shift = rng.uniform(-1.0, 1.0)
            center = rng.uniform(-1.5, 1.5)
            width = rng.uniform(0.3, 1.5)
            height = rng.uniform(0.05, 1.0)

            def g_low(x, a=amp, fr=freq, s=shift):
                u = x[:, 0]
                return a[0] * np.sin(fr[0] * u) + a[1] * np.cos(fr[1] * u) + a[2] * u**2 + s

            def g_high(x, base=g_low, c=center, w=width, h=height):
                return base(x) + h * np.exp(-((x[:, 0] - c) ** 2) / w**2)

            v_low = fd_solve_1d(_heat_like_spec(g_low, "low"), grid).V
            v_high = fd_solve_1d(_heat_like_spec(g_high, "high"), grid).V
            assert (v_high - v_low).min() >= -1e-10


class TestResiduals:
    def test_first_residual_halves_with_the_step(self):
        spec = model.catalog_get("heat")
        aggregate = {}
        for N in (32, 64, 128, 256):
            batch = euler_simulate(
                spec, TimeGrid(0.0, 1.0, N), spec.x0_default, J=10_000, seed=5
            )
            aggregate[N] = twobsde_residuals(spec, batch)["r1_aggregate"]
        for a, b in ((32, 64), (64, 128), (128, 256)):
            assert aggregate[a] / aggregate[b] >= 1.8

    def test_first_residual_magnitude_is_the_ito_remainder(self):
        # For the heat problem the step residual is dW^2 - dt, whose RMS
        # is sqrt(2)*dt.
        spec = model.catalog_get("heat")
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 64), spec.x0_default, J=10_000, seed=5)
        report = twobsde_residuals(spec, batch)
        assert report["r1_aggregate"] * 64 / math.sqrt(2.0) == pytest.approx(1.0, abs=0.05)

    def test_second_residual_vanishes_identically_for_constant_hessians(self):
        spec = model.catalog_get("heat")
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 64), spec.x0_default, J=2000, seed=3)
        report = twobsde_residuals(spec, batch)
        assert np.all(report["r2_rms"] == 0.0)
        assert report["r2_aggregate"] == 0.0

    def test_frozen_paths_make_the_first_residual_exact(self):
        spec = dataclasses.replace(
            model.catalog_get("heat"),
            sigma=lambda x: np.zeros((len(x), 1, 1)),
            name="frozen_heat",
        )
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 8), spec.x0_default, J=20, seed=0)
        report = twobsde_residuals(spec, batch)
        assert np.all(report["r1_rms"] == 0.0)

    def test_requires_an_analytic_solution(self):
        spec = dataclasses.replace(
            model.catalog_get("heat"), analytic_v=None, name="heat_blind"
        )
        batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 4), spec.x0_default, J=10, seed=0)
        with pytest.raises(MissingAnalyticV, match="heat_blind"):
            twobsde_residuals(spec, batch)

    def test_terminal_disagreement_is_loud(self):
        spec = model.catalog_get("heat")
        broken = dataclasses.replace(
            spec,
            g=lambda x: x[:, 0] ** 2 + 1e-9,
            name="heat_offset",
        )
        batch = euler_simulate(broken, TimeGrid(0.0, 1.0, 4), broken.x0_default, J=10, seed=0)
        assert twobsde_residuals(broken, batch)["terminal_gap"] == pytest.approx(1e-9, rel=1e-6)
        report = verify_problem(broken, residual_Ns=(8, 16), residual_J=200)
        check = report["checks"][-1]
        assert check["name"] == "terminal_identity"
        assert check["metric"] == pytest.approx(1e-9, rel=1e-6)
        assert check["pass"] is False


class TestVerifyProblem:
    def test_heat_report_passes_every_check(self):
        report = verify_problem(
            model.catalog_get("heat"), residual_Ns=(32, 64), residual_J=4000
        )
        names = [c["name"] for c in report["checks"]]
        assert names == ["fd_oracle", "residual_rate", "terminal_identity"]
        for check in report["checks"]:
            assert set(check) == {"name", "metric", "threshold", "pass"}
            assert check["pass"] is True

    def test_uncertain_vol_report_with_problem_specific_window(self):
        report = verify_problem(
            model.catalog_get("bsb_uncertain_vol"),
            x_lo=0.2,
            x_hi=5.0,
            M=601,
            window=(0.5, 2.0),
            fd_tol=1e-2,
            fd_relative=True,
            residual_Ns=(32, 64),
            residual_J=2000,
        )
        assert all(check["pass"] for check in report["checks"])

    def test_requires_an_analytic_solution(self):
        blind = dataclasses.replace(
            model.catalog_get("heat"), analytic_v=None, name="heat_blind"
        )
        with pytest.raises(MissingAnalyticV):
            verify_problem(blind)
