"""Tests for the control-problem generator and control extraction."""

from types import SimpleNamespace

import numpy as np
import pytest

from parabolica.errors import ConfigError, MissingGamma
from parabolica.hjb import (
    ControlProblem,
    as_problem,
    control_problem_from_dict,
    extract_control,
    hamiltonian,
    hjb_generator,
    uncertain_volatility_control,
)
from parabolica.model import catalog_get, problem_from_dict, validate_assumptions


def constant_matrix_problem(lo=0.1, hi=0.2, resolution=21):
    """a(u) = u as a constant 1x1 matrix; no drift, no reward."""
    zeros = lambda t, x, u: np.zeros(len(x))
    return ControlProblem(
        dim=1,
        control_dim=1,
        lower=np.array([lo]),
        upper=np.array([hi]),
        alpha=zeros,
        beta=zeros,
        b=lambda t, x, u: np.zeros_like(x),
        a=lambda t, x, u: np.full((len(x), 1, 1), u[0]),
        resolution=resolution,
    )


def fake_solution(Y, Z, Gamma):
    return SimpleNamespace(Y=Y, Z=Z, Gamma=Gamma)


def fake_batch(X, times):
    return SimpleNamespace(X=X, grid=SimpleNamespace(times=np.asarray(times, dtype=float)))


class TestGenerator:
    def test_singleton_control_set_is_the_linear_generator(self):
        cp = constant_matrix_problem(lo=0.15, hi=0.15)
        f = hjb_generator(cp)
        x = np.array([[1.0], [2.0], [-3.0]])
        y = np.array([0.5, -1.0, 2.0])
        z = np.array([[0.1], [0.2], [0.3]])
        gam = np.array([[[2.0]], [[-1.0]], [[0.5]]])
        got = f(0.3, x, y, z, gam)
        # With one control point the max is that point's objective, so
        # f is exactly minus the Hamiltonian there.
        expected = -hamiltonian(cp, 0.3, x, y, z, gam, np.array([0.15]))
        np.testing.assert_array_equal(got, expected)

    def test_negative_hessian_argument_prefers_low_volatility(self):
        f = hjb_generator(constant_matrix_problem())
        x = np.array([[7.0]])  # irrelevant: a(u) does not depend on x
        gam = np.array([[[-2.0]]])
        val = f(0.0, x, np.zeros(1), np.zeros((1, 1)), gam)[0]
        # max_u of 0.5*u^2*(-2) = -u^2 sits at u = 0.1; f is its negative.
        assert val == pytest.approx(0.01, rel=1e-12)

    def test_positive_hessian_argument_prefers_high_volatility(self):
        f = hjb_generator(constant_matrix_problem())
        x = np.array([[7.0]])
        gam = np.array([[[2.0]]])
        val = f(0.0, x, np.zeros(1), np.zeros((1, 1)), gam)[0]
        assert val == pytest.approx(-0.04, rel=1e-12)

    def test_generator_value_is_attained_by_extracted_control(self):
        # max/argmax coherence: -f equals the Hamiltonian at the control
        # the extractor picks, bit for bit.
        cp = ControlProblem(
            dim=1,
            control_dim=1,
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            alpha=lambda t, x, u: np.sin(3 * u[0]) * x[:, 0],
            beta=lambda t, x, u: np.full(len(x), -0.1 * u[0] ** 2),
            b=lambda t, x, u: np.full_like(x, u[0]),
            a=lambda t, x, u: np.full((len(x), 1, 1), 0.5 + 0.4 * u[0]),
            resolution=9,
        )
        rng = np.random.default_rng(21)
        J = 32
        x = rng.uniform(-2, 2, size=(J, 1))
        y = rng.uniform(-1, 1, size=J)
        z = rng.uniform(-1, 1, size=(J, 1))
        gam = rng.uniform(-2, 2, size=(J, 1, 1))
        f_val = hjb_generator(cp)(0.25, x, y, z, gam)

        sol = fake_solution(y[:, None], z[:, None, :], gam[:, None, :, :])
        batch = fake_batch(x[:, None, :], [0.25])
        u_hat = extract_control(cp, sol, batch)[:, 0, :]
        for j in range(J):
            h = hamiltonian(cp, 0.25, x[j:j + 1], y[j:j + 1], z[j:j + 1],
                            gam[j:j + 1], u_hat[j])
            assert -f_val[j] == h[0]

    def test_grid_refinement_can_only_lower_f(self):
        # A denser grid sees a larger max, so f shrinks (or stays put
        # when the coarse grid already contains the maximizer).
        def reward(t, x, u):
            return -((u[0] - 0.13) ** 2) * np.ones(len(x))

        def make(resolution):
            return ControlProblem(
                dim=1, control_dim=1,
                lower=np.array([0.1]), upper=np.array([0.2]),
                alpha=reward,
                beta=lambda t, x, u: np.zeros(len(x)),
                b=lambda t, x, u: np.zeros_like(x),
                a=lambda t, x, u: np.zeros((len(x), 1, 1)),
                resolution=resolution,
            )

        # grid(3) = {0.1, 0.15, 0.2} is a subset of grid(5).
        x = np.zeros((4, 1))
        args = (x, np.zeros(4), np.zeros((4, 1)), np.zeros((4, 1, 1)))
        f3 = hjb_generator(make(3))(0.0, *args)
        f5 = hjb_generator(make(5))(0.0, *args)
        assert np.all(f5 <= f3)
        assert np.all(f5 < f3)  # 0.125 beats both of {0.1, 0.15} here

    def test_assembled_generator_is_degenerate_elliptic(self):
        report = validate_assumptions(catalog_get("hjb_uncertain_vol"), samples=500, seed=9)
        assert report["monotone_in_gamma"].passed

    def test_nonfinite_objective_raises(self):
        from parabolica.errors import NonFinite

        cp = constant_matrix_problem()
        f = hjb_generator(cp)
        with pytest.raises(NonFinite):
            f(0.0, np.array([[1.0]]), np.array([np.inf]), np.ones((1, 1)),
              np.ones((1, 1, 1)))


class TestControlProblem:
    def test_grid_includes_endpoints_lexicographic(self):
        cp = ControlProblem(
            dim=1, control_dim=2,
            lower=np.array([0.0, 10.0]), upper=np.array([1.0, 20.0]),
            alpha=lambda t, x, u: np.zeros(len(x)),
            beta=lambda t, x, u: np.zeros(len(x)),
            b=lambda t, x, u: np.zeros_like(x),
            a=lambda t, x, u: np.zeros((len(x), 1, 1)),
            resolution=3,
        )
        grid = cp.grid()
        assert grid.shape == (9, 2)
        np.testing.assert_array_equal(grid[0], [0.0, 10.0])
        np.testing.assert_array_equal(grid[1], [0.0, 15.0])  # last axis fastest
        np.testing.assert_array_equal(grid[-1], [1.0, 20.0])

    def test_unbounded_control_set_rejected(self):
        with pytest.raises(ConfigError):
            constant_matrix_problem(lo=0.1, hi=np.inf)

    def test_positive_beta_rejected(self):
        zeros = lambda t, x, u: np.zeros(len(x))
        cp = ControlProblem(
            dim=1, control_dim=1,
            lower=np.array([0.0]), upper=np.array([1.0]),
            alpha=zeros,
            beta=lambda t, x, u: np.full(len(x), 0.5),
            b=lambda t, x, u: np.zeros_like(x),
            a=lambda t, x, u: np.zeros((len(x), 1, 1)),
        )
        with pytest.raises(ConfigError):
            as_problem(cp, catalog_get("bsb_uncertain_vol"))

    def test_resolution_must_be_positive(self):
        with pytest.raises(ConfigError):
            constant_matrix_problem(resolution=0)


class TestExtractControl:
    def test_singleton_control_is_constant(self):
        cp = constant_matrix_problem(lo=0.15, hi=0.15)
        J, N = 5, 3
        sol = fake_solution(np.zeros((J, N + 1)), np.zeros((J, N + 1, 1)),
                            np.ones((J, N + 1, 1, 1)))
        batch = fake_batch(np.ones((J, N + 1, 1)), np.linspace(0, 1, N + 1))
        u = extract_control(cp, sol, batch)
        assert u.shape == (J, N + 1, 1)
        assert np.all(u == 0.15)

    def test_sign_of_hessian_estimate_selects_the_volatility(self):
        cp = uncertain_volatility_control()
        J, N = 6, 2
        gam = np.empty((J, N + 1, 1, 1))
        gam[:3] = 1.5   # convex region -> upper bound
        gam[3:] = -0.7  # concave region -> lower bound
        sol = fake_solution(np.zeros((J, N + 1)), np.zeros((J, N + 1, 1)), gam)
        batch = fake_batch(np.full((J, N + 1, 1), 2.0), np.linspace(0, 1, N + 1))
        u = extract_control(cp, sol, batch)
        assert np.all(u[:3] == 0.2)
        assert np.all(u[3:] == 0.1)

    def test_missing_gamma(self):
        cp = uncertain_volatility_control()
        sol = fake_solution(np.zeros((2, 2)), np.zeros((2, 2, 1)), None)
        batch = fake_batch(np.ones((2, 2, 1)), [0.0, 1.0])
        with pytest.raises(MissingGamma):
            extract_control(cp, sol, batch)

    def test_tie_break_takes_first_grid_point(self):
        # With x = 0 the objective is identically zero: every control
        # ties and the first grid point must win deterministically.
        cp = uncertain_volatility_control()
        sol = fake_solution(np.zeros((3, 1)), np.zeros((3, 1, 1)),
                            np.ones((3, 1, 1, 1)))
        batch = fake_batch(np.zeros((3, 1, 1)), [0.0])
        u = extract_control(cp, sol, batch)
        assert np.all(u == 0.1)


class TestFromDict:
    def test_uncertain_vol_expressions_match_builtin(self):
        cp = control_problem_from_dict(
            {"control_dim": 1, "lower": [0.1], "upper": [0.2], "a": [["u[0]*x[0]"]]},
            dim=1,
        )
        ref = uncertain_volatility_control()
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.5, size=(30, 1))
        gam = rng.uniform(-2, 2, size=(30, 1, 1))
        f1 = hjb_generator(cp)(0.1, x, np.zeros(30), np.zeros((30, 1)), gam)
        f2 = hjb_generator(ref)(0.1, x, np.zeros(30), np.zeros((30, 1)), gam)
        np.testing.assert_array_equal(f1, f2)

    def test_missing_a_rejected(self):
        with pytest.raises(ConfigError):
            control_problem_from_dict({"control_dim": 1, "lower": [0.0], "upper": [1.0]}, dim=1)

    def test_wrong_b_width_rejected(self):
        with pytest.raises(ConfigError):
            control_problem_from_dict(
                {"control_dim": 1, "lower": [0.0], "upper": [1.0],
                 "b": ["0", "0"], "a": [["u[0]"]]},
                dim=1,
            )


class TestDiscountScreen:
    """The sign of beta is screened over the problem's own horizon and domain."""

    @staticmethod
    def _problem(beta, **extra):
        return dict({
            "dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["1"]], "g": "x[0]",
            "control": {"control_dim": 1, "lower": [0.0], "upper": [1.0],
                        "beta": beta, "a": [["1"]]},
        }, **extra)

    def test_beta_negative_on_the_domain_is_accepted(self):
        # 8 - x is positive on most of [-5, 5] but negative on (10, 20).
        obj = self._problem("8 - x[0]", domain={"lower": [10.0], "upper": [20.0]},
                            x0=[15.0])
        assert problem_from_dict(obj).control is not None

    def test_beta_positive_late_in_the_horizon_is_rejected(self):
        # t - 1.5 is positive only for t in (1.5, 2].
        with pytest.raises(ConfigError, match="beta must be <= 0"):
            problem_from_dict(self._problem("t - 1.5", horizon=2.0))


def test_as_problem_swaps_the_generator():
    base = catalog_get("bsb_uncertain_vol")
    cp = uncertain_volatility_control()
    spec = as_problem(cp, base, name="assembled")
    assert spec.name == "assembled"
    assert spec.control is cp and spec.linear_parts is None
    rng = np.random.default_rng(4)
    x = rng.uniform(0.5, 2.0, size=(20, 1))
    gam = rng.uniform(-1, 1, size=(20, 1, 1))
    got = spec.f(0.5, x, np.zeros(20), np.zeros((20, 1)), gam)
    want = base.f(0.5, x, np.zeros(20), np.zeros((20, 1)), gam)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    # simulation coefficients are untouched
    np.testing.assert_array_equal(spec.sigma(x), base.sigma(x))
