"""Tests for problem specifications, the catalog, and the driver screen."""

import dataclasses

import numpy as np
import pytest

from parabolica.backward import screen_driver
from parabolica.errors import (
    ConfigError,
    MissingAnalyticV,
    NonFinite,
    UnknownProblem,
)
from parabolica.model import (
    Box,
    ProblemSpec,
    analytic_residual,
    as_points,
    catalog_get,
    catalog_names,
    problem_from_dict,
)

ALL_NAMES = ("heat", "discount_bond", "gbm_linear", "semilinear_exp",
             "bsb_uncertain_vol", "hjb_uncertain_vol", "boundary_heat")


def interior_points(spec, n, rng):
    """Random (t, x) pairs strictly inside the time-space domain."""
    if spec.domain is not None:
        lo, hi = spec.domain.lower, spec.domain.upper
        width = hi - lo
        x = rng.uniform(lo + 0.05 * width, hi - 0.05 * width, size=(n, spec.dim))
    else:
        x = rng.uniform(-2.0, 3.0, size=(n, spec.dim))
    t = rng.uniform(0.0, spec.horizon * 0.999, size=n)
    return t, x


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) == set(ALL_NAMES)

    def test_unknown_name(self):
        with pytest.raises(UnknownProblem):
            catalog_get("heat_equation")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_analytic_solution_satisfies_pde(self, name):
        # The closed form must actually solve -v_t + f(t,x,v,Dv,D^2v) = 0
        # at 1000 random interior points.
        spec = catalog_get(name)
        assert spec.analytic_v is not None
        rng = np.random.default_rng(7)
        ts, xs = interior_points(spec, 1000, rng)
        for t in np.unique(np.round(ts, 3))[:50]:
            res = analytic_residual(spec, float(t), xs)
            assert np.max(np.abs(res)) <= 1e-8

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_terminal_condition_matches_g(self, name):
        spec = catalog_get(name)
        rng = np.random.default_rng(3)
        _, xs = interior_points(spec, 200, rng)
        v_term = spec.analytic_v.value(spec.horizon, xs)
        np.testing.assert_allclose(v_term, spec.g(xs), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_dg_matches_g_numerically(self, name):
        spec = catalog_get(name)
        rng = np.random.default_rng(11)
        _, xs = interior_points(spec, 100, rng)
        h = 1e-6
        for i in range(spec.dim):
            bump = np.zeros(spec.dim)
            bump[i] = h
            fd = (spec.g(xs + bump) - spec.g(xs - bump)) / (2 * h)
            np.testing.assert_allclose(spec.dg(xs)[:, i], fd, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_two_gets_evaluate_identically(self, name):
        a, b = catalog_get(name), catalog_get(name)
        assert a is not b
        rng = np.random.default_rng(5)
        ts, xs = interior_points(a, 64, rng)
        y = rng.uniform(-2, 2, size=64)
        z = rng.uniform(-2, 2, size=(64, a.dim))
        raw = rng.uniform(-2, 2, size=(64, a.dim, a.dim))
        gam = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
        t = float(ts[0])
        np.testing.assert_array_equal(a.mu(xs), b.mu(xs))
        np.testing.assert_array_equal(a.sigma(xs), b.sigma(xs))
        np.testing.assert_array_equal(a.g(xs), b.g(xs))
        np.testing.assert_array_equal(a.f(t, xs, y, z, gam), b.f(t, xs, y, z, gam))

    def test_coefficient_shapes(self):
        spec = catalog_get("gbm_linear")
        x = np.array([[1.0], [2.0], [0.5]])
        assert spec.mu(x).shape == (3, 1)
        assert spec.sigma(x).shape == (3, 1, 1)
        assert spec.g(x).shape == (3,)
        y = np.ones(3)
        z = np.ones((3, 1))
        gam = np.ones((3, 1, 1))
        assert spec.f(0.3, x, y, z, gam).shape == (3,)

    def test_heat_values(self):
        spec = catalog_get("heat")
        x = np.array([[1.5]])
        assert spec.analytic_v.value(0.0, x)[0] == pytest.approx(1.5**2 + 1.0)
        gam = np.array([[[4.0]]])
        assert spec.f(0.0, x, np.zeros(1), np.zeros((1, 1)), gam)[0] == -2.0

    def test_discount_bond_value_at_root(self):
        spec = catalog_get("discount_bond")
        x0 = spec.x0_default[None, :]
        assert spec.analytic_v.value(0.0, x0)[0] == pytest.approx(np.exp(-0.1), abs=1e-15)

    def test_bsb_picks_worst_case_volatility(self):
        # Convex payoff: the generator must price with the upper
        # volatility bound whenever the Hessian argument is positive.
        spec = catalog_get("bsb_uncertain_vol")
        x = np.array([[2.0]])
        up = spec.f(0.0, x, np.zeros(1), np.zeros((1, 1)), np.array([[[1.0]]]))[0]
        assert up == pytest.approx(-0.5 * 0.04 * 4.0)
        down = spec.f(0.0, x, np.zeros(1), np.zeros((1, 1)), np.array([[[-1.0]]]))[0]
        assert down == pytest.approx(0.5 * 0.01 * 4.0)

    def test_hjb_entry_matches_handwritten_generator(self):
        hj = catalog_get("hjb_uncertain_vol")
        bsb = catalog_get("bsb_uncertain_vol")
        rng = np.random.default_rng(19)
        x = rng.uniform(0.2, 3.0, size=(200, 1))
        y = rng.uniform(-1, 1, size=200)
        z = rng.uniform(-1, 1, size=(200, 1))
        gam = rng.uniform(-2, 2, size=(200, 1, 1))
        np.testing.assert_allclose(
            hj.f(0.4, x, y, z, gam), bsb.f(0.4, x, y, z, gam), rtol=1e-12, atol=1e-14
        )

    def test_boundary_heat_domain(self):
        spec = catalog_get("boundary_heat")
        assert spec.domain is not None
        inside = spec.domain.contains_open(np.array([[0.0], [1.9], [-0.99]]))
        assert inside.tolist() == [True, True, True]
        outside = spec.domain.contains_open(np.array([[-1.0], [2.0], [2.5]]))
        assert outside.tolist() == [False, False, False]


class TestDriverScreen:
    """The 2BSDE screen refuses a driver that increases in its Hessian argument."""

    @staticmethod
    def _flipped_heat():
        base = catalog_get("heat")
        return ProblemSpec(
            dim=1,
            horizon=1.0,
            mu=base.mu,
            sigma=base.sigma,
            f=lambda t, x, y, z, gamma: +0.5 * np.trace(gamma, axis1=-2, axis2=-1),
            g=base.g,
            name="heat_flipped",
        )

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_catalog_passes(self, name):
        screen_driver(catalog_get(name), gamma_free=False)

    def test_twobsde_bs_d4_inline_problem_passes(self):
        d, vol = 4, 0.2
        spec = problem_from_dict({
            "dim": d, "horizon": 1.0, "mu": ["0"] * d,
            "sigma": [[f"{vol}*x[{i}]" if i == j else "0" for j in range(d)] for i in range(d)],
            "f": " + ".join(f"-0.5*0.04*x[{i}]^2*gamma[{i}][{i}]" for i in range(d)),
            "g": " + ".join(f"x[{i}]^2" for i in range(d)),
            "x0": [1.0] * d,
        })
        screen_driver(spec, gamma_free=False)

    def test_sign_flipped_heat_is_refused(self):
        refusal = r"driver of 'heat_flipped' increases in gamma at t=\S+ \(margin -"
        with pytest.raises(ConfigError, match=refusal):
            screen_driver(self._flipped_heat(), gamma_free=False)

    @pytest.mark.parametrize("slope, refused", [(1e-13, False), (1e-6, True)])
    def test_a_rise_is_measured_against_a_relative_tolerance(self, slope, refused):
        spec = dataclasses.replace(
            catalog_get("heat"),
            f=lambda t, x, y, z, gamma: slope * np.trace(gamma, axis1=-2, axis2=-1),
            name="nearly_flat",
        )
        if refused:
            with pytest.raises(ConfigError, match="nearly_flat"):
                screen_driver(spec, gamma_free=False)
        else:
            screen_driver(spec, gamma_free=False)

    def test_nonfinite_mu_raises(self):
        base = catalog_get("heat")
        bad = ProblemSpec(
            dim=1, horizon=1.0,
            mu=lambda x: x * np.inf,
            sigma=base.sigma, f=base.f, g=base.g,
        )
        with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
            screen_driver(bad, gamma_free=False)


class TestBox:
    def test_requires_strict_ordering(self):
        with pytest.raises(ConfigError):
            Box(np.array([0.0]), np.array([0.0]))

    def test_contains_open_is_strict(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        x = np.array([[0.5, 1.0], [0.0, 1.0], [0.5, 2.0]])
        assert box.contains_open(x).tolist() == [True, False, False]

    def test_dimension_mismatch_with_spec(self):
        from parabolica.errors import DimensionMismatch

        base = catalog_get("heat")
        with pytest.raises(DimensionMismatch):
            ProblemSpec(dim=2, horizon=1.0, mu=base.mu, sigma=base.sigma,
                        f=base.f, g=base.g, domain=Box(np.array([0.0]), np.array([1.0])))


class TestProblemFromDict:
    HEAT = {
        "dim": 1,
        "horizon": 1.0,
        "mu": ["0"],
        "sigma": [["1"]],
        "f": "-0.5*trace(gamma)",
        "g": "x[0]^2",
        "dg": ["2*x[0]"],
        "linear": {"alpha": "0", "beta": "0"},
        "x0": [0.0],
    }

    def test_matches_catalog_heat(self):
        spec = problem_from_dict(self.HEAT)
        ref = catalog_get("heat")
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(50, 1))
        y = rng.uniform(-1, 1, size=50)
        z = rng.uniform(-1, 1, size=(50, 1))
        gam = rng.uniform(-1, 1, size=(50, 1, 1))
        np.testing.assert_array_equal(spec.mu(x), ref.mu(x))
        np.testing.assert_array_equal(spec.sigma(x), ref.sigma(x))
        np.testing.assert_allclose(spec.g(x), ref.g(x), rtol=0, atol=0)
        np.testing.assert_allclose(spec.f(0.2, x, y, z, gam), ref.f(0.2, x, y, z, gam))
        np.testing.assert_allclose(spec.dg(x), ref.dg(x))
        alpha, beta = spec.linear_parts
        assert np.all(alpha(0.1, x) == 0) and np.all(beta(0.1, x) == 0)

    def test_two_dimensional_coefficients(self):
        spec = problem_from_dict({
            "dim": 2,
            "horizon": 0.5,
            "mu": ["x[1]", "-x[0]"],
            "sigma": [["1", "0"], ["x[0]", "2"]],
            "f": "y - z[0]*z[1] - 0.5*trace(gamma)",
            "g": "max(x[0], x[1])",
        })
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        np.testing.assert_array_equal(spec.mu(x), np.array([[2.0, -1.0], [-1.0, -3.0]]))
        sig = spec.sigma(x)
        np.testing.assert_array_equal(sig[0], np.array([[1.0, 0.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(spec.g(x), np.array([2.0, 3.0]))

    def test_domain_block(self):
        obj = dict(self.HEAT, domain={"lower": [-1.0], "upper": [2.0]})
        spec = problem_from_dict(obj)
        assert spec.domain.contains_open(np.array([[0.0]]))[0]

    def test_control_block_builds_generator(self):
        obj = {
            "dim": 1,
            "horizon": 1.0,
            "mu": ["0"],
            "sigma": [["0.15*x[0]"]],
            "g": "x[0]^2",
            "control": {
                "control_dim": 1,
                "lower": [0.1],
                "upper": [0.2],
                "a": [["u[0]*x[0]"]],
            },
        }
        spec = problem_from_dict(obj)
        ref = catalog_get("bsb_uncertain_vol")
        rng = np.random.default_rng(8)
        x = rng.uniform(0.5, 2.0, size=(40, 1))
        gam = rng.uniform(-2, 2, size=(40, 1, 1))
        got = spec.f(0.3, x, np.zeros(40), np.zeros((40, 1)), gam)
        np.testing.assert_allclose(got, ref.f(0.3, x, np.zeros(40), np.zeros((40, 1)), gam),
                                   rtol=1e-12, atol=1e-15)

    def test_f_and_control_together_rejected(self):
        obj = dict(self.HEAT)
        obj["control"] = {"control_dim": 1, "lower": [0.1], "upper": [0.2], "a": [["u[0]"]]}
        with pytest.raises(ConfigError):
            problem_from_dict(obj)

    def test_linear_and_control_together_rejected(self):
        # The assembled generator has no declared linear split to keep.
        obj = {k: v for k, v in self.HEAT.items() if k != "f"}
        obj["linear"] = {"alpha": "0", "beta": "0"}
        obj["control"] = {"control_dim": 1, "lower": [0.1], "upper": [0.2], "a": [["u[0]"]]}
        with pytest.raises(ConfigError, match="linear"):
            problem_from_dict(obj)

    def test_missing_f_rejected(self):
        obj = {k: v for k, v in self.HEAT.items() if k != "f"}
        with pytest.raises(ConfigError):
            problem_from_dict(obj)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            problem_from_dict({"dim": 1, "horizon": 1.0})

    def test_mu_referencing_time_rejected(self):
        obj = dict(self.HEAT, mu=["t*x[0]"])
        with pytest.raises(ConfigError):
            problem_from_dict(obj)

    def test_g_referencing_y_rejected(self):
        obj = dict(self.HEAT, g="y + x[0]")
        with pytest.raises(ConfigError):
            problem_from_dict(obj)

    def test_wrong_sigma_shape(self):
        obj = dict(self.HEAT, sigma=[["1", "0"]])
        with pytest.raises(ConfigError):
            problem_from_dict(obj)

    PLANE = {
        "dim": 2, "horizon": 1.0, "mu": ["0", "0"], "sigma": [["1", "0"], ["0", "1"]],
        "f": "-0.5*trace(gamma)", "g": "x[0]*x[1]",
    }

    @pytest.mark.parametrize("field, source", [
        ("sigma", ["12", "34"]),
        ("mu", "00"),
        ("dg", "10"),
    ])
    def test_a_string_where_a_list_belongs_is_rejected(self, field, source):
        # Each string has d characters, so splitting it would fit the shape.
        with pytest.raises(ConfigError, match=field):
            problem_from_dict(dict(self.PLANE, **{field: source}))

    @pytest.mark.parametrize("key, value", [
        ("dim", 1.5), ("dim", True), ("dim", "1"),
        ("control_dim", 1.5), ("control_dim", True),
        ("resolution", 20.5), ("resolution", False),
    ])
    def test_integer_keys_reject_booleans_and_fractions(self, key, value):
        control = {"control_dim": 1, "lower": [0.1], "upper": [0.2], "a": [["u[0]*x[0]"]]}
        obj = {k: v for k, v in self.HEAT.items() if k not in ("f", "linear")}
        if key == "dim":
            obj["dim"] = value
        else:
            control[key] = value
        with pytest.raises(ConfigError, match=f"key '{key}' is malformed"):
            problem_from_dict(dict(obj, control=control))

    def test_dg_of_the_wrong_width_is_rejected(self):
        with pytest.raises(ConfigError, match="dg"):
            problem_from_dict(dict(self.HEAT, dg=["2*x[0]", "1"]))

    @pytest.mark.parametrize("name", ["y", "z[0]", "gamma[0][0]"])
    @pytest.mark.parametrize("key", ["alpha", "beta", "b", "a"])
    def test_control_coefficients_may_reference_t_x_and_u_only(self, key, name):
        control = {"control_dim": 1, "lower": [0.1], "upper": [0.2], "a": [["u[0]*x[0]"]]}
        control[key] = {"b": [name], "a": [[name]]}.get(key, name)
        obj = {k: v for k, v in self.HEAT.items() if k not in ("f", "linear")}
        with pytest.raises(ConfigError, match=f"control {key} may reference t, x, u only"):
            problem_from_dict(dict(obj, control=control))


def test_analytic_residual_needs_closed_form():
    base = catalog_get("heat")
    bare = ProblemSpec(dim=1, horizon=1.0, mu=base.mu, sigma=base.sigma,
                       f=base.f, g=base.g)
    with pytest.raises(MissingAnalyticV):
        analytic_residual(bare, 0.0, np.array([[0.0]]))


def test_as_points_promotes_and_validates():
    assert as_points(np.array([1.0, 2.0]), 2).shape == (1, 2)
    with pytest.raises(Exception):
        as_points(np.ones((3, 2)), 1)
