"""Tests for the control-problem generator and control extraction."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from parabolica import hjb
from parabolica.backward import screen_driver
from parabolica.errors import ConfigError, MissingGamma, NonFinite
from parabolica.hjb import (
    ControlProblem,
    NodeHamiltonian,
    as_problem,
    control_problem_from_dict,
    extract_control,
    hamiltonian,
    hjb_generator,
    _control_terms,
    uncertain_volatility_control,
)
from parabolica.model import catalog_get, problem_from_dict


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
        screen_driver(catalog_get("hjb_uncertain_vol"), gamma_free=False)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_constant_diffusion_controls_pass_the_screen(self, seed):
        # a a' is positive semidefinite for every a, so -max_u H can only
        # fall as gamma grows in the semidefinite order.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        spec = problem_from_dict({
            "dim": 2, "horizon": 1.0, "mu": ["0", "0"], "sigma": [["1", "0"], ["0", "1"]],
            "g": "x[0]^2 + x[1]", "x0": [0.5, -0.5],
            "control": {"control_dim": 1, "lower": [0.5], "upper": [1.5], "resolution": 5,
                        "alpha": f"{rng.normal():.6f}*u[0]", "beta": "-0.1*u[0]",
                        "b": [f"{v:.6f}*u[0]" for v in b],
                        "a": [[f"{v:.6f}*u[0]" for v in row] for row in a]},
        })
        screen_driver(spec, gamma_free=False)

    def test_nonfinite_objective_raises(self):
        from parabolica.errors import NonFinite

        cp = constant_matrix_problem()
        f = hjb_generator(cp)
        with pytest.raises(NonFinite):
            f(0.0, np.array([[1.0]]), np.array([np.inf]), np.ones((1, 1)),
              np.ones((1, 1, 1)))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestYFreeNode:
    """Without beta, a node forms its objective once; the bits must not move.

    The reference is ``hamiltonian`` per grid control; a beta of ``+0.0``
    takes the general path, with the same bits.
    """

    J = 64

    @staticmethod
    def problem(beta=None, alpha=None, a=None):
        return ControlProblem(
            dim=2, control_dim=2,
            lower=np.array([-1.0, 0.1]), upper=np.array([1.0, 0.4]),
            alpha=alpha or (lambda t, x, u: np.sin(3 * u[0]) * x[:, 0] + u[1] * x[:, 1]),
            beta=None if beta is None else (lambda t, x, u: np.full(len(x), beta)),
            b=lambda t, x, u: np.stack([u[0] * x[:, 1], np.full(len(x), u[1])], axis=1),
            a=a or (lambda t, x, u: u[1] * x[:, :, None] * np.array([[1.0, 0.3]])),
            resolution=5,
        )

    def states(self, seed, zero_derivatives=False):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=(self.J, 2))
        z = np.zeros((self.J, 2)) if zero_derivatives else rng.normal(size=(self.J, 2))
        gam = np.zeros((self.J, 2, 2)) if zero_derivatives else rng.normal(size=(self.J, 2, 2))
        y = rng.normal(size=self.J)
        y[:4] = [0.0, -0.0, 0.0, -0.0]  # signed zeros, beside negative and positive y
        return x, y, z, gam

    @staticmethod
    def reference(cp, x, y, z, gam):
        h = np.stack([hamiltonian(cp, 0.3, x, y, z, gam, u) for u in cp.grid()])
        return -np.max(h, axis=0), cp.grid()[np.argmax(h, axis=0)]

    @staticmethod
    def spy(monkeypatch):
        calls = []
        general = NodeHamiltonian._values
        monkeypatch.setattr(NodeHamiltonian, "_values",
                            lambda self, y: calls.append(1) or general(self, y))
        return calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_f_and_argmax_match_the_general_path_bit_for_bit(self, monkeypatch, seed):
        calls = self.spy(monkeypatch)
        x, y, z, gam = self.states(seed)
        free = NodeHamiltonian(self.problem(), 0.3, x, z, gam)
        got = free.f(y), free.argmax(y), free.f(y)
        assert calls == []  # the y-free node never rebuilds its objective
        general = NodeHamiltonian(self.problem(beta=0.0), 0.3, x, z, gam)
        expected = general.f(y), general.argmax(y)
        assert len(calls) == 2
        ref_f, ref_u = self.reference(self.problem(), x, y, z, gam)
        for f in (got[0], got[2], expected[0]):
            np.testing.assert_array_equal(_bits(f), _bits(ref_f))
        np.testing.assert_array_equal(got[1], ref_u)
        np.testing.assert_array_equal(expected[1], ref_u)

    def test_an_all_tie_objective_takes_the_first_grid_point(self):
        cp = self.problem(alpha=lambda t, x, u: np.zeros(len(x)))
        x, y, z, gam = self.states(3, zero_derivatives=True)
        node = NodeHamiltonian(cp, 0.3, x, z, gam)
        ref_f, ref_u = self.reference(cp, x, y, z, gam)
        np.testing.assert_array_equal(_bits(node.f(y)), _bits(ref_f))
        np.testing.assert_array_equal(node.argmax(y), np.broadcast_to(cp.grid()[0], (self.J, 2)))
        np.testing.assert_array_equal(ref_u, node.argmax(y))

    def test_a_nan_in_y_raises_as_the_general_path_does(self):
        x, y, z, gam = self.states(5)
        y[7] = np.nan
        for cp in (self.problem(), self.problem(beta=0.0)):
            with pytest.raises(NonFinite, match="^control objective evaluated non-finite$"):
                NodeHamiltonian(cp, 0.3, x, z, gam).f(y)

    def test_a_nan_in_y_raises_from_argmax_on_a_y_free_node(self):
        x, y, z, gam = self.states(5)
        y[7] = np.nan
        node = NodeHamiltonian(self.problem(), 0.3, x, z, gam)
        with pytest.raises(NonFinite, match="^control objective evaluated non-finite$"):
            node.argmax(y)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_constant_alpha_and_nonzero_beta_match_hamiltonian_bit_for_bit(self, seed):
        # Every path sees one alpha and one beta per control: the general
        # path's (G, J) terms then repeat a value along each row.
        cp = ControlProblem(
            dim=2, control_dim=2,
            lower=np.array([-1.0, 0.1]), upper=np.array([1.0, 0.4]),
            alpha=lambda t, x, u: np.full(len(x), 0.3 * u[0] - u[1]),
            beta=lambda t, x, u: np.full(len(x), -0.7 * u[1]),
            b=lambda t, x, u: np.stack([u[0] * x[:, 1], np.full(len(x), u[1])], axis=1),
            a=lambda t, x, u: u[1] * x[:, :, None] * np.array([[1.0, 0.3]]),
            resolution=5,
        )
        x, y, z, gam = self.states(seed)
        node = NodeHamiltonian(cp, 0.3, x, z, gam)
        ref_f, ref_u = self.reference(cp, x, y, z, gam)
        np.testing.assert_array_equal(_bits(node.f(y)), _bits(ref_f))
        np.testing.assert_array_equal(node.argmax(y), ref_u)

    def test_a_nan_column_takes_np_argmax_first_nan(self):
        # Paths with x_0 < 0 see a NaN diffusion from the grid's third u_1 on.
        def a(t, x, u):
            scale = np.where((x[:, 0] < 0) & (u[1] > 0.2), np.nan, u[1])
            return scale[:, None, None] * x[:, :, None] * np.array([[1.0, 0.3]])

        cp = self.problem(a=a)
        x, y, z, gam = self.states(6)
        node = NodeHamiltonian(cp, 0.3, x, z, gam)
        with np.errstate(invalid="ignore"):
            ref_f, ref_u = self.reference(cp, x, y, z, gam)
        assert np.isnan(ref_f).any() and not np.all(ref_u == cp.grid()[0])
        np.testing.assert_array_equal(node.argmax(y), ref_u)
        with pytest.raises(NonFinite, match="^control objective evaluated non-finite$"):
            node.f(y)

    @pytest.mark.parametrize("resolution", [11, 21], ids=["G121", "G441"])
    def test_a_fine_grid_matches_hamiltonian_bit_for_bit(self, resolution):
        # The first four paths have x, z and gamma zero: every control ties there.
        cp = dataclasses.replace(self.problem(), resolution=resolution)
        x, y, z, gam = self.states(9)
        x[:4], z[:4], gam[:4] = 0.0, 0.0, 0.0
        node = NodeHamiltonian(cp, 0.3, x, z, gam)
        ref_f, ref_u = self.reference(cp, x, y, z, gam)
        np.testing.assert_array_equal(_bits(node.f(y)), _bits(ref_f))
        np.testing.assert_array_equal(node.argmax(y), ref_u)
        np.testing.assert_array_equal(ref_u[:4], np.broadcast_to(cp.grid()[0], (4, 2)))

    @staticmethod
    def special_table(G, seed):
        """A (G, J) objective whose columns hold ties, signed zeros, infinities and NaNs."""
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(G, 48))
        table[:, 0] = 1.5                                          # all tie
        table[:, 1] = rng.choice([0.0, -0.0], G)                   # signed zeros only
        table[:, 2], table[0, 2] = 0.0, -0.0                       # -0, then +0
        table[:, 3], table[0, 3] = -0.0, 0.0                       # +0, then -0
        table[[G // 4, G // 2], 4] = 9.0                           # a tie for the maximum
        table[G // 5, 5] = np.inf                                  # one +inf
        table[[3, G - 2], 6] = np.inf                              # two, tied
        table[:, 7] = -np.inf                                      # all -inf
        table[: G // 2, 8] = -np.inf                               # -inf, then finite
        table[0, 9] = np.nan                                       # NaN first
        table[G // 2, 10] = np.nan                                 # NaN past the maximum
        table[G - 1, 11] = np.nan                                  # NaN last
        table[G // 3, 12], table[G // 2, 12] = np.inf, np.nan     # +inf, then NaN
        table[:, 13] = np.nan                                      # all NaN
        table[G // 3, 14], table[G // 2, 14] = np.nan, np.inf     # NaN, then +inf
        return table

    @pytest.mark.parametrize("G", [121, 441])
    def test_special_columns_match_hamiltonian_bit_for_bit(self, monkeypatch, G):
        # The kernel reads each control's row of a fixed table, by path
        # id in x_0, so the merge sees values the coefficients cannot
        # make, -0.0 among them.
        cp = dataclasses.replace(self.problem(), resolution=int(round(G ** 0.5)))
        table = self.special_table(G, G)
        rows = {tuple(u): g for g, u in enumerate(cp.grid())}

        def terms(cp, t, x, z, gamma, u, base):
            base[...] = table[rows[tuple(u)], x[:, 0].astype(int)]

        monkeypatch.setattr(hjb, "_control_terms", terms)
        J = table.shape[1]
        x, y = np.zeros((J, 2)), np.zeros(J)
        x[:, 0] = np.arange(J)
        z, gam = np.zeros((J, 2)), np.zeros((J, 2, 2))
        node = NodeHamiltonian(cp, 0.3, x, z, gam)
        with np.errstate(invalid="ignore"):
            ref_f, ref_u = self.reference(cp, x, y, z, gam)
        np.testing.assert_array_equal(ref_u, cp.grid()[np.argmax(table, axis=0)])
        np.testing.assert_array_equal(node.argmax(y), ref_u)
        with pytest.raises(NonFinite, match="^control objective evaluated non-finite$"):
            node.f(y)
        finite = np.flatnonzero(np.isfinite(ref_f))
        assert len(finite) == J - 9
        node = NodeHamiltonian(cp, 0.3, x[finite], z[finite], gam[finite])
        np.testing.assert_array_equal(_bits(node.f(y[finite])), _bits(ref_f[finite]))
        np.testing.assert_array_equal(node.argmax(y[finite]), ref_u[finite])


class TestStateTerms:
    """base = (alpha + b'z) + 1/2 Tr[a a' gamma] has the einsums' bits, for diagonal and dense a."""

    SPECIALS = np.array([0.0, -0.0, 1e200, -1e200, 1e-200, -1e-200, np.inf, -np.inf, np.nan])

    @pytest.mark.parametrize("finite", [True, False], ids=["finite", "non-finite"])
    @pytest.mark.parametrize("d, dense", [(1, False)] + [(d, dense) for d in (2, 3, 4)
                                                          for dense in (False, True)])
    def test_state_terms_have_the_bits_of_the_einsums(self, d, dense, finite):
        rng = np.random.default_rng(d)
        J, idx = 300, np.arange(d)
        specials = self.SPECIALS[:6] if finite else self.SPECIALS

        def sprinkled(shape):
            out = rng.standard_normal(shape) * np.exp(rng.uniform(-5.0, 5.0, shape))
            hit = rng.random(shape) < 0.1
            out[hit] = rng.choice(specials, int(hit.sum()))
            return out

        a_val = np.zeros((J, d, d))
        a_val[:, idx, idx] = sprinkled((J, d))
        gamma = sprinkled((J, d, d))
        # Rows whose every product is -0.0, which the einsum returns as +0.0.
        a_val[:8, idx, idx] = rng.choice([0.0, -0.0], (8, d))
        gamma[:8, idx, idx] = -rng.uniform(0.5, 2.0, (8, d))
        if dense:
            a_val[:, 0, d - 1] = 0.3
        b_val, z = rng.standard_normal((J, d)), sprinkled((J, d))
        alpha_val, beta_val = sprinkled(J), -np.abs(sprinkled(J))
        cp = ControlProblem(dim=d, control_dim=1, lower=np.array([0.0]), upper=np.array([1.0]),
                            alpha=lambda t, x, u: alpha_val, beta=lambda t, x, u: beta_val,
                            b=lambda t, x, u: b_val, a=lambda t, x, u: a_val)
        base = np.empty(J)
        with np.errstate(invalid="ignore", over="ignore"):
            want_lin = np.einsum("jd,jd->j", b_val, z)
            want_quad = 0.5 * np.einsum("jab,jba->j", np.einsum("jab,jcb->jac", a_val, a_val),
                                        gamma)
            want = (alpha_val + want_lin) + want_quad
            beta = _control_terms(cp, 0.0, np.zeros((J, d)), z, gamma, np.array([0.5]), base)
        assert beta is beta_val
        assert _bits(base).tolist() == _bits(want).tolist()


class TestNodeMemory:
    @pytest.mark.parametrize("G", [21, 441])
    def test_a_y_free_node_holds_no_grid_array(self, G):
        # The running maximum, the candidate row, the mask, the index with
        # its step and one control's temporaries: a bound in J alone, which
        # one (G, J) float array at G = 21 already exceeds.
        J = 20_000
        cp = uncertain_volatility_control(resolution=G)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 1.5, size=(J, 1))
        z, gam = rng.normal(size=(J, 1)), rng.normal(size=(J, 1, 1))
        tracemalloc.start()
        try:
            node = NodeHamiltonian(cp, 0.3, x, z, gam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert node._beta is None
        assert peak <= 8 * 8 * J
        y = rng.normal(size=J)
        np.testing.assert_array_equal(node.f(y), TestYFreeNode.reference(cp, x, y, z, gam)[0])

    def test_a_discounted_node_holds_two_grid_arrays(self):
        # base and beta over the G grid controls and one control's (J,)
        # temporaries at a time; four (G, J) float arrays do not fit.
        G, J = 21, 20_000
        cp = ControlProblem(
            dim=1, control_dim=1, lower=np.array([0.1]), upper=np.array([0.2]),
            alpha=lambda t, x, u: 0.01 * u[0] * x[:, 0] ** 2,
            beta=lambda t, x, u: -0.01 * u[0] * x[:, 0] ** 2,
            b=lambda t, x, u: 0.01 * u[0] * x,
            a=lambda t, x, u: u[0] * x[:, :, None],
            resolution=G,
        )
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 1.5, size=(J, 1))
        z, gam = rng.normal(size=(J, 1)), rng.normal(size=(J, 1, 1))
        tracemalloc.start()
        try:
            node = NodeHamiltonian(cp, 0.3, x, z, gam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2 * 8 + 1) * G * J + 8 * 8 * J
        y = rng.normal(size=J)
        np.testing.assert_array_equal(node.f(y), TestYFreeNode.reference(cp, x, y, z, gam)[0])


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
        assert cp.alpha is None and cp.beta is None and cp.b is None

    def test_missing_a_rejected(self):
        with pytest.raises(ConfigError):
            control_problem_from_dict({"control_dim": 1, "lower": [0.0], "upper": [1.0]}, dim=1)

    def test_a_grid_larger_than_memory_is_refused_before_it_is_built(self, monkeypatch):
        def never(self):
            raise AssertionError("the grid must not be built")

        monkeypatch.setattr(ControlProblem, "grid", never)
        # 21**10 controls of 10 coordinates: about 1.3e15 bytes.
        with pytest.raises(ConfigError, match="needs 1334390478256080 bytes"):
            control_problem_from_dict(
                {"control_dim": 10, "lower": [0.0] * 10, "upper": [1.0] * 10,
                 "a": [["u[0]"]]},
                dim=1,
            )

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

    @pytest.mark.parametrize("beta", ["log(x[0])", "-exp(1000)"],
                             ids=["nan", "minus-infinity"])
    def test_beta_not_finite_at_a_sampled_state_is_rejected(self, beta):
        with pytest.raises(ConfigError, match="beta must be <= 0 and finite"):
            problem_from_dict(self._problem(beta))

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
