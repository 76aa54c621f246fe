"""The closed-form oracles: their derivatives, and problems with d > 1.

Every catalog closed form but ``boundary_heat``'s is one member of the
quadratic family ``v = A(t) |x|^2 + B(t)``, whose derivatives are written
once for any d.  The first class checks each closed form's derivatives
against central differences of the value; the others build the heat
equation and diagonal uncertain volatility at d = 2 and 3 from the same
family and check them with the residual oracle and the 2BSDE solver.
A correlated constant diffusion, whose solution ``x'Mx + (T - t) Tr[CC'M]``
is outside that family, checks the solver's dense-sigma path.
"""

import json

import numpy as np
import pytest

from parabolica import backward, cli, model
from parabolica.backward import backward_solve_2bsde
from parabolica.model import ProblemSpec, analytic_residual
from parabolica.paths import TimeGrid, euler_simulate
from parabolica.regress import BasisSpec
from parabolica.verify import twobsde_residuals

VOL_SIM, VOL_LO, VOL_HI = 0.15, 0.1, 0.2


def _squares(x):
    return np.einsum("ji,ji->j", x, x)


def heat_nd(d: int) -> ProblemSpec:
    """-v_t - (1/2) tr D^2v = 0 with X = W: v = |x|^2 + d (T - t)."""
    return ProblemSpec(
        dim=d,
        horizon=1.0,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(d), (len(x), d, d)),
        f=lambda t, x, y, z, gamma: -0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        g=_squares,
        dg=lambda x: 2.0 * x,
        analytic_v=model._quadratic(1.0, a=1.0, h=float(d)),
        name=f"heat_d{d}",
        x0_default=np.zeros(d),
    )


def uncertain_vol_nd(d: int) -> ProblemSpec:
    """Diagonal uncertain volatility, each sigma_i in [0.1, 0.2]: v = |x|^2 e^{0.04 (T - t)}.

    ``f = -(1/2) sum_i max_u u^2 x_i^2 Gamma_ii`` over the grid {0.1, 0.2}
    (the objective is linear in u^2, so the endpoints are the whole grid),
    simulated under sigma = 0.15 diag(x).
    """
    def f(t, x, y, z, gamma):
        a = x * x * np.diagonal(gamma, axis1=1, axis2=2)
        return -0.5 * np.maximum(VOL_LO * VOL_LO * a, VOL_HI * VOL_HI * a).sum(axis=1)

    return ProblemSpec(
        dim=d,
        horizon=1.0,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: VOL_SIM * x[:, :, None] * np.eye(d),
        f=f,
        g=_squares,
        dg=lambda x: 2.0 * x,
        analytic_v=model._quadratic(1.0, a=1.0, rho=VOL_HI * VOL_HI),
        name=f"uncertain_vol_d{d}",
        x0_default=np.ones(d),
    )


ND_BUILDERS = {"heat": heat_nd, "uncertain_vol": uncertain_vol_nd}
ND_CASES = [pytest.param(build, d, id=f"{name}-d{d}")
            for name, build in ND_BUILDERS.items() for d in (2, 3)]


def _points(spec, n, seed):
    """(t, x) pairs strictly inside the time-space domain."""
    rng = np.random.default_rng(seed)
    if spec.domain is None:
        x = rng.uniform(-2.0, 3.0, size=(n, spec.dim))
    else:
        lo, hi = spec.domain.lower, spec.domain.upper
        x = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), size=(n, spec.dim))
    return rng.uniform(0.0, 0.999 * spec.horizon, size=n), x


def _exact_root(spec) -> float:
    return float(spec.analytic_v.value(0.0, spec.x0_default[None, :])[0])


def _closed_forms():
    for name in model.catalog_names():
        if model.catalog_get(name).analytic_v is not None:
            yield pytest.param(lambda name=name: model.catalog_get(name), id=name)
    for param in ND_CASES:
        build, d = param.values
        yield pytest.param(lambda build=build, d=d: build(d), id=param.id)


class TestDerivatives:
    """Each derivative of a closed form against central differences of the one below it."""

    H = 1e-5

    @pytest.mark.parametrize("make", _closed_forms())
    def test_gradient_is_the_derivative_of_the_value(self, make):
        spec = make()
        sol = spec.analytic_v
        for t, x in zip(*_points(spec, 40, 1)):
            x = x[None, :]
            for i in range(spec.dim):
                step = np.zeros_like(x)
                step[0, i] = self.H
                fd = (sol.value(t, x + step) - sol.value(t, x - step)) / (2 * self.H)
                np.testing.assert_allclose(sol.gradient(t, x)[:, i], fd, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("make", _closed_forms())
    def test_hessian_is_the_derivative_of_the_gradient(self, make):
        spec = make()
        sol = spec.analytic_v
        for t, x in zip(*_points(spec, 40, 2)):
            x = x[None, :]
            hess = sol.hessian(t, x)
            assert hess.shape == (1, spec.dim, spec.dim)
            for i in range(spec.dim):
                step = np.zeros_like(x)
                step[0, i] = self.H
                fd = (sol.gradient(t, x + step) - sol.gradient(t, x - step)) / (2 * self.H)
                np.testing.assert_allclose(hess[:, :, i], fd, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("make", _closed_forms())
    def test_time_derivative_is_the_derivative_of_the_value(self, make):
        spec = make()
        sol = spec.analytic_v
        ts, xs = _points(spec, 40, 3)
        for t in ts:
            fd = (sol.value(t + self.H, xs) - sol.value(t - self.H, xs)) / (2 * self.H)
            np.testing.assert_allclose(sol.time_derivative(t, xs), fd, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("make", _closed_forms())
    def test_each_call_returns_a_fresh_hessian(self, make):
        spec = make()
        x = _points(spec, 5, 4)[1]
        first = spec.analytic_v.hessian(0.5, x)
        first += 1.0
        assert not np.shares_memory(first, spec.analytic_v.hessian(0.5, x))
        np.testing.assert_array_equal(spec.analytic_v.hessian(0.5, x), first - 1.0)


@pytest.mark.parametrize("build, d", ND_CASES)
class TestOraclesInSeveralDimensions:
    def test_closed_form_solves_the_pde(self, build, d):
        spec = build(d)
        ts, xs = _points(spec, 500, 5)
        for t in ts[:20]:
            assert np.max(np.abs(analytic_residual(spec, float(t), xs))) <= 1e-8

    def test_first_residual_halves_with_the_step(self, build, d):
        spec = build(d)
        reports = {
            N: twobsde_residuals(spec, euler_simulate(spec, TimeGrid(0.0, 1.0, N),
                                                      spec.x0_default, J=2000, seed=5))
            for N in (16, 32, 64)
        }
        for a, b in ((16, 32), (32, 64)):
            assert reports[a]["r1_aggregate"] / reports[b]["r1_aggregate"] >= 1.8
        for report in reports.values():
            assert report["terminal_gap"] == 0.0
            if build is heat_nd:
                # A constant Hessian makes the gradient's Ito expansion exact.
                assert report["r2_aggregate"] == 0.0


def _root(spec, seed):
    batch = euler_simulate(spec, TimeGrid(0.0, 1.0, 16), spec.x0_default, J=10_000, seed=seed)
    return backward_solve_2bsde(spec, batch, BasisSpec(), observe=lambda *node: None).root_value


class TestSolverInSeveralDimensions:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [2, 3])
    def test_heat_root_lands_within_four_stderr(self, d, seed):
        spec = heat_nd(d)
        root = _root(spec, seed)
        assert abs(root.value - _exact_root(spec)) <= 4.0 * root.stderr

    @pytest.mark.xfail(strict=True, reason=(
        "Gamma-noise bias: noisy Gamma inside the max over volatilities biases the "
        "value upward, +6% at d = 2 and +10% at d = 3 at this J; centring the Z and "
        "Gamma regression targets (ROADMAP item 1) is expected to remove it"))
    @pytest.mark.parametrize("d", [2, 3])
    def test_uncertain_volatility_root_lands_within_two_percent(self, d):
        spec = uncertain_vol_nd(d)
        exact = _exact_root(spec)
        assert abs(_root(spec, 1).value - exact) <= 0.02 * exact


class TestCorrelatedSigma:
    """-v_t - 1/2 Tr[CC' D^2v] = 0 with X = x + C W: v = x'Mx + (T - t) Tr[CC'M].

    ``C`` has an off-diagonal entry, so every step of the sweep inverts it
    and forms ``CC'``: the dense path beside the diagonal one.
    """

    C = np.array([[0.3, 0.2], [0.0, 0.4]])
    M = np.array([[1.0, 0.5], [0.5, 2.0]])
    X0 = np.array([0.5, -0.3])

    def problem(self) -> dict:
        cct = (self.C @ self.C.T).tolist()
        m, pairs = self.M.tolist(), [(a, b) for a in range(2) for b in range(2)]
        return {
            "dim": 2, "horizon": 1.0, "mu": ["0", "0"],
            "sigma": [[repr(v) for v in row] for row in self.C.tolist()],
            "f": "-0.5*(" + " + ".join(f"{cct[a][b]!r}*gamma[{a}][{b}]" for a, b in pairs) + ")",
            "g": " + ".join(f"{m[a][b]!r}*x[{a}]*x[{b}]" for a, b in pairs),
            "x0": self.X0.tolist(),
        }

    @pytest.mark.parametrize("seed", [1, 2])
    def test_root_lands_within_four_stderr_on_the_dense_path(self, tmp_path, monkeypatch, seed):
        dense = []

        def spy(m):
            out = model.diagonal(m)
            dense.append(out is None)
            return out

        monkeypatch.setattr(backward, "diagonal", spy)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": self.problem(), "N": 16, "J": 10_000,
                                      "seed": seed}))
        out = tmp_path / "out"
        assert cli.main(["solve-2bsde", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        exact = self.X0 @ self.M @ self.X0 + np.trace(self.C @ self.C.T @ self.M)
        assert abs(summary["value"] - exact) <= 4.0 * summary["stderr"]
        # The CLI's screen, the solver's screen, then each of the 16 steps.
        assert dense == [True] * (2 + 16)
