"""Problem specifications, the built-in problem catalog, and admissibility checks.

A :class:`ProblemSpec` packages the coefficients of a terminal-value
problem

    -dv/dt + f(t, x, v, Dv, D^2v) = 0  on [t0, T) x R^d,    v(T, x) = g(x),

together with the forward diffusion ``dX = mu(X) dt + sigma(X) dW`` used
by the Monte Carlo solvers.  All coefficient callables take batched
states of shape ``(J, d)`` and return per-path arrays:

    mu(x)                 -> (J, d)
    sigma(x)              -> (J, d, d)
    f(t, x, y, z, gamma)  -> (J,)      with y (J,), z (J, d), gamma (J, d, d)
    g(x), dg(x)           -> (J,), (J, d)

``linear_parts`` and ``control`` are structured forms of ``f``: the
``(alpha, beta)`` split the linear scheme reads, and the
:class:`~parabolica.hjb.ControlProblem` an HJB generator was assembled
from (set only by ``hjb.as_problem``), which control extraction reads.

``analytic_v`` (when present) exposes the closed-form solution and its
derivatives in the same batched convention and is what verification
routines compare against.

``validate_assumptions`` samples the coefficient functions and checks
the structural conditions the solvers rely on: polynomial growth of the
coefficients, generator and terminal condition; invertibility of the
diffusion matrix; and monotone (parabolic) dependence of the generator
on the Hessian argument - f may not increase when the Hessian argument
grows in the positive-semidefinite order.  The checks are sampled, so
they can only ever refute; a passing report is evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import (
    ConfigError,
    DimensionMismatch,
    MissingAnalyticV,
    NonFinite,
    SingularSigma,
    UnknownProblem,
)

if TYPE_CHECKING:
    from .hjb import ControlProblem

__all__ = [
    "Box",
    "GrowthParams",
    "AnalyticSolution",
    "ProblemSpec",
    "CheckResult",
    "ValidationReport",
    "validate_assumptions",
    "analytic_residual",
    "catalog_get",
    "catalog_names",
    "problem_from_dict",
    "as_points",
]


def as_points(x, d: int) -> np.ndarray:
    """Promote ``x`` to a ``(J, d)`` float array, validating the width."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise DimensionMismatch(f"expected points of shape (J, {d}), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class Box:
    """An open axis-aligned box (l_0, h_0) x ... x (l_{d-1}, h_{d-1})."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatch("box bounds must be 1-D arrays of equal length")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ConfigError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ConfigError("box requires lower < upper in every coordinate")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains_open(self, x: np.ndarray) -> np.ndarray:
        """True per row when the point lies strictly inside the box."""
        return np.all((x > self.lower) & (x < self.upper), axis=-1)


@dataclass(frozen=True)
class GrowthParams:
    """Declared growth/regularity constants of a problem.

    p1 bounds the coefficients (``|mu| + |sigma| <= L (1 + |x|^p1)``,
    with p1 in [0, 1]); p2 the generator in state, gradient and Hessian
    arguments with constant F (the generator is at most linear in y); p3
    the terminal condition with constant G; p4 the solution derivatives
    with constant m; p5 the Hessian's space-time Lipschitz growth.  The
    aggregate exponent ``p`` is what accuracy statements scale with.
    """

    p1: float = 0.0
    p2: float = 1.0
    p3: float = 2.0
    p4: float = 2.0
    p5: float = 1.0
    m: float = 3.0
    L: float = 1.0
    F: float = 1.0
    G: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p1 <= 1.0):
            raise ConfigError("p1 must lie in [0, 1]")
        for name in ("p2", "p3", "p4", "p5"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in ("m", "L", "F", "G"):
            if not (getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive")

    @property
    def p(self) -> float:
        """Aggregate growth exponent max(p2, p3, p2*p4, p4 + 2*p1)."""
        return max(self.p2, self.p3, self.p2 * self.p4, self.p4 + 2.0 * self.p1)


@dataclass(frozen=True, eq=False)
class AnalyticSolution:
    """Closed-form solution surface with derivatives, batched like the spec."""

    value: Callable      # (t, x(J,d)) -> (J,)
    gradient: Callable   # (t, x(J,d)) -> (J,d)
    hessian: Callable    # (t, x(J,d)) -> (J,d,d)
    time_derivative: Callable  # (t, x(J,d)) -> (J,)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    dim: int
    horizon: float
    mu: Callable
    sigma: Callable
    f: Callable
    g: Callable
    dg: Optional[Callable] = None
    analytic_v: Optional[AnalyticSolution] = None
    domain: Optional[Box] = None          # None means the whole space
    growth: Optional[GrowthParams] = None
    linear_parts: Optional[tuple[Callable, Callable]] = None  # (alpha, beta), each (t, x) -> (J,)
    control: Optional[ControlProblem] = None  # the control problem f was assembled from
    name: Optional[str] = None
    x0_default: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("state dimension must be at least 1")
        if not (self.horizon > 0) or not math.isfinite(self.horizon):
            raise ConfigError("horizon must be a positive finite number")
        if self.domain is not None and self.domain.dim != self.dim:
            raise DimensionMismatch("domain dimension differs from the state dimension")
        x0 = self.x0_default
        if x0 is None:
            x0 = np.zeros(self.dim)
        x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
        if x0.shape[0] != self.dim:
            raise DimensionMismatch("x0_default has the wrong length")
        object.__setattr__(self, "x0_default", x0)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    metric: float
    threshold: Optional[float]
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{name} evaluated non-finite at a sampled point")


def validate_assumptions(
    spec: ProblemSpec,
    params: Optional[GrowthParams] = None,
    samples: int = 1000,
    seed: int = 0,
    box: Optional[tuple[float, float]] = None,
    cond_cap: float = 1e8,
) -> ValidationReport:
    """Sample-test the structural assumptions of ``spec``.

    Points are drawn uniformly from ``box`` (default ``[-5, 5]^d``, or
    the problem's own domain when it has one); the report records the
    empirical constant of each bound next to its declared threshold.
    The Hessian-monotonicity check draws a random positive-semidefinite
    perturbation per sample and requires the generator not to increase.
    Deterministic for a fixed seed.
    """
    if params is None:
        params = spec.growth if spec.growth is not None else GrowthParams()
    d = spec.dim
    rng = np.random.default_rng(seed)

    if spec.domain is not None and box is None:
        lo, hi = spec.domain.lower, spec.domain.upper
    else:
        half = 5.0 if box is None else float(box[1])
        low = -5.0 if box is None else float(box[0])
        lo, hi = np.full(d, low), np.full(d, half)
    scale = max(1.0, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))

    X = rng.uniform(lo, hi, size=(samples, d))
    Ts = rng.uniform(0.0, spec.horizon, size=samples)
    Y = rng.uniform(-scale, scale, size=samples)
    Z = rng.uniform(-scale, scale, size=(samples, d))
    raw = rng.uniform(-scale, scale, size=(samples, d, d))
    Gam = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
    M = rng.standard_normal(size=(samples, d, d))
    Beta = np.einsum("nab,ncb->nac", M, M)

    mu_vals = spec.mu(X)
    sig_vals = spec.sigma(X)
    g_vals = spec.g(X)
    _require_finite("mu", mu_vals)
    _require_finite("sigma", sig_vals)
    _require_finite("g", g_vals)

    # Generator values; f is evaluated per sampled time (one batched call
    # per distinct t would be ideal, but per-sample t keeps the sampling
    # honest, so group evaluation by chunks of equal t is not attempted).
    f_vals = np.empty(samples)
    f_pert = np.empty(samples)
    for i in range(samples):
        xi = X[i : i + 1]
        f_vals[i] = spec.f(float(Ts[i]), xi, Y[i : i + 1], Z[i : i + 1], Gam[i : i + 1])[0]
        f_pert[i] = spec.f(float(Ts[i]), xi, Y[i : i + 1], Z[i : i + 1], (Gam[i] + Beta[i])[None])[0]
    _require_finite("f", f_vals)
    _require_finite("f", f_pert)

    checks = []
    checks.append(CheckResult("finite_coefficients", True, 0.0, None,
                              "mu, sigma, f, g finite at all sampled points"))

    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.linalg.cond(sig_vals)
    if not np.all(np.isfinite(conds)):
        raise SingularSigma("sigma is exactly singular at a sampled point")
    max_cond = float(np.max(conds))
    checks.append(CheckResult("sigma_invertible", max_cond <= cond_cap, max_cond, cond_cap,
                              "max condition number of sigma over samples"))

    tol = 1e-9 * (1.0 + float(np.max(np.abs(f_vals))))
    margins = f_vals - f_pert
    min_margin = float(np.min(margins))
    checks.append(CheckResult("monotone_in_gamma", min_margin >= -tol, min_margin, -tol,
                              "min of f(gamma) - f(gamma + psd) over samples"))

    xnorm = np.linalg.norm(X, axis=1)
    munorm = np.linalg.norm(mu_vals, axis=1)
    signorm = np.linalg.norm(sig_vals, ord=2, axis=(1, 2))
    coeff_ratio = float(np.max((munorm + signorm) / (1.0 + xnorm ** params.p1)))
    checks.append(CheckResult("growth_coefficients", coeff_ratio <= params.L * (1 + 1e-12),
                              coeff_ratio, params.L,
                              "max (|mu|+|sigma|) / (1+|x|^p1); threshold L"))

    znorm = np.linalg.norm(Z, axis=1)
    gamnorm = np.linalg.norm(Gam, ord=2, axis=(1, 2))
    denom = 1.0 + xnorm ** params.p2 + np.abs(Y) + znorm ** params.p2 + gamnorm ** params.p2
    f_ratio = float(np.max(np.abs(f_vals) / denom))
    checks.append(CheckResult("growth_generator", f_ratio <= params.F * (1 + 1e-12),
                              f_ratio, params.F,
                              "max |f| / (1+|x|^p2+|y|+|z|^p2+|gamma|^p2); threshold F"))

    g_ratio = float(np.max(np.abs(g_vals) / (1.0 + xnorm ** params.p3)))
    checks.append(CheckResult("growth_terminal", g_ratio <= params.G * (1 + 1e-12),
                              g_ratio, params.G,
                              "max |g| / (1+|x|^p3); threshold G"))

    # Empirical y-Lipschitz constant of the generator (reported, no
    # declared bound: the schemes only need it finite on compacts).
    Y2 = rng.uniform(-scale, scale, size=samples)
    lip = 0.0
    for i in range(samples):
        dy = Y[i] - Y2[i]
        if abs(dy) < 1e-12:
            continue
        fi = spec.f(float(Ts[i]), X[i : i + 1], Y2[i : i + 1], Z[i : i + 1], Gam[i : i + 1])[0]
        lip = max(lip, abs((f_vals[i] - fi) / dy))
    checks.append(CheckResult("lipschitz_in_y", math.isfinite(lip), lip, None,
                              "empirical |f(y1)-f(y2)|/|y1-y2| over samples"))

    return ValidationReport(tuple(checks))


def analytic_residual(spec: ProblemSpec, t: float, x: np.ndarray) -> np.ndarray:
    """PDE residual ``-v_t + f(t, x, v, Dv, D^2v)`` of the closed form at (t, x)."""
    if spec.analytic_v is None:
        raise MissingAnalyticV("problem has no closed-form solution to check")
    pts = as_points(x, spec.dim)
    sol = spec.analytic_v
    v = sol.value(t, pts)
    dv = sol.gradient(t, pts)
    d2v = sol.hessian(t, pts)
    vt = sol.time_derivative(t, pts)
    return -vt + spec.f(t, pts, v, dv, d2v)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _const_rows(value: float):
    def fn(t, x):
        return np.full(len(x), value)
    return fn


def _heat() -> ProblemSpec:
    T = 1.0

    def analytic():
        def value(t, x):
            return x[:, 0] ** 2 + (T - t)

        def gradient(t, x):
            return 2.0 * x

        def hessian(t, x):
            return np.full((len(x), 1, 1), 2.0)

        def time_derivative(t, x):
            return np.full(len(x), -1.0)

        return AnalyticSolution(value, gradient, hessian, time_derivative)

    return ProblemSpec(
        dim=1,
        horizon=T,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)),
        f=lambda t, x, y, z, gamma: -0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        g=lambda x: x[:, 0] ** 2,
        dg=lambda x: 2.0 * x,
        analytic_v=analytic(),
        growth=GrowthParams(p1=0.0, p2=1.0, p3=2.0, p4=2.0, p5=1.0, m=3.0, L=1.0, F=0.5, G=1.0),
        linear_parts=(_const_rows(0.0), _const_rows(0.0)),
        name="heat",
        x0_default=np.array([0.0]),
    )


def _discount_bond() -> ProblemSpec:
    T, r = 2.0, 0.05

    def analytic():
        def value(t, x):
            return np.full(len(x), math.exp(-r * (T - t)))

        def gradient(t, x):
            return np.zeros_like(x)

        def hessian(t, x):
            return np.zeros((len(x), 1, 1))

        def time_derivative(t, x):
            return np.full(len(x), r * math.exp(-r * (T - t)))

        return AnalyticSolution(value, gradient, hessian, time_derivative)

    # The solution has no x dependence, so the discounting representation
    # (alpha = 0, beta = -r) prices it exactly under any simulated paths.
    return ProblemSpec(
        dim=1,
        horizon=T,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)),
        f=lambda t, x, y, z, gamma: r * np.asarray(y, dtype=np.float64),
        g=lambda x: np.ones(len(x)),
        dg=lambda x: np.zeros_like(x),
        analytic_v=analytic(),
        growth=GrowthParams(p1=0.0, p2=0.0, p3=0.0, p4=0.0, p5=0.0, m=1.0, L=1.0, F=0.1, G=1.0),
        linear_parts=(_const_rows(0.0), _const_rows(-r)),
        name="discount_bond",
        x0_default=np.array([1.0]),
    )


def _gbm_linear() -> ProblemSpec:
    T, r, vol = 1.0, 0.05, 0.2
    growth_rate = 2.0 * r + vol * vol - r  # 0.09

    def analytic():
        def value(t, x):
            return x[:, 0] ** 2 * math.exp(growth_rate * (T - t))

        def gradient(t, x):
            return 2.0 * x * math.exp(growth_rate * (T - t))

        def hessian(t, x):
            return np.full((len(x), 1, 1), 2.0 * math.exp(growth_rate * (T - t)))

        def time_derivative(t, x):
            return -growth_rate * x[:, 0] ** 2 * math.exp(growth_rate * (T - t))

        return AnalyticSolution(value, gradient, hessian, time_derivative)

    def f(t, x, y, z, gamma):
        return (r * np.asarray(y, dtype=np.float64)
                - r * x[:, 0] * z[:, 0]
                - 0.5 * vol * vol * x[:, 0] ** 2 * gamma[:, 0, 0])

    return ProblemSpec(
        dim=1,
        horizon=T,
        mu=lambda x: r * x,
        sigma=lambda x: vol * x[:, :, None],
        f=f,
        g=lambda x: x[:, 0] ** 2,
        dg=lambda x: 2.0 * x,
        analytic_v=analytic(),
        growth=GrowthParams(p1=1.0, p2=4.0, p3=2.0, p4=2.0, p5=1.0, m=3.0, L=0.25, F=0.5, G=1.0),
        linear_parts=(_const_rows(0.0), _const_rows(-r)),
        name="gbm_linear",
        x0_default=np.array([1.0]),
    )


def _semilinear_exp() -> ProblemSpec:
    T = 1.0

    def analytic():
        def value(t, x):
            return np.full(len(x), math.exp(T - t))

        def gradient(t, x):
            return np.zeros_like(x)

        def hessian(t, x):
            return np.zeros((len(x), 1, 1))

        def time_derivative(t, x):
            return np.full(len(x), -math.exp(T - t))

        return AnalyticSolution(value, gradient, hessian, time_derivative)

    return ProblemSpec(
        dim=1,
        horizon=T,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)),
        f=lambda t, x, y, z, gamma: -np.asarray(y, dtype=np.float64)
        - 0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        g=lambda x: np.ones(len(x)),
        dg=lambda x: np.zeros_like(x),
        analytic_v=analytic(),
        growth=GrowthParams(p1=0.0, p2=1.0, p3=0.0, p4=0.0, p5=0.0, m=3.0, L=1.0, F=1.0, G=1.0),
        name="semilinear_exp",
        x0_default=np.array([0.0]),
    )


def _bsb_uncertain_vol() -> ProblemSpec:
    T, sim_vol, vol_lo, vol_hi = 1.0, 0.15, 0.1, 0.2
    rate = vol_hi * vol_hi  # growth of the worst-case convex solution

    def analytic():
        def value(t, x):
            return x[:, 0] ** 2 * math.exp(rate * (T - t))

        def gradient(t, x):
            return 2.0 * x * math.exp(rate * (T - t))

        def hessian(t, x):
            return np.full((len(x), 1, 1), 2.0 * math.exp(rate * (T - t)))

        def time_derivative(t, x):
            return -rate * x[:, 0] ** 2 * math.exp(rate * (T - t))

        return AnalyticSolution(value, gradient, hessian, time_derivative)

    def f(t, x, y, z, gamma):
        # max over u in [vol_lo, vol_hi] of u^2 * x^2 * gamma is attained
        # at an endpoint because the objective is linear in u^2.
        a = x[:, 0] ** 2 * gamma[:, 0, 0]
        return -0.5 * np.maximum(vol_lo * vol_lo * a, vol_hi * vol_hi * a)

    return ProblemSpec(
        dim=1,
        horizon=T,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: sim_vol * x[:, :, None],
        f=f,
        g=lambda x: x[:, 0] ** 2,
        dg=lambda x: 2.0 * x,
        analytic_v=analytic(),
        growth=GrowthParams(p1=1.0, p2=4.0, p3=2.0, p4=2.0, p5=1.0, m=3.0, L=0.15, F=0.5, G=1.0),
        name="bsb_uncertain_vol",
        x0_default=np.array([1.0]),
    )


def _hjb_uncertain_vol() -> ProblemSpec:
    from . import hjb as _hjb  # deferred: hjb builds on this module

    return _hjb.as_problem(
        _hjb.uncertain_volatility_control(), _bsb_uncertain_vol(), name="hjb_uncertain_vol"
    )


def _boundary_heat() -> ProblemSpec:
    def analytic():
        def value(t, x):
            return x[:, 0].copy()

        def gradient(t, x):
            return np.ones_like(x)

        def hessian(t, x):
            return np.zeros((len(x), 1, 1))

        def time_derivative(t, x):
            return np.zeros(len(x))

        return AnalyticSolution(value, gradient, hessian, time_derivative)

    # v(t, x) = x is harmonic in space and constant in time, so it solves
    # the stopped problem exactly: the lateral condition v = g on the
    # boundary holds identically and stopping does not change the value.
    return ProblemSpec(
        dim=1,
        horizon=1.0,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)),
        f=lambda t, x, y, z, gamma: -0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        g=lambda x: x[:, 0].copy(),
        dg=lambda x: np.ones_like(x),
        analytic_v=analytic(),
        domain=Box(np.array([-1.0]), np.array([2.0])),
        growth=GrowthParams(p1=0.0, p2=1.0, p3=1.0, p4=0.0, p5=0.0, m=2.0, L=1.0, F=0.5, G=1.0),
        linear_parts=(_const_rows(0.0), _const_rows(0.0)),
        name="boundary_heat",
        x0_default=np.array([0.5]),
    )


_CATALOG = {
    "heat": _heat,
    "discount_bond": _discount_bond,
    "gbm_linear": _gbm_linear,
    "semilinear_exp": _semilinear_exp,
    "bsb_uncertain_vol": _bsb_uncertain_vol,
    "hjb_uncertain_vol": _hjb_uncertain_vol,
    "boundary_heat": _boundary_heat,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog_get(name: str) -> ProblemSpec:
    """Return a fresh spec for a named benchmark problem.

    Two calls return independent objects whose coefficients evaluate
    identically.  Raises :class:`UnknownProblem` for unknown names.
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        known = ", ".join(catalog_names())
        raise UnknownProblem(f"unknown problem {name!r}; known: {known}") from None
    return builder()


# ---------------------------------------------------------------------------
# Problems from configuration dictionaries
# ---------------------------------------------------------------------------

def _uses_names(node, names: set[str]) -> bool:
    if isinstance(node, _expr.Var):
        return node.name in names
    if isinstance(node, _expr.Unary):
        if node.op == "trace":
            return "gamma" in names
        return _uses_names(node.operand, names)
    if isinstance(node, _expr.Binary):
        return _uses_names(node.left, names) or _uses_names(node.right, names)
    return False


def _rows(result, n: int) -> np.ndarray:
    arr = np.asarray(result, dtype=np.float64)
    return np.broadcast_to(arr, (n,))


def _space_field(sources: list[str], d: int, what: str):
    asts = []
    for s in sources:
        ast = _expr.parse(s, d)
        if _uses_names(ast.root, {"t", "y", "z", "gamma", "u"}):
            raise ConfigError(f"{what} expressions may reference x only: {s!r}")
        asts.append(ast)

    def fn(x):
        n = len(x)
        cols = [_rows(_expr.evaluate(a, _expr.EvalContext(x=x)), n) for a in asts]
        return np.stack(cols, axis=-1)

    return fn


def _matrix_field(sources: list[list[str]], d: int, what: str):
    rows = [_space_field(r, d, what) for r in sources]

    def fn(x):
        return np.stack([r(x) for r in rows], axis=-2)

    return fn


def problem_from_dict(obj: dict) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from a plain configuration dictionary.

    Expected keys: ``dim``, ``horizon``, ``mu`` (list of d expressions in
    x), ``sigma`` (d x d nested list), ``f`` (expression in t, x, y, z,
    gamma), ``g`` (expression in x); optional ``dg``, ``domain``
    (``{"lower": [...], "upper": [...]}``), ``linear`` (``{"alpha": ...,
    "beta": ...}`` in t, x), ``growth`` and ``x0``.  Expression syntax is
    documented in docs/expr-grammar.md.
    """
    try:
        d = int(obj["dim"])
        horizon = float(obj["horizon"])
        mu_src = list(obj["mu"])
        sigma_src = [list(r) for r in obj["sigma"]]
        g_src = str(obj["g"])
    except KeyError as missing:
        raise ConfigError(f"problem definition lacks required key {missing}") from None
    if len(mu_src) != d or len(sigma_src) != d or any(len(r) != d for r in sigma_src):
        raise ConfigError("mu must list d expressions and sigma a d x d table")

    mu = _space_field(mu_src, d, "mu")
    sigma = _matrix_field(sigma_src, d, "sigma")

    g_ast = _expr.parse(g_src, d)
    if _uses_names(g_ast.root, {"t", "y", "z", "gamma", "u"}):
        raise ConfigError("g may reference x only")

    def g(x):
        return _rows(_expr.evaluate(g_ast, _expr.EvalContext(x=x)), len(x))

    control = obj.get("control")
    if control is not None:
        # hjb.as_problem below assembles the generator from the control
        # coefficients; an explicit f or linear split would be dropped, so
        # reject the ambiguity.
        for key in ("f", "linear"):
            if obj.get(key) is not None:
                raise ConfigError(f"give either {key} or a control block, not both")
        f = None
    elif obj.get("f") is None:
        raise ConfigError("problem definition needs f or a control block")
    else:
        f_ast = _expr.parse(str(obj["f"]), d)

        def f(t, x, y, z, gamma):
            ctx = _expr.EvalContext(t=t, x=x, y=np.asarray(y, dtype=np.float64), z=z, gamma=gamma)
            return _rows(_expr.evaluate(f_ast, ctx), len(x))

    dg = None
    if obj.get("dg") is not None:
        dg = _space_field(list(obj["dg"]), d, "dg")

    domain = None
    if obj.get("domain") is not None:
        dom = obj["domain"]
        domain = Box(np.asarray(dom["lower"], dtype=np.float64),
                     np.asarray(dom["upper"], dtype=np.float64))

    linear_parts = None
    if obj.get("linear") is not None:
        lin = obj["linear"]
        a_ast = _expr.parse(str(lin["alpha"]), d)
        b_ast = _expr.parse(str(lin["beta"]), d)
        for ast, label in ((a_ast, "alpha"), (b_ast, "beta")):
            if _uses_names(ast.root, {"y", "z", "gamma", "u"}):
                raise ConfigError(f"linear {label} may reference t and x only")

        def alpha(t, x, _ast=a_ast):
            return _rows(_expr.evaluate(_ast, _expr.EvalContext(t=t, x=x)), len(x))

        def beta(t, x, _ast=b_ast):
            return _rows(_expr.evaluate(_ast, _expr.EvalContext(t=t, x=x)), len(x))

        linear_parts = (alpha, beta)

    growth = None
    if obj.get("growth") is not None:
        growth = GrowthParams(**{k: float(v) for k, v in obj["growth"].items()})

    x0_default = None
    if obj.get("x0") is not None:
        x0_default = np.asarray(obj["x0"], dtype=np.float64)

    spec = ProblemSpec(
        dim=d,
        horizon=horizon,
        mu=mu,
        sigma=sigma,
        f=f,
        g=g,
        dg=dg,
        domain=domain,
        growth=growth,
        linear_parts=linear_parts,
        name=str(obj.get("name")) if obj.get("name") else None,
        x0_default=x0_default,
    )
    if control is None:
        return spec
    from . import hjb as _hjb

    return _hjb.as_problem(_hjb.control_problem_from_dict(control, d), spec)
