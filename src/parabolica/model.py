"""Problem specifications, the built-in problem catalog, and inline problem readers.

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
``(alpha, beta)`` split the linear scheme reads (either None when that
term is zero), and the
:class:`~parabolica.hjb.ControlProblem` an HJB generator was assembled
from (set only by ``hjb.as_problem``), which control extraction reads.

``analytic_v`` (when present) exposes the closed-form solution and its
derivatives in the same batched convention and is what verification
routines compare against.  Every catalog closed form but
``boundary_heat``'s (v = x) is one member of ``_quadratic``'s family
``v = A(t) |x|^2 + B(t)``, whose derivatives hold in any dimension.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import (
    ConfigError,
    DimensionMismatch,
    MissingAnalyticV,
    UnknownProblem,
)

if TYPE_CHECKING:
    from .hjb import ControlProblem

__all__ = [
    "Box",
    "AnalyticSolution",
    "ProblemSpec",
    "analytic_residual",
    "catalog_get",
    "catalog_names",
    "problem_from_dict",
    "as_points",
    "diagonal",
    "half_trace",
    "ito_terms",
]


def as_points(x, d: int) -> np.ndarray:
    """Promote ``x`` to a ``(J, d)`` float array, validating the width."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise DimensionMismatch(f"expected points of shape (J, {d}), got {arr.shape}")
    return arr


def diagonal(m) -> Optional[np.ndarray]:
    """The (J, d) diagonal view of the (J, d, d) matrices ``m``, or None.

    None when any entry off a diagonal is non-zero (``-0.0`` is zero);
    at d = 1 nothing is counted.
    """
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    if diag.shape[-1] == 1:
        return diag
    nonzero = np.not_equal(m, 0.0)  # counted as booleans, several times faster than as floats
    if np.count_nonzero(nonzero) == np.count_nonzero(np.diagonal(nonzero, axis1=-2, axis2=-1)):
        return diag
    return None


def half_trace(sig, gamma, diag: Optional[np.ndarray]) -> np.ndarray:
    """``0.5*Tr[sigma sigma' gamma]`` per row, with the bits of the two einsums of the dense form.

    The dense form runs on C-ordered copies of ``sig`` and ``gamma``
    (no copy for the C-ordered blocks the solvers pass): on a transposed
    layout the einsum can add the d x d products in SIMD-lane order, so
    the same values would give other bits.  ``diag`` is :func:`diagonal`
    of ``sig``.  With one, the trace is ``0.5 * (((0.0 + s_00^2 g_00) +
    s_11^2 g_11) + ...)``: the einsum also adds in index order from
    ``+0.0``, and its off-diagonal products are zeros that change no bit
    of the sum.  They are NaN instead where a ``sigma`` diagonal entry or
    an off-diagonal ``gamma`` entry is not finite (``0*inf``), so at
    d >= 2 a batch holding such a value takes the dense form.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the einsums warn of nothing
        # A finite sum means that every entry is finite.
        if diag is not None and (diag.shape[-1] == 1
                                 or np.isfinite(np.sum(diag) + np.sum(gamma))):
            terms = np.multiply(diag.T, diag.T, order="C")  # (d, J): one contiguous row per i
            terms *= np.diagonal(gamma, axis1=-2, axis2=-1).T
            total = terms[0] + 0.0
            for row in terms[1:]:
                total += row
            total *= 0.5
            return total
    sig = np.ascontiguousarray(sig)
    ssT = np.einsum("jab,jcb->jac", sig, sig)
    return 0.5 * np.einsum("jab,jba->j", ssT, np.ascontiguousarray(gamma))


def ito_terms(mu, sig, z, gamma, sig_diag: Optional[np.ndarray]) -> tuple:
    """``(mu'z, 0.5*Tr[sigma sigma' gamma])`` per row, the terms the Itô transform adds to ``f``.

    ``sig_diag`` is :func:`diagonal` of ``sig``; the trace is :func:`half_trace`.
    """
    mu, z, gamma = (np.asarray(v, dtype=np.float64) for v in (mu, z, gamma))
    return np.einsum("jd,jd->j", mu, z), half_trace(sig, gamma, sig_diag)


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
    # (alpha, beta), each (t, x) -> (J,) or None where the term is zero
    linear_parts: Optional[tuple[Optional[Callable], Optional[Callable]]] = None
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


def _quadratic(T: float, a: float = 0.0, rho: float = 0.0, b: float = 0.0,
               kappa: float = 0.0, h: float = 0.0) -> AnalyticSolution:
    """The closed form ``v(t, x) = A(t) |x|^2 + B(t)`` in any dimension.

    With ``tau = T - t``: ``A = a exp(rho tau)`` and
    ``B = b exp(kappa tau) + h tau``, so ``Dv = 2A x``, ``D^2v = 2A I`` and
    ``v_t = -rho A |x|^2 - kappa b exp(kappa tau) - h``.
    """

    def A(t):
        return a * math.exp(rho * (T - t))

    def value(t, x):
        return A(t) * np.einsum("ji,ji->j", x, x) + (b * math.exp(kappa * (T - t)) + h * (T - t))

    def gradient(t, x):
        # With a = 0 the gradient is +0.0 everywhere; 0.0 * x would be -0.0 at x < 0.
        return (2.0 * A(t)) * x if a else np.zeros_like(x)

    def hessian(t, x):
        J, d = x.shape
        out = np.zeros((J, d, d))
        out[:, range(d), range(d)] = 2.0 * A(t)
        return out

    def time_derivative(t, x):
        minus_dB = kappa * b * math.exp(kappa * (T - t)) + h
        return -rho * A(t) * np.einsum("ji,ji->j", x, x) - minus_dB

    return AnalyticSolution(value, gradient, hessian, time_derivative)


def _heat() -> ProblemSpec:
    T = 1.0
    return ProblemSpec(
        dim=1,
        horizon=T,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)),
        f=lambda t, x, y, z, gamma: -0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        g=lambda x: x[:, 0] ** 2,
        dg=lambda x: 2.0 * x,
        analytic_v=_quadratic(T, a=1.0, h=1.0),
        linear_parts=(None, None),
        name="heat",
        x0_default=np.array([0.0]),
    )


def _discount_bond() -> ProblemSpec:
    T, r = 2.0, 0.05
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
        analytic_v=_quadratic(T, b=1.0, kappa=-r),
        linear_parts=(None, _const_rows(-r)),
        name="discount_bond",
        x0_default=np.array([1.0]),
    )


def _gbm_linear() -> ProblemSpec:
    T, r, vol = 1.0, 0.05, 0.2
    growth_rate = 2.0 * r + vol * vol - r  # 0.09

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
        analytic_v=_quadratic(T, a=1.0, rho=growth_rate),
        linear_parts=(None, _const_rows(-r)),
        name="gbm_linear",
        x0_default=np.array([1.0]),
    )


def _semilinear_exp() -> ProblemSpec:
    T = 1.0
    return ProblemSpec(
        dim=1,
        horizon=T,
        mu=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)),
        f=lambda t, x, y, z, gamma: -np.asarray(y, dtype=np.float64)
        - 0.5 * np.trace(gamma, axis1=-2, axis2=-1),
        g=lambda x: np.ones(len(x)),
        dg=lambda x: np.zeros_like(x),
        analytic_v=_quadratic(T, b=1.0, kappa=1.0),
        name="semilinear_exp",
        x0_default=np.array([0.0]),
    )


def _bsb_uncertain_vol() -> ProblemSpec:
    T, sim_vol, vol_lo, vol_hi = 1.0, 0.15, 0.1, 0.2
    rate = vol_hi * vol_hi  # growth of the worst-case convex solution

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
        analytic_v=_quadratic(T, a=1.0, rho=rate),
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
        linear_parts=(None, None),
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

_REQUIRED = object()


def _integer(raw) -> int:
    """``raw`` as an int: an integer, or a float with no fractional part, never a boolean."""
    if isinstance(raw, bool) or not (
        isinstance(raw, numbers.Integral) or (isinstance(raw, float) and raw.is_integer())
    ):
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def reader(accepts, expected: str, convert=lambda raw: raw):
    """Reader of ``convert(raw)``, raising ValueError unless ``accepts(raw)``."""
    def read(raw):
        if not accepts(raw):
            raise ValueError(f"expected {expected}, got {raw!r}")
        return convert(raw)
    return read


def integer(low: int, high: int):
    """Reader of an integer (see ``_integer``) in [low, high]."""
    return reader(lambda v: low <= _integer(v) <= high, f"an integer in [{low}, {high}]", _integer)


def number(low: float = -math.inf, high: float = math.inf, *, strict: bool = False):
    """Reader of a finite number in [low, high] ((low, high] if ``strict``), kept as given."""
    return reader(lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
                  and math.isfinite(v) and (low < v if strict else low <= v) and v <= high,
                  f"a finite number in {'(' if strict else '['}{low}, {high}]")


def list_of(item, shortest: int = 1, longest: float = math.inf):
    """Reader of a list of ``shortest`` to ``longest`` entries, each read by ``item``."""
    return reader(lambda v: isinstance(v, (list, tuple)) and shortest <= len(v) <= longest,
                  f"a list of {shortest} to {longest} entries", lambda v: [item(x) for x in v])


def choice(*options):
    """Reader of one of ``options``."""
    return reader(lambda v: v in options, f"one of {', '.join(map(repr, options))}")


flag = reader(lambda v: isinstance(v, bool), "true or false")
_finite = number()
_floats = list_of(_finite)


def known_keys(obj, keys, where: str) -> None:
    """Raise ConfigError unless ``obj`` is an object whose keys are all in ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} definition must be an object, got {obj!r}")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{where} has unknown key {key!r}; known: {', '.join(keys)}")


def require_memory(nbytes: int, what: str) -> None:
    """Raise ConfigError when ``nbytes`` exceed the machine's physical memory.

    Physical memory is ``os.sysconf`` page size times physical pages; where
    the platform does not report it, nothing is checked.
    """
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if nbytes > total:
        raise ConfigError(
            f"{what} needs {nbytes} bytes, more than the {total} bytes of physical memory"
        )


def read_key(obj, key: str, convert=None, where: str = "problem", default=_REQUIRED):
    """``convert(obj[key])``, or ``default`` for an absent or null key; ConfigError names ``key``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} definition must be an object, got {obj!r}")
    if obj.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where} key {key!r} is {'null' if key in obj else 'required'}")
        return default
    try:
        return obj[key] if convert is None else convert(obj[key])
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"{where} key {key!r} is malformed: {exc}") from None


_PROBLEM_KEYS = ("dim", "horizon", "mu", "sigma", "f", "g", "dg", "control", "domain",
                 "linear", "x0", "name")


def problem_from_dict(obj: dict) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from a plain configuration dictionary.

    Keys: ``dim``, ``horizon``, ``mu``, ``sigma``, ``g`` and ``f`` (or a
    ``control`` block, see :func:`~parabolica.hjb.control_problem_from_dict`);
    optional ``dg``, ``domain`` (``{"lower": [...], "upper": [...]}``),
    ``linear`` (``{"alpha": ..., "beta": ...}``, each term None, so zero,
    when omitted) and ``x0``.
    docs/expr-grammar.md tables each coefficient's variables and shape; a
    missing, unknown or malformed key, another variable or a wrong nesting
    or width raises ConfigError here, before anything is simulated.
    """
    known_keys(obj, _PROBLEM_KEYS, "problem")
    d = read_key(obj, "dim", _integer)
    horizon = float(read_key(obj, "horizon", _finite))
    mu = _expr.coefficient(read_key(obj, "mu"), d, ("x",), 1, "mu")
    sigma = _expr.coefficient(read_key(obj, "sigma"), d, ("x",), 2, "sigma")
    g = _expr.coefficient(read_key(obj, "g"), d, ("x",), 0, "g")

    control = read_key(obj, "control", default=None)
    f = None
    if control is not None:
        # hjb.as_problem below assembles the generator from the control
        # coefficients; an explicit f or linear split would be dropped, so
        # reject the ambiguity.
        for key in ("f", "linear"):
            if obj.get(key) is not None:
                raise ConfigError(f"give either {key} or a control block, not both")
    elif obj.get("f") is None:
        raise ConfigError("problem definition needs f or a control block")
    else:
        f = _expr.coefficient(obj["f"], d, ("t", "x", "y", "z", "gamma"), 0, "f")

    dg = read_key(obj, "dg", default=None)
    if dg is not None:
        dg = _expr.coefficient(dg, d, ("x",), 1, "dg")

    domain = read_key(obj, "domain", default=None)
    if domain is not None:
        known_keys(domain, ("lower", "upper"), "domain")
        domain = Box(read_key(domain, "lower", _floats, "domain"),
                     read_key(domain, "upper", _floats, "domain"))

    lin = read_key(obj, "linear", default=None)
    linear_parts = None
    if lin is not None:
        known_keys(lin, ("alpha", "beta"), "linear")
        linear_parts = tuple(
            None if lin.get(key) is None
            else _expr.coefficient(lin[key], d, ("t", "x"), 0, f"linear {key}")
            for key in ("alpha", "beta")
        )

    x0_default = read_key(obj, "x0", _floats, default=None)

    spec = ProblemSpec(
        dim=d,
        horizon=horizon,
        mu=mu,
        sigma=sigma,
        f=f,
        g=g,
        dg=dg,
        domain=domain,
        linear_parts=linear_parts,
        name=str(obj.get("name")) if obj.get("name") else None,
        x0_default=x0_default,
    )
    if control is None:
        return spec
    from . import hjb as _hjb

    return _hjb.as_problem(_hjb.control_problem_from_dict(control, d), spec)
