"""Dynamic-programming generators for controlled diffusions.

A :class:`ControlProblem` describes maximizing, over progressively
measurable controls ``u`` with values in a bounded box ``U``, the
expected discounted reward

    E[ integral B_s alpha(s, X_s, u_s) ds + B_T g(X_T) ],
    B_s = exp(integral beta(r, X_r, u_r) dr),   beta <= 0,

where ``dX = b(t, X, u) dt + a(t, X, u) dW``.  The value function
solves ``-v_t + f(t, x, v, Dv, D^2v) = 0`` with

    f(t, x, y, z, gamma) = -max_{u in U} H(t, x, y, z, gamma, u),
    H = alpha + beta*y + b'z + 1/2 Tr[a a' gamma],

which is the Bellman equation rearranged for that sign convention: the
classical statement ``v_t + sup_u {alpha + beta v + b'Dv + 1/2 Tr[a a'
D^2 v]} = 0`` moved to the left-hand side.  Worst-case/robust problems
come out right under this form: with convex terminal data the
uncertain-volatility maximizer is the largest volatility, and ``f``
is nonincreasing in the Hessian argument (degenerate ellipticity)
because each H is nondecreasing in it.

The sup over U is approximated by a uniform grid that includes the box
endpoints; ties resolve to the first grid point in lexicographic order,
in both the generator and the control extraction, so max and argmax are
always coherent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import ConfigError, MissingGamma, NonFinite
from .model import ProblemSpec

__all__ = [
    "ControlProblem",
    "hamiltonian",
    "hjb_generator",
    "extract_control",
    "uncertain_volatility_control",
    "as_problem",
    "control_problem_from_dict",
]


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Coefficients of a control problem over a bounded box of controls.

    ``alpha(t, x, u)`` and ``beta(t, x, u)`` return per-path scalars
    ``(J,)``; ``b(t, x, u)`` returns ``(J, d)`` and ``a(t, x, u)``
    ``(J, d, d)``, each evaluated at a single control vector ``u`` of
    length ``control_dim`` and a batch ``x`` of shape ``(J, d)``.
    ``resolution`` is the per-dimension grid size (endpoints included).
    The sign of ``beta`` depends on the problem's horizon and domain, so
    :func:`as_problem` screens it, not this class.
    """

    dim: int
    control_dim: int
    lower: np.ndarray
    upper: np.ndarray
    alpha: Callable
    beta: Callable
    b: Callable
    a: Callable
    resolution: int = 21

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.upper, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if self.dim < 1 or self.control_dim < 1:
            raise ConfigError("state and control dimensions must be at least 1")
        if lo.shape != (self.control_dim,) or hi.shape != (self.control_dim,):
            raise ConfigError("control bounds must have length control_dim")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConfigError("the control set must be bounded")
        if not np.all(lo <= hi):
            raise ConfigError("control bounds require lower <= upper")
        if self.resolution < 1:
            raise ConfigError("grid resolution must be at least 1")

    def grid(self) -> np.ndarray:
        """Control grid of shape (n_points, control_dim), lexicographic."""
        axes = [np.linspace(self.lower[i], self.upper[i], self.resolution)
                for i in range(self.control_dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def hamiltonian(cp: ControlProblem, t, x, y, z, gamma, u) -> np.ndarray:
    """The controlled drift H = alpha + beta*y + b'z + 1/2 Tr[a a' gamma]."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):
        a_val = cp.a(t, x, u)
        aat = np.einsum("jab,jcb->jac", a_val, a_val)
        quad = 0.5 * np.einsum("jab,jba->j", aat, gamma)
        lin = np.einsum("jd,jd->j", cp.b(t, x, u), z)
        return cp.alpha(t, x, u) + cp.beta(t, x, u) * np.asarray(y, dtype=np.float64) + lin + quad


def _grid_hamiltonians(cp: ControlProblem, t, x, y, z, gamma) -> np.ndarray:
    rows = [hamiltonian(cp, t, x, y, z, gamma, u) for u in cp.grid()]
    return np.stack(rows, axis=0)


def hjb_generator(cp: ControlProblem) -> Callable:
    """Generator f(t,x,y,z,gamma) = -max over the control grid of H.

    The returned callable follows the batched generator convention of
    :class:`~parabolica.model.ProblemSpec` and can be fed to any of the
    backward solvers or to ``model.validate_assumptions``.
    """

    def f(t, x, y, z, gamma):
        values = _grid_hamiltonians(cp, t, x, y, z, gamma)
        best = np.max(values, axis=0)
        if not np.all(np.isfinite(best)):
            raise NonFinite("control objective evaluated non-finite")
        return -best

    return f


def extract_control(cp: ControlProblem, solution, batch) -> np.ndarray:
    """Feedback control along simulated paths, shape (J, N+1, control_dim).

    At each node the control is the first grid point (lexicographic
    order) maximizing H at the solution's (Y, Z, Gamma) estimates, the
    same rule :func:`hjb_generator` uses, so the extracted control
    attains the generator's value exactly.  For paths already stopped
    at a node the frozen state estimates are used as-is.
    """
    if getattr(solution, "Gamma", None) is None:
        raise MissingGamma("control extraction needs second-order estimates")
    times = batch.grid.times
    X, Y, Z, Gam = batch.X, solution.Y, solution.Z, solution.Gamma
    J, steps = Y.shape
    grid = cp.grid()
    out = np.empty((J, steps, cp.control_dim))
    for n in range(steps):
        values = _grid_hamiltonians(cp, float(times[n]), X[:, n], Y[:, n], Z[:, n], Gam[:, n])
        out[:, n, :] = grid[np.argmax(values, axis=0)]
    return out


def uncertain_volatility_control(
    vol_lo: float = 0.1,
    vol_hi: float = 0.2,
    resolution: int = 21,
    dim: int = 1,
) -> ControlProblem:
    """Volatility chosen adversarially in [vol_lo, vol_hi]: a(u) = u*x."""

    def alpha(t, x, u):
        return np.zeros(len(x))

    def beta(t, x, u):
        return np.zeros(len(x))

    def b(t, x, u):
        return np.zeros_like(x)

    def a(t, x, u):
        d = x.shape[1]
        out = np.zeros((len(x), d, d))
        idx = np.arange(d)
        out[:, idx, idx] = u[0] * x
        return out

    return ControlProblem(
        dim=dim,
        control_dim=1,
        lower=np.array([vol_lo]),
        upper=np.array([vol_hi]),
        alpha=alpha,
        beta=beta,
        b=b,
        a=a,
        resolution=resolution,
    )


def as_problem(cp: ControlProblem, base: ProblemSpec, name: Optional[str] = None) -> ProblemSpec:
    """``base`` with the generator assembled from ``cp``, which it carries as ``control``.

    The discount rate must be nonpositive for the value function to be
    well-posed; it is spot-checked at 8 times in [0, T], 64 states of the
    problem's domain ([-5, 5]^d on the whole space) and every grid control.
    """
    rng = np.random.default_rng(0)
    lo, hi = (base.domain.lower, base.domain.upper) if base.domain is not None else (-5.0, 5.0)
    xs = rng.uniform(lo, hi, size=(64, base.dim))
    ts = rng.uniform(0.0, base.horizon, size=8)
    worst = max(float(np.max(cp.beta(float(t), xs, u))) for t in ts for u in cp.grid())
    if worst > 1e-10:
        raise ConfigError(f"beta must be <= 0; sampled value {worst:.3g}")
    return dataclasses.replace(
        base,
        f=hjb_generator(cp),
        control=cp,
        linear_parts=None,
        name=name if name is not None else base.name,
    )


def _field(src, d: int, k: int, width: Optional[int]):
    """Compile one expression (or a list/table of them) over (t, x, u)."""

    def compile_one(source: str):
        ast = _expr.parse(str(source), d, k)
        def fn(t, x, u, _ast=ast):
            ctx = _expr.EvalContext(t=t, x=x, u=u)
            res = np.asarray(_expr.evaluate(_ast, ctx), dtype=np.float64)
            return np.broadcast_to(res, (len(x),))
        return fn

    if width is None:
        one = compile_one(src)
        return one
    if np.ndim(src) == 1:
        fns = [compile_one(s) for s in src]
        if len(fns) != width:
            raise ConfigError(f"expected {width} expressions, got {len(fns)}")
        def vec(t, x, u):
            return np.stack([fn(t, x, u) for fn in fns], axis=-1)
        return vec
    rows = [[compile_one(s) for s in r] for r in src]
    if len(rows) != width or any(len(r) != width for r in rows):
        raise ConfigError(f"expected a {width} x {width} expression table")
    def mat(t, x, u):
        return np.stack([np.stack([fn(t, x, u) for fn in r], axis=-1) for r in rows], axis=-2)
    return mat


def control_problem_from_dict(obj: dict, dim: int) -> ControlProblem:
    """Build a :class:`ControlProblem` from a configuration dictionary.

    Expected keys: ``control_dim``, ``lower``, ``upper`` (length-k
    lists), ``alpha``, ``beta`` (expressions over t, x, u), ``b``
    (list of d expressions), ``a`` (d x d nested list); optional
    ``resolution``.
    """
    try:
        k = int(obj["control_dim"])
        lower = np.asarray(obj["lower"], dtype=np.float64)
        upper = np.asarray(obj["upper"], dtype=np.float64)
        a_src = obj["a"]
    except KeyError as missing:
        raise ConfigError(f"control definition lacks required key {missing}") from None
    return ControlProblem(
        dim=dim,
        control_dim=k,
        lower=lower,
        upper=upper,
        alpha=_field(obj.get("alpha", "0"), dim, k, None),
        beta=_field(obj.get("beta", "0"), dim, k, None),
        b=_field(obj.get("b", ["0"] * dim), dim, k, dim),
        a=_field(a_src, dim, k, dim),
        resolution=int(obj.get("resolution", 21)),
    )
