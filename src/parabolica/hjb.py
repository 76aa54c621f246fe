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
always coherent.  One kernel, shared by :func:`hamiltonian` and
:class:`NodeHamiltonian`, evaluates each grid control's H as ``base +
beta*y``, ``base = (alpha + b'z) + 1/2 Tr[a a' gamma]``.  A term that is
zero by construction is absent (None) and costs nothing; without
``beta``, H does not depend on ``y``, and a node reduces the grid to its
running maximum and first argmax as it fills it, holding (J,) columns
only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import ConfigError, MissingGamma, NonFinite
from .model import (_REQUIRED, ProblemSpec, _floats, _integer, diagonal, half_trace, known_keys,
                    read_key, require_memory)

__all__ = [
    "ControlProblem",
    "hamiltonian",
    "NodeHamiltonian",
    "hjb_generator",
    "extract_control",
    "uncertain_volatility_control",
    "as_problem",
    "control_problem_from_dict",
]


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Coefficients of a control problem over a bounded box of controls.

    ``a(t, x, u)`` returns ``(J, d, d)``, ``b(t, x, u)`` ``(J, d)`` and
    ``alpha(t, x, u)`` and ``beta(t, x, u)`` per-path scalars ``(J,)``,
    each evaluated at a single control vector ``u`` of length
    ``control_dim`` and a batch ``x`` of shape ``(J, d)``.  ``alpha``,
    ``beta`` or ``b`` left None is identically zero and never evaluated.
    ``resolution`` is the per-dimension grid size (endpoints included);
    a grid larger than physical memory is refused with ConfigError.
    The sign of ``beta`` depends on the problem's horizon and domain, so
    :func:`as_problem` screens it, not this class.
    """

    dim: int
    control_dim: int
    lower: np.ndarray
    upper: np.ndarray
    a: Callable
    alpha: Optional[Callable] = None
    beta: Optional[Callable] = None
    b: Optional[Callable] = None
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
        # Python ints, so a grid too large to hold is refused, not overflowed.
        points = int(self.resolution) ** int(self.control_dim)
        require_memory(points * int(self.control_dim) * 8,
                       f"a control grid of {self.resolution}^{self.control_dim} points")

    def grid(self) -> np.ndarray:
        """Control grid of shape (n_points, control_dim), lexicographic."""
        axes = [np.linspace(self.lower[i], self.upper[i], self.resolution)
                for i in range(self.control_dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _control_terms(cp: ControlProblem, t, x, z, gamma, u, base) -> Optional[np.ndarray]:
    """Fill ``base`` with ``(alpha + b'z) + 1/2 Tr[a a' gamma]`` at control ``u``; return ``beta``.

    ``H(u) = base + beta*y``, and ``beta`` is None when ``cp.beta`` is.
    An absent ``alpha`` starts ``base`` at ``+0.0``, and an absent ``b``
    adds no ``b'z``; the trace is :func:`model.half_trace` of ``a``.
    """
    a_val = cp.a(t, x, u)
    base[...] = 0.0 if cp.alpha is None else cp.alpha(t, x, u)
    if cp.b is not None:
        base += np.einsum("jd,jd->j", cp.b(t, x, u), z)
    base += half_trace(a_val, gamma, diagonal(a_val))
    return None if cp.beta is None else cp.beta(t, x, u)


def hamiltonian(cp: ControlProblem, t, x, y, z, gamma, u) -> np.ndarray:
    """The controlled drift H = ((alpha + b'z) + 1/2 Tr[a a' gamma]) + beta*y."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    base = np.empty(len(x))
    with np.errstate(invalid="ignore", over="ignore"):
        beta = _control_terms(cp, t, x, z, gamma, u, base)
        return base if beta is None else base + beta * np.asarray(y, dtype=np.float64)


def _grid_max(cp: ControlProblem, t, x, z, gamma, grid) -> tuple:
    """Per path, the maximum of H over ``grid`` and the first grid index attaining it.

    For an H free of ``y``.  Each control's ``base`` fills one reused (J,)
    row that is merged into the running maximum at once, so no (G, J)
    array is held.  ``np.maximum`` row by row is the reduction ``np.max``
    makes along the grid axis, with its bits, and the strict ``>`` keeps
    the first of tied controls, as ``np.argmax`` does.  The index takes
    the smallest unsigned type holding G - 1, whose multiply and maximum
    cost a fraction of a float merge.  A column whose maximum is NaN
    takes ``np.argmax``'s first NaN: those rows alone are evaluated again
    over the grid, into a (G, rows) array.
    """
    J = len(x)
    best, cand = np.empty(J), np.empty(J)
    better = np.empty(J, dtype=bool)
    codes = np.arange(len(grid), dtype=np.min_scalar_type(len(grid) - 1))
    index, step = np.zeros(J, dtype=codes.dtype), np.empty(J, dtype=codes.dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        _control_terms(cp, t, x, z, gamma, grid[0], best)
        for g in range(1, len(grid)):
            _control_terms(cp, t, x, z, gamma, grid[g], cand)
            np.greater(cand, best, out=better)
            np.multiply(better, codes[g], out=step)
            np.maximum(index, step, out=index)
            np.maximum(best, cand, out=best)
        rows = np.flatnonzero(np.isnan(best))
        if rows.size:
            values = np.empty((len(grid), rows.size))
            for g, u in enumerate(grid):
                _control_terms(cp, t, x[rows], z[rows], gamma[rows], u, values[g])
            index[rows] = np.argmax(values, axis=0)
    return best, index


class NodeHamiltonian:
    """H at every grid control for one batch of ``(t, x, z, gamma)``.

    Each grid control's ``base`` and ``beta`` (:func:`_control_terms`,
    the kernel of :func:`hamiltonian`) are evaluated once per node, and
    :meth:`f` and :meth:`argmax` give ``-max`` and the first maximizer of
    ``base + beta*y`` with the bits of :func:`hamiltonian`.  With
    ``cp.beta``, ``base`` and ``beta`` fill (G, J) arrays over the G grid
    controls and each ``y`` forms its objective from them.  Without it
    the node is y-free: it keeps only the per-path maximum of ``base``
    and the first grid control attaining it, found as the grid is filled
    (:func:`_grid_max`), which every ``y`` reads.  There a ``y`` that is
    not all finite raises NonFinite from :meth:`f` and :meth:`argmax`, as
    it would make a discounted node's values NaN.
    """

    def __init__(self, cp: ControlProblem, t, x, z, gamma):
        self.grid = cp.grid()
        if cp.beta is None:
            self._beta = None
            self._best, self._index = _grid_max(cp, t, x, z, gamma, self.grid)
            return
        self._base = base = np.empty((len(self.grid), len(x)))
        self._beta = np.empty_like(base)
        with np.errstate(invalid="ignore", over="ignore"):
            for g, u in enumerate(self.grid):
                self._beta[g] = _control_terms(cp, t, x, z, gamma, u, base[g])

    def _values(self, y) -> np.ndarray:
        with np.errstate(invalid="ignore", over="ignore"):
            values = self._beta * np.asarray(y, dtype=np.float64)
            values += self._base
        return values

    def _require_finite(self, y) -> None:
        """A y-free node refuses a ``y`` that is not all finite."""
        if not np.all(np.isfinite(y)):
            raise NonFinite("control objective evaluated non-finite")

    def f(self, y) -> np.ndarray:
        """``-max_u H(u)`` per path; raises NonFinite when a maximum is not finite."""
        if self._beta is None:
            self._require_finite(y)
            best = self._best
        else:
            best = np.max(self._values(y), axis=0)
        if not np.all(np.isfinite(best)):
            raise NonFinite("control objective evaluated non-finite")
        return -best

    def argmax(self, y) -> np.ndarray:
        """The first grid control attaining the maximum, per path: (J, control_dim).

        On a discounted node, the first row equal to a finite column
        maximum is the one ``np.argmax`` picks, found on a boolean array
        in place of ``np.argmax``'s transposed float copy; a column whose
        maximum is NaN takes ``np.argmax``'s first NaN, on either node.
        """
        if self._beta is None:
            self._require_finite(y)
            return self.grid[self._index]
        values = self._values(y)
        best = np.max(values, axis=0)
        if np.all(np.isfinite(best)):
            return self.grid[np.argmax(values == best, axis=0)]
        return self.grid[np.argmax(values, axis=0)]


def hjb_generator(cp: ControlProblem) -> Callable:
    """Generator f(t,x,y,z,gamma) = -max over the control grid of H.

    The returned callable follows the batched generator convention of
    :class:`~parabolica.model.ProblemSpec` and can be fed to any of the
    backward solvers.
    """

    def f(t, x, y, z, gamma):
        return NodeHamiltonian(cp, t, x, z, gamma).f(y)

    return f


def extract_control(cp: ControlProblem, solution, batch) -> np.ndarray:
    """Feedback control along simulated paths, shape (J, N+1, control_dim).

    At each node the control is the first grid point (lexicographic
    order) maximizing H at the solution's (Y, Z, Gamma) estimates, the
    same rule :func:`hjb_generator` uses, so the extracted control
    attains the generator's value exactly.  For paths already stopped
    at a node the frozen state estimates are used as-is.  The backward
    sweep records the per-node means of this control itself
    (``BackwardSolution.control_means``), also when it was given an
    observer and so kept no histories to extract from.
    """
    if getattr(solution, "Gamma", None) is None:
        raise MissingGamma("control extraction needs the Gamma history of a 2BSDE solve "
                           "made without an observer")
    times = batch.grid.times
    X, Y, Z, Gam = batch.X, solution.Y, solution.Z, solution.Gamma
    J, steps = Y.shape
    out = np.empty((J, steps, cp.control_dim))
    for n in range(steps):
        node = NodeHamiltonian(cp, float(times[n]), X[:, n], Z[:, n], Gam[:, n])
        out[:, n, :] = node.argmax(Y[:, n])
    return out


def uncertain_volatility_control(
    vol_lo: float = 0.1,
    vol_hi: float = 0.2,
    resolution: int = 21,
    dim: int = 1,
) -> ControlProblem:
    """Volatility chosen adversarially in [vol_lo, vol_hi]: a(u) = u*x, and no other term."""

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
        a=a,
        resolution=resolution,
    )


def as_problem(cp: ControlProblem, base: ProblemSpec, name: Optional[str] = None) -> ProblemSpec:
    """``base`` with the generator assembled from ``cp``, which it carries as ``control``.

    The discount rate must be finite and nonpositive for the value
    function to be well-posed; a given ``beta`` is spot-checked at 8
    times in [0, T], 64 states of the problem's domain ([-5, 5]^d on the
    whole space) and every grid control, and a NaN or infinity there is
    refused as a positive value is.
    """
    if cp.beta is not None:
        rng = np.random.default_rng(0)
        lo, hi = (base.domain.lower, base.domain.upper) if base.domain is not None else (-5.0, 5.0)
        xs = rng.uniform(lo, hi, size=(64, base.dim))
        for t in rng.uniform(0.0, base.horizon, size=8):
            for u in cp.grid():
                beta = np.asarray(cp.beta(float(t), xs, u), dtype=np.float64)
                bad = ~np.isfinite(beta) | (beta > 1e-10)
                if np.any(bad):
                    raise ConfigError(f"beta must be <= 0 and finite; sampled value "
                                      f"{beta[bad][0]:.3g} at t={t:.3g}")
    return dataclasses.replace(
        base,
        f=hjb_generator(cp),
        control=cp,
        linear_parts=None,
        name=name if name is not None else base.name,
    )


def control_problem_from_dict(obj: dict, dim: int) -> ControlProblem:
    """Build a :class:`ControlProblem` from a configuration dictionary.

    Keys: ``control_dim``, ``lower``, ``upper`` (length-k lists), ``a``;
    optional ``alpha``, ``beta``, ``b`` (each absent, so zero, when
    omitted) and ``resolution``.  docs/expr-grammar.md tables each
    coefficient's variables and shape; a missing, unknown or malformed
    key, another variable or a wrong nesting or width raises ConfigError.
    """
    known_keys(obj, ("control_dim", "lower", "upper", "a", "alpha", "beta", "b", "resolution"),
               "control")
    k = read_key(obj, "control_dim", _integer, "control")
    fields = {}
    for key, rank, default in (("alpha", 0, None), ("beta", 0, None), ("b", 1, None),
                               ("a", 2, _REQUIRED)):
        source = read_key(obj, key, where="control", default=default)
        if source is not None:
            fields[key] = _expr.coefficient(source, dim, ("t", "x", "u"), rank,
                                            f"control {key}", k)
    return ControlProblem(
        dim=dim,
        control_dim=k,
        lower=read_key(obj, "lower", _floats, "control"),
        upper=read_key(obj, "upper", _floats, "control"),
        resolution=read_key(obj, "resolution", _integer, "control", default=21),
        **fields,
    )
