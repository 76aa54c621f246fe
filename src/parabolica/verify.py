"""Independent oracles for the backward solvers.

Two instruments live here: a one-dimensional explicit finite-difference
solver for the terminal-value problem (monotone under its CFL bound, so it
inherits a discrete comparison principle), and a pathwise residual check
that plugs an analytic solution into the discretized backward system.

The residual check reconstructs the fourth process of the backward system
as ``A = L Dv`` with ``L = d/dt + (1/2) Tr[sigma sigma' D^2]`` applied to
each gradient component -- the drift-free generator convention.  The time
part uses a central difference of the analytic gradient and the spatial
part uses central differences of the analytic Hessian, so problems whose
gradient field is constant in time and space report A = 0 without
cancellation noise.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CflViolation,
    ConfigError,
    DimensionMismatch,
    MissingAnalyticV,
    NonFinite,
)
from .model import ProblemSpec, require_memory
from .paths import PathBatch, TimeGrid, batch_bytes, euler_simulate

__all__ = [
    "FdGrid",
    "FdSolution",
    "diffusion_slope",
    "fd_solve_1d",
    "twobsde_residuals",
    "verify_problem",
]


# ---------------------------------------------------------------------------
# finite differences


@dataclass(frozen=True)
class FdGrid:
    """Uniform space-time grid for the explicit backward march.

    ``a_max`` bounds the generator's slope in the second-derivative slot
    (for f containing -(1/2) sigma^2 v_xx this is sigma^2 / 2); the
    explicit scheme is monotone only while dt <= dx^2 / (2 a_max), so the
    constructor rejects grids that violate the bound.
    """

    x_lo: float
    x_hi: float
    M: int
    N_fd: int
    horizon: float
    a_max: float

    def __post_init__(self):
        if not (self.x_hi > self.x_lo):
            raise ConfigError("finite-difference interval must have x_hi > x_lo")
        if self.M < 3:
            raise ConfigError("finite differences need at least 3 space nodes")
        if self.N_fd < 1:
            raise ConfigError("finite differences need at least 1 time step")
        if not (self.horizon > 0.0):
            raise ConfigError("finite-difference horizon must be positive")
        if self.a_max < 0.0 or not np.isfinite(self.a_max):
            raise ConfigError("diffusion slope bound must be finite and >= 0")
        if self.a_max > 0.0 and self.dt > self.dx**2 / (2.0 * self.a_max) * (1 + 1e-12):
            raise CflViolation(
                f"explicit scheme unstable: dt={self.dt:.3e} exceeds "
                f"dx^2/(2 a_max)={self.dx ** 2 / (2.0 * self.a_max):.3e}; "
                f"needs N_fd >= {self.cfl_steps(self.x_lo, self.x_hi, self.M, self.horizon, self.a_max)}"
            )

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.M - 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.N_fd

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.M)

    @staticmethod
    def cfl_steps(x_lo, x_hi, M, horizon, a_max) -> int:
        """Smallest time-step count satisfying the stability bound."""
        if a_max <= 0.0:
            return 1
        dx = (x_hi - x_lo) / (M - 1)
        return max(1, math.ceil(2.0 * a_max * horizon / dx**2))

    @classmethod
    def for_problem(cls, spec: ProblemSpec, x_lo, x_hi, M, *, safety=1.25) -> "FdGrid":
        """Probe the generator's diffusion slope and size the grid to it."""
        a_max = diffusion_slope(spec, x_lo, x_hi)
        n = math.ceil(cls.cfl_steps(x_lo, x_hi, M, spec.horizon, a_max) * safety)
        return cls(float(x_lo), float(x_hi), int(M), n, spec.horizon, a_max)


def diffusion_slope(spec: ProblemSpec, x_lo, x_hi, *, samples: int = 61) -> float:
    """max |df/dgamma| over a probe lattice, by central differences.

    States are probed at payoff scale: y = g(x), z = dg(x) when supplied,
    several gamma magnitudes of either sign, and a handful of times.
    """
    if spec.dim != 1:
        raise DimensionMismatch("the finite-difference oracle is one-dimensional")
    x = np.linspace(x_lo, x_hi, samples)[:, None]
    y = spec.g(x)
    z = spec.dg(x) if spec.dg is not None else np.zeros_like(x)
    slope = 0.0
    for t_frac in (0.0, 0.5, 1.0):
        t = t_frac * spec.horizon
        for gval in (-4.0, -1.0, -0.25, 0.25, 1.0, 4.0):
            h = 1e-4 * (1.0 + abs(gval))
            hi = np.full((samples, 1, 1), gval + h)
            lo = np.full((samples, 1, 1), gval - h)
            df = np.asarray(spec.f(t, x, y, z, hi)) - np.asarray(spec.f(t, x, y, z, lo))
            slope = max(slope, float(np.max(np.abs(df))) / (2.0 * h))
    if not np.isfinite(slope):
        raise NonFinite("generator slope probe produced a non-finite value")
    return slope


@dataclass(frozen=True)
class FdSolution:
    """Value surface on the grid: ``V[k, m]`` is v(times[k], xs[m])."""

    times: np.ndarray
    xs: np.ndarray
    V: np.ndarray

    def value_at(self, t: float, x):
        """Bilinear interpolation of the surface; clamps to the grid box."""
        t = float(np.clip(t, self.times[0], self.times[-1]))
        k = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 2))
        wt = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        row = (1.0 - wt) * self.V[k] + wt * self.V[k + 1]
        x = np.clip(np.asarray(x, dtype=np.float64), self.xs[0], self.xs[-1])
        out = np.interp(x, self.xs, row)
        return float(out) if np.ndim(out) == 0 else out


def fd_solve_1d(spec: ProblemSpec, grid: FdGrid) -> FdSolution:
    """Explicit backward march of v_t = f(t, x, v, v_x, v_xx), d = 1 only.

    Space derivatives are central differences; the terminal row is the
    payoff; boundary rows follow ``spec.analytic_v`` when available and
    otherwise stay frozen at the terminal payoff values.
    """
    if spec.dim != 1:
        raise DimensionMismatch("fd_solve_1d handles one-dimensional problems only")
    xs = grid.xs
    dx, dt = grid.dx, grid.dt
    times = np.linspace(0.0, grid.horizon, grid.N_fd + 1)
    x_col = xs[:, None]
    V = np.empty((grid.N_fd + 1, grid.M))
    V[-1] = spec.g(x_col)
    av = spec.analytic_v

    interior_x = x_col[1:-1]
    for k in range(grid.N_fd, 0, -1):
        row = V[k]
        t = times[k]
        v_x = (row[2:] - row[:-2]) / (2.0 * dx)
        v_xx = (row[2:] - 2.0 * row[1:-1] + row[:-2]) / dx**2
        fval = np.asarray(
            spec.f(t, interior_x, row[1:-1], v_x[:, None], v_xx[:, None, None])
        )
        V[k - 1, 1:-1] = row[1:-1] - dt * fval
        if av is not None:
            V[k - 1, 0] = av.value(times[k - 1], x_col[:1])[0]
            V[k - 1, -1] = av.value(times[k - 1], x_col[-1:])[0]
        else:
            V[k - 1, 0] = V[-1, 0]
            V[k - 1, -1] = V[-1, -1]
        if not np.all(np.isfinite(V[k - 1])):
            raise NonFinite(f"non-finite finite-difference value at time step {k - 1}")
    return FdSolution(times=times, xs=xs, V=V)


# ---------------------------------------------------------------------------
# pathwise residuals


def _dynkin_gradient(spec: ProblemSpec, t: float, x: np.ndarray) -> np.ndarray:
    """A = (d/dt + (1/2) Tr[sigma sigma' D^2]) Dv, componentwise.

    Central differences of the analytic gradient in time and of the
    analytic Hessian in space; a gradient field constant in both gives an
    exact zero.
    """
    av = spec.analytic_v
    J, d = x.shape
    ht = 1e-5 * max(1.0, spec.horizon)
    out = (av.gradient(t + ht, x) - av.gradient(t - ht, x)) / (2.0 * ht)
    sig = np.asarray(spec.sigma(x))
    a_mat = sig @ np.transpose(sig, (0, 2, 1))
    for axis in range(d):
        h = 1e-5 * (1.0 + np.abs(x[:, axis]))
        x_hi = x.copy()
        x_hi[:, axis] += h
        x_lo = x.copy()
        x_lo[:, axis] -= h
        dH = (av.hessian(t, x_hi) - av.hessian(t, x_lo)) / (2.0 * h)[:, None, None]
        # dH[j, b, i] approximates the axis-derivative of H[b, i]; the
        # second-order part of A_i sums a[axis, b] * dH[b, i] over b.
        out += 0.5 * np.einsum("jb,jbi->ji", a_mat[:, axis, :], dH)
    return out


def twobsde_residuals(spec: ProblemSpec, batch: PathBatch) -> dict:
    """Discretized backward-system residuals along an analytic solution.

    Builds Y = v, Z = Dv, Gamma = D^2 v, A = L Dv on each path node and
    reports, per step and in aggregate, the root-mean-square of

        r1_n = dY_n - f(.) dt - Z' dX - (1/2) Tr[Gamma sigma sigma'] dt
        r2_n = dZ_n - A dt - Gamma dX

    restricted to paths still alive over the step.  ``terminal_gap`` is
    ``max |v(T, X_T) - g(X_T)|``, the analytic solution's disagreement with
    the payoff at the terminal time.
    """
    if spec.analytic_v is None:
        raise MissingAnalyticV(
            f"problem {spec.name!r} has no analytic solution to check against"
        )
    av = spec.analytic_v
    times = batch.grid.times
    X, stop, N = batch.X, batch.stop_index, batch.grid.N

    terminal_gap = float(np.max(np.abs(av.value(times[-1], X[:, -1]) - spec.g(X[:, -1]))))

    r1_rms = np.empty(N)
    r2_rms = np.empty(N)
    r1_sq_total, r1_count = 0.0, 0
    r2_sq_total, r2_count = 0.0, 0
    for n in range(N):
        alive = stop > n
        t0, t1 = float(times[n]), float(times[n + 1])
        dt = t1 - t0
        x0, x1 = X[alive, n], X[alive, n + 1]
        y0, y1 = av.value(t0, x0), av.value(t1, x1)
        z0, z1 = av.gradient(t0, x0), av.gradient(t1, x1)
        g0 = av.hessian(t0, x0)
        sig = np.asarray(spec.sigma(x0))
        a_mat = sig @ np.transpose(sig, (0, 2, 1))
        dX = x1 - x0
        fval = np.asarray(spec.f(t0, x0, y0, z0, g0))
        r1 = (
            (y1 - y0)
            - fval * dt
            - np.einsum("jd,jd->j", z0, dX)
            - 0.5 * np.einsum("jab,jba->j", g0, a_mat) * dt
        )
        A0 = _dynkin_gradient(spec, t0, x0)
        r2 = (z1 - z0) - A0 * dt - np.einsum("jab,jb->ja", g0, dX)

        r1_rms[n] = math.sqrt(float(np.mean(r1**2))) if r1.size else 0.0
        r2_rms[n] = math.sqrt(float(np.mean(r2**2))) if r2.size else 0.0
        r1_sq_total += float(np.sum(r1**2))
        r1_count += r1.size
        r2_sq_total += float(np.sum(r2**2))
        r2_count += r2.size

    return {
        "dt": float(batch.grid.dt),
        "r1_rms": r1_rms,
        "r2_rms": r2_rms,
        "r1_aggregate": math.sqrt(r1_sq_total / max(r1_count, 1)),
        "r2_aggregate": math.sqrt(r2_sq_total / max(r2_count, 1)),
        "terminal_gap": terminal_gap,
    }


# ---------------------------------------------------------------------------
# bundled report


def verify_problem(
    spec: ProblemSpec,
    *,
    x_lo: Optional[float] = None,
    x_hi: Optional[float] = None,
    M: int = 401,
    window: Optional[tuple] = None,
    fd_tol: float = 5e-3,
    fd_relative: bool = False,
    residual_Ns: Sequence[int] = (32, 64, 128),
    residual_J: int = 10_000,
    ratio_min: float = 1.8,
    seed: int = 0,
    threads: int = 1,
) -> dict:
    """Cross-check a problem with an analytic solution against the oracles.

    Returns ``{"checks": [{"name", "metric", "threshold", "pass"}, ...]}``
    with one entry for the finite-difference comparison (1-D problems), one
    for the first residual's step-halving ratio, and one for the terminal
    identity (the largest ``terminal_gap`` over the residual runs, if any).
    ``threads`` splits each residual batch's simulation, which no bit of the
    report depends on.
    A window holding no finite-difference node, or a finite-difference
    surface and residual batch larger than physical memory, raises
    ConfigError before anything is computed.
    """
    if spec.analytic_v is None:
        raise MissingAnalyticV(
            f"problem {spec.name!r} has no analytic solution to verify against"
        )
    checks = []
    nbytes = max((batch_bytes(residual_J, N, spec.dim, keep_increments=False)
                  for N in residual_Ns), default=0)

    if spec.dim == 1:
        x0 = float(spec.x0_default[0])
        lo = x0 - 6.0 if x_lo is None else float(x_lo)
        hi = x0 + 6.0 if x_hi is None else float(x_hi)
        if window is None:
            quarter = (hi - lo) / 4.0
            window = (lo + quarter, hi - quarter)
        grid = FdGrid.for_problem(spec, lo, hi, M)
        in_window = (grid.xs >= window[0]) & (grid.xs <= window[1])
        if not in_window.any():
            raise ConfigError(
                f"verify window {list(window)} holds no finite-difference node in [{lo}, {hi}]"
            )
        # The surface and its truth stack, both (N_fd + 1, M).
        nbytes += 2 * 8 * (grid.N_fd + 1) * grid.M
    require_memory(nbytes, "a verify run")

    if spec.dim == 1:
        surface = fd_solve_1d(spec, grid)
        truth = np.stack(
            [spec.analytic_v.value(t, surface.xs[:, None]) for t in surface.times]
        )
        gap = np.abs(surface.V[:, in_window] - truth[:, in_window])
        if fd_relative:
            gap = gap / np.abs(truth[:, in_window])
        metric = float(gap.max())
        checks.append(
            {"name": "fd_oracle", "metric": metric, "threshold": fd_tol, "pass": metric <= fd_tol}
        )

    aggregates, terminal_gaps = {}, []
    for N in residual_Ns:
        batch = euler_simulate(
            spec, TimeGrid(0.0, spec.horizon, int(N)), spec.x0_default, J=residual_J, seed=seed,
            threads=threads, keep_increments=False,
        )
        residuals = twobsde_residuals(spec, batch)
        aggregates[int(N)] = residuals["r1_aggregate"]
        terminal_gaps.append(residuals["terminal_gap"])
    sizes = sorted(aggregates)
    ratios = [
        aggregates[a] / aggregates[b]
        for a, b in zip(sizes, sizes[1:])
        if b == 2 * a and aggregates[b] > 0.0
    ]
    if ratios:
        metric = float(min(ratios))
        checks.append(
            {
                "name": "residual_rate",
                "metric": metric,
                "threshold": ratio_min,
                "pass": metric >= ratio_min,
            }
        )

    if terminal_gaps:
        metric = float(np.max(terminal_gaps))
        checks.append(
            {"name": "terminal_identity", "metric": metric, "threshold": 0.0, "pass": metric <= 0.0}
        )
    return {"checks": checks}
