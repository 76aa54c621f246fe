"""Backward solvers: the semi-linear BSDE and the 2BSDE on one recursion.

Both solvers charge the Itô form of the generator,
``phi = f + mu'z + 0.5*Tr[sigma sigma' gamma]``, and march backward from
the terminal condition along a simulated batch.  Each step estimates up to
three conditional expectations against the current state, in an order that
keeps the data flow acyclic:

1. ``Gamma_{n-1} = (1/dt) * E[Z_n dW' | X_{n-1}] * sigma(X_{n-1})^{-1}``,
   symmetrized -- it needs only the next node's ``Z``;
2. ``Z_{n-1} = (1/dt) * sigma(X_{n-1})'^{-1} * E[dW Y_n | X_{n-1}]``;
3. ``Y_{n-1}`` solves ``Y = E[Y_n | X] - phi(t, X, Y, Z, Gamma) * dt`` by
   Picard sweeps started at the regressed conditional expectation.

The semi-linear BSDE is the Gamma-free special case: for the problems
:func:`backward_solve_semilinear` accepts, the ``gamma`` dependence cancels
identically in ``phi``, so step 1 is skipped and ``phi`` is evaluated at a
zero Hessian.  Running both solvers through the one sweep is not just
deduplication: the semi-linear reduction property -- a gamma-free problem
must produce the same Y and Z through either solver -- holds to near
machine precision precisely because both run the identical sequence of
floating-point operations, differing only in whether a second-order column
is maintained.

The drift-adjustment process of the second-order system is never estimated:
the recursion does not use it, and when a closed-form solution is available
the verification module reconstructs it independently.

Conventions used throughout:

* ``X`` has shape (J, N+1, d); ``dW[:, n]`` is the increment over
  ``[t_n, t_{n+1}]``.
* Step ``n`` of the backward loop computes values at node ``n-1`` from node
  ``n`` and the increment ``dW[:, n-1]``.
* Paths that exited the domain are frozen: a path with ``stop_index <= n-1``
  copies its value backward (``Y[n-1] = Y[n]``), carries zero ``Z``/``Gamma``
  rows, and accrues no driver correction.  Regressions are fitted on the
  still-alive subset when it is large enough to identify the basis, and on
  all paths otherwise.  While every path is alive no boolean mask is
  applied at all.

Each step does its shared work once.  One :class:`regress.Design` (the
standardized basis matrix and its one factorization: the Gram matrix of a
well-conditioned design, a thin QR of any other) serves the Gamma, Z and
Y fits, each target block solved on its own against that factorization so
a block's bits do not depend on which other blocks are fitted; the fitted
values at the fit states are read off the basis matrix itself, and the
fits share the design's coordinates to be read at the stopped paths'
states.  A target or a Z/Gamma solve that overflows raises NonFinite
naming its step, with no numpy warning before it.  ``sigma``
and ``mu`` are evaluated once, ``sigma`` is inverted once (a division when
every matrix is diagonal, a batched inverse otherwise) for both the Z and
Gamma solves, and the ``mu'z`` and trace terms of ``phi`` are formed
once for all Picard sweeps, which then re-evaluate ``f`` alone.  A
diagonal ``sigma`` stays its (J, d) diagonal view: it serves the Z and
Gamma solves and the half-trace ``sum_i sigma_ii^2 gamma_ii``
(:func:`model.half_trace`), as it serves the noise of the Euler step, so
``sigma sigma'`` is formed only for a ``sigma`` with an off-diagonal
entry.  When the problem carries a control (``spec.control``), ``f`` is
not called: the node's :class:`hjb.NodeHamiltonian` evaluates every grid
control's coefficients once, ``base`` and ``beta`` of ``H = base +
beta*y``, and reduces the grid a control at a time to a running (J,)
maximum and first argmax.  When the control problem has no discount
rate (``beta`` is None), H does not depend on ``y``: the node reduces
``base`` once as it goes, holds no (G, J) array, and every Picard sweep
reads ``-max`` from it.  With one, ``base`` and ``beta`` fill (G, J)
arrays over the G grid controls and each Picard sweep streams
``beta*y + base`` at its ``y`` through the same reduction.  After ``Y``
is set the same object gives the node's mean maximizing control
(``BackwardSolution.control_means``), so no second pass re-evaluates them.

The sweep streams.  Each step is a function that builds node n-1's
``(Y, Z, Gamma)`` columns from node n's and frees the rest of what it
built on return, and each finished node goes to an
``observe(n, y, z, gamma)`` callback, n = N first and 0 last.  Without
one, a history observer keeps every node and the solution carries the
(J, N+1, ...) arrays; the CLI passes its ``steps.csv`` row builder
instead, so its backward state is O(J d^2) whatever N is.

Terminal columns are pinned analytically: ``Y_T = g(X_T)``,
``Z_T = Dg(X_T)`` (declared gradient, else central differences with kink
flagging), and ``Gamma_T`` from differentiating the terminal data once more.
Kinked terminal conditions are flagged in the solution diagnostics rather
than rejected; the scheme assumes smooth data and the flag documents where
that assumption broke.

``root_value`` reports the cross-sectional mean of the root column together
with a CLT standard error measured on the pathwise-accumulated functional
(terminal payout minus the driver corrections each path was charged).  The
per-step projections preserve sample means, so that functional's mean tracks
the nested root value; its spread -- unlike the root column's, which
collapses when every path starts at the same point -- is the real
Monte Carlo uncertainty of the reported number.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import hjb, regress
from .errors import ConfigError, GammaDependence, NonFinite, SingularSigma
from .linear_fk import Estimate
from .model import ProblemSpec, as_points, diagonal, ito_terms
from .paths import PathBatch, _normals, _uniforms

__all__ = ["BackwardSolution", "backward_solve_semilinear", "backward_solve_2bsde"]


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Output of a backward solve.

    ``Y`` is (J, N+1), ``Z`` is (J, N+1, d); ``Gamma`` is (J, N+1, d, d) for
    the fully non-linear scheme and None otherwise.  All three are None
    when the solve was given an ``observe`` callback, which saw each
    node's columns instead of a kept history.  ``fits`` holds one dict
    per time step with the regression diagnostics that produced that node.
    ``control_means`` is (N+1, control_dim) when the problem carries a
    control and Gamma is estimated: row ``n`` is the mean over paths of
    :func:`hjb.extract_control` at node ``n``.  It is None otherwise.
    """

    Y: Optional[np.ndarray]
    Z: Optional[np.ndarray]
    Gamma: Optional[np.ndarray]
    root_value: Estimate
    fits: tuple
    diagnostics: dict = field(default_factory=dict)
    control_means: Optional[np.ndarray] = None


def screen_driver(spec: ProblemSpec, gamma_free: bool) -> None:
    """Reject a driver the backward sweep cannot run or the theory does not cover.

    Evaluates ``phi`` at eight random times, one in each eighth of
    ``[0, T]``, each with a random symmetric Hessian argument, on one draw
    of 16 random states, so ``sigma`` and ``mu`` run once.  Every probe is
    a draw of the paths' counter-based generator at a fixed seed.  A
    non-finite value raises NonFinite naming the driver and the time.
    With ``gamma_free`` (the semi-linear solver) each time takes a second
    Hessian argument; a spread beyond 1e-10 means the problem is genuinely
    second-order and raises GammaDependence.  Otherwise (the 2BSDE order) each time evaluates
    ``f`` once on the states stacked twice, at ``Gamma`` and at
    ``Gamma + P`` with ``P`` a random positive semidefinite matrix: the
    solution theory needs ``f`` non-increasing in its Hessian argument,
    so a rise beyond ``1e-9 * (1 + max|f|)`` raises ConfigError naming
    the driver, the time and the margin.  The probes are samples, so the
    screen can only refute; Lipschitz dependence on ``y`` is not probed.
    """
    name = spec.name or "<anonymous>"
    samples, d = 16, spec.dim
    seeds = itertools.count(1)  # each draw takes the path generator's next seed

    def normals(*shape):
        return _normals(next(seeds), shape)

    x0 = spec.x0_default
    scale = 1.0 + float(np.max(np.abs(x0)))
    times = (np.arange(8) + _uniforms(0, 8)) * (spec.horizon / 8)  # one in each eighth
    x = x0[None, :] + scale * normals(samples, d)
    y = normals(samples)
    z = normals(samples, d)
    mu = np.asarray(spec.mu(x), dtype=np.float64)
    sig = np.asarray(spec.sigma(x), dtype=np.float64)
    if not gamma_free:
        x, y, z, mu, sig = (np.concatenate([a, a]) for a in (x, y, z, mu, sig))
    sig_diag = diagonal(sig)

    def symmetric():
        gamma = normals(samples, d, d)
        return 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))

    def phi(t, gamma):
        f_val = np.asarray(spec.f(t, x, y, z, gamma), dtype=np.float64)
        mu_z, trace = ito_terms(mu, sig, z, gamma, sig_diag)
        return f_val, (f_val + mu_z) + trace

    for t in times:
        if gamma_free:
            values = [phi(t, symmetric())[1] for _ in range(2)]
        else:
            gamma = symmetric()
            m = normals(samples, d, d)
            f_val, values = phi(t, np.concatenate([gamma, gamma + m @ np.transpose(m, (0, 2, 1))]))
        if not np.all(np.isfinite(values)):
            raise NonFinite(
                f"transformed driver of {name!r} is non-finite at sampled points (t={t:.6g})"
            )
        if gamma_free:
            gap = np.max(np.abs(values[0] - values[1]))
            if gap > 1e-10:
                raise GammaDependence(
                    f"generator of {name!r} keeps second-order dependence "
                    f"after the transform (spread {gap:.2e}); "
                    "use the fully non-linear solver"
                )
        else:
            at, above = f_val[:samples], f_val[samples:]
            margin = float(np.min(at - above))
            if margin < -1e-9 * (1.0 + float(np.max(np.abs(at)))):
                raise ConfigError(
                    f"driver of {name!r} increases in gamma at t={t:.3g} (margin {margin:.3g}); "
                    "f must be non-increasing in its Hessian argument"
                )


def _moved(fn, x: np.ndarray, *moves) -> np.ndarray:
    """``fn`` at the states ``x`` with ``step`` added to column ``i`` for each ``(i, step)``."""
    xs = x.copy()
    for i, step in moves:
        xs[:, i] += step
    return np.asarray(fn(xs), dtype=np.float64)


# An overflow in the differences is reported by the finiteness check.
@np.errstate(over="ignore", invalid="ignore")
def terminal_gradient(spec: ProblemSpec, X_T) -> tuple:
    """Gradient of the terminal condition per path.

    Returns ``(grad, kinked, used_fd)``.  With ``spec.dg`` present the
    declared gradient is evaluated directly and no kink detection runs.
    Otherwise each component uses a central difference with step
    ``h = 1e-5 * (1 + |x_i|)``, and a component is flagged as kinked when its
    one-sided slopes disagree beyond what smooth curvature explains (e.g. a
    hinge payout differentiated at its hinge, where the central difference
    returns the midpoint slope).
    """
    x = as_points(X_T, spec.dim)
    J, d = x.shape
    kinked = np.zeros((J, d), dtype=bool)
    used_fd = spec.dg is None
    if not used_fd:
        grad = np.asarray(spec.dg(x), dtype=np.float64).reshape(J, d)
    else:
        grad = np.empty((J, d))
        g0 = np.asarray(spec.g(x), dtype=np.float64)
        for i in range(d):
            h = 1e-5 * (1.0 + np.abs(x[:, i]))
            gp, gm = _moved(spec.g, x, (i, h)), _moved(spec.g, x, (i, -h))
            grad[:, i] = (gp - gm) / (2.0 * h)
            fwd = (gp - g0) / h
            bwd = (g0 - gm) / h
            kinked[:, i] = np.abs(fwd - bwd) > 0.05 * (1.0 + np.abs(fwd) + np.abs(bwd))
    if not np.all(np.isfinite(grad)):
        j = int(np.argmax(~np.isfinite(grad).all(axis=1)))
        raise NonFinite(f"non-finite terminal gradient at path {j}")
    return grad, kinked, used_fd


# An overflow in the differences is reported by the finiteness check.
@np.errstate(over="ignore", invalid="ignore")
def terminal_hessian(spec: ProblemSpec, X_T) -> np.ndarray:
    """Hessian of the terminal condition per path, symmetrized.

    Differentiates ``spec.dg`` centrally when available (one rounding level
    better than second differences of ``g``); otherwise falls back to second
    differences of ``g`` with a wider step to keep cancellation noise down.
    """
    x = as_points(X_T, spec.dim)
    J, d = x.shape
    H = np.empty((J, d, d))
    if spec.dg is not None:
        for j_dim in range(d):
            h = 1e-5 * (1.0 + np.abs(x[:, j_dim]))
            dp = _moved(spec.dg, x, (j_dim, h)).reshape(J, d)
            dm = _moved(spec.dg, x, (j_dim, -h)).reshape(J, d)
            H[:, :, j_dim] = (dp - dm) / (2.0 * h)[:, None]
    else:
        g0 = _moved(spec.g, x)
        steps = [1e-4 * (1.0 + np.abs(x[:, i])) for i in range(d)]
        for i, hi in enumerate(steps):
            gp, gm = _moved(spec.g, x, (i, hi)), _moved(spec.g, x, (i, -hi))
            H[:, i, i] = (gp - 2.0 * g0 + gm) / hi**2
            for j_dim in range(i + 1, d):
                hj = steps[j_dim]
                cross = (
                    _moved(spec.g, x, (i, hi), (j_dim, hj))
                    - _moved(spec.g, x, (i, hi), (j_dim, -hj))
                    - _moved(spec.g, x, (i, -hi), (j_dim, hj))
                    + _moved(spec.g, x, (i, -hi), (j_dim, -hj))
                ) / (4.0 * hi * hj)
                H[:, i, j_dim] = cross
                H[:, j_dim, i] = cross
    H = 0.5 * (H + np.transpose(H, (0, 2, 1)))
    if not np.all(np.isfinite(H)):
        raise NonFinite("non-finite terminal Hessian")
    return H


def _invert_sigma(sig: np.ndarray, alive: np.ndarray, step: int) -> tuple:
    """Invert the diffusion matrices of one step once, for the Z and Gamma solves.

    Returns ``(diag, inverse)``: the (J, d) diagonal view and None when
    every matrix is diagonal, so the solves divide; otherwise None and the
    batched (J, d, d) inverse.  A singular matrix raises SingularSigma
    naming its path, an index into the batch (``alive`` marks the rows of
    ``sig``).
    """
    diag = diagonal(sig)
    if diag is not None:
        if diag.all():
            return diag, None
        j = int(np.flatnonzero((diag == 0.0).any(axis=1))[0])
    else:
        try:
            return None, np.linalg.inv(sig)
        except np.linalg.LinAlgError:
            j = int(np.argmin(np.abs(np.linalg.det(sig))))
    path = int(np.flatnonzero(alive)[j])
    raise SingularSigma(f"singular diffusion matrix at path {path}, step {step}")


def _column_means(u: np.ndarray) -> np.ndarray:
    """Mean of each column of ``u`` (J, k), one pairwise sum per column.

    ``u.mean(axis=0)`` adds the rows in sequence when k > 1 and can differ
    from ``u[:, i].mean()`` in the last bits.
    """
    return np.array([u[:, i].mean() for i in range(u.shape[1])])


def picard_y(Ey: np.ndarray, correction: Callable, dt: float, iters: int):
    """Fixed-point sweeps for ``y = Ey - correction(y) * dt``.

    Starts at ``Ey`` and applies ``iters`` sweeps; returns the final iterate
    together with the last evaluated correction (None when ``iters == 0``),
    which is exactly the per-path driver value the update charged.
    """
    y = Ey
    last = None
    for _ in range(iters):
        last = np.asarray(correction(y), dtype=np.float64)
        y = Ey - last * dt
    return y, last


class _History:
    """The default observer: every node's columns, kept as (J, N+1, ...) histories."""

    def __init__(self, J: int, N: int, d: int, with_gamma: bool):
        self.Y = np.empty((J, N + 1))
        self.Z = np.empty((J, N + 1, d))
        self.Gamma = np.empty((J, N + 1, d, d)) if with_gamma else None

    def __call__(self, n: int, y, z, gamma) -> None:
        self.Y[:, n] = y
        self.Z[:, n] = z
        if gamma is not None:
            self.Gamma[:, n] = gamma


def _sweep(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: regress.BasisSpec,
    picard_iters: int,
    with_gamma: bool,
    observe: Optional[Callable] = None,
) -> BackwardSolution:
    """Run the backward recursion over the batch, streaming each node.

    Between steps only the current node's columns are held; a step adds
    its own arrays and frees them on return.  ``observe(n, y, z, gamma)``
    sees each node once, n = N first, with C-contiguous (J,) ``y``,
    (J, d) ``z`` and (J, d, d) ``gamma`` (None when ``with_gamma`` is
    False), which it must not modify.
    Without ``observe`` a :class:`_History` keeps every column and the
    solution carries it as ``Y``, ``Z`` and ``Gamma``; with one, those
    fields are None.

    When ``with_gamma`` is False no second-order column is maintained and
    ``phi`` is evaluated at a zero Hessian.  When it is True and the problem
    carries a control, each node's coefficients are evaluated once, serve
    every Picard sweep through ``-max`` (of one objective formed once when
    H does not depend on ``y``) and then give the node's mean control.
    The root value's stderr is the spread of the pathwise functional (see
    the module docstring).
    """
    if picard_iters < 0:
        raise ValueError("picard_iters must be non-negative")
    grid = batch.grid
    N, J, d = grid.N, batch.J, batch.dim
    dt = grid.dt
    times = grid.times
    X, dW, stop = batch.X, batch.increments(), batch.stop_index
    p = regress.basis_size(basis, d)
    history = _History(J, N, d, with_gamma) if observe is None else None
    observe = history if observe is None else observe

    # Node N's columns; each step replaces them with node n-1's.
    y_n = np.empty(J)
    y_n[:] = spec.g(X[:, N])
    if not np.all(np.isfinite(y_n)):
        j = int(np.argmax(~np.isfinite(y_n)))
        raise NonFinite(f"non-finite terminal value at path {j}")
    z_n, kinked, used_fd = terminal_gradient(spec, X[:, N])
    z_n = np.ascontiguousarray(z_n)
    kink_fraction = float(np.mean(np.any(kinked, axis=1)))
    del kinked  # only its fraction is reported
    g_n = terminal_hessian(spec, X[:, N]) if with_gamma else None
    observe(N, y_n, z_n, g_n)

    cp = spec.control if with_gamma else None
    control_means = None
    if cp is not None:
        control_means = np.empty((N + 1, cp.control_dim))
        terminal = hjb.NodeHamiltonian(cp, float(times[N]), X[:, N], z_n, g_n)
        control_means[N] = _column_means(terminal.argmax(y_n))
        del terminal

    pathwise = y_n.copy()
    fits = []

    def step(n, y_n, z_n, g_n):
        """Node n-1's columns from node n's; records the fits, pathwise charge and control mean."""
        k = n - 1
        t_prev = times[k]
        alive = stop > k
        n_alive = int(np.count_nonzero(alive))
        # Rows updated at node k (a slice, so no gather, when all are alive)
        # and rows fitted on; the fit falls back to every path when too few
        # are alive to identify the basis.
        rows = slice(None) if n_alive == J else alive
        fit_on_rows = n_alive >= max(p, 2)
        fit_rows = rows if fit_on_rows else slice(None)
        x = X[rows, k]
        dsg = regress.design(X[fit_rows, k], basis)

        def expect(target):
            try:
                reg = regress.fit(dsg, target)
            except NonFinite as exc:
                raise NonFinite(f"non-finite backward value at step {k}") from exc
            return reg, regress.predict(reg, dsg if fit_on_rows else x)

        sig = np.asarray(spec.sigma(x), dtype=np.float64)
        mu = np.asarray(spec.mu(x), dtype=np.float64)
        sig_diag, sig_inv = _invert_sigma(sig, alive, k)

        fit_g = None
        # An overflow in the targets or the solves is reported, with its
        # step, by the fits' and the check's finiteness tests.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if with_gamma:
                target_g = z_n[fit_rows][:, :, None] * dW[fit_rows, k][:, None, :]
                fit_g, Eg = expect(target_g.reshape(-1, d * d))
                G = Eg.reshape(n_alive, d, d) / dt
                # Gamma = E[Z dW'] sigma^{-1} / dt, symmetrized.
                G = G / sig_diag[:, None, :] if sig_inv is None else G @ sig_inv
                gamma = 0.5 * (G + np.transpose(G, (0, 2, 1)))
            else:
                gamma = np.zeros((n_alive, d, d))  # phi is evaluated at a zero Hessian

            fit_z, Ez = expect(dW[fit_rows, k] * y_n[fit_rows][:, None])
            Ez = Ez.reshape(n_alive, d) / dt
            # Z = sigma'^{-1} E[dW Y] / dt.
            if sig_inv is None:
                z = Ez / sig_diag
            else:
                z = np.einsum("jba,jb->ja", sig_inv, Ez)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(gamma))):
            raise NonFinite(f"non-finite backward value at step {k}")

        fit_y, Ey = expect(y_n[fit_rows])
        # Only f moves between Picard sweeps; the rest of phi is fixed per step.
        mu_z, trace = ito_terms(mu, sig, z, gamma, sig_diag)
        node = None if cp is None else hjb.NodeHamiltonian(cp, t_prev, x, z, gamma)

        def correction(y):
            f_val = spec.f(t_prev, x, y, z, gamma) if node is None else node.f(y)
            return (np.asarray(f_val, dtype=np.float64) + mu_z) + trace

        y, phi_last = picard_y(Ey, correction, dt, picard_iters)
        if phi_last is not None:
            pathwise[rows] -= phi_last * dt

        if not np.all(np.isfinite(y)):
            raise NonFinite(f"non-finite backward value at step {k}")

        # Node k's columns: stopped paths keep node n's y and carry zero
        # z and gamma rows.
        if n_alive == J:
            y_k, z_k, g_k = y, z, (gamma if with_gamma else None)
        else:
            y_k = y_n.copy()
            y_k[rows] = y
            z_k = np.zeros((J, d))
            z_k[rows] = z
            g_k = None
            if with_gamma:
                g_k = np.zeros((J, d, d))
                g_k[rows] = gamma

        if node is not None:
            u = np.empty((J, cp.control_dim))
            u[rows] = node.argmax(y)
            if n_alive < J:
                # Stopped paths are read at their frozen y and zero z/gamma,
                # as extract_control reads the histories.
                done = ~alive
                frozen = hjb.NodeHamiltonian(cp, t_prev, X[done, k], z_k[done], g_k[done])
                u[done] = frozen.argmax(y_k[done])
            control_means[k] = _column_means(u)

        fits.append({"n": k, "t": t_prev, "y": fit_y, "z": fit_z, "gamma": fit_g,
                     "alive": n_alive})
        return y_k, z_k, g_k

    for n in range(N, 0, -1):
        y_n, z_n, g_n = step(n, y_n, z_n, g_n)
        observe(n - 1, y_n, z_n, g_n)

    fits.reverse()
    with np.errstate(over="ignore", invalid="ignore"):  # Estimate refuses a non-finite mean
        root = float(np.mean(y_n))
    return BackwardSolution(
        Y=None if history is None else history.Y,
        Z=None if history is None else history.Z,
        Gamma=None if history is None else history.Gamma,
        root_value=Estimate(root, Estimate.of(pathwise).stderr, J),
        fits=tuple(fits),
        diagnostics={
            "terminal_gradient_fd": used_fd,
            "terminal_kink_fraction": kink_fraction,
        },
        control_means=control_means,
    )


def backward_solve_semilinear(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: regress.BasisSpec,
    picard_iters: int = 2,
    observe: Optional[Callable] = None,
) -> BackwardSolution:
    """Solve a gamma-free problem backward along a simulated batch.

    ``observe(n, y, z, None)``, when given, sees each node's columns as
    the sweep builds them (n = N down to 0) and the solution's ``Y`` and
    ``Z`` are None; otherwise they hold the full histories.

    Raises GammaDependence when the transformed driver still depends on its
    Hessian argument and NonFinite when it is non-finite where probed,
    ConfigError when the batch was simulated without its increments;
    RegressionFailure and NonFinite propagate from the per-step fits and
    updates.
    """
    screen_driver(spec, gamma_free=True)
    return _sweep(spec, batch, basis, picard_iters, with_gamma=False, observe=observe)


def backward_solve_2bsde(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: regress.BasisSpec,
    picard_iters: int = 2,
    observe: Optional[Callable] = None,
) -> BackwardSolution:
    """Solve a fully non-linear problem backward along a simulated batch.

    The returned solution carries the full ``Gamma`` block, symmetric at
    every node by construction.  ``observe(n, y, z, gamma)``, when given,
    sees each node's columns as the sweep builds them (n = N down to 0)
    instead, and the solution's ``Y``, ``Z`` and ``Gamma`` are None.

    Raises NonFinite when the transformed driver is non-finite where
    probed, ConfigError when ``f`` increases in its Hessian argument
    where probed or when the batch was simulated without its increments,
    SingularSigma (with the offending path and step) when the
    diffusion matrix cannot be inverted along the paths, and propagates
    RegressionFailure/NonFinite from the per-step estimates.
    """
    screen_driver(spec, gamma_free=False)
    return _sweep(spec, batch, basis, picard_iters, with_gamma=True, observe=observe)
