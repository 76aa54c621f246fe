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
standardized basis matrix and its thin QR factorization) serves the Gamma,
Z and Y fits, each target block solved on its own against that factor so a
block's bits do not depend on which other blocks are fitted; the fitted
values at the fit states are read off the basis matrix itself.  ``sigma``
and ``mu`` are evaluated once, ``sigma`` is inverted once (a division when
every matrix is diagonal, a batched inverse otherwise) for both the Z and
Gamma solves, and the ``mu'z`` and trace terms of ``phi`` are formed
once for all Picard sweeps, which then re-evaluate ``f`` alone.

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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import regress
from .errors import GammaDependence, NonFinite, SingularSigma
from .linear_fk import Estimate
from .model import ProblemSpec, as_points
from .paths import PathBatch

__all__ = ["BackwardSolution", "backward_solve_semilinear", "backward_solve_2bsde"]


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Output of a backward solve.

    ``Y`` is (J, N+1), ``Z`` is (J, N+1, d); ``Gamma`` is (J, N+1, d, d) for
    the fully non-linear scheme and None otherwise.  ``fits`` holds one dict
    per time step with the regression diagnostics that produced that node.
    """

    Y: np.ndarray
    Z: np.ndarray
    Gamma: Optional[np.ndarray]
    root_value: Estimate
    fits: tuple
    diagnostics: dict = field(default_factory=dict)


def _ito_terms(mu, sig, z, gamma) -> tuple:
    """``mu'z`` and ``0.5*Tr[sigma sigma' gamma]``, the terms the Itô transform adds to ``f``."""
    mu_z = np.einsum("jd,jd->j", mu, np.asarray(z, dtype=np.float64))
    ssT = np.einsum("jab,jcb->jac", sig, sig)
    trace = np.einsum("jab,jba->j", ssT, np.asarray(gamma, dtype=np.float64))
    return mu_z, 0.5 * trace


def phi_transform(spec: ProblemSpec) -> Callable:
    """Itô-form driver ``phi = f + mu'z + 0.5*Tr[sigma sigma' gamma]``.

    The returned callable has signature ``phi(t, x, y, z, gamma) -> (J,)``.
    """

    def phi(t, x, y, z, gamma):
        f_val = np.asarray(spec.f(t, x, y, z, gamma), dtype=np.float64)
        mu = np.asarray(spec.mu(x), dtype=np.float64)
        sig = np.asarray(spec.sigma(x), dtype=np.float64)
        mu_z, half_trace = _ito_terms(mu, sig, z, gamma)
        return (f_val + mu_z) + half_trace

    return phi


def screen_driver(spec: ProblemSpec, gamma_free: bool) -> None:
    """Reject a driver the backward sweep cannot run, before any path work.

    Evaluates ``phi`` at random states and symmetric Hessian arguments.  A
    non-finite value raises NonFinite.  With ``gamma_free`` (the semi-linear
    solver) ``phi`` is probed at eight times, each with two independent
    Hessian arguments; a spread beyond 1e-10 means the problem is genuinely
    second-order and raises GammaDependence.  Otherwise one probe is made,
    so ``sigma`` and ``mu`` run once.
    """
    phi = phi_transform(spec)
    name = spec.name or "<anonymous>"
    samples, d = 16, spec.dim
    rng = np.random.default_rng(0)
    x0 = spec.x0_default
    scale = 1.0 + float(np.max(np.abs(x0)))
    times = rng.uniform(0.0, spec.horizon, size=8) if gamma_free else [0.5 * spec.horizon]
    for t in times:
        x = x0[None, :] + scale * rng.standard_normal((samples, d))
        y = rng.standard_normal(samples)
        z = rng.standard_normal((samples, d))
        values = []
        for _ in range(2 if gamma_free else 1):
            gamma = rng.standard_normal((samples, d, d))
            values.append(phi(t, x, y, z, 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))))
        if not np.all(np.isfinite(values)):
            raise NonFinite(f"transformed driver of {name!r} is non-finite at sampled points")
        if gamma_free:
            gap = np.max(np.abs(values[0] - values[1]))
            if gap > 1e-10:
                raise GammaDependence(
                    f"generator of {name!r} keeps second-order dependence "
                    f"after the transform (spread {gap:.2e}); "
                    "use the fully non-linear solver"
                )


def _moved(fn, x: np.ndarray, *moves) -> np.ndarray:
    """``fn`` at the states ``x`` with ``step`` added to column ``i`` for each ``(i, step)``."""
    xs = x.copy()
    for i, step in moves:
        xs[:, i] += step
    return np.asarray(fn(xs), dtype=np.float64)


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

    Returns ``(diag, inverse)``: the (J, d) diagonal and None when every
    matrix is diagonal, so the solves divide; otherwise None and the batched
    (J, d, d) inverse.  A singular matrix raises SingularSigma naming its
    path, an index into the batch (``alive`` marks the rows of ``sig``).
    """
    d = sig.shape[-1]
    diag = sig[:, np.arange(d), np.arange(d)]
    # Diagonal exactly when no nonzero entry lies off the diagonal.
    if np.count_nonzero(sig) == np.count_nonzero(diag):
        zero = np.flatnonzero((diag == 0.0).any(axis=1))
        if zero.size == 0:
            return diag, None
        j = int(zero[0])
    else:
        try:
            return None, np.linalg.inv(sig)
        except np.linalg.LinAlgError:
            j = int(np.argmin(np.abs(np.linalg.det(sig))))
    path = int(np.flatnonzero(alive)[j])
    raise SingularSigma(f"singular diffusion matrix at path {path}, step {step}")


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


def _sweep(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: regress.BasisSpec,
    picard_iters: int,
    with_gamma: bool,
) -> BackwardSolution:
    """Run the backward recursion over the batch.

    When ``with_gamma`` is False no second-order column is maintained and
    ``phi`` is evaluated at a zero Hessian.  The root value's stderr is the
    spread of the pathwise functional (see the module docstring).
    """
    if picard_iters < 0:
        raise ValueError("picard_iters must be non-negative")
    grid = batch.grid
    N, J, d = grid.N, batch.J, batch.dim
    dt = grid.dt
    times = grid.times
    X, dW, stop = batch.X, batch.dW, batch.stop_index
    p = regress.basis_size(basis, d)

    Y = np.empty((J, N + 1))
    Z = np.zeros((J, N + 1, d))
    Y[:, N] = np.asarray(spec.g(X[:, N]), dtype=np.float64)
    if not np.all(np.isfinite(Y[:, N])):
        j = int(np.argmax(~np.isfinite(Y[:, N])))
        raise NonFinite(f"non-finite terminal value at path {j}")
    grad_T, kinked, used_fd = terminal_gradient(spec, X[:, N])
    Z[:, N] = grad_T
    Gamma = None
    if with_gamma:
        Gamma = np.zeros((J, N + 1, d, d))
        Gamma[:, N] = terminal_hessian(spec, X[:, N])

    pathwise = Y[:, N].copy()
    fits = []
    for n in range(N, 0, -1):
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
            reg = regress.fit(dsg, target, basis)
            return reg, regress.predict(reg, dsg if fit_on_rows else x)

        sig = np.asarray(spec.sigma(x), dtype=np.float64)
        mu = np.asarray(spec.mu(x), dtype=np.float64)
        sig_diag, sig_inv = _invert_sigma(sig, alive, k)

        fit_g = None
        if with_gamma:
            target_g = Z[fit_rows, n][:, :, None] * dW[fit_rows, k][:, None, :]
            fit_g, Eg = expect(target_g.reshape(-1, d * d))
            G = Eg.reshape(n_alive, d, d) / dt
            # Gamma = E[Z dW'] sigma^{-1} / dt, symmetrized.
            G = G / sig_diag[:, None, :] if sig_inv is None else G @ sig_inv
            gamma = 0.5 * (G + np.transpose(G, (0, 2, 1)))
            Gamma[rows, k] = gamma
        else:
            gamma = np.zeros((n_alive, d, d))  # phi is evaluated at a zero Hessian

        fit_z, Ez = expect(dW[fit_rows, k] * Y[fit_rows, n][:, None])
        Ez = Ez.reshape(n_alive, d) / dt
        # Z = sigma'^{-1} E[dW Y] / dt.
        if sig_inv is None:
            z = Ez / sig_diag
        else:
            z = np.einsum("jba,jb->ja", sig_inv, Ez)
        Z[rows, k] = z

        fit_y, Ey = expect(Y[fit_rows, n])
        # Only f moves between Picard sweeps; the rest of phi is fixed per step.
        mu_z, half_trace = _ito_terms(mu, sig, z, gamma)

        def correction(y):
            f_val = np.asarray(spec.f(t_prev, x, y, z, gamma), dtype=np.float64)
            return (f_val + mu_z) + half_trace

        y, phi_last = picard_y(Ey, correction, dt, picard_iters)
        if n_alive < J:
            Y[:, k] = Y[:, n]
        Y[rows, k] = y
        if phi_last is not None:
            pathwise[rows] -= phi_last * dt

        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(z))
                and np.all(np.isfinite(gamma))):
            raise NonFinite(f"non-finite backward value at step {k}")

        fits.append(
            {
                "n": k,
                "t": t_prev,
                "y": fit_y,
                "z": fit_z,
                "gamma": fit_g,
                "alive": n_alive,
            }
        )

    fits.reverse()
    return BackwardSolution(
        Y=Y,
        Z=Z,
        Gamma=Gamma,
        root_value=Estimate(float(np.mean(Y[:, 0])), Estimate.of(pathwise).stderr, J),
        fits=tuple(fits),
        diagnostics={
            "terminal_gradient_fd": used_fd,
            "terminal_kink_fraction": float(np.mean(np.any(kinked, axis=1))),
            "terminal_kinked": kinked,
        },
    )


def backward_solve_semilinear(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: regress.BasisSpec,
    picard_iters: int = 2,
) -> BackwardSolution:
    """Solve a gamma-free problem backward along a simulated batch.

    Raises GammaDependence when the transformed driver still depends on its
    Hessian argument and NonFinite when it is non-finite where probed;
    RegressionFailure and NonFinite propagate from the per-step fits and
    updates.
    """
    screen_driver(spec, gamma_free=True)
    return _sweep(spec, batch, basis, picard_iters, with_gamma=False)


def backward_solve_2bsde(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: regress.BasisSpec,
    picard_iters: int = 2,
) -> BackwardSolution:
    """Solve a fully non-linear problem backward along a simulated batch.

    The returned solution carries the full ``Gamma`` block, symmetric at
    every node by construction.  Raises NonFinite when the transformed
    driver is non-finite where probed, SingularSigma (with the offending
    path and step) when the diffusion matrix cannot be inverted along the
    paths, and propagates RegressionFailure/NonFinite from the per-step
    estimates.
    """
    screen_driver(spec, gamma_free=False)
    return _sweep(spec, batch, basis, picard_iters, with_gamma=True)
