"""Shared arithmetic for the backward solvers.

Both backward solvers (the semi-linear one and the fully non-linear one) are
thin front-ends over :func:`backward_sweep`.  Keeping the recursion in one
place is not just deduplication: the semi-linear reduction property -- a
gamma-free problem must produce the same Y and Z through either solver --
holds to near machine precision precisely because both run the identical
sequence of floating-point operations, differing only in whether a
second-order column is maintained.

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
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import regress
from .errors import NonFinite, SingularSigma
from .model import ProblemSpec, as_points
from .paths import PathBatch


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


def terminal_gradient_impl(spec: ProblemSpec, X_T) -> tuple:
    """Gradient of the terminal condition per path.

    Returns ``(grad, kinked, used_fd)``.  With ``spec.dg`` present the
    declared gradient is evaluated directly and no kink detection runs.
    Otherwise each component uses a central difference with step
    ``h = 1e-5 * (1 + |x_i|)``, and a component is flagged as kinked when its
    one-sided slopes disagree beyond what smooth curvature explains.
    """
    x = as_points(X_T, spec.dim)
    J, d = x.shape
    if spec.dg is not None:
        grad = np.asarray(spec.dg(x), dtype=np.float64)
        grad = grad.reshape(J, d)
        if not np.all(np.isfinite(grad)):
            j = int(np.argmax(~np.isfinite(grad).all(axis=1)))
            raise NonFinite(f"non-finite terminal gradient at path {j}")
        return grad, np.zeros((J, d), dtype=bool), False

    grad = np.empty((J, d))
    kinked = np.zeros((J, d), dtype=bool)
    g0 = np.asarray(spec.g(x), dtype=np.float64)
    for i in range(d):
        h = 1e-5 * (1.0 + np.abs(x[:, i]))
        xp = x.copy()
        xm = x.copy()
        xp[:, i] += h
        xm[:, i] -= h
        gp = np.asarray(spec.g(xp), dtype=np.float64)
        gm = np.asarray(spec.g(xm), dtype=np.float64)
        grad[:, i] = (gp - gm) / (2.0 * h)
        fwd = (gp - g0) / h
        bwd = (g0 - gm) / h
        kinked[:, i] = np.abs(fwd - bwd) > 0.05 * (1.0 + np.abs(fwd) + np.abs(bwd))
    if not np.all(np.isfinite(grad)):
        j = int(np.argmax(~np.isfinite(grad).all(axis=1)))
        raise NonFinite(f"non-finite terminal gradient at path {j}")
    return grad, kinked, True


def terminal_hessian_impl(spec: ProblemSpec, X_T) -> np.ndarray:
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
            xp = x.copy()
            xm = x.copy()
            xp[:, j_dim] += h
            xm[:, j_dim] -= h
            dp = np.asarray(spec.dg(xp), dtype=np.float64).reshape(J, d)
            dm = np.asarray(spec.dg(xm), dtype=np.float64).reshape(J, d)
            H[:, :, j_dim] = (dp - dm) / (2.0 * h)[:, None]
    else:
        g0 = np.asarray(spec.g(x), dtype=np.float64)
        steps = [1e-4 * (1.0 + np.abs(x[:, i])) for i in range(d)]
        for i in range(d):
            xp = x.copy()
            xm = x.copy()
            xp[:, i] += steps[i]
            xm[:, i] -= steps[i]
            gp = np.asarray(spec.g(xp), dtype=np.float64)
            gm = np.asarray(spec.g(xm), dtype=np.float64)
            H[:, i, i] = (gp - 2.0 * g0 + gm) / steps[i] ** 2
            for j_dim in range(i + 1, d):
                xpp = x.copy()
                xpm = x.copy()
                xmp = x.copy()
                xmm = x.copy()
                for arr, si, sj in (
                    (xpp, 1.0, 1.0),
                    (xpm, 1.0, -1.0),
                    (xmp, -1.0, 1.0),
                    (xmm, -1.0, -1.0),
                ):
                    arr[:, i] += si * steps[i]
                    arr[:, j_dim] += sj * steps[j_dim]
                cross = (
                    np.asarray(spec.g(xpp), dtype=np.float64)
                    - np.asarray(spec.g(xpm), dtype=np.float64)
                    - np.asarray(spec.g(xmp), dtype=np.float64)
                    + np.asarray(spec.g(xmm), dtype=np.float64)
                ) / (4.0 * steps[i] * steps[j_dim])
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


def backward_sweep(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: regress.BasisSpec,
    picard_iters: int,
    with_gamma: bool,
):
    """Run the backward recursion; the solver modules wrap the result.

    Each step charges the Itô form ``phi = f + mu'z + 0.5*Tr[sigma sigma' gamma]``.
    When ``with_gamma`` is False no second-order column is maintained and
    ``phi`` is evaluated at a zero Hessian.

    Returns ``(Y, Z, Gamma, root_mean, pathwise, fits, diagnostics)`` where
    ``pathwise`` is the per-path accumulated functional (terminal payout
    minus the driver corrections actually charged); by mean preservation of
    the per-step projections its sample mean tracks the nested root value, so
    its spread is the honest CLT scale for the reported estimate.
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
    grad_T, kinked, used_fd = terminal_gradient_impl(spec, X[:, N])
    Z[:, N] = grad_T
    Gamma = None
    if with_gamma:
        Gamma = np.zeros((J, N + 1, d, d))
        Gamma[:, N] = terminal_hessian_impl(spec, X[:, N])

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
            assert np.array_equal(gamma, np.transpose(gamma, (0, 2, 1)))
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
    diagnostics = {
        "terminal_gradient_fd": used_fd,
        "terminal_kink_fraction": float(np.mean(np.any(kinked, axis=1))),
        "terminal_kinked": kinked,
    }
    root_mean = float(np.mean(Y[:, 0]))
    return Y, Z, Gamma, root_mean, pathwise, fits, diagnostics
