"""Fully non-linear backward scheme producing (Y, Z, Gamma).

Each backward step estimates three conditional expectations against the
current state, in an order that keeps the data flow acyclic:

1. ``Gamma_{n-1} = (1/dt) * E[Z_n dW' | X_{n-1}] * sigma(X_{n-1})^{-1}``,
   symmetrized -- it needs only the next node's ``Z``;
2. ``Z_{n-1} = (1/dt) * sigma(X_{n-1})'^{-1} * E[dW Y_n | X_{n-1}]``;
3. ``Y_{n-1}`` solves ``Y = E[Y_n | X] - phi(t, X, Y, Z, Gamma) * dt`` by
   Picard sweeps, where ``phi = f + mu'z + 0.5*Tr[sigma sigma' gamma]``.

All three expectations are projections on the same basis at the same
states, so a step builds and factors one design and solves the three target
blocks against it; ``sigma`` is evaluated and inverted once per step and
serves the Gamma solve, the Z solve and every Picard sweep (see
``_backward``).

The drift-adjustment process of the second-order system is never estimated:
the recursion does not use it, and when a closed-form solution is available
the verification module reconstructs it independently.

Terminal columns are pinned analytically: ``Y_T = g(X_T)``,
``Z_T = Dg(X_T)`` (declared gradient, else central differences with kink
flagging), and ``Gamma_T`` from differentiating the terminal data once more.
Kinked terminal conditions are flagged in the solution diagnostics rather
than rejected; the scheme assumes smooth data and the flag documents where
that assumption broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import regress
from ._backward import (
    backward_sweep,
    phi_transform,
    terminal_gradient_impl,
)
from .bsde_semilinear import BackwardSolution, _package
from .errors import NonFinite
from .model import ProblemSpec
from .paths import PathBatch

__all__ = ["PhiGenerator", "terminal_gradient", "backward_solve_2bsde"]


@dataclass(frozen=True, eq=False)
class PhiGenerator:
    """Itô-form driver ``phi(t, x, y, z, gamma)`` of a problem."""

    phi: Callable

    @classmethod
    def from_spec(
        cls, spec: ProblemSpec, samples: int = 16, seed: int = 0
    ) -> "PhiGenerator":
        phi = phi_transform(spec)
        rng = np.random.default_rng(seed)
        d = spec.dim
        x0 = spec.x0_default
        scale = 1.0 + float(np.max(np.abs(x0)))
        x = x0[None, :] + scale * rng.standard_normal((samples, d))
        y = rng.standard_normal(samples)
        z = rng.standard_normal((samples, d))
        gamma = rng.standard_normal((samples, d, d))
        gamma = 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))
        probe = phi(0.5 * spec.horizon, x, y, z, gamma)
        if not np.all(np.isfinite(probe)):
            name = spec.name or "<anonymous>"
            raise NonFinite(f"transformed driver of {name!r} is non-finite at sampled points")
        return cls(phi=phi)


def terminal_gradient(spec: ProblemSpec, X_T, return_diagnostics: bool = False):
    """Gradient of the terminal condition at the given states, (J, d).

    Uses the declared gradient when the problem has one; otherwise central
    differences with step ``1e-5 * (1 + |x_i|)`` per component.  With
    ``return_diagnostics`` the result is ``(grad, diag)`` where ``diag``
    reports whether finite differences ran and which components sat on a
    kink (one-sided slopes disagreeing, e.g. a hinge payout differentiated
    at its hinge, where the central difference returns the midpoint slope).
    """
    grad, kinked, used_fd = terminal_gradient_impl(spec, X_T)
    if not return_diagnostics:
        return grad
    diag = {
        "used_fd": used_fd,
        "kinked": kinked,
        "kink_fraction": float(np.mean(np.any(kinked, axis=1))),
    }
    return grad, diag


def backward_solve_2bsde(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: regress.BasisSpec,
    picard_iters: int = 2,
) -> BackwardSolution:
    """Solve a fully non-linear problem backward along a simulated batch.

    The returned solution carries the full ``Gamma`` block, symmetric at
    every node by construction.  Raises SingularSigma (with the offending
    path and step) when the diffusion matrix cannot be inverted along the
    paths, and propagates RegressionFailure/NonFinite from the per-step
    estimates.
    """
    PhiGenerator.from_spec(spec)  # rejects a phi that is non-finite where probed
    Y, Z, Gamma, root_mean, pathwise, fits, diagnostics = backward_sweep(
        spec, batch, basis, picard_iters, with_gamma=True
    )
    return _package(
        batch.grid, batch.J, Y, Z, Gamma, root_mean, pathwise, fits, diagnostics
    )
