"""Backward scheme for semi-linear problems (no second-order dependence).

The generator is recast through the Itô transform
``phi = f + mu'z + 0.5*Tr[sigma sigma' gamma]``; for the problems this module
accepts, the ``gamma`` dependence cancels identically in that sum, leaving a
driver ``phi(t, x, y, z)``.  The recursion then marches backward from the
terminal condition: per step, ``Z`` comes from the regression of
``dW * Y_next`` against the state, and ``Y`` solves its implicit one-step
relation by Picard sweeps started at the regressed conditional expectation.

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
from ._backward import backward_sweep, phi_transform
from .errors import GammaDependence
from .linear_fk import Estimate
from .model import ProblemSpec
from .paths import PathBatch, TimeGrid

__all__ = ["SemilinearGenerator", "BackwardSolution", "backward_solve_semilinear"]


@dataclass(frozen=True, eq=False)
class SemilinearGenerator:
    """First-order driver ``phi(t, x, y, z)`` of a gamma-free problem."""

    phi: Callable

    @classmethod
    def from_spec(
        cls, spec: ProblemSpec, samples: int = 16, seed: int = 0
    ) -> "SemilinearGenerator":
        """Build the driver, verifying the transform really killed gamma.

        Evaluates the transformed driver at random states with two
        independent Hessian arguments; any discrepancy beyond 1e-10 means
        the problem is genuinely second-order and belongs to the fully
        non-linear solver instead.
        """
        full_phi = phi_transform(spec)
        d = spec.dim
        rng = np.random.default_rng(seed)
        x0 = spec.x0_default
        scale = 1.0 + float(np.max(np.abs(x0)))
        for t in rng.uniform(0.0, spec.horizon, size=8):
            x = x0[None, :] + scale * rng.standard_normal((samples, d))
            y = rng.standard_normal(samples)
            z = rng.standard_normal((samples, d))
            g1 = rng.standard_normal((samples, d, d))
            g2 = rng.standard_normal((samples, d, d))
            g1 = 0.5 * (g1 + np.transpose(g1, (0, 2, 1)))
            g2 = 0.5 * (g2 + np.transpose(g2, (0, 2, 1)))
            gap = np.max(np.abs(full_phi(t, x, y, z, g1) - full_phi(t, x, y, z, g2)))
            if gap > 1e-10:
                name = spec.name or "<anonymous>"
                raise GammaDependence(
                    f"generator of {name!r} keeps second-order dependence "
                    f"after the transform (spread {gap:.2e}); "
                    "use the fully non-linear solver"
                )

        def phi(t, x, y, z, _full=full_phi, _d=d):
            zeros = np.zeros((len(x), _d, _d))
            return _full(t, x, y, z, zeros)

        return cls(phi=phi)


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Output of a backward solve.

    ``Y`` is (J, N+1), ``Z`` is (J, N+1, d); ``Gamma`` is (J, N+1, d, d) for
    the fully non-linear scheme and None otherwise.  ``fits`` holds one dict
    per time step with the regression diagnostics that produced that node.
    """

    grid: TimeGrid
    Y: np.ndarray
    Z: np.ndarray
    Gamma: Optional[np.ndarray]
    root_value: Estimate
    fits: tuple
    diagnostics: dict = field(default_factory=dict)


def _package(grid, J, Y, Z, Gamma, root_mean, pathwise, fits, diagnostics):
    if J > 1:
        stderr = float(np.std(pathwise, ddof=1) / np.sqrt(J))
    else:
        stderr = 0.0
    return BackwardSolution(
        grid=grid,
        Y=Y,
        Z=Z,
        Gamma=Gamma,
        root_value=Estimate(value=root_mean, stderr=stderr, J=J),
        fits=tuple(fits),
        diagnostics=diagnostics,
    )


def backward_solve_semilinear(
    spec: ProblemSpec,
    batch: PathBatch,
    basis: regress.BasisSpec,
    picard_iters: int = 2,
) -> BackwardSolution:
    """Solve a gamma-free problem backward along a simulated batch.

    Raises GammaDependence when the transformed driver still depends on its
    Hessian argument; RegressionFailure and NonFinite propagate from the
    per-step fits and updates.
    """
    SemilinearGenerator.from_spec(spec)  # rejects a phi that still depends on gamma
    Y, Z, Gamma, root_mean, pathwise, fits, diagnostics = backward_sweep(
        spec, batch, basis, picard_iters, with_gamma=False
    )
    return _package(
        batch.grid, batch.J, Y, Z, Gamma, root_mean, pathwise, fits, diagnostics
    )
