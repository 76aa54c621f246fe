"""Monte Carlo pricing of linear parabolic problems with CLT error bars.

For generators of the form ``f(t, x, y) = -alpha(t, x) - beta(t, x) * y``
the solution has the stochastic representation

    v(t, x) = E[ integral_t^T B(t, s) alpha(s, X_s) ds  +  B(t, T) g(X_T) ],

with discount factor ``B(t, s) = exp(integral_t^s beta(r, X_r) dr)`` along the
simulated diffusion.  :func:`pathwise_remainders` evaluates the discretized
functional on a :class:`~parabolica.paths.PathBatch`, streams each node's
per-path tail of it to a caller-supplied observer and returns the average
across paths; :func:`feynman_kac_estimate` returns the average alone.

Quadrature convention: both integrals use left-endpoint Riemann sums on the
batch's time grid, matching the first-order bias of the Euler scheme that
produced the paths.  One backward loop over the nodes forms each path's
remainder from the next, as a linear BSDE's explicit solution does:

    R_n = exp(L_n) g(X_N) + S_n,   L_n = L_{n+1} + beta_n dt,
    S_n = alpha_n dt + exp(beta_n dt) S_{n+1},   L_N = S_N = 0.

The payout's discount stays additive in log space, so a constant ``beta``
on a dyadic grid discounts with no accumulation error at all; the source
tail is discounted a step at a time.  No remainder is divided by a
discount, so a discount below ``exp``'s range leaves it finite, and the
loop keeps (J,) columns only: memory stays O(J) whatever N is.

A term that is zero by construction is absent: ``alpha`` or ``beta`` may be
None, and is then never evaluated.  Without ``alpha`` there is no ``S_n``,
and ``+0.0`` is added in its place; without ``beta`` there is no ``L_n``.
The bits are those of a zero term wherever ``exp(beta_n dt)`` is finite (a
zero source tail times an infinite discount is NaN): a zero ``alpha`` keeps
``S_n = +0.0``, which is what is added without one, and ``exp(0.0) * x`` is
``x`` for every double.  So a ``-0.0`` payout gives ``+0.0`` either way.

Paths that leave the problem domain contribute ``B(t, theta) * g(X_theta)``
and their source integral stops at the exit node; the frozen post-exit states
stored by the simulator make the terminal payout come out right without any
special casing here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NonFinite
from .model import ProblemSpec
from .paths import PathBatch

__all__ = [
    "LinearCoefficients",
    "Estimate",
    "feynman_kac_estimate",
    "pathwise_remainders",
]

@dataclass(frozen=True, eq=False)
class LinearCoefficients:
    """Terminal payout, source and discount terms of a linear generator.

    ``g`` is the terminal payout ``x -> (J,)``; ``alpha`` and ``beta`` map
    ``(t, x)`` with ``x`` of shape ``(J, d)`` to a ``(J,)`` array.  Either
    left None is identically zero and never evaluated.
    """

    g: Callable[[np.ndarray], np.ndarray]
    alpha: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    beta: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    @classmethod
    def from_spec(cls, spec: ProblemSpec) -> "LinearCoefficients":
        """Pull the declared linear decomposition out of a problem.

        Raises ConfigError when the problem does not declare one --
        non-linear generators have no (alpha, beta) split to extract.
        """
        if spec.linear_parts is None:
            name = spec.name or "<anonymous>"
            raise ConfigError(
                f"problem {name!r} declares no linear coefficients; "
                "the linear scheme only applies to linear generators"
            )
        alpha, beta = spec.linear_parts
        return cls(g=spec.g, alpha=alpha, beta=beta)


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo value with its CLT standard error.

    ``stderr`` is the sample standard deviation (ddof=1) of the per-path
    functional divided by sqrt(J); it is 0.0 when J == 1, where the sample
    standard deviation is undefined.  A non-finite value or stderr, such
    as the moments of finite samples overflowing, raises NonFinite.
    """

    value: float
    stderr: float
    J: int

    def __post_init__(self):
        if not (np.isfinite(self.value) and np.isfinite(self.stderr)):
            raise NonFinite(f"non-finite estimate: value {self.value}, stderr {self.stderr}")

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")  # an overflow is refused on construction
    def of(cls, samples: np.ndarray) -> "Estimate":
        """The mean of the per-path ``samples`` with its CLT standard error."""
        J = len(samples)
        stderr = float(np.std(samples, ddof=1) / np.sqrt(J)) if J > 1 else 0.0
        return cls(value=float(np.mean(samples)), stderr=stderr, J=J)


def _tails(coeffs: LinearCoefficients, batch: PathBatch,
           observe: Callable[[int, np.ndarray], object]) -> np.ndarray:
    """The module notes' recursion, observing each node's (J,) ``R_n``; returns ``R_0``."""
    X, stop, grid = batch.X, batch.stop_index, batch.grid
    N, dt, times = grid.N, grid.dt, grid.times
    payout = np.asarray(coeffs.g(X[:, N]), dtype=np.float64)
    L = None if coeffs.beta is None else np.zeros(len(X))
    S = None if coeffs.alpha is None else np.zeros(len(X))
    # A path accrues at node n while stop > n: every path does before node
    # min(stop) and none from max(stop) on.  Without either term none does.
    first = int(stop.min())
    last = 0 if L is None and S is None else int(stop.max())
    for n in range(N, -1, -1):
        with np.errstate(over="ignore", invalid="ignore"):
            if n < last:
                # A slice rather than a mask gather while every path is alive.
                rows = slice(None) if n < first else stop > n
                xn = X[rows, n]
                b_dt = s = None
                if L is not None:
                    b_dt = np.asarray(coeffs.beta(times[n], xn), dtype=np.float64) * dt
                    L[rows] += b_dt
                if S is not None:
                    s = np.asarray(coeffs.alpha(times[n], xn), dtype=np.float64) * dt
                    if b_dt is None:
                        s += S[rows]
                    else:  # exp(beta_n dt) S_{n+1}, formed in beta's buffer
                        np.exp(b_dt, out=b_dt)
                        b_dt *= S[rows]
                        s += b_dt
                    S[rows] = s
                del xn, b_dt, s  # so no step column is held beside the remainder
            if L is None:
                R = payout + (0.0 if S is None else S)
            else:
                R = np.exp(L)
                R *= payout
                R += 0.0 if S is None else S
        observe(n, R)
        if n == 0:
            return R
        del R  # so it is not held beside the next node's step


def pathwise_remainders(
    coeffs: LinearCoefficients,
    batch: PathBatch,
    observe: Callable[[int, np.ndarray], object],
) -> Estimate:
    """Stream the per-path tails of the discounted functional; return its average.

    Calls ``observe(n, R_n)`` for n = N..0, where ``R_n`` is a fresh
    contiguous (J,) array holding each path's remaining functional from
    node n on, discounted back to node n:

        R_n = alpha_n dt + exp(beta_n dt) R_{n+1},    R_N = g(X_N),

    formed as ``exp(L_n) g(X_N) + S_n`` (see the module notes).

    The conditional mean of R_n given the node-n state is the solution
    value there, so the means of the stream trace the value along the
    grid.  ``R_0`` is the functional, and the returned :class:`Estimate`
    is its average; the observer reads the columns and does not write
    them.  Stopped paths accrue nothing from their exit node on, so their
    remainder there is constant and equal to the exit payoff.

    After the pass, NonFinite names the first path with a non-finite
    remainder at any node; the observer sees no node from the first such
    remainder on.
    """
    bad = np.zeros(batch.J, dtype=bool)

    def check(n: int, R: np.ndarray) -> None:
        np.logical_or(bad, ~np.isfinite(R), out=bad)
        if not bad.any():  # the pass will raise; spare the observer the infinities
            observe(n, R)

    values = _tails(coeffs, batch, check)
    if bad.any():
        raise NonFinite(f"non-finite path functional at path {int(np.argmax(bad))}")
    return Estimate.of(values)


def feynman_kac_estimate(coeffs: LinearCoefficients, batch: PathBatch) -> Estimate:
    """:func:`pathwise_remainders`' average and non-finite rule, with no observer.

    The batch must have been simulated under the drift and diffusion the
    linear problem declares; only the stored paths are seen here, so that
    is the caller's contract.
    """
    return pathwise_remainders(coeffs, batch, lambda n, R: None)
