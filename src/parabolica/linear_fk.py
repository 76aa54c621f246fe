"""Monte Carlo pricing of linear parabolic problems with CLT error bars.

For generators of the form ``f(t, x, y) = -alpha(t, x) - beta(t, x) * y``
the solution has the stochastic representation

    v(t, x) = E[ integral_t^T B(t, s) alpha(s, X_s) ds  +  B(t, T) g(X_T) ],

with discount factor ``B(t, s) = exp(integral_t^s beta(r, X_r) dr)`` along the
simulated diffusion.  :func:`feynman_kac_estimate` evaluates the discretized
functional on a :class:`~parabolica.paths.PathBatch` and averages across paths.

Quadrature convention: both integrals use left-endpoint Riemann sums on the
batch's time grid, matching the first-order bias of the Euler scheme that
produced the paths.  The running discount is accumulated additively in log
space (``B_n = exp(sum_{m<n} beta_m * dt)``), so a constant ``beta`` on a
dyadic grid discounts with no accumulation error at all.

Paths that leave the problem domain contribute ``B(t, theta) * g(X_theta)``
and their source integral stops at the exit node; the frozen post-exit states
stored by the simulator make the terminal payout come out right without any
special casing here.

Thread blocks split the path axis only.  Per-path values are identical
whatever the block layout (the coefficient callables are pointwise in the
path row, true of everything this package constructs), and the final mean is
numpy's pairwise reduction over one array -- so results are bit-stable across
``threads`` settings.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NonFinite
from .model import ProblemSpec
from .paths import PathBatch, resolve_threads

__all__ = [
    "LinearCoefficients",
    "Estimate",
    "feynman_kac_estimate",
    "pathwise_remainders",
]


@dataclass(frozen=True, eq=False)
class LinearCoefficients:
    """Source and discount terms of a linear generator.

    ``alpha`` and ``beta`` map ``(t, x)`` with ``x`` of shape ``(J, d)`` to a
    ``(J,)`` array; ``g`` is the terminal payout ``x -> (J,)``.
    """

    alpha: Callable[[float, np.ndarray], np.ndarray]
    beta: Callable[[float, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]

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
                "feynman_kac_estimate only applies to linear generators"
            )
        alpha, beta = spec.linear_parts
        return cls(alpha=alpha, beta=beta, g=spec.g)


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo value with its CLT standard error.

    ``stderr`` is the sample standard deviation (ddof=1) of the per-path
    functional divided by sqrt(J); it is 0.0 when J == 1, where the sample
    standard deviation is undefined.
    """

    value: float
    stderr: float
    J: int

    @classmethod
    def of(cls, samples: np.ndarray) -> "Estimate":
        """The mean of the per-path ``samples`` with its CLT standard error."""
        J = len(samples)
        stderr = float(np.std(samples, ddof=1) / np.sqrt(J)) if J > 1 else 0.0
        return cls(value=float(np.mean(samples)), stderr=stderr, J=J)


def _block_functional(
    coeffs: LinearCoefficients, batch: PathBatch, j0: int, j1: int
) -> np.ndarray:
    """Per-path discounted functional for paths ``j0:j1`` of the batch."""
    X = batch.X[j0:j1]
    stop = batch.stop_index[j0:j1]
    times = batch.grid.times
    dt = batch.grid.dt
    N = batch.grid.N

    log_B = np.zeros(j1 - j0)
    acc = np.zeros(j1 - j0)
    for n in range(N):
        alive = stop > n
        if not np.any(alive):
            break
        # A slice rather than a mask gather while every path is alive.
        rows = slice(None) if alive.all() else alive
        xn = X[rows, n]
        a_n = np.asarray(coeffs.alpha(times[n], xn), dtype=np.float64)
        b_n = np.asarray(coeffs.beta(times[n], xn), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            acc[rows] += np.exp(log_B[rows]) * a_n * dt
            log_B[rows] += b_n * dt

    payout = np.asarray(coeffs.g(X[:, N]), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        values = acc + np.exp(log_B) * payout

    bad = ~np.isfinite(values)
    if np.any(bad):
        j = j0 + int(np.argmax(bad))
        raise NonFinite(f"non-finite path functional at path {j}")
    return values


def pathwise_remainders(coeffs: LinearCoefficients, batch: PathBatch) -> np.ndarray:
    """Per-path tails of the discounted functional, shape (J, N+1).

    Entry (j, n) is the remaining functional of path j from node n on,
    deflated back to node n: with A_n the accumulated discounted running
    reward and B_n the discount factor,

        R_n = (A_N + B_N g(X_N) - A_n) / B_n.

    The conditional mean of R_n given the node-n state is the solution
    value there, so column means trace the value along the grid; column 0
    reproduces the functional of :func:`feynman_kac_estimate` bit for bit.
    Stopped paths carry frozen discount and reward, so their remainder is
    constant (equal to the exit payoff) from the exit node onward.
    """
    X = batch.X
    stop = batch.stop_index
    times = batch.grid.times
    dt = batch.grid.dt
    N = batch.grid.N

    log_B = np.zeros(batch.J)
    acc = np.zeros(batch.J)
    acc_hist = np.empty((batch.J, N + 1))
    log_B_hist = np.empty((batch.J, N + 1))
    filled = 0
    for n in range(N):
        acc_hist[:, n] = acc
        log_B_hist[:, n] = log_B
        filled = n + 1
        alive = stop > n
        if not np.any(alive):
            break
        # A slice rather than a mask gather while every path is alive.
        rows = slice(None) if alive.all() else alive
        xn = X[rows, n]
        a_n = np.asarray(coeffs.alpha(times[n], xn), dtype=np.float64)
        b_n = np.asarray(coeffs.beta(times[n], xn), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            acc[rows] += np.exp(log_B[rows]) * a_n * dt
            log_B[rows] += b_n * dt
    # Columns past an early exit (and the terminal column) hold the final
    # frozen accumulators.
    acc_hist[:, filled:] = acc[:, None]
    log_B_hist[:, filled:] = log_B[:, None]

    payout = np.asarray(coeffs.g(X[:, N]), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        totals = acc + np.exp(log_B) * payout
        remainders = (totals[:, None] - acc_hist) * np.exp(-log_B_hist)

    bad = ~np.isfinite(remainders)
    if np.any(bad):
        j = int(np.argmax(np.any(bad, axis=1)))
        raise NonFinite(f"non-finite path functional at path {j}")
    return remainders


def feynman_kac_estimate(
    coeffs: LinearCoefficients,
    batch: PathBatch,
    threads: Optional[int] = None,
) -> Estimate:
    """Average the discounted path functional over a simulated batch.

    The batch must have been simulated under the same drift and diffusion the
    linear problem declares; this function only sees the stored paths and
    cannot check that, so it is the caller's contract.
    """
    J = batch.J
    k = min(resolve_threads(threads), J)
    values = np.empty(J)
    if k <= 1:
        values[:] = _block_functional(coeffs, batch, 0, J)
    else:
        block = -(-J // k)
        spans = [(j0, min(j0 + block, J)) for j0 in range(0, J, block)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=k) as pool:
            futures = {
                pool.submit(_block_functional, coeffs, batch, j0, j1): (j0, j1)
                for j0, j1 in spans
            }
            for fut in concurrent.futures.as_completed(futures):
                j0, j1 = futures[fut]
                values[j0:j1] = fut.result()
    return Estimate.of(values)
