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
produced the paths.  The running discount is accumulated additively in log
space (``B_n = exp(sum_{m<n} beta_m * dt)``), so a constant ``beta`` on a
dyadic grid discounts with no accumulation error at all.

One node loop advances the accumulators for both functions: it yields the
(J,) pair ``(A_n, log B_n)`` at each node and never stores a history, so
neither function holds a (J, N+1) array.  The tails need the path totals
before the first node, so :func:`pathwise_remainders` forms the totals once,
averages them and then replays the loop once.

A term that is zero by construction is absent: ``alpha`` or ``beta`` may be
None, and is then never evaluated.  Without ``alpha`` there is no ``A_n``,
without ``beta`` no ``log B_n``, and the functional and its tails skip the
source and the discount.  The bits are those of a zero term wherever the
discount factor is finite (a zero source times an infinite discount is
NaN): the functional starts from ``+0.0`` as the zero source integral
does, and ``x - (+0.0)`` and ``x * exp(-0.0)`` are ``x`` for every double.

Paths that leave the problem domain contribute ``B(t, theta) * g(X_theta)``
and their source integral stops at the exit node; the frozen post-exit states
stored by the simulator make the terminal payout come out right without any
special casing here.

Threads split the path axis only, through
:func:`~parabolica.paths.for_path_blocks`.  Per-path values are identical
whatever the block layout (the coefficient callables are pointwise in the
path row, true of everything this package constructs), and the final mean is
numpy's pairwise reduction over one array -- so results are bit-stable across
``threads`` settings.  A non-finite functional (or tail) is reported at the
first such path of the batch, whatever the block layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NonFinite
from .model import ProblemSpec
from .paths import PathBatch, for_path_blocks

__all__ = [
    "LinearCoefficients",
    "Estimate",
    "feynman_kac_estimate",
    "pathwise_remainders",
]

# Paths per slice of a remainder's discount: 64 KB of temporaries.
_CHUNK = 1 << 13


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
                "feynman_kac_estimate only applies to linear generators"
            )
        alpha, beta = spec.linear_parts
        return cls(g=spec.g, alpha=alpha, beta=beta)


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


def _accumulate(coeffs: LinearCoefficients, X: np.ndarray, stop: np.ndarray, grid):
    """Yield ``(acc, log_B)`` at nodes 0..N for the paths of ``X``.

    ``acc`` is each path's discounted source integral and ``log_B`` its
    log discount, both accumulated over the steps before the node; each
    is None when its term (``alpha``, ``beta``) is absent.  The same
    arrays are updated in place between yields, so a consumer reads a
    node's values before asking for the next.  A path accrues while
    ``stop > n``; a full slice replaces the mask while every path is
    alive, and once none is alive the arrays stay frozen.  ``X`` holds at
    least one path.
    """
    times = grid.times
    dt = grid.dt
    acc = None if coeffs.alpha is None else np.zeros(len(X))
    log_B = None if coeffs.beta is None else np.zeros(len(X))
    # Every path is alive before node min(stop) and none from max(stop) on;
    # with neither term there is nothing to accrue.
    first, last = int(stop.min()), int(stop.max())
    if acc is None and log_B is None:
        last = 0
    for n in range(grid.N):
        yield acc, log_B
        if n >= last:
            continue
        # A slice rather than a mask gather while every path is alive.
        rows = slice(None) if n < first else stop > n
        _advance(coeffs, times[n], dt, X[rows, n], rows, acc, log_B)
    yield acc, log_B


def _advance(coeffs: LinearCoefficients, t: float, dt: float, xn: np.ndarray, rows,
             acc: Optional[np.ndarray], log_B: Optional[np.ndarray]) -> None:
    """Accrue one step of the paths ``rows`` at state ``xn`` into ``acc`` and ``log_B``.

    Its own function, so no step column outlives it; alpha's columns are
    freed before beta is evaluated.  An absent term is skipped.
    """
    if acc is not None:
        a_n = np.asarray(coeffs.alpha(t, xn), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            if log_B is None:  # the discount exp(+0.0) * a_n is a_n
                source = a_n * dt
            else:  # exp(log_B) * a_n * dt, evaluated left to right in one buffer
                source = np.exp(log_B[rows])
                source *= a_n
                source *= dt
            acc[rows] += source
        del a_n, source
    if log_B is not None:
        b_n = np.asarray(coeffs.beta(t, xn), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            log_B[rows] += b_n * dt


def _block_functional(
    coeffs: LinearCoefficients, batch: PathBatch, j0: int, j1: int
) -> np.ndarray:
    """Per-path discounted functional for paths ``j0:j1`` of the batch."""
    X = batch.X[j0:j1]
    for acc, log_B in _accumulate(coeffs, X, batch.stop_index[j0:j1], batch.grid):
        pass
    payout = np.asarray(coeffs.g(X[:, batch.grid.N]), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if log_B is not None:
            payout = np.exp(log_B) * payout
        return (0.0 if acc is None else acc) + payout


def _functional(coeffs: LinearCoefficients, batch: PathBatch, threads: int) -> np.ndarray:
    """The per-path functional of the whole batch, computed in path blocks."""
    values = np.empty(batch.J)

    def block(j0: int, j1: int) -> None:
        values[j0:j1] = _block_functional(coeffs, batch, j0, j1)

    for_path_blocks(batch.J, threads, block)
    return values


def _raise_at_first(bad: np.ndarray) -> None:
    """Raise NonFinite naming the first path flagged in ``bad``, if any."""
    if np.any(bad):
        raise NonFinite(f"non-finite path functional at path {int(np.argmax(bad))}")


def pathwise_remainders(
    coeffs: LinearCoefficients,
    batch: PathBatch,
    observe: Callable[[int, np.ndarray], object],
    threads: int = 1,
) -> Estimate:
    """Stream the per-path tails of the discounted functional; return its average.

    Calls ``observe(n, R_n)`` for n = 0..N, where ``R_n`` is a fresh
    contiguous (J,) array holding each path's remaining functional from
    node n on, deflated back to node n: with A_n the accumulated
    discounted running reward and B_n the discount factor,

        R_n = (A_N + B_N g(X_N) - A_n) / B_n.

    The conditional mean of R_n given the node-n state is the solution
    value there, so the means of the stream trace the value along the
    grid; ``R_0`` is the functional bit for bit, and the returned
    :class:`Estimate` is :func:`feynman_kac_estimate`'s.  Stopped paths
    carry frozen discount and reward, so their remainder is constant
    (equal to the exit payoff) from the exit node onward.

    The totals ``A_N + B_N g(X_N)`` come first, from one path-block pass;
    one replay of the accumulation then forms each node's remainders, so
    memory stays O(J) whatever N is.  After the replay, NonFinite names
    the first path with a non-finite remainder at any node; node 0's
    remainder is the functional, so a non-finite functional is among
    them.
    """
    totals = _functional(coeffs, batch, threads)
    bad = np.zeros(batch.J, dtype=bool)
    for n, (acc, log_B) in enumerate(
        _accumulate(coeffs, batch.X, batch.stop_index, batch.grid)
    ):
        remainder = _remainder(totals, acc, log_B)
        bad |= ~np.isfinite(remainder)
        observe(n, remainder)
        del remainder  # so the next one is not formed beside it
    _raise_at_first(bad)
    return Estimate.of(totals)


def _remainder(totals: np.ndarray, acc: Optional[np.ndarray],
               log_B: Optional[np.ndarray]) -> np.ndarray:
    """``(totals - acc) * exp(-log_B)`` in one fresh buffer, bit for bit.

    An absent ``acc`` skips the subtraction and an absent ``log_B`` the
    discount.  The discount is formed ``_CHUNK`` paths at a time, so no
    second (J,) column is held.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = totals.copy() if acc is None else np.subtract(totals, acc)
        if log_B is not None:
            for a in range(0, len(out), _CHUNK):
                out[a:a + _CHUNK] *= np.exp(-log_B[a:a + _CHUNK])
    return out


def feynman_kac_estimate(
    coeffs: LinearCoefficients,
    batch: PathBatch,
    threads: int = 1,
) -> Estimate:
    """Average the discounted path functional over a simulated batch.

    :func:`pathwise_remainders` returns the same estimate while it
    streams the tails; this is the call for the average alone.

    The batch must have been simulated under the same drift and diffusion the
    linear problem declares; this function only sees the stored paths and
    cannot check that, so it is the caller's contract.
    """
    values = _functional(coeffs, batch, threads)
    _raise_at_first(~np.isfinite(values))
    return Estimate.of(values)
