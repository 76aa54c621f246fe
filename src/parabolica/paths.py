"""Forward simulation: Brownian increments, Euler stepping, exit times.

Increments come from a counter-based generator: the normal draw for
(path j, step n, component i) is a pure function of (seed, j, n, i),
obtained by hashing the indices into a 64-bit state with a
splitmix64-style finalizer, mapping the state to a uniform in (0,1),
and applying the inverse normal CDF.  Because nothing is sequential,
the output is bit-identical however the work is chunked or threaded,
and path block [0, J') of a larger batch equals the smaller batch.

States evolve by the explicit Euler step
``X_{n+1} = X_n + mu(X_n) dt + sigma(X_n) dW_n``.  When the problem has
a box domain, a path is stopped at the first grid node strictly outside
the open box and its state is frozen at that exit value for the rest of
the grid; there is no intra-step (Brownian-bridge) exit correction, so
boundary quantities carry an O(sqrt(dt)) monitoring bias.  Non-finite
states abort the batch - clipping would silently corrupt convergence
measurements.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, DimensionMismatch, DomainIsWholeSpace, NonFinite
from .model import Box, ProblemSpec

__all__ = [
    "TimeGrid",
    "PathBatch",
    "brownian_increments",
    "euler_simulate",
    "exit_time_stats",
    "encode_batch",
    "load_batch",
]

_U = np.uint64
_MIX1 = _U(0xBF58476D1CE4E5B9)
_MIX2 = _U(0x94D049BB133111EB)
_FOLD_SEED = _U(0x9E3779B185EBCA87)
_FOLD_PATH = _U(0xC2B2AE3D27D4EB4F)
_FOLD_STEP = _U(0x165667B19E3779F9)
_FOLD_COMP = _U(0xD6E8FEB86659FD93)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = t0 + n*(T - t0)/N, n = 0..N."""

    t0: float
    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError("a time grid needs at least one step")
        if not (self.T > self.t0) or not np.isfinite(self.T) or not np.isfinite(self.t0):
            raise ConfigError("time grid requires finite t0 < T")

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.N

    @property
    def times(self) -> np.ndarray:
        """All N+1 nodes; endpoints are exactly t0 and T."""
        return np.linspace(self.t0, self.T, self.N + 1)


@dataclass(frozen=True, eq=False)
class PathBatch:
    grid: TimeGrid
    J: int
    dW: np.ndarray          # (J, N, d)
    X: np.ndarray           # (J, N+1, d)
    stop_index: np.ndarray  # (J,) first node outside the domain, N if none
    domain: Optional[Box] = None

    @property
    def dim(self) -> int:
        return self.X.shape[2]


def _finalize(h: np.ndarray) -> np.ndarray:
    # splitmix64 output mixing; uint64 array arithmetic wraps mod 2^64.
    h = h.copy()
    h ^= h >> _U(30)
    h *= _MIX1
    h ^= h >> _U(27)
    h *= _MIX2
    h ^= h >> _U(31)
    return h


def _normal_block(seed: int, j0: int, count: int, N: int, d: int, scale: float) -> np.ndarray:
    """N(0, scale^2) draws for paths [j0, j0+count), all steps/components."""
    with np.errstate(over="ignore"):
        h_seed = _finalize(np.array([seed % 2**64], dtype=np.uint64) * _FOLD_SEED)
        j = (np.arange(j0, j0 + count, dtype=np.uint64) + _U(1)) * _FOLD_PATH
        h = _finalize(h_seed[0] ^ j)[:, None, None]
        n = (np.arange(N, dtype=np.uint64) + _U(1)) * _FOLD_STEP
        h = _finalize(h ^ n[None, :, None])
        i = (np.arange(d, dtype=np.uint64) + _U(1)) * _FOLD_COMP
        h = _finalize(h ^ i[None, None, :])
    # top 53 bits -> uniform strictly inside (0, 1), so ndtri stays finite
    u = ((h >> _U(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u) * scale


def _fill_block(out: np.ndarray, seed: int, j0: int, j1: int, N: int, d: int, scale: float):
    # bound transient memory: ~2^22 hashed entries per sub-block
    step = max(1, (1 << 22) // max(1, N * d))
    for a in range(j0, j1, step):
        b = min(a + step, j1)
        out[a:b] = _normal_block(seed, a, b - a, N, d, scale)


def resolve_threads(threads: Optional[int] = None) -> int:
    """--threads flag value, PARABOLICA_THREADS fallback, default 1."""
    if threads is None:
        env = os.environ.get("PARABOLICA_THREADS", "")
        threads = int(env) if env.strip() else 1
    if threads < 1:
        raise ConfigError("thread count must be at least 1")
    return threads


def brownian_increments(
    grid: TimeGrid, J: int, d: int, seed: int, threads: Optional[int] = None
) -> np.ndarray:
    """Brownian increments of shape (J, N, d) with variance grid.dt.

    Deterministic in (grid, J, d, seed): thread count and chunking do
    not change a single bit, and the first J' paths coincide with a
    J'-path call.
    """
    if J < 1 or d < 1:
        raise ConfigError("J and d must be at least 1")
    threads = resolve_threads(threads)
    N = grid.N
    out = np.empty((J, N, d))
    scale = float(np.sqrt(grid.dt))
    if threads == 1 or J < 2 * threads:
        _fill_block(out, seed, 0, J, N, d, scale)
        return out
    bounds = np.linspace(0, J, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_fill_block, out, seed, int(a), int(b), N, d, scale)
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        for fut in futures:
            fut.result()
    return out


def euler_simulate(
    spec: ProblemSpec,
    grid: TimeGrid,
    x0,
    J: int,
    seed: int,
    threads: Optional[int] = None,
) -> PathBatch:
    """Simulate J forward paths from x0 on the grid.

    Paths of a box-domain problem are stopped and frozen at the first
    node outside the open box (a start outside stops at node 0).  The
    sentinel stop_index = N means the path ran to the horizon; an exit
    exactly at the final node is indistinguishable from termination,
    which is harmless because both pay g at the same state.
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape[0] != spec.dim:
        raise DimensionMismatch(f"x0 must have length {spec.dim}")
    if not np.all(np.isfinite(x0)):
        raise NonFinite("x0 must be finite")
    d, N, dt = spec.dim, grid.N, grid.dt
    dW = brownian_increments(grid, J, d, seed, threads)
    X = np.empty((J, N + 1, d))
    X[:, 0] = x0
    stop = np.full(J, N, dtype=np.int64)
    domain = spec.domain
    if domain is not None:
        alive = domain.contains_open(X[:, 0])
        stop[~alive] = 0
    else:
        alive = np.ones(J, dtype=bool)

    for n in range(N):
        X[:, n + 1] = X[:, n]
        if not alive.any():
            continue
        # A slice rather than a mask gather while every path is alive.
        rows = slice(None) if alive.all() else alive
        xa = X[rows, n]
        with np.errstate(over="ignore", invalid="ignore"):
            drift = spec.mu(xa)
            vol = spec.sigma(xa)
            step = xa + drift * dt + np.einsum("jab,jb->ja", vol, dW[rows, n])
        finite = np.all(np.isfinite(step), axis=1)
        if not finite.all():
            j_bad = int(np.flatnonzero(alive)[np.argmin(finite)])
            raise NonFinite(f"non-finite state at path {j_bad}, step {n + 1}")
        X[rows, n + 1] = step
        if domain is not None:
            inside = domain.contains_open(X[:, n + 1])
            newly_out = alive & ~inside
            stop[newly_out] = n + 1
            alive &= inside

    return PathBatch(grid=grid, J=J, dW=dW, X=X, stop_index=stop, domain=domain)


def exit_time_stats(batch: PathBatch) -> dict:
    """Fraction of paths stopped before the horizon and their mean stop time.

    mean_stop_time is NaN when no path stopped.
    """
    if batch.domain is None:
        raise DomainIsWholeSpace("exit statistics need a box-domain batch")
    N = batch.grid.N
    stopped = batch.stop_index < N
    fraction = float(np.mean(stopped))
    if stopped.any():
        mean_stop = float(np.mean(batch.grid.t0 + batch.stop_index[stopped] * batch.grid.dt))
    else:
        mean_stop = float("nan")
    return {"fraction_stopped": fraction, "mean_stop_time": mean_stop}


def encode_batch(batch: PathBatch) -> bytes:
    """The batch as concatenated raw .npy records.

    times (N+1,), X (J, N+1, d), dW (J, N, d), stop_index (J,), in that
    order.  Raw records rather than an archive because zip headers embed
    timestamps, which would break byte-identical reruns.  The domain is not
    serialized; a reloaded batch keeps stop_index but reports no domain.
    """
    buf = io.BytesIO()
    for arr in (batch.grid.times, batch.X, batch.dW, batch.stop_index):
        np.save(buf, np.ascontiguousarray(arr), allow_pickle=False)
    return buf.getvalue()


def _read_record(raw: bytearray, buf: io.BytesIO, dtype) -> np.ndarray:
    """The next .npy record of ``raw`` (read through ``buf``), a view into it of ``dtype``."""
    fmt = np.lib.format
    version = fmt.read_magic(buf)
    read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
    shape, fortran_order, stored = read_header(buf)
    count = math.prod(shape)
    fits = min(shape, default=0) >= 0 and count * stored.itemsize <= len(raw) - buf.tell()
    if fortran_order or stored != dtype or not fits:
        raise ValueError(f"a record is not a C-ordered {np.dtype(dtype)} array of its stated size")
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=buf.tell())
    buf.seek(count * stored.itemsize, io.SEEK_CUR)
    return arr.reshape(shape)


def load_batch(path: str) -> PathBatch:
    """Read a batch written by :func:`encode_batch`.

    Raises ConfigError unless the file holds exactly the four records, with
    dtypes and shapes that fit together, times equal to the uniform grid
    they span and every stop_index in [0, N].
    """
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    buf = io.BytesIO(raw)
    try:
        times, X, dW, stop = (_read_record(raw, buf, t) for t in (np.float64,) * 3 + (np.int64,))
    except ValueError as exc:
        raise ConfigError(f"{path} is not a path-batch dump: {exc}") from None
    if buf.tell() != len(raw):
        raise ConfigError(f"{path}: trailing bytes after the path-batch records")
    J, N, d = stop.size, times.size - 1, X.shape[-1] if X.ndim else 0
    if (times.shape, X.shape, dW.shape, stop.shape) != ((N + 1,), (J, N + 1, d), (J, N, d), (J,)):
        raise ConfigError(f"{path}: path-batch records do not fit together")
    grid = TimeGrid(float(times[0]), float(times[-1]), N)
    if not np.array_equal(grid.times, times):
        raise ConfigError(f"{path}: stored times are not a uniform grid")
    if np.any((stop < 0) | (stop > N)):
        raise ConfigError(f"{path}: a stop_index lies outside [0, {N}]")
    return PathBatch(grid=grid, J=J, dW=dW, X=X, stop_index=stop, domain=None)
