"""Forward simulation: Brownian increments, Euler stepping, exit times.

Increments come from a counter-based generator: the normal draw for
(path j, step n, component i) is a pure function of (seed, j, n, i),
obtained by hashing the indices into a 64-bit state with a
splitmix64-style finalizer and applying the Box-Muller transform to the
state's two 32-bit words, read as uniforms in (0, 1).  Its bits rest on
numpy's ``log``, ``sqrt`` and ``cos``, so they can differ between
machines or numpy builds, never between runs of one build.  Because
nothing is sequential, the output is bit-identical however the work is
chunked or threaded, and path block [0, J') of a larger batch equals the
smaller batch.  Threads split the path axis through
:func:`for_path_blocks`.  A block hashes its paths once, then draws one
node's increments at a time in sub-blocks of at most ``_SUB_BLOCK``
draws, so its transient memory stays a few MB.

Every consumer reads the batch one node at a time, so ``X`` and ``dW``
are stored node-major, as (N+1, J, d) and (N, J, d) arrays, and exposed
as their (J, N+1, d) and (J, N, d) transposed views: ``X[:, n]`` and
``dW[:, n]`` are contiguous (J, d) blocks.  Only the backward sweeps and
``paths.bin`` read ``dW``; a batch simulated without keeping it holds an
empty (J, 0, d) ``dW``.  A batch read back by :func:`load_batch` is a
path-major view of the file instead; it holds the same values and is
only slower to walk.

States evolve by the explicit Euler step
``X_{n+1} = X_n + mu(X_n) dt + sigma(X_n) dW_n``, each path block
stepping its own paths with the node's draws it has just made.  Where
every ``sigma(X_n)`` of a block's step is diagonal, its noise is
``sigma_ii dW_i`` from the (J, d) diagonal view, with the bits of the
matrix product, which only a ``sigma`` with an off-diagonal entry pays
for.  When the problem has a box domain, a path is stopped at the first
grid node strictly outside the open box and its state is frozen at that
exit value for the rest of the grid; there is no intra-step
(Brownian-bridge) exit correction, so boundary quantities carry an
O(sqrt(dt)) monitoring bias.  Non-finite
states abort the batch - clipping would silently corrupt convergence
measurements.
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFinite
from .model import ProblemSpec, diagonal

__all__ = [
    "TimeGrid",
    "PathBatch",
    "for_path_blocks",
    "brownian_increments",
    "euler_simulate",
    "batch_bytes",
    "draw_bytes",
    "write_batch",
    "load_batch",
]

_U = np.uint64
_MIX1 = _U(0xBF58476D1CE4E5B9)
_MIX2 = _U(0x94D049BB133111EB)
_FOLD_SEED = _U(0x9E3779B185EBCA87)
_FOLD_PATH = _U(0xC2B2AE3D27D4EB4F)
_FOLD_STEP = _U(0x165667B19E3779F9)
_FOLD_COMP = _U(0xD6E8FEB86659FD93)
# Draws hashed per sub-block: its uint64 state and the transform's
# temporaries (512 KB each, _SLAB_TEMPORARIES of them at once) stay in a
# core's L2 cache, and they are all the transient memory a thread needs
# to draw.  No bit depends on this size.
_SUB_BLOCK = 1 << 16
# Sub-block-sized arrays a draw holds at its peak: a node's hash, its extension
# by component and a shift the finalizer forms (tracemalloc: 3.00 at d = 1).
_SLAB_TEMPORARIES = 3


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
    dW: np.ndarray          # (J, N, d) view of node-major (N, J, d) storage; (J, 0, d) if not kept
    X: np.ndarray           # (J, N+1, d) view of node-major (N+1, J, d) storage
    stop_index: np.ndarray  # (J,) first node outside the domain, N if none

    @property
    def dim(self) -> int:
        return self.X.shape[2]

    def increments(self) -> np.ndarray:
        """``dW``; ConfigError when the batch was simulated without keeping it."""
        if self.dW.shape[1] != self.grid.N:
            raise ConfigError("the path batch holds no Brownian increments: "
                              "simulate it with keep_increments=True")
        return self.dW


def _finalize(h: np.ndarray) -> np.ndarray:
    """splitmix64 output mixing of ``h`` in place; mutates and returns ``h``."""
    # uint64 array arithmetic wraps mod 2^64.
    h ^= h >> _U(30)
    h *= _MIX1
    h ^= h >> _U(27)
    h *= _MIX2
    h ^= h >> _U(31)
    return h


def _path_states(seed: int, j0: int, j1: int) -> np.ndarray:
    """The hashed (seed, path) state of each path in [j0, j1); every draw of a path extends it."""
    with np.errstate(over="ignore"):
        h_seed = _finalize(np.array([seed % 2**64], dtype=np.uint64) * _FOLD_SEED)
        j = (np.arange(j0, j1, dtype=np.uint64) + _U(1)) * _FOLD_PATH
        return _finalize(j ^ h_seed[0])


def _to_normal(h: np.ndarray, out: np.ndarray, scale: float) -> None:
    """Map the 64-bit states ``h`` to N(0, scale^2) draws in ``out``; ``h`` is spent as scratch.

    Box-Muller: each 32-bit word k gives a uniform (k + 1/2) 2^-32 strictly
    inside (0, 1), the high word's u the radius sqrt(-2 ln u) and the low
    word's the angle 2 pi u, so every |draw| / scale is at most sqrt(66 ln 2).
    """
    low = h & _U(0xFFFFFFFF)
    h >>= _U(32)
    np.add(h, 0.5, out=out)
    out *= 2.0**-32
    np.log(out, out=out)
    out *= -2.0
    np.sqrt(out, out=out)
    angle = h.view(np.float64)
    np.add(low, 0.5, out=angle)
    angle *= 2.0 * math.pi * 2.0**-32
    np.cos(angle, out=angle)
    out *= angle
    out *= scale


def _draw_node(out: np.ndarray, states: np.ndarray, n: int, scale: float) -> None:
    """Fill ``out`` (count, d) with step n's N(0, scale^2) draws of the paths hashed to ``states``.

    At most ``_SUB_BLOCK`` draws are hashed at a time.
    """
    count, d = out.shape
    rows = max(1, _SUB_BLOCK // d)
    with np.errstate(over="ignore"):
        node = (np.array([n], dtype=np.uint64) + _U(1)) * _FOLD_STEP
        comps = (np.arange(d, dtype=np.uint64) + _U(1)) * _FOLD_COMP
        for a in range(0, count, rows):
            b = min(a + rows, count)
            h = _finalize(states[a:b, None] ^ node)
            h = _finalize(h ^ comps)  # frees the (rows, 1) state before the transform
            _to_normal(h, out[a:b], scale)


def for_path_blocks(J: int, threads: int, work: Callable[[int, int], object]) -> None:
    """Call ``work(j0, j1)`` once per block of a split of the paths [0, J).

    The blocks are the ``min(threads, J)`` contiguous ranges between the
    points of ``np.linspace(0, J, k + 1)``.  A single block runs on the
    calling thread; several each run on a pool worker, none on the caller,
    and an exception raised in a block reaches the caller.
    """
    if threads < 1:
        raise ConfigError("thread count must be at least 1")
    k = min(threads, J)
    if k == 1:
        work(0, J)
        return
    bounds = np.linspace(0, J, k + 1).astype(int)
    with ThreadPoolExecutor(max_workers=k) as pool:
        futures = [pool.submit(work, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        for fut in futures:
            fut.result()


def brownian_increments(grid: TimeGrid, J: int, d: int, seed: int, threads: int = 1) -> np.ndarray:
    """Brownian increments of shape (J, N, d) with variance grid.dt.

    The result is the transposed view of a node-major (N, J, d) array.
    Deterministic in (grid, J, d, seed): thread count and chunking do
    not change a single bit, and the first J' paths coincide with a
    J'-path call.
    """
    if J < 1 or d < 1:
        raise ConfigError("J and d must be at least 1")
    store = np.empty((grid.N, J, d))
    scale = float(np.sqrt(grid.dt))

    def block(j0: int, j1: int) -> None:
        states = _path_states(seed, j0, j1)
        for n in range(grid.N):
            _draw_node(store[n, j0:j1], states, n, scale)

    for_path_blocks(J, threads, block)
    return store.transpose(1, 0, 2)


def _noise(vol, dw: np.ndarray) -> np.ndarray:
    """``sigma dW`` per path, with the bits of ``einsum("jab,jb->ja")`` for finite ``dw``.

    A diagonal ``sigma`` gives ``sigma_ii dW_i``, plus ``0.0`` in place:
    the einsum sums from ``+0.0``, so a ``-0.0`` product comes out
    ``+0.0``.  At d >= 2 a non-finite ``dW_j`` would make the einsum's
    zero products ``0 * dW_j`` NaN, but :func:`brownian_increments` draws
    none.
    """
    vd = diagonal(vol)
    if vd is None:
        return np.einsum("jab,jb->ja", vol, dw)
    noise = vd * dw
    noise += 0.0
    return noise


def _step(spec: ProblemSpec, x: np.ndarray, dw: np.ndarray, alive: np.ndarray, dt: float):
    """Step the ``alive`` rows of ``x[:, 0]`` into ``x[:, 1]`` with the increments ``dw``.

    Returns the first row whose new state is non-finite, leaving ``x[:, 1]``
    unwritten, or None.  Its own function, so no column of the step
    outlives it.
    """
    # A slice rather than a mask gather while every path is alive.
    rows = slice(None) if alive.all() else alive
    xa = x[rows, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        step = xa + spec.mu(xa) * dt
        step += _noise(spec.sigma(xa), dw[rows])
    finite = np.all(np.isfinite(step), axis=1)
    if not finite.all():
        return int(np.flatnonzero(alive)[np.argmin(finite)])
    x[rows, 1] = step
    return None


def euler_simulate(
    spec: ProblemSpec,
    grid: TimeGrid,
    x0,
    J: int,
    seed: int,
    threads: int = 1,
    keep_increments: bool = True,
) -> PathBatch:
    """Simulate J forward paths from x0 on the grid.

    Paths of a box-domain problem are stopped and frozen at the first
    node outside the open box (a start outside stops at node 0).  The
    sentinel stop_index = N means the path ran to the horizon; an exit
    exactly at the final node is indistinguishable from termination,
    which is harmless because both pay g at the same state.

    Each path block of :func:`for_path_blocks` draws its own increments
    one node at a time, as it steps.  With ``keep_increments`` they are
    stored as the batch's ``dW``; without, no node's draws outlive its
    step and ``dW`` is an empty (J, 0, d) array, which the backward
    sweeps and :func:`write_batch` refuse.  A non-finite state raises
    NonFinite naming the earliest step and the lowest path at that step,
    whatever the block layout.
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape[0] != spec.dim:
        raise DimensionMismatch(f"x0 must have length {spec.dim}")
    if not np.all(np.isfinite(x0)):
        raise NonFinite("x0 must be finite")
    if J < 1:
        raise ConfigError("J must be at least 1")
    d, N, dt = spec.dim, grid.N, grid.dt
    scale = float(np.sqrt(dt))
    domain = spec.domain
    X = np.empty((N + 1, J, d)).transpose(1, 0, 2)
    dW = np.empty((N if keep_increments else 0, J, d)).transpose(1, 0, 2)
    stop = np.full(J, N, dtype=np.int64)
    blowups = []  # (step, path) of each block's first non-finite state

    def block(j0: int, j1: int) -> None:
        states = _path_states(seed, j0, j1)
        x, st = X[j0:j1], stop[j0:j1]
        dw = None if keep_increments else np.empty((j1 - j0, d))
        x[:, 0] = x0
        if domain is not None:
            alive = domain.contains_open(x[:, 0])
            st[~alive] = 0
        else:
            alive = np.ones(j1 - j0, dtype=bool)
        for n in range(N):
            x[:, n + 1] = x[:, n]
            live = alive.any()
            if keep_increments:
                dw = dW[j0:j1, n]
            if keep_increments or live:
                _draw_node(dw, states, n, scale)
            if not live:
                continue
            bad = _step(spec, x[:, n:n + 2], dw, alive, dt)
            if bad is not None:
                blowups.append((n + 1, j0 + bad))
                return
            if domain is not None:
                inside = domain.contains_open(x[:, n + 1])
                st[alive & ~inside] = n + 1
                alive &= inside

    for_path_blocks(J, threads, block)
    if blowups:
        n_bad, j_bad = min(blowups)
        raise NonFinite(f"non-finite state at path {j_bad}, step {n_bad}")
    return PathBatch(grid=grid, J=J, dW=dW, X=X, stop_index=stop)


def batch_bytes(J: int, N: int, d: int, keep_increments: bool = True) -> int:
    """Bytes of a J-path, N-step, d-dimensional batch: X, dW if kept, and stop_index."""
    return 8 * (J * (N + 1) * d + (J * N * d if keep_increments else 0) + J)


def draw_bytes(J: int, d: int, threads: int) -> int:
    """Bytes of the scratch that drawing one node's (J, d) increments holds at once.

    Each of the ``min(threads, J)`` path blocks draws sub-blocks of at most
    ``_SUB_BLOCK`` draws, and holds at most ``_SLAB_TEMPORARIES``
    sub-block-sized arrays at once.
    """
    return 8 * _SLAB_TEMPORARIES * d * min(J, threads * max(1, _SUB_BLOCK // d))


def write_batch(batch: PathBatch, fh) -> None:
    """Write the batch to the binary file ``fh`` as raw .npy records, one at a time.

    times (N+1,), X (J, N+1, d), dW (J, N, d), stop_index (J,), in that
    order; a batch simulated without increments is refused with
    ConfigError.  Raw records rather than an archive because zip headers
    embed timestamps, which would break byte-identical reruns.  Each record is
    written C-ordered: at d = 1 the node-major X and dW views are
    F-contiguous, and ``np.save`` would otherwise write a Fortran-order
    record that :func:`load_batch` refuses.
    """
    for arr in (batch.grid.times, batch.X, batch.increments(), batch.stop_index):
        np.save(fh, np.ascontiguousarray(arr), allow_pickle=False)


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
    """Read a batch written by :func:`write_batch`.

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
    return PathBatch(grid=grid, J=J, dW=dW, X=X, stop_index=stop)
