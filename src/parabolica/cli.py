"""Command-line front end: deterministic runs from JSON configurations.

Every subcommand reads one JSON config, runs the matching solver, and
writes its artifacts into ``--out``:

* ``summary.json`` — value, stderr, the resolved config echo, for
  verify runs the check report, and for backward runs on a payoff with
  no declared gradient ``terminal_kink_fraction``, the share of paths
  whose differenced terminal gradient straddles a kink.  Runtime and
  host facts live under a separate ``environment`` key so golden-file
  comparisons can drop that one field and match the rest byte for byte.
* ``steps.csv`` — per-node means along the grid, header
  ``n,t,mean_Y[,rms_Y_err][,mean_Z_0..][,mean_Gamma_00..]``; the error
  column appears only when the problem has an analytic solution, the Z
  and Gamma blocks only when the scheme estimates them.  Numbers carry
  17 significant digits so parsing them back is exact.
* ``controls.csv`` — per-node means of the feedback control, recorded by
  the backward sweep (hjb runs only).
* ``paths.bin`` — the simulated batch as four concatenated raw ``.npy``
  records (times, X, dW, stop_index), read back by ``paths.load_batch``.
  Always written by ``simulate``, by the solve subcommands only when the
  config sets ``dump_paths``.

Exit codes: 0 success, 1 validation failure (bad invocation, unreadable
config, a config key or ``--seed``/``--threads`` value its typed reader
in ``_CONFIG_KEYS`` refuses, inconsistent problem definition), 2 numeric
failure (non-finite values, singular diffusion, failed regression,
unstable finite-difference grid), 3 verify run with a failing check.
Every failure prints one machine-parseable line on stderr:
``parabolica: exit=<code> error=<ExceptionName> detail=<message>``.

Reruns of one config are reproducible to the byte (``environment``
aside) regardless of ``--threads``; the flag only changes how work is
chunked.  Only this module resolves the worker count: ``--threads``,
then the config's ``threads``, then ``PARABOLICA_THREADS``, then 1, each
through the ``threads`` reader; of the library, only path simulation uses it.
Likewise only ``main`` sets the process's allocator policy (glibc's
mmap and trim thresholds, see ``_keep_temporaries_on_the_heap``).
"""

# Pin BLAS pools before numpy loads: the numeric modules own their
# parallelism, and an oversubscribed BLAS breaks the single-orchestrator
# timing contract without changing any result.  Must stay above every
# other import (the package __init__ is lazy for exactly this reason).
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import dataclasses
import json
import platform
import sys
import time
from typing import Optional, Union

import numpy as np

from . import __version__, model, verify
from .backward import backward_solve_2bsde, backward_solve_semilinear, screen_driver
from .errors import (
    CflViolation,
    ConfigError,
    NonFinite,
    ParabolicaError,
    RegressionFailure,
    SingularSigma,
)
# feynman_kac_estimate is not called here; perfbench/traced_cli.py wraps it by
# its name in this module.
from .linear_fk import (  # noqa: F401
    Estimate,
    LinearCoefficients,
    feynman_kac_estimate,
    pathwise_remainders,
)
from .paths import TimeGrid, batch_bytes, draw_bytes, euler_simulate, write_batch
from .regress import BasisSpec, basis_size

__all__ = ["RunConfig", "main"]

_SCHEMES = ("linear", "semilinear", "full_2bsde", "hjb", "verify", "simulate")

_SUBCOMMANDS = {
    "simulate": "simulate",
    "solve-linear": "linear",
    "solve-semilinear": "semilinear",
    "solve-2bsde": "full_2bsde",
    "solve-hjb": "hjb",
    "verify": "verify",
}

# Failures of the computation itself, as opposed to failures of the
# request; these map to exit 2, everything else under ParabolicaError
# to exit 1.
_NUMERIC_ERRORS = (NonFinite, SingularSigma, RegressionFailure, CflViolation)


def _object(readers: dict, where: str):
    """Reader of an object whose keys all have a reader; returns the values read."""
    def read(obj) -> dict:
        model.known_keys(obj, readers, where)
        return {key: model.read_key(obj, key, readers[key], where) for key in obj}
    return read


_BASIS = _object({
    "kind": model.choice("polynomial", "piecewise_constant"),
    "degree": model.integer(0, 10),
    "bins": model.integer(1, 1024),
    "ridge": model.number(0.0),
}, "basis")

_VERIFY = _object({
    "x_lo": model.number(),
    "x_hi": model.number(),
    "M": model.integer(3, 100_001),
    "window": model.list_of(model.number(), 2, 2),
    "fd_tol": model.number(0.0, strict=True),
    "fd_relative": model.flag,
    "residual_Ns": model.list_of(model.integer(2, 100_000), 1, 16),
    "residual_J": model.integer(2, 10_000_000),
    "ratio_min": model.number(0.0, strict=True),
}, "verify")

_CONFIG_KEYS = {
    "problem": model.reader(lambda v: isinstance(v, (str, dict)),
                            "a catalog name or an inline problem object"),
    "scheme": model.choice(*_SCHEMES),
    "t0": model.number(),
    "x0": model.list_of(model.number(), 1, 16),
    "N": model.integer(1, 100_000),
    "J": model.integer(1, 10_000_000),
    "seed": model.integer(0, 2**63 - 1),
    "basis": _BASIS,
    "picard_iters": model.integer(1, 64),
    "threads": model.integer(1, 1024),
    "dump_paths": model.flag,
    "verify": _VERIFY,
}
_CONFIG = _object(_CONFIG_KEYS, "config")
_THREADS_VAR = "PARABOLICA_THREADS"
# Held by every run whatever J and N: the argument parser (about 50 KB),
# the config, the problem's callables and the worker pool's fixed part.
_RUN_OVERHEAD_BYTES = 128 << 10
# Each worker of a pool, its thread and task bookkeeping: a run's peak
# grew by about 1.9 KB a worker from 2 to 64 workers.
_WORKER_BYTES = 2 << 10
# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A validated run request.

    ``N`` and ``J`` are None only for verify runs, which pick their own
    grids.  ``threads``, the resolved worker count, is deliberately
    excluded from the config echo: it changes only wall time.
    """

    problem: Union[str, dict]
    scheme: str
    N: Optional[int]
    J: Optional[int]
    seed: int
    t0: float
    x0: Optional[tuple]
    basis: BasisSpec
    picard_iters: int
    threads: int
    dump_paths: bool
    verify_options: dict

    @classmethod
    def from_dict(cls, obj: dict, *, scheme: Optional[str] = None,
                  seed: Optional[int] = None, threads: Optional[int] = None) -> "RunConfig":
        """Build a config from a JSON object, applying CLI overrides."""
        got = _CONFIG(obj)
        # The --seed and --threads flags pass the readers of the keys they replace.
        for key, flag in (("seed", seed), ("threads", threads)):
            if flag is not None:
                got[key] = model.read_key({key: flag}, key, _CONFIG_KEYS[key], "config")
        env = os.environ.get(_THREADS_VAR, "").strip()
        if "threads" not in got and env:  # a non-digit string is refused by the reader
            got["threads"] = model.read_key({_THREADS_VAR: int(env) if env.isdecimal() else env},
                                            _THREADS_VAR, _CONFIG_KEYS["threads"], "environment")
        problem = model.read_key(got, "problem", where="config")
        declared = got.get("scheme")
        if scheme is None:
            if declared is None:
                raise ConfigError("config declares no scheme")
            scheme = declared
        elif declared is not None and declared != scheme:
            raise ConfigError(
                f"config declares scheme {declared!r} but the subcommand runs {scheme!r}"
            )

        N = got.get("N")
        J = got.get("J")
        if scheme != "verify" and (N is None or J is None):
            raise ConfigError("N and J are required for every scheme except verify")

        return cls(
            problem=problem,
            scheme=scheme,
            N=N,
            J=J,
            seed=got.get("seed", 0),
            t0=float(got.get("t0", 0.0)),
            x0=tuple(float(v) for v in got["x0"]) if "x0" in got else None,
            basis=BasisSpec(**got.get("basis", {})),
            picard_iters=got.get("picard_iters", 2),
            threads=got.get("threads", 1),
            dump_paths=got.get("dump_paths", False),
            verify_options=got.get("verify", {}),
        )

    def echo(self) -> dict:
        """The resolved config as a JSON object :meth:`from_dict` accepts.

        Feeding the echo back through :meth:`from_dict` reproduces this
        config (threads aside), so a run can always be repeated from its
        own summary.
        """
        out = {
            "problem": self.problem,
            "scheme": self.scheme,
            "seed": self.seed,
            "t0": self.t0,
            "basis": {
                "kind": self.basis.kind,
                "degree": self.basis.degree,
                "bins": self.basis.bins,
                "ridge": float(self.basis.ridge),
            },
            "picard_iters": self.picard_iters,
        }
        if self.N is not None:
            out["N"] = self.N
        if self.J is not None:
            out["J"] = self.J
        if self.x0 is not None:
            out["x0"] = list(self.x0)
        if self.dump_paths:
            out["dump_paths"] = True
        if self.verify_options:
            out["verify"] = dict(self.verify_options)
        return out


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return obj


def _fmt(v) -> str:
    return format(float(v), ".17g")


class _StepRows:
    """``steps.csv`` built one node at a time.

    Each call ``rows(n, y, z, gamma)`` forms node n's row from that
    node's (J,) values ``y`` and, when the run estimates them, its (J, d)
    ``z`` and (J, d, d) ``gamma``; ``with_z`` and ``with_gamma`` fix the
    header before the first row.  Rows are kept by node and written in
    node order, whatever order the nodes come in; the linear stream and
    the backward sweep both run N..0.
    """

    def __init__(self, spec, batch, with_z: bool = False, with_gamma: bool = False):
        self._batch = batch
        self._times = batch.grid.times
        self._analytic = spec.analytic_v
        d = batch.dim
        header = ["n", "t", "mean_Y"]
        if self._analytic is not None:
            header.append("rms_Y_err")
        if with_z:
            header += [f"mean_Z_{k}" for k in range(d)]
        if with_gamma:
            header += [f"mean_Gamma_{a}{b}" for a in range(d) for b in range(d)]
        self._header = ",".join(header)
        self._rows = {}

    def __call__(self, n: int, y, z=None, gamma=None) -> None:
        d = self._batch.dim
        t_n = self._times[n]
        # Means of finite columns near the top of the double range can
        # overflow; a run that fails for it is reported by its own checks.
        with np.errstate(over="ignore", invalid="ignore"):
            row = [str(n), _fmt(t_n), _fmt(y.mean())]
            if self._analytic is not None:
                err = y - self._analytic.value(t_n, self._batch.X[:, n])
                row.append(_fmt(np.sqrt(np.mean(err * err))))
            if z is not None:
                row += [_fmt(z[:, k].mean()) for k in range(d)]
            if gamma is not None:
                row += [_fmt(gamma[:, a, b].mean()) for a in range(d) for b in range(d)]
        self._rows[n] = ",".join(row)

    def csv(self) -> bytes:
        lines = [self._header] + [self._rows[n] for n in sorted(self._rows)]
        return ("\n".join(lines) + "\n").encode("utf-8")


def _controls_csv(grid, control_means) -> bytes:
    k = control_means.shape[1]
    header = ["n", "t"] + [f"mean_u_{i}" for i in range(k)]
    lines = [",".join(header)]
    for n in range(grid.N + 1):
        row = [str(n), _fmt(grid.times[n])]
        row += [_fmt(v) for v in control_means[n]]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _keeps_increments(config: RunConfig) -> bool:
    """Whether the run reads its batch's dW: a backward sweep or ``paths.bin`` does."""
    return config.scheme != "linear" or config.dump_paths


def _array_bytes(config: RunConfig, spec) -> int:
    """Bytes of the arrays a run holds at once, from J, N, d, the scheme and the threads.

    ``_RUN_OVERHEAD_BYTES`` for what does not grow with J or N, and
    ``_WORKER_BYTES`` for each of the ``min(threads, J)`` workers of a
    pool (one thread runs none); the path batch (X, stop_index, and dW
    where the run reads it: a backward sweep or ``paths.bin``); then the
    larger of two phases' working sets.  Euler's, per path: the hash
    state, the node's dW where the batch does not keep it, and the larger
    of the draw's scratch (:func:`paths.draw_bytes`) and the step's sigma,
    noise and new state (d^2 + 2d columns).  The later phases', counted
    together: the C-ordered copy of X (its largest record) that writing
    ``paths.bin`` makes, and the scheme's own pass.  A linear pass holds
    the payout and one column per term it has (the log discount with
    beta, the source tail with alpha), and at once the larger of a node's
    three columns (its remainder and the two of its ``steps.csv`` error)
    and a step's three (a coefficient, its product with dt and a term's
    gathered rows).  Where a domain can stop paths, gathering the live
    rows adds d columns to a linear step, which a pass with neither term
    never takes, and 2d to Euler's step.
    Besides, a linear run holds up to 4 + d boolean flags per path.  A
    backward step frees its own arrays on return; within it, per path:
    node n's and node n-1's (Y, Z, Gamma) columns and the design (basis
    matrix and Q, p columns each), then the larger of the QR's working
    copy (p) and the rest.  Q and that copy are charged at every step
    because any step's design may be factored by QR (an ill-conditioned
    or rank-deficient one); a design solved by its Gram matrix holds
    neither.  The rest: sigma, its inverse and mu; the Gamma target,
    fit and unsymmetrized solve (semilinear: the zero Hessian); sigma
    sigma'; the Z fit; and ten value columns (Y fit, mu'z, half trace,
    last Picard correction, pathwise functional, five for the driver).  An
    hjb node adds its k control columns and, with a discount rate, over
    the G grid points its (G, J) ``base``, ``beta`` and objective and a
    (G, J) boolean mask with the copy ``np.argmax`` makes of it.  Without
    one it holds no (G, J) array: its running maximum, the candidate
    control's row, the mask and the grid index with its step buffer (of
    the smallest unsigned type holding G - 1), and one control's
    coefficient temporaries: ``a`` and, for the trace, ``a a'`` (d^2
    columns each), ``b`` (d) and three value columns.  Both passes
    stream their nodes, so neither adds a (J, N+1) term.
    """
    J, N, d = config.J, config.N, spec.dim
    keeps = _keeps_increments(config)
    workers = min(config.threads, J)
    total = _RUN_OVERHEAD_BYTES + batch_bytes(J, N, d, keeps)
    if workers > 1:
        total += _WORKER_BYTES * workers
    gathered = 0 if spec.domain is None else d
    euler = 8 * J * (1 + (0 if keeps else d)) + max(8 * J * (d * d + 2 * d + 2 * gathered),
                                                    draw_bytes(J, d, config.threads))
    later = 0
    if config.dump_paths or config.scheme == "simulate":
        later += 8 * J * (N + 1) * d
    if config.scheme == "linear":
        terms = sum(term is not None for term in spec.linear_parts)
        later += 8 * J * (4 + terms + (gathered if terms else 0))
        total += (4 + d) * J
    if config.scheme in ("semilinear", "full_2bsde", "hjb"):
        p = basis_size(config.basis, d)
        if config.scheme == "semilinear":
            node, rest = 1 + d, 4 * d * d + 2 * d + 10
        else:
            node, rest = 1 + d + d * d, 6 * d * d + 2 * d + 10
        later += 8 * J * (2 * node + 2 * p + max(p, rest))
    if config.scheme == "hjb":
        cp = spec.control
        G = cp.resolution ** cp.control_dim
        later += 8 * J * cp.control_dim
        if cp.beta is None:
            index = np.min_scalar_type(G - 1).itemsize
            later += 8 * J * (2 + 2 * d * d + d + 3) + J * (1 + 2 * index)
        else:
            later += (3 * 8 + 2) * G * J
    return total + max(euler, later)


def _execute(config: RunConfig):
    """Run one config; returns (exit_code, value, stderr, report, artifacts).

    ``report`` holds the keys the run adds to ``summary.json``: the verify
    checks, or the terminal kink fraction of a backward run whose payoff
    gradient was differenced.  ``artifacts`` maps each file name to its
    bytes, or for ``paths.bin`` to a function that writes it to an open file.
    """
    if isinstance(config.problem, str):
        spec = model.catalog_get(config.problem)
    else:
        spec = model.problem_from_dict(dict(config.problem))
    artifacts = {}

    if config.scheme == "verify":
        report = verify.verify_problem(spec, seed=config.seed, threads=config.threads,
                                       **config.verify_options)
        checks = report["checks"]
        code = 0 if all(c["pass"] for c in checks) else 3
        return code, None, None, {"checks": checks}, artifacts

    if config.scheme == "hjb" and spec.control is None:
        raise ConfigError(
            "hjb runs need a control problem: use a control catalog entry "
            "or an inline problem with a control block"
        )
    # A problem the scheme refuses is refused before a simulation it would waste.
    if config.scheme == "linear":
        coeffs = LinearCoefficients.from_spec(spec)
    elif config.scheme != "simulate":
        p = basis_size(config.basis, spec.dim)
        if config.J < p:
            raise ConfigError(f"J = {config.J} paths cannot support the {p} basis "
                              f"functions every backward step fits")
        screen_driver(spec, gamma_free=config.scheme == "semilinear")

    x0 = config.x0 if config.x0 is not None else spec.x0_default
    model.require_memory(_array_bytes(config, spec), f"a {config.scheme} run")
    grid = TimeGrid(config.t0, spec.horizon, config.N)
    batch = euler_simulate(spec, grid, x0, config.J, config.seed, config.threads,
                           keep_increments=_keeps_increments(config))
    report = {}

    if config.scheme == "simulate":
        est = Estimate.of(np.asarray(spec.g(batch.X[:, -1]), dtype=np.float64))
    elif config.scheme == "linear":
        # One pass: per-node rows from the realized remainders of the path
        # functional, whose cross-sectional means trace the value along the
        # grid, and the estimate from the functional itself.
        rows = _StepRows(spec, batch)
        est = pathwise_remainders(coeffs, batch, rows)
        artifacts["steps.csv"] = rows.csv()
    else:  # semilinear, full_2bsde or hjb; Gamma is None for semilinear
        semilinear = config.scheme == "semilinear"
        solve = backward_solve_semilinear if semilinear else backward_solve_2bsde
        # The sweep streams each node's columns into the rows; no history is kept.
        rows = _StepRows(spec, batch, with_z=True, with_gamma=not semilinear)
        sol = solve(spec, batch, config.basis, config.picard_iters, observe=rows)
        est = sol.root_value
        artifacts["steps.csv"] = rows.csv()
        diagnostics = sol.diagnostics
        if diagnostics["terminal_gradient_fd"]:
            report["terminal_kink_fraction"] = diagnostics["terminal_kink_fraction"]
        if config.scheme == "hjb":
            artifacts["controls.csv"] = _controls_csv(grid, sol.control_means)

    if config.dump_paths or config.scheme == "simulate":
        artifacts["paths.bin"] = lambda fh: write_batch(batch, fh)
    return 0, est.value, est.stderr, report, artifacts


def _write_artifacts(out_dir: str, artifacts: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, blob in artifacts.items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            if callable(blob):
                blob(fh)
            else:
                fh.write(blob)


def _fail(exc: Exception) -> int:
    code = 2 if isinstance(exc, _NUMERIC_ERRORS) else 1
    detail = " ".join(str(exc).split())
    print(
        f"parabolica: exit={code} error={type(exc).__name__} detail={detail}",
        file=sys.stderr,
    )
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parabolica",
        description="Monte Carlo solvers for parabolic terminal-value problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, scheme in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {scheme} scheme on a JSON config")
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads, 1 to 1024 (default: the config's threads, "
            "then PARABOLICA_THREADS, then 1)",
        )
        p.add_argument("--out", default=".", help="directory for output artifacts")
    return parser


def _keep_temporaries_on_the_heap() -> None:
    """Set the process's allocator policy: MB-sized blocks come from the heap.

    glibc serves a block past its mmap threshold with a fresh mapping
    that is unmapped again on free, and hands heap tops past its trim
    threshold back to the system.  Both start low (128 KiB) and rise only
    with the blocks freed so far, so per-node temporaries of a few MB keep
    faulting fresh pages in.  Fixed high values keep those pages in the
    process for the next node.  Where the C library has no ``mallopt``
    nothing is done; no result depends on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None) -> int:
    _keep_temporaries_on_the_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # numeric failures here, so invalid invocations report 1.
        return 0 if exc.code in (0, None) else 1

    started = time.perf_counter()
    try:
        obj = _load_json(args.config)
        config = RunConfig.from_dict(
            obj,
            scheme=_SUBCOMMANDS[args.command],
            seed=args.seed,
            threads=args.threads,
        )
        code, value, stderr, report, artifacts = _execute(config)
    except ParabolicaError as exc:
        return _fail(exc)

    summary = {
        "value": value,
        "stderr": stderr,
        "config": config.echo(),
        "environment": {
            "runtime_seconds": time.perf_counter() - started,
            "host": platform.node(),
            "build": __version__,
        },
    }
    summary.update(report)
    artifacts["summary.json"] = (
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")

    try:
        _write_artifacts(args.out, artifacts)
    except OSError as exc:
        return _fail(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
