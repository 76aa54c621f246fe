"""Command-line front end: deterministic runs from JSON configurations.

Every subcommand reads one JSON config, runs the matching solver, and
writes its artifacts into ``--out``:

* ``summary.json`` — value, stderr, the resolved config echo, and (for
  verify runs) the check report.  Runtime and host facts live under a
  separate ``environment`` key so golden-file comparisons can drop that
  one field and match the rest byte for byte.
* ``steps.csv`` — per-node means along the grid, header
  ``n,t,mean_Y[,rms_Y_err][,mean_Z_0..][,mean_Gamma_00..]``; the error
  column appears only when the problem has an analytic solution, the Z
  and Gamma blocks only when the scheme estimates them.  Numbers carry
  17 significant digits so parsing them back is exact.
* ``controls.csv`` — per-node means of the extracted feedback control
  (hjb runs only).
* ``paths.bin`` — the simulated batch as four concatenated raw ``.npy``
  records (times, X, dW, stop_index), read back by ``paths.load_batch``.
  Always written by ``simulate``, by the solve subcommands only when the
  config sets ``dump_paths``.

Exit codes: 0 success, 1 validation failure (bad invocation, unreadable
or schema-invalid config, inconsistent problem definition), 2 numeric
failure (non-finite values, singular diffusion, failed regression,
unstable finite-difference grid), 3 verify run with a failing check.
Every failure prints one machine-parseable line on stderr:
``parabolica: exit=<code> error=<ExceptionName> detail=<message>``.

Reruns of one config are reproducible to the byte (``environment``
aside) regardless of ``--threads``; the flag only changes how work is
chunked.  Thread count resolves as ``--threads``, then the config's
``threads``, then ``PARABOLICA_THREADS``, then 1.
"""

# Pin BLAS pools before numpy loads: the numeric modules own their
# parallelism, and an oversubscribed BLAS breaks the single-orchestrator
# timing contract without changing any result.  Must stay above every
# other import (the package __init__ is lazy for exactly this reason).
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import json
import math
import platform
import sys
import time
from typing import Optional, Union

import jsonschema
import numpy as np

from . import hjb, model, verify
from .backward import backward_solve_2bsde, backward_solve_semilinear
from .errors import (
    CflViolation,
    ConfigError,
    NonFinite,
    ParabolicaError,
    RegressionFailure,
    SingularSigma,
)
from .linear_fk import Estimate, LinearCoefficients, feynman_kac_estimate, pathwise_remainders
from .paths import TimeGrid, encode_batch, euler_simulate
from .regress import BasisSpec

__all__ = ["RunConfig", "CONFIG_SCHEMA", "main"]

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

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "problem": {"type": ["string", "object"]},
        "scheme": {"enum": list(_SCHEMES)},
        "t0": {"type": "number"},
        "x0": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 1,
            "maxItems": 16,
        },
        "N": {"type": "integer", "minimum": 1, "maximum": 100_000},
        "J": {"type": "integer", "minimum": 1, "maximum": 10_000_000},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**63 - 1},
        "basis": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["polynomial", "piecewise_constant"]},
                "degree": {"type": "integer", "minimum": 0, "maximum": 10},
                "bins": {"type": "integer", "minimum": 1, "maximum": 1024},
                "ridge": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "picard_iters": {"type": "integer", "minimum": 1, "maximum": 64},
        "threads": {"type": "integer", "minimum": 1, "maximum": 1024},
        "dump_paths": {"type": "boolean"},
        "verify": {
            "type": "object",
            "properties": {
                "x_lo": {"type": "number"},
                "x_hi": {"type": "number"},
                "M": {"type": "integer", "minimum": 3, "maximum": 100_001},
                "window": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "fd_tol": {"type": "number", "exclusiveMinimum": 0},
                "fd_relative": {"type": "boolean"},
                "residual_Ns": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2, "maximum": 100_000},
                    "minItems": 1,
                    "maxItems": 16,
                },
                "residual_J": {"type": "integer", "minimum": 2, "maximum": 10_000_000},
                "ratio_min": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "required": ["problem"],
    "additionalProperties": False,
}

@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A validated run request.

    ``N`` and ``J`` are None only for verify runs, which pick their own
    grids.  ``threads`` is deliberately excluded from the config echo:
    it cannot change any numeric output, only wall time.
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
    threads: Optional[int]
    dump_paths: bool
    verify_options: dict

    @classmethod
    def from_dict(cls, obj: dict, *, scheme: Optional[str] = None,
                  seed: Optional[int] = None, threads: Optional[int] = None) -> "RunConfig":
        """Build a config from a JSON object, applying CLI overrides."""
        try:
            jsonschema.validate(obj, CONFIG_SCHEMA)
        except jsonschema.exceptions.ValidationError as exc:
            where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            raise ConfigError(f"config rejected at {where}: {exc.message}") from None

        declared = obj.get("scheme")
        if scheme is None:
            if declared is None:
                raise ConfigError("config declares no scheme")
            scheme = declared
        elif declared is not None and declared != scheme:
            raise ConfigError(
                f"config declares scheme {declared!r} but the subcommand runs {scheme!r}"
            )

        N = obj.get("N")
        J = obj.get("J")
        if scheme != "verify" and (N is None or J is None):
            raise ConfigError("N and J are required for every scheme except verify")

        t0 = float(obj.get("t0", 0.0))
        if not math.isfinite(t0):
            raise ConfigError("t0 must be finite")

        x0 = obj.get("x0")
        if x0 is not None:
            x0 = tuple(float(v) for v in x0)
            if not all(math.isfinite(v) for v in x0):
                raise ConfigError("x0 entries must be finite")

        basis_obj = obj.get("basis") or {}
        defaults = BasisSpec()
        basis = BasisSpec(
            kind=basis_obj.get("kind", defaults.kind),
            degree=int(basis_obj.get("degree", defaults.degree)),
            bins=int(basis_obj.get("bins", defaults.bins)),
            ridge=float(basis_obj.get("ridge", defaults.ridge)),
        )
        if not math.isfinite(basis.ridge):
            raise ConfigError("basis ridge must be finite")

        cfg_threads = obj.get("threads")
        if threads is None and cfg_threads is not None:
            threads = int(cfg_threads)
        if threads is not None and threads < 1:
            raise ConfigError("thread count must be at least 1")

        return cls(
            problem=obj["problem"],
            scheme=scheme,
            N=int(N) if N is not None else None,
            J=int(J) if J is not None else None,
            seed=int(seed) if seed is not None else int(obj.get("seed", 0)),
            t0=t0,
            x0=x0,
            basis=basis,
            picard_iters=int(obj.get("picard_iters", 2)),
            threads=threads,
            dump_paths=bool(obj.get("dump_paths", False)),
            verify_options=dict(obj.get("verify") or {}),
        )

    def echo(self) -> dict:
        """The resolved config as a schema-valid JSON object.

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
                "ridge": self.basis.ridge,
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


def _steps_csv(spec, batch, Y, Z, Gamma) -> bytes:
    grid = batch.grid
    d = batch.dim
    analytic = spec.analytic_v
    header = ["n", "t", "mean_Y"]
    if analytic is not None:
        header.append("rms_Y_err")
    if Z is not None:
        header += [f"mean_Z_{k}" for k in range(d)]
    if Gamma is not None:
        header += [f"mean_Gamma_{a}{b}" for a in range(d) for b in range(d)]
    lines = [",".join(header)]
    for n in range(grid.N + 1):
        t_n = grid.times[n]
        row = [str(n), _fmt(t_n), _fmt(Y[:, n].mean())]
        if analytic is not None:
            err = Y[:, n] - analytic.value(t_n, batch.X[:, n])
            row.append(_fmt(np.sqrt(np.mean(err * err))))
        if Z is not None:
            row += [_fmt(Z[:, n, k].mean()) for k in range(d)]
        if Gamma is not None:
            row += [_fmt(Gamma[:, n, a, b].mean()) for a in range(d) for b in range(d)]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _controls_csv(grid, controls) -> bytes:
    k = controls.shape[2]
    header = ["n", "t"] + [f"mean_u_{i}" for i in range(k)]
    lines = [",".join(header)]
    for n in range(grid.N + 1):
        row = [str(n), _fmt(grid.times[n])]
        row += [_fmt(controls[:, n, i].mean()) for i in range(k)]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _execute(config: RunConfig):
    """Run one config; returns (exit_code, value, stderr, checks, artifacts)."""
    if isinstance(config.problem, str):
        spec = model.catalog_get(config.problem)
    else:
        spec = model.problem_from_dict(dict(config.problem))
    artifacts = {}

    if config.scheme == "verify":
        opts = dict(config.verify_options)
        if opts.get("window") is not None:
            opts["window"] = tuple(float(v) for v in opts["window"])
        if opts.get("residual_Ns") is not None:
            opts["residual_Ns"] = tuple(int(n) for n in opts["residual_Ns"])
        report = verify.verify_problem(spec, seed=config.seed, **opts)
        checks = report["checks"]
        code = 0 if all(c["pass"] for c in checks) else 3
        return code, None, None, checks, artifacts

    if config.scheme == "hjb" and spec.control is None:
        raise ConfigError(
            "hjb runs need a control problem: use a control catalog entry "
            "or an inline problem with a control block"
        )

    x0 = config.x0 if config.x0 is not None else spec.x0_default
    if x0 is None:
        raise ConfigError(
            f"problem {spec.name!r} declares no default x0; set x0 in the config"
        )
    grid = TimeGrid(config.t0, spec.horizon, config.N)
    batch = euler_simulate(spec, grid, x0, config.J, config.seed, config.threads)

    if config.scheme == "simulate":
        est = Estimate.of(np.asarray(spec.g(batch.X[:, -1]), dtype=np.float64))
        artifacts["paths.bin"] = encode_batch(batch)
    elif config.scheme == "linear":
        coeffs = LinearCoefficients.from_spec(spec)
        est = feynman_kac_estimate(coeffs, batch, config.threads)
        # Per-node column: realized remainders of the path functional,
        # whose cross-sectional means trace the value along the grid.
        artifacts["steps.csv"] = _steps_csv(
            spec, batch, pathwise_remainders(coeffs, batch), None, None
        )
    else:  # semilinear, full_2bsde or hjb; Gamma is None for semilinear
        solve = backward_solve_semilinear if config.scheme == "semilinear" else backward_solve_2bsde
        sol = solve(spec, batch, config.basis, config.picard_iters)
        est = sol.root_value
        artifacts["steps.csv"] = _steps_csv(spec, batch, sol.Y, sol.Z, sol.Gamma)
        if config.scheme == "hjb":
            controls = hjb.extract_control(spec.control, sol, batch)
            artifacts["controls.csv"] = _controls_csv(grid, controls)

    if config.dump_paths and "paths.bin" not in artifacts:
        artifacts["paths.bin"] = encode_batch(batch)
    return 0, est.value, est.stderr, None, artifacts


def _build_version() -> str:
    try:
        from importlib import metadata

        return metadata.version("parabolica")
    except Exception:
        from . import __version__

        return __version__


def _write_artifacts(out_dir: str, artifacts: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, blob in artifacts.items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(blob)


def _fail(exc: ParabolicaError) -> int:
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
            help="worker threads (default: config, then PARABOLICA_THREADS, then 1)",
        )
        p.add_argument("--out", default=".", help="directory for output artifacts")
    return parser


def main(argv=None) -> int:
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
        code, value, stderr, checks, artifacts = _execute(config)
    except ParabolicaError as exc:
        return _fail(exc)

    summary = {
        "value": value,
        "stderr": stderr,
        "config": config.echo(),
        "environment": {
            "runtime_seconds": time.perf_counter() - started,
            "host": platform.node(),
            "build": _build_version(),
        },
    }
    if checks is not None:
        summary["checks"] = checks
    artifacts["summary.json"] = (
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")

    try:
        _write_artifacts(args.out, artifacts)
    except OSError as exc:
        print(f"parabolica: exit=1 error=OSError detail={exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
