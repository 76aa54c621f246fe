"""Workloads of the parabolica benchmark and the correctness gate they share.

Each workload is one CLI subcommand on one problem with a closed-form value.
The three were chosen so that each puts a different layer on top:

* ``fk_gbm`` - path-heavy: Euler stepping, RNG hashing and the Feynman-Kac
  pass, with no regression at all;
* ``twobsde_bs_d4`` - regression-heavy: a d=4 inline problem, so each step
  fits 16 Gamma columns on a 15-function basis, solves 4x4 sigma systems and
  evaluates every coefficient through the expression language;
* ``hjb_uvol`` - driver-heavy: the 21-point control grid is searched at every
  Picard sweep and again by the control extraction, while the regressions
  are small (p=3, 1x1 sigma).

``semilinear_exp`` and ``bsb_uncertain_vol`` are left out on purpose: each
runs the same backward sweep as a workload here, minus one column or minus
the control grid, and would add run time without adding a layer.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

# Every timed run uses this many worker threads (the CLI's outputs do not
# depend on it); the gate's reference run uses one.
THREADS = 2


def _bs_problem(d: int, vol: float) -> dict:
    """Independent Black-Scholes coordinates with v = |x|^2 exp(vol^2 (T-t))."""
    return {
        "dim": d,
        "horizon": 1.0,
        "mu": ["0"] * d,
        "sigma": [[f"{vol}*x[{i}]" if i == j else "0" for j in range(d)] for i in range(d)],
        "f": " + ".join(f"-0.5*{vol * vol:.2f}*x[{i}]^2*gamma[{i}][{i}]" for i in range(d)),
        "g": " + ".join(f"x[{i}]^2" for i in range(d)),
        "dg": [f"2*x[{i}]" for i in range(d)],
        "x0": [1.0] * d,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    scheme: str           # the config scheme the subcommand runs
    problem: Union[str, dict]
    d: int
    N: int
    J: int
    exact: float          # closed-form value at (t0, x0)
    tolerance_rel: float  # gate: |value - exact| <= tolerance_rel * exact
    tol: float            # target standard error in time_to_tol_s

    def config(self, seed: int) -> dict:
        """The run config for a workload seed; the same seed gives the same config."""
        digest = hashlib.sha256(f"{self.name}:{seed}".encode()).digest()
        return {
            "problem": self.problem,
            "N": self.N,
            "J": self.J,
            "seed": int.from_bytes(digest[:7], "big"),
            "basis": {"kind": "polynomial", "degree": 2},
        }

    def array_bytes(self) -> int:
        """Bytes of the arrays one run holds, computed from J, N and d.

        The path batch (X, dW, stop_index) plus, for the backward solvers,
        the Y, Z and Gamma histories, or for solve-linear the (J, N+1)
        matrix of pathwise remainders.
        """
        J, N, d = self.J, self.N, self.d
        batch = 8 * (J * (N + 1) * d + J * N * d + J)
        if self.scheme != "linear":
            return batch + 8 * J * (N + 1) * (1 + d + d * d)
        return batch + 8 * J * (N + 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fk_gbm",
            subcommand="solve-linear",
            scheme="linear",
            problem="gbm_linear",
            d=1, N=64, J=100_000,
            exact=math.exp(0.09),
            # Unbiased up to Euler error; stderr is about 1.4e-3 here.
            tolerance_rel=0.01,
            tol=1.5e-3,
        ),
        Workload(
            name="twobsde_bs_d4",
            subcommand="solve-2bsde",
            scheme="full_2bsde",
            problem=_bs_problem(4, 0.2),
            d=4, N=32, J=10_000,
            exact=4.0 * math.exp(0.04),
            # Matches the closed form within 2 stderr (about 9e-3) here.
            tolerance_rel=0.015,
            tol=9e-3,
        ),
        Workload(
            name="hjb_uvol",
            subcommand="solve-hjb",
            scheme="hjb",
            problem="hjb_uncertain_vol",
            d=1, N=64, J=20_000,
            exact=math.exp(0.04),
            # Gamma noise inside the control-grid max biases the value up by
            # 3-5% at this J (2% needs J of order 1e5), so the gate allows 7%.
            tolerance_rel=0.07,
            tol=2.5e-3,
        ),
    )
}


def canonical_artifacts(out_dir: Path) -> dict:
    """The artifacts that must repeat byte for byte, keyed by file name.

    ``summary.json`` is compared without its quarantined ``environment``
    field, re-serialized the way the CLI writes it.
    """
    out = {}
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    summary.pop("environment", None)
    out["summary.json"] = json.dumps(summary, indent=2, sort_keys=True).encode("utf-8")
    for name in ("steps.csv", "controls.csv"):
        path = out_dir / name
        if path.exists():
            out[name] = path.read_bytes()
    return out


def gate(exit_code: int, out_dir: Path, exact: float, tolerance_rel: float,
         reference: Optional[dict]) -> list:
    """Reasons a run fails the correctness gate; an empty list means it passed.

    ``reference`` is :func:`canonical_artifacts` of the run every other run
    must match byte for byte, or None for the reference run itself.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        artifacts = canonical_artifacts(out_dir)
        value = json.loads(artifacts["summary.json"])["value"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {exc}"]
    reasons = []
    if not (isinstance(value, (int, float)) and abs(value - exact) <= tolerance_rel * abs(exact)):
        reasons.append(f"value {value!r} is not within {tolerance_rel:.1%} of {exact!r}")
    if reference is not None:
        for name in sorted(set(artifacts) | set(reference)):
            if artifacts.get(name) != reference.get(name):
                reasons.append(f"{name} differs from the reference run")
    return reasons
