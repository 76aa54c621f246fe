"""Run ``parabolica.cli.main`` in-process with a span around each layer.

    python3 perfbench/traced_cli.py SPANS_JSON SUBCOMMAND --config C --out O --threads T

The package is not changed: public functions are wrapped from outside, at
the names the CLI and the solvers look up when they call them - the solver
entry points ``cli`` imported, ``paths.brownian_increments``,
``regress.fit``/``predict``, ``expr.evaluate``, ``hjb.hamiltonian`` and
``hjb.extract_control``, and the ``ProblemSpec`` callables (``mu``,
``sigma``, ``f``, ``g``, ``dg``) of every spec ``model.catalog_get`` or
``model.problem_from_dict`` returns.

Only the main thread is traced, so spans nest strictly and a span's self
time is its duration minus its children's.  Calls made from worker threads
(the RNG blocks and the threaded Feynman-Kac pass) count towards the span
that started the workers.  Spans stay in memory and are written to
SPANS_JSON as ``[name, start, end, parent, attrs]`` rows when the run ends;
the exit code is the CLI's.
"""

import dataclasses
import functools
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parabolica import cli  # noqa: E402  (first: it pins BLAS threads before numpy loads)
from parabolica import expr, hjb, model, paths, regress  # noqa: E402

SPEC_CALLABLES = ("mu", "sigma", "f", "g", "dg")


class Tracer:
    """Spans of the main thread, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._main = threading.get_ident()

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per main-thread call; ``attrs(args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result

        return traced


def _batch_bytes(args, batch):
    return {"bytes": batch.X.nbytes + batch.dW.nbytes + batch.stop_index.nbytes}


def _history_bytes(args, sol):
    return {"bytes": sum(a.nbytes for a in (sol.Y, sol.Z, sol.Gamma) if a is not None)}


def _fit_counts(args, fit):
    targets = args[1]
    counts = {
        "rows": len(targets),
        "cols": 1 if targets.ndim == 1 else targets.shape[1],
        "rank_retries": int(fit.rank_deficient and fit.ridge_used != fit.basis.ridge),
    }
    # Rank-deficient designs (all paths at x0 on the first step) have an
    # infinite condition number; they are counted by rank_retries instead.
    if not fit.rank_deficient:
        counts["max_cond"] = fit.condition_estimate
    return counts


# (module, attribute, span name, counts taken from the arguments and result)
TRACED = (
    (cli, "euler_simulate", "paths.euler_simulate", _batch_bytes),
    (cli, "feynman_kac_estimate", "linear_fk.feynman_kac_estimate", None),
    (cli, "pathwise_remainders", "linear_fk.pathwise_remainders", None),
    (cli, "backward_solve_semilinear", "bsde_semilinear.backward_solve_semilinear", _history_bytes),
    (cli, "backward_solve_2bsde", "bsde_full.backward_solve_2bsde", _history_bytes),
    (paths, "brownian_increments", "paths.brownian_increments", None),
    (regress, "fit", "regress.fit", _fit_counts),
    (regress, "predict", "regress.predict", None),
    (expr, "evaluate", "expr.evaluate", None),
    (hjb, "hamiltonian", "hjb.hamiltonian", None),
    (hjb, "extract_control", "hjb.extract_control", None),
)


def install(tracer: Tracer) -> None:
    """Replace the traced functions with wrapped ones, for this process only."""
    for owner, attr, name, attrs in TRACED:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))

    def traced_spec(build):
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            spec = build(*args, **kwargs)
            return dataclasses.replace(spec, **{
                k: tracer.wrap(f"model.{k}", getattr(spec, k))
                for k in SPEC_CALLABLES if getattr(spec, k) is not None
            })
        return wrapper

    model.catalog_get = traced_spec(model.catalog_get)
    model.problem_from_dict = traced_spec(model.problem_from_dict)


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli", cli.main)(cli_argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
