"""The benchmark tracer wraps package functions by name; those names must resolve.

``perfbench/traced_cli.py`` replaces attributes of the package's modules
with timed wrappers.  A rename in the package, or work moving between
spans, would otherwise surface only as a failing ``perfbench/run.py
--trace 1`` run, so small traced runs are made here too.  That benchmark
also requires a traced run to write the artifacts an untraced run writes,
and two traced runs of one config to record the same spans and counts;
the backward runs below check both.
"""

import collections
import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from parabolica import cli, model

TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("traced_cli_contract", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the table; installs nothing
    return module


def test_every_traced_attribute_resolves():
    tracer = _load_tracer()
    assert tracer.TRACED
    for owner, attr, name, _ in tracer.TRACED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


def test_traced_spec_builders_and_callables_exist():
    tracer = _load_tracer()
    assert callable(model.catalog_get) and callable(model.problem_from_dict)
    fields = {f.name for f in dataclasses.fields(model.ProblemSpec)}
    assert set(tracer.SPEC_CALLABLES) <= fields


def _traced_run(tmp_path, subcommand, config_obj, threads=1):
    """The spans of one traced run, as ``[name, start, end, parent, attrs]`` rows."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_obj))
    spans_path = tmp_path / "spans.json"
    argv = [sys.executable, str(TRACED_CLI), str(spans_path), subcommand,
            "--config", str(config), "--out", str(tmp_path / "out"), "--threads", str(threads)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans_path.read_text())
    assert spans["exit"] == 0
    roots = [span[0] for span in spans["spans"] if span[3] is None]
    assert roots == ["cli"]
    return spans["spans"]


def _artifacts(out_dir):
    """What the benchmark compares byte for byte: summary.json without environment, the CSVs."""
    summary = json.loads((out_dir / "summary.json").read_text())
    summary.pop("environment")
    files = {name: (out_dir / name).read_bytes()
             for name in ("steps.csv", "controls.csv") if (out_dir / name).exists()}
    return summary, files


def _counts(spans):
    """Calls per span name and each call's count attributes, in call order."""
    calls = collections.Counter(span[0] for span in spans)
    attrs = collections.defaultdict(list)
    for name, _, _, _, attr in spans:
        if attr is not None:
            attrs[name].append(attr)
    return calls, dict(attrs)


def _traced_runs_repeat_the_untraced_run(tmp_path, subcommand, config_obj):
    """Two traced runs: same artifacts as an untraced run, same spans and counts."""
    untraced = tmp_path / "untraced"
    untraced.mkdir()
    (untraced / "config.json").write_text(json.dumps(config_obj))
    assert cli.main([subcommand, "--config", str(untraced / "config.json"),
                     "--out", str(untraced / "out"), "--threads", "2"]) == 0
    expected = _artifacts(untraced / "out")
    counts = []
    for k in range(2):
        run_dir = tmp_path / f"traced{k}"
        run_dir.mkdir()
        counts.append(_counts(_traced_run(run_dir, subcommand, config_obj, threads=2)))
        assert _artifacts(run_dir / "out") == expected
    assert counts[0] == counts[1]
    return counts[0][0]


def test_traced_run_writes_one_cli_root_span(tmp_path):
    calls = _traced_runs_repeat_the_untraced_run(
        tmp_path, "solve-hjb", {"problem": "hjb_uncertain_vol", "N": 8, "J": 2000, "seed": 1})
    assert calls["regress.fit"] == 3 * 8


def test_traced_inline_run_spans_every_expression_evaluation(tmp_path):
    # Compiled coefficients must call expr.evaluate through the module, or
    # the tracer's wrapper never sees them.
    problem = {
        "dim": 2, "horizon": 1.0, "mu": ["0", "0"],
        "sigma": [["0.2*x[0]", "0"], ["0", "0.2*x[1]"]],
        "f": "-0.02*x[0]^2*gamma[0][0] - 0.02*x[1]^2*gamma[1][1]",
        "g": "x[0]^2 + x[1]^2", "x0": [1.0, 1.0],
    }
    calls = _traced_runs_repeat_the_untraced_run(
        tmp_path, "solve-2bsde",
        {"problem": problem, "scheme": "full_2bsde", "N": 4, "J": 500, "seed": 1})
    assert calls["expr.evaluate"] > 0


def test_threaded_traced_runs_repeat_their_span_counts(tmp_path):
    # The benchmark requires traced runs of one config to record the same
    # spans; path blocks must therefore never run partly on the main thread.
    config = {"problem": "gbm_linear", "N": 8, "J": 2000, "seed": 1}
    counts = []
    for k in range(2):
        run_dir = tmp_path / f"run{k}"
        run_dir.mkdir()
        counts.append(_counts(_traced_run(run_dir, "solve-linear", config, threads=2))[0])
    assert counts[0] == counts[1]
    assert counts[0]["paths.euler_simulate"] == 1


def test_a_linear_run_forms_its_functional_in_one_traced_pass(tmp_path):
    # The estimate comes back from the pass that streams the steps.csv rows.
    calls = _traced_runs_repeat_the_untraced_run(
        tmp_path, "solve-linear", {"problem": "gbm_linear", "N": 8, "J": 2000, "seed": 1})
    assert calls["linear_fk.pathwise_remainders"] == 1
    assert "linear_fk.feynman_kac_estimate" not in calls
