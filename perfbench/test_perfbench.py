"""Self-test of the benchmark: ``python3 -m pytest perfbench`` from the repo root."""

import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from parabolica import cli, model  # noqa: E402

import run  # noqa: E402
import traced_cli  # noqa: E402
from workloads import WORKLOADS, canonical_artifacts, gate  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_are_plain():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in DECLARED[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_declared_workloads_are_the_defined_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_every_per_layer_metric_comes_from_a_span():
    # A misspelt name would read as a layer that never ran, so 0 forever.
    spans = {"cli"} | {name for *_, name, _ in traced_cli.TRACED}
    spans |= {f"model.{k}" for k in traced_cli.SPEC_CALLABLES}
    fields = {"s", "self_s", "calls", "bytes", "rows", "cols", "rank_retries", "max_cond"}
    measured_by_run = {"cli.bytes_written", "bench.trace_overhead_s", "bench.self_time_coverage"}
    for metric in DECLARED["per_layer"]:
        name = run.ALIASES.get(metric["name"], metric["name"])
        if name in measured_by_run:
            continue
        span, field = name.rsplit(".", 1)
        assert span in spans and field in fields, name


def test_generated_configs_validate_and_repeat():
    for wl in WORKLOADS.values():
        obj = wl.config(7)
        assert obj == wl.config(7)
        assert obj["seed"] != wl.config(8)["seed"]
        config = cli.RunConfig.from_dict(obj, scheme=wl.scheme)
        if isinstance(config.problem, str):
            spec = model.catalog_get(config.problem)
        else:
            spec = model.problem_from_dict(config.problem)
        assert spec.dim == wl.d


def test_gate_can_fail(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"problem": "gbm_linear", "N": 8, "J": 4000, "seed": 3}))
    out = tmp_path / "out"
    code = cli.main(["solve-linear", "--config", str(config), "--out", str(out)])
    exact = math.exp(0.09)
    assert gate(code, out, exact, 0.05, None) == []
    assert gate(code, out, 2.0 * exact, 0.05, None)
    assert gate(1, out, exact, 0.05, None)

    reference = canonical_artifacts(out)
    assert gate(code, out, exact, 0.05, reference) == []
    steps = out / "steps.csv"
    steps.write_bytes(steps.read_bytes() + b"\n")
    assert gate(code, out, exact, 0.05, reference) == ["steps.csv differs from the reference run"]
