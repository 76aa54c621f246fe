"""End-to-end tests of the command-line interface.

Most tests drive ``cli.main`` in process; one subprocess test checks the
``python -m parabolica`` entry point produces the same bytes.
"""

import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import parabolica
from parabolica import backward, cli, hjb, model, paths, regress, verify
from parabolica.errors import ConfigError

HEAT_LINEAR = {"problem": "heat", "scheme": "linear", "J": 10, "N": 4, "seed": 1}


def _write_config(tmp_path, obj, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(tmp_path, command, config_obj, out="out", seed=None, threads=None):
    argv = [command, "--config", _write_config(tmp_path, config_obj)]
    argv += ["--out", str(tmp_path / out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return cli.main(argv)


def _summary(tmp_path, out="out"):
    return json.loads((tmp_path / out / "summary.json").read_text())


class TestConfigValidation:
    def test_malformed_json_exits_1_without_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"problem": "heat", not json')
        code = cli.main(
            ["solve-linear", "--config", str(bad), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ConfigError detail=")

    def test_non_object_config_is_rejected(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        assert cli.main(["solve-linear", "--config", str(bad)]) == 1

    def test_missing_config_file_exits_1(self, tmp_path):
        path = str(tmp_path / "nope.json")
        assert cli.main(["solve-linear", "--config", path]) == 1

    def test_unknown_key_is_rejected(self, tmp_path):
        cfg = dict(HEAT_LINEAR, typo_field=3)
        assert _run(tmp_path, "solve-linear", cfg) == 1

    def test_out_of_range_path_count_is_rejected(self, tmp_path, capsys):
        cfg = dict(HEAT_LINEAR, J=0)
        assert _run(tmp_path, "solve-linear", cfg) == 1
        assert "error=ConfigError" in capsys.readouterr().err

    def test_missing_grid_fields_are_rejected(self, tmp_path):
        cfg = {"problem": "heat", "scheme": "linear", "J": 10}
        assert _run(tmp_path, "solve-linear", cfg) == 1

    def test_scheme_subcommand_mismatch_exits_1(self, tmp_path, capsys):
        assert _run(tmp_path, "solve-2bsde", HEAT_LINEAR) == 1
        assert "full_2bsde" in capsys.readouterr().err

    def test_unknown_problem_exits_1(self, tmp_path, capsys):
        cfg = dict(HEAT_LINEAR, problem="wave")
        assert _run(tmp_path, "solve-linear", cfg) == 1
        assert "error=UnknownProblem" in capsys.readouterr().err

    def test_usage_errors_exit_1_and_help_exits_0(self, capsys):
        assert cli.main([]) == 1
        assert cli.main(["solve-linear"]) == 1
        assert cli.main(["--help"]) == 0
        capsys.readouterr()


NAN, INF = float("nan"), float("inf")
ACCEPT, REJECT = "accept", "reject"
# A non-finite number: JSON Schema's "number" type admits it, the
# finite-number reader refuses it.
NOW_REJECTED = "now-rejected"


def _cases(obj, key, *values_and_outcomes):
    return [(obj, key, value, outcome) for value, outcome in values_and_outcomes]


# (object, key, value, outcome): values at and just past each bound, a
# wrong type and the non-finite numbers, for every run-config key.
CONFIG_KEY_CASES = [
    *_cases("config", "problem", ("heat", ACCEPT), ({}, ACCEPT), (5, REJECT), (None, REJECT)),
    *_cases("config", "scheme", ("linear", ACCEPT), ("Linear", REJECT), (1, REJECT)),
    *_cases("config", "t0", (-0.5, ACCEPT), (0, ACCEPT), ("0", REJECT), (True, REJECT),
            (NAN, REJECT), (INF, REJECT)),
    *_cases("config", "x0", ([0.0], ACCEPT), ([0.5] * 16, ACCEPT), ([], REJECT),
            ([0.5] * 17, REJECT), (0.0, REJECT), (["0"], REJECT), ([False], REJECT),
            ([NAN], REJECT), ([-INF], REJECT)),
    *_cases("config", "N", (1, ACCEPT), (100_000, ACCEPT), (4.0, ACCEPT), (0, REJECT),
            (100_001, REJECT), (4.5, REJECT), ("4", REJECT), (True, REJECT), (NAN, REJECT),
            (INF, REJECT)),
    *_cases("config", "J", (1, ACCEPT), (10_000_000, ACCEPT), (0, REJECT),
            (10_000_001, REJECT), (None, REJECT)),
    *_cases("config", "seed", (0, ACCEPT), (2**63 - 1, ACCEPT), (-1, REJECT), (2**63, REJECT),
            (1.5, REJECT)),
    *_cases("config", "picard_iters", (1, ACCEPT), (64, ACCEPT), (0, REJECT), (65, REJECT)),
    *_cases("config", "threads", (1, ACCEPT), (1024, ACCEPT), (0, REJECT), (1025, REJECT)),
    *_cases("config", "dump_paths", (True, ACCEPT), (False, ACCEPT), (1, REJECT),
            ("true", REJECT)),
    *_cases("config", "basis", ({}, ACCEPT), (5, REJECT), ([], REJECT)),
    *_cases("config", "verify", ({}, ACCEPT), ("all", REJECT)),
    *_cases("config", "typo", (1, REJECT)),
    *_cases("basis", "kind", ("polynomial", ACCEPT), ("piecewise_constant", ACCEPT),
            ("spline", REJECT), (None, REJECT)),
    *_cases("basis", "degree", (0, ACCEPT), (10, ACCEPT), (-1, REJECT), (11, REJECT),
            (2.5, REJECT)),
    *_cases("basis", "bins", (1, ACCEPT), (1024, ACCEPT), (0, REJECT), (1025, REJECT)),
    *_cases("basis", "ridge", (0, ACCEPT), (1e-6, ACCEPT), (-1e-12, REJECT), ("0", REJECT),
            (NAN, REJECT), (INF, REJECT)),
    *_cases("basis", "typo", (1, REJECT)),
    *_cases("verify", "x_lo", (-7, ACCEPT), (0.5, ACCEPT), ("a", REJECT), (NAN, NOW_REJECTED),
            (-INF, NOW_REJECTED)),
    *_cases("verify", "x_hi", (7, ACCEPT), (True, REJECT), (NAN, NOW_REJECTED),
            (INF, NOW_REJECTED)),
    *_cases("verify", "M", (3, ACCEPT), (100_001, ACCEPT), (2, REJECT), (100_002, REJECT),
            (3.5, REJECT)),
    *_cases("verify", "window", ([-1, 1], ACCEPT), ([0.5, 0.5], ACCEPT), ([1], REJECT),
            ([1, 2, 3], REJECT), (["a", 1], REJECT), ([NAN, 1], NOW_REJECTED),
            ([-INF, INF], NOW_REJECTED)),
    *_cases("verify", "fd_tol", (1e-12, ACCEPT), (1, ACCEPT), (0, REJECT), (-1, REJECT),
            ("1", REJECT), (NAN, NOW_REJECTED), (INF, NOW_REJECTED)),
    *_cases("verify", "fd_relative", (True, ACCEPT), (1, REJECT)),
    *_cases("verify", "residual_Ns", ([2], ACCEPT), ([100_000], ACCEPT), ([2] * 16, ACCEPT),
            ([], REJECT), ([2] * 17, REJECT), ([1], REJECT), ([100_001], REJECT),
            ([2.5], REJECT), (2, REJECT)),
    *_cases("verify", "residual_J", (2, ACCEPT), (10_000_000, ACCEPT), (1, REJECT),
            (10_000_001, REJECT)),
    *_cases("verify", "ratio_min", (1e-12, ACCEPT), (0, REJECT), (NAN, NOW_REJECTED),
            (INF, NOW_REJECTED)),
    *_cases("verify", "typo", (1, REJECT)),
]


def _case_id(case):
    obj, key, value, outcome = case
    text = json.dumps(value)
    if len(text) > 20:
        text = f"list{len(value)}"
    return f"{obj}.{key}={text}-{outcome}"


def _case_config(obj, key, value):
    """A valid config with ``value`` at ``key`` of ``obj``, and the subcommand to run it."""
    if obj == "verify":
        return {"problem": "heat", "verify": {key: value}}, "verify"
    cfg = {"problem": "heat", "N": 4, "J": 10}
    if obj == "basis":
        cfg["basis"] = {key: value}
    else:
        cfg[key] = value
    return cfg, "solve-linear"


class TestConfigKeyBoundaries:
    @pytest.mark.parametrize("case", CONFIG_KEY_CASES, ids=_case_id)
    def test_each_key_accepts_its_range_and_rejects_the_rest(self, tmp_path, capsys, case):
        obj, key, value, outcome = case
        cfg, command = _case_config(obj, key, value)
        if outcome == ACCEPT:
            scheme = cli._SUBCOMMANDS[command]
            config = cli.RunConfig.from_dict(json.loads(json.dumps(cfg)), scheme=scheme)
            assert cli.RunConfig.from_dict(config.echo()).echo() == config.echo()
            return
        assert _run(tmp_path, command, cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ConfigError detail=")
        detail = err.split("detail=", 1)[1]
        assert f"'{key}'" in detail or detail.startswith(f"{key} definition")


class TestDeterminism:
    def test_rerun_is_byte_identical_minus_environment(self, tmp_path):
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="a") == 0
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="b") == 0
        csv_a = (tmp_path / "a" / "steps.csv").read_bytes()
        csv_b = (tmp_path / "b" / "steps.csv").read_bytes()
        assert csv_a == csv_b
        sa, sb = _summary(tmp_path, "a"), _summary(tmp_path, "b")
        sa.pop("environment")
        sb.pop("environment")
        assert sa == sb

    def test_thread_count_cannot_change_artifacts(self, tmp_path):
        cfg = {
            "problem": "semilinear_exp",
            "scheme": "semilinear",
            "J": 600,
            "N": 6,
            "seed": 3,
        }
        blobs = {}
        for threads in (1, 2, 8):
            out = f"t{threads}"
            assert _run(tmp_path, "solve-semilinear", cfg, out=out, threads=threads) == 0
            blobs[threads] = (tmp_path / out / "steps.csv").read_bytes()
        assert blobs[1] == blobs[2] == blobs[8]

    @pytest.mark.parametrize("problem", ["gbm_linear", "boundary_heat"])
    def test_thread_count_cannot_change_the_linear_stream(self, tmp_path, problem):
        cfg = {"problem": problem, "scheme": "linear", "J": 3001, "N": 16, "seed": 6}
        blobs = {}
        for threads in (1, 2, 8):
            out = f"t{threads}"
            assert _run(tmp_path, "solve-linear", cfg, out=out, threads=threads) == 0
            blobs[threads] = (tmp_path / out / "steps.csv").read_bytes()
        assert blobs[1] == blobs[2] == blobs[8]

    @pytest.mark.parametrize("command, problem", [("solve-2bsde", "bsb_uncertain_vol"),
                                                  ("solve-hjb", "hjb_uncertain_vol")])
    def test_thread_count_cannot_change_the_backward_stream(self, tmp_path, command, problem):
        cfg = {"problem": problem, "J": 3001, "N": 16, "seed": 6}
        blobs = {}
        for threads in (1, 2, 8):
            out = f"t{threads}"
            assert _run(tmp_path, command, cfg, out=out, threads=threads) == 0
            summary = _summary(tmp_path, out)
            summary.pop("environment")
            blobs[threads] = [summary] + [(tmp_path / out / name).read_bytes()
                                          for name in ("steps.csv", "controls.csv")
                                          if (tmp_path / out / name).exists()]
        assert len(blobs[1]) == (3 if command == "solve-hjb" else 2)
        assert blobs[1] == blobs[2] == blobs[8]

    def test_threads_env_var_is_a_fallback(self, tmp_path, monkeypatch):
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="plain") == 0
        monkeypatch.setenv("PARABOLICA_THREADS", "4")
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="env") == 0
        assert (tmp_path / "plain" / "steps.csv").read_bytes() == (
            tmp_path / "env" / "steps.csv"
        ).read_bytes()

    def test_config_echo_round_trips(self, tmp_path):
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="first") == 0
        echo = _summary(tmp_path, "first")["config"]
        assert cli.RunConfig.from_dict(echo).echo() == echo
        assert _run(tmp_path, "solve-linear", echo, out="second") == 0
        assert (tmp_path / "first" / "steps.csv").read_bytes() == (
            tmp_path / "second" / "steps.csv"
        ).read_bytes()
        s1, s2 = _summary(tmp_path, "first"), _summary(tmp_path, "second")
        s1.pop("environment")
        s2.pop("environment")
        assert s1 == s2


class TestAllocatorPolicy:
    CONFIG = {"problem": "hjb_uncertain_vol", "scheme": "hjb", "J": 2000, "N": 8, "seed": 2}

    @staticmethod
    def _artifacts(tmp_path, out):
        summary = _summary(tmp_path, out)
        summary.pop("environment")
        return [summary] + [(tmp_path / out / name).read_bytes()
                            for name in ("steps.csv", "controls.csv")]

    def test_the_thresholds_are_set_through_mallopt(self, tmp_path, monkeypatch):
        calls = []
        libc = type("FakeLibc", (), {"mallopt": staticmethod(lambda *a: calls.append(a) or 1)})
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc())
        assert _run(tmp_path, "solve-hjb", self.CONFIG) == 0
        # M_MMAP_THRESHOLD (-3) at 32 MiB, then M_TRIM_THRESHOLD (-1) at 128 MiB.
        assert calls == [(-3, 32 << 20), (-1, 128 << 20)]

    @pytest.mark.parametrize("missing", ["library", "mallopt"])
    def test_a_c_library_without_mallopt_changes_nothing(self, tmp_path, monkeypatch, missing):
        assert _run(tmp_path, "solve-hjb", self.CONFIG, out="policy") == 0

        def no_library(name):
            raise OSError("no C library")

        no_mallopt = lambda name: type("BareLibc", (), {})()
        monkeypatch.setattr(cli.ctypes, "CDLL", no_library if missing == "library" else no_mallopt)
        assert _run(tmp_path, "solve-hjb", self.CONFIG, out="fallback") == 0
        assert self._artifacts(tmp_path, "fallback") == self._artifacts(tmp_path, "policy")


class TestArtifacts:
    def test_linear_steps_csv_layout(self, tmp_path):
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR) == 0
        lines = (tmp_path / "out" / "steps.csv").read_text().splitlines()
        assert lines[0] == "n,t,mean_Y,rms_Y_err"
        assert len(lines) == 1 + 5
        grid = paths.TimeGrid(0.0, 1.0, 4)
        for n, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(n)
            assert float(cells[1]) == grid.times[n]
        # 17 significant digits round-trip: the n=0 mean is the estimate.
        assert float(lines[1].split(",")[2]) == _summary(tmp_path)["value"]
        # Terminal remainder is the payoff itself, so its error is zero.
        assert float(lines[-1].split(",")[3]) == 0.0

    def test_error_column_needs_an_analytic_solution(self, tmp_path):
        cfg = {
            "problem": {
                "dim": 1,
                "horizon": 1.0,
                "mu": ["0"],
                "sigma": [["1"]],
                "f": "0 - y - trace(gamma) / 2",
                "g": "x[0]",
                "x0": [0.5],
            },
            "scheme": "semilinear",
            "J": 200,
            "N": 4,
            "seed": 1,
        }
        assert _run(tmp_path, "solve-semilinear", cfg) == 0
        header = (tmp_path / "out" / "steps.csv").read_text().splitlines()[0]
        assert header == "n,t,mean_Y,mean_Z_0"

    def test_full_scheme_reports_gamma_columns(self, tmp_path):
        cfg = {"problem": "heat", "scheme": "full_2bsde", "J": 300, "N": 4, "seed": 2}
        assert _run(tmp_path, "solve-2bsde", cfg) == 0
        lines = (tmp_path / "out" / "steps.csv").read_text().splitlines()
        assert lines[0] == "n,t,mean_Y,rms_Y_err,mean_Z_0,mean_Gamma_00"
        # Terminal pinning makes the last error cell exactly zero.
        assert lines[-1].split(",")[3] == "0"

    def test_hjb_writes_controls_csv(self, tmp_path):
        cfg = {"problem": "hjb_uncertain_vol", "scheme": "hjb", "J": 400, "N": 4, "seed": 5}
        assert _run(tmp_path, "solve-hjb", cfg) == 0
        lines = (tmp_path / "out" / "controls.csv").read_text().splitlines()
        assert lines[0] == "n,t,mean_u_0"
        assert len(lines) == 1 + 5
        for line in lines[1:]:
            u = float(line.split(",")[2])
            assert 0.1 <= u <= 0.2

    def test_inline_control_block_matches_the_catalog_control_problem(self, tmp_path, monkeypatch):
        # The inline block restates uncertain_volatility_control over the
        # bsb_uncertain_vol dynamics; it is compiled once, by the problem
        # builder, and the CLI reads it back from the spec.
        compiled = []
        build = hjb.control_problem_from_dict

        def counting_build(*args, **kwargs):
            compiled.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(hjb, "control_problem_from_dict", counting_build)
        inline = {
            "dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["0.15*x[0]"]],
            "g": "x[0]^2", "dg": ["2*x[0]"], "x0": [1.0],
            "control": {"control_dim": 1, "lower": [0.1], "upper": [0.2],
                        "a": [["u[0]*x[0]"]]},
        }
        runs = {"inline": inline, "catalog": "hjb_uncertain_vol"}
        for out, problem in runs.items():
            cfg = {"problem": problem, "scheme": "hjb", "J": 4000, "N": 16, "seed": 3}
            assert _run(tmp_path, "solve-hjb", cfg, out=out) == 0
        assert compiled == [1]
        assert _summary(tmp_path, "inline")["value"] == _summary(tmp_path, "catalog")["value"]
        controls = [(tmp_path / out / "controls.csv").read_bytes() for out in runs]
        assert controls[0] == controls[1]

    @staticmethod
    def _kinked_problem(**extra):
        # |sin(1000 x)| / 1000 has slope +-1 with a kink every pi/1000.
        return dict({
            "dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["1"]], "f": "-0.5*gamma[0][0]",
            "g": "abs(sin(1000*x[0]))/1000", "x0": [0.0],
        }, **extra)

    def test_kink_fraction_is_reported_when_the_gradient_is_differenced(self, tmp_path):
        cfg = {"problem": self._kinked_problem(), "scheme": "semilinear",
               "J": 2000, "N": 4, "seed": 3}
        assert _run(tmp_path, "solve-semilinear", cfg) == 0
        spec = model.problem_from_dict(self._kinked_problem())
        grid = paths.TimeGrid(0.0, spec.horizon, 4)
        batch = paths.euler_simulate(spec, grid, spec.x0_default, J=2000, seed=3)
        sol = backward.backward_solve_semilinear(spec, batch, cli.BasisSpec())
        fraction = sol.diagnostics["terminal_kink_fraction"]
        assert fraction > 0
        assert _summary(tmp_path)["terminal_kink_fraction"] == fraction

    def test_kink_fraction_is_absent_with_a_declared_gradient(self, tmp_path):
        dg = ["cos(1000*x[0])*sin(1000*x[0])/abs(sin(1000*x[0]))"]
        cfg = {"problem": self._kinked_problem(dg=dg), "scheme": "semilinear",
               "J": 2000, "N": 4, "seed": 3}
        assert _run(tmp_path, "solve-semilinear", cfg) == 0
        assert "terminal_kink_fraction" not in _summary(tmp_path)

    def test_simulate_dump_decodes_to_the_batch(self, tmp_path):
        cfg = {"problem": "boundary_heat", "scheme": "simulate", "J": 50, "N": 6, "seed": 2}
        assert _run(tmp_path, "simulate", cfg) == 0
        blob = (tmp_path / "out" / "paths.bin").read_bytes()
        buf = io.BytesIO(blob)
        times = np.load(buf, allow_pickle=False)
        X = np.load(buf, allow_pickle=False)
        dW = np.load(buf, allow_pickle=False)
        stop = np.load(buf, allow_pickle=False)
        assert buf.tell() == len(blob)

        spec = model.catalog_get("boundary_heat")
        grid = paths.TimeGrid(0.0, spec.horizon, 6)
        batch = paths.euler_simulate(spec, grid, spec.x0_default, J=50, seed=2)
        assert np.array_equal(times, grid.times)
        assert np.array_equal(X, batch.X)
        assert np.array_equal(dW, batch.dW)
        assert np.array_equal(stop, batch.stop_index)
        loaded = paths.load_batch(str(tmp_path / "out" / "paths.bin"))
        assert loaded.grid == grid and loaded.J == 50
        for got, want in ((loaded.X, X), (loaded.dW, dW), (loaded.stop_index, stop)):
            assert np.array_equal(got, want)

        payoff = spec.g(batch.X[:, -1])
        summary = _summary(tmp_path)
        assert summary["value"] == np.mean(payoff)

    @pytest.mark.parametrize("command, extra, keeps", [
        ("solve-linear", {}, False),
        ("solve-linear", {"dump_paths": True}, True),
        ("simulate", {}, True),
        ("solve-semilinear", {}, True),
    ])
    def test_only_a_run_that_reads_dw_keeps_it(self, tmp_path, monkeypatch, command, extra, keeps):
        seen = []
        simulate = cli.euler_simulate

        def record(*args, **kwargs):
            batch = simulate(*args, **kwargs)
            seen.append(batch.dW.shape[1])
            return batch

        monkeypatch.setattr(cli, "euler_simulate", record)
        cfg = dict(HEAT_LINEAR, scheme=cli._SUBCOMMANDS[command], **extra)
        assert _run(tmp_path, command, cfg) == 0
        assert seen == [4 if keeps else 0]

    def test_dump_paths_flag_on_a_solve_run(self, tmp_path):
        cfg = dict(HEAT_LINEAR, dump_paths=True)
        assert _run(tmp_path, "solve-linear", cfg) == 0
        assert (tmp_path / "out" / "paths.bin").exists()
        assert _summary(tmp_path)["config"]["dump_paths"] is True

    def test_summary_quarantines_environment_facts(self, tmp_path):
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR) == 0
        summary = _summary(tmp_path)
        assert set(summary) == {"value", "stderr", "config", "environment"}
        env = summary["environment"]
        assert set(env) == {"runtime_seconds", "host", "build"}
        assert env["runtime_seconds"] > 0
        assert isinstance(summary["value"], float)
        assert isinstance(summary["stderr"], float)


class TestVerifySubcommand:
    SMALL = {"residual_Ns": [16, 32], "residual_J": 2000}

    def test_heat_verify_passes(self, tmp_path):
        cfg = {"problem": "heat", "scheme": "verify", "verify": self.SMALL}
        assert _run(tmp_path, "verify", cfg) == 0
        summary = _summary(tmp_path)
        assert summary["value"] is None
        assert summary["stderr"] is None
        checks = {c["name"]: c for c in summary["checks"]}
        assert set(checks) == {"fd_oracle", "residual_rate", "terminal_identity"}
        assert all(c["pass"] for c in checks.values())

    def test_verify_simulates_with_the_resolved_thread_count(self, tmp_path, monkeypatch):
        seen = []
        simulate = verify.euler_simulate

        def record(*args, **kwargs):
            seen.append((kwargs.get("threads"), kwargs.get("keep_increments")))
            return simulate(*args, **kwargs)

        monkeypatch.setattr(verify, "euler_simulate", record)
        cfg = {"problem": "heat", "scheme": "verify", "verify": self.SMALL}
        assert _run(tmp_path, "verify", cfg, threads=2) == 0
        # The residuals read X and stop_index only, so no dW is kept.
        assert seen == [(2, False), (2, False)]

    def test_failing_check_exits_3_but_writes_the_report(self, tmp_path):
        cfg = {
            "problem": "heat",
            "scheme": "verify",
            "verify": dict(self.SMALL, ratio_min=50.0),
        }
        assert _run(tmp_path, "verify", cfg) == 3
        checks = {c["name"]: c for c in _summary(tmp_path)["checks"]}
        assert not checks["residual_rate"]["pass"]

    def test_verify_needs_an_analytic_solution(self, tmp_path, capsys):
        # Inline problems never carry an analytic solution.
        cfg = {
            "problem": {
                "dim": 1,
                "horizon": 1.0,
                "mu": ["0"],
                "sigma": [["1"]],
                "f": "0 - trace(gamma) / 2",
                "g": "x[0]",
                "x0": [0.0],
            },
            "scheme": "verify",
        }
        assert _run(tmp_path, "verify", cfg) == 1
        assert "error=MissingAnalyticV" in capsys.readouterr().err

    def test_a_window_without_a_grid_node_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("fd_solve_1d must not run")

        monkeypatch.setattr(verify, "fd_solve_1d", never)
        cfg = {"problem": "heat", "scheme": "verify", "verify": {"window": [100, 200]}}
        assert _run(tmp_path, "verify", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ConfigError detail=verify window [100, 200]")
        with pytest.raises(ConfigError, match="holds no finite-difference node"):
            verify.verify_problem(model.catalog_get("heat"), window=(NAN, 1.0))

    @pytest.mark.parametrize("x_lo, x_hi", [(0, 1e-300), (0, 1e-160), (0, 3.2e-154),
                                            (-1e308, 1e308)],
                             ids=["zero-spacing", "uncountable-steps",
                                  "uncountable-with-safety", "infinite-width"])
    def test_a_degenerate_interval_is_one_config_error_line(self, tmp_path, capsys, recwarn,
                                                            x_lo, x_hi):
        cfg = {"problem": "heat", "verify": {"x_lo": x_lo, "x_hi": x_hi, "M": 5}}
        assert _run(tmp_path, "verify", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ConfigError "
                              f"detail=finite-difference interval [{float(x_lo)}, {x_hi}]")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_a_verify_run_larger_than_memory_is_refused_before_computing(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("a verify run this large must not compute anything")

        monkeypatch.setattr(verify, "fd_solve_1d", never)
        monkeypatch.setattr(verify, "euler_simulate", never)
        cfg = {"problem": "heat", "scheme": "verify", "verify": {"M": 100_001}}
        assert _run(tmp_path, "verify", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        grid = verify.FdGrid.for_problem(model.catalog_get("heat"), -6.0, 6.0, 100_001)
        assert grid.N_fd == 86_805_557
        # The (N_fd + 1, M) surface and its truth stack, and the largest
        # residual batch: X of 10^4 paths over 128 steps and stop_index; the
        # residuals read no dW, so none is kept.
        nbytes = 2 * 8 * (grid.N_fd + 1) * 100_001 + 8 * (10_000 * 129 + 10_000)
        assert err.startswith("parabolica: exit=1 error=ConfigError "
                              f"detail=a verify run needs {nbytes} bytes")


class TestExitCodes:
    def test_solve_linear_refuses_a_non_linear_problem_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("a problem solve-linear refuses must not be simulated")

        monkeypatch.setattr(cli, "euler_simulate", never)
        cfg = {"problem": "bsb_uncertain_vol", "J": 10, "N": 4}
        assert _run(tmp_path, "solve-linear", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ConfigError detail=problem "
                              "'bsb_uncertain_vol' declares no linear coefficients")

    @pytest.mark.parametrize("command, problem, line", [
        ("solve-2bsde", {"dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["1"]],
                         "f": "0.5*gamma[0][0]", "g": "x[0]^2", "name": "heat_flipped"},
         "exit=1 error=ConfigError detail=driver of 'heat_flipped' increases in gamma at t="),
        ("solve-2bsde", {"dim": 2, "horizon": 1.0, "mu": ["0", "0"],
                         "sigma": [["1", "0"], ["0", "1"]],
                         "f": "-0.5*gamma[0][0] + 0.1*gamma[1][1]", "g": "x[0]*x[1]",
                         "name": "rising"},
         "exit=1 error=ConfigError detail=driver of 'rising' increases in gamma at t="),
        ("solve-semilinear", "discount_bond", "exit=1 error=GammaDependence detail="),
        ("solve-hjb", {"dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["0.15*x[0]"]],
                       "g": "x[0]^2", "x0": [1.0],
                       "control": {"control_dim": 1, "lower": [0.1], "upper": [0.2],
                                   "alpha": "log(x[0])", "a": [["u[0]*x[0]"]]}},
         "exit=2 error=NonFinite detail="),
    ], ids=["flipped-heat", "rising-d2", "semilinear", "hjb"])
    def test_a_driver_the_screen_refuses_is_refused_before_simulating(
        self, tmp_path, capsys, monkeypatch, command, problem, line
    ):
        def never(*args, **kwargs):
            raise AssertionError("a driver the screen refuses must not be simulated")

        monkeypatch.setattr(cli, "euler_simulate", never)
        cfg = {"problem": problem, "J": 100_000, "N": 64}
        assert _run(tmp_path, command, cfg) == int(line[5])
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: " + line)
        assert not (tmp_path / "out").exists()

    def test_gamma_dependent_driver_is_a_validation_failure(self, tmp_path, capsys):
        cfg = {"problem": "discount_bond", "scheme": "semilinear", "J": 10, "N": 4}
        assert _run(tmp_path, "solve-semilinear", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("parabolica: exit=1 error=GammaDependence detail=")

    def test_driver_increasing_in_gamma_is_one_config_error_line(self, tmp_path, capsys):
        problem = dict(self.INLINE, f="0.5*gamma[0][0]", name="heat_flipped")
        cfg = {"problem": problem, "scheme": "full_2bsde", "J": 10, "N": 2}
        assert _run(tmp_path, "solve-2bsde", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ConfigError detail=driver of "
                              "'heat_flipped' increases in gamma at t=")
        assert "(margin -" in err
        assert not (tmp_path / "out").exists()

    def test_beta_not_finite_at_a_sampled_state_is_one_config_error_line(self, tmp_path, capsys):
        control = dict(self.CONTROL, beta="log(x[0])")
        problem = dict(self.INLINE, f=None, x0=[1.0], control=control)
        cfg = {"problem": problem, "scheme": "hjb", "J": 10, "N": 2}
        assert _run(tmp_path, "solve-hjb", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ConfigError detail=")
        assert "beta" in err.split("detail=")[1]

    def test_hjb_without_a_control_problem_exits_1(self, tmp_path, capsys):
        cfg = {"problem": "heat", "scheme": "hjb", "J": 10, "N": 4}
        assert _run(tmp_path, "solve-hjb", cfg) == 1
        assert "error=ConfigError" in capsys.readouterr().err

    def test_singular_diffusion_is_a_numeric_failure(self, tmp_path, capsys):
        cfg = {
            "problem": {
                "dim": 1,
                "horizon": 1.0,
                "mu": ["0"],
                "sigma": [["0"]],
                "f": "0 - y",
                "g": "x[0]",
                "x0": [0.5],
            },
            "scheme": "semilinear",
            "J": 10,
            "N": 4,
        }
        assert _run(tmp_path, "solve-semilinear", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("parabolica: exit=2 error=SingularSigma detail=")

    def test_overflowing_source_is_a_numeric_failure(self, tmp_path, capsys, recwarn):
        cfg = {
            "problem": {
                "dim": 1,
                "horizon": 1.0,
                "mu": ["0"],
                "sigma": [["1"]],
                "f": "0",
                "g": "x[0]",
                "x0": [0.0],
                "linear": {"alpha": "1", "beta": "800"},
            },
            "scheme": "linear",
            "J": 10,
            "N": 16,
        }
        assert _run(tmp_path, "solve-linear", cfg) == 2
        assert "error=NonFinite" in capsys.readouterr().err
        # A numpy warning would be a second stderr line.
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_driver_non_finite_early_in_the_horizon_fails_at_the_screen(self, tmp_path, capsys):
        cfg = {
            "problem": {
                "dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["0.2*x[0]"]],
                "f": "-0.5*0.04*x[0]^2*gamma[0][0] + sqrt(t - 0.3)",
                "g": "x[0]^2", "dg": ["2*x[0]"], "x0": [1.0],
            },
            "scheme": "full_2bsde", "J": 2000, "N": 16, "seed": 3,
        }
        with np.errstate(invalid="ignore"):
            assert _run(tmp_path, "solve-2bsde", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("parabolica: exit=2 error=NonFinite detail=transformed driver")

    @pytest.mark.parametrize("discounted", [False, True], ids=["catalog", "discounted"])
    def test_a_non_finite_z_exits_2_naming_its_step(self, tmp_path, capsys, monkeypatch,
                                                     discounted):
        # Each step predicts Gamma, Z and Y in that order: the fifth call
        # is the Z of node 2, the second step of four.
        real, calls = regress.predict, []

        def poisoned(reg, dsg):
            out = real(reg, dsg)
            calls.append(1)
            if len(calls) == 5:
                out[0] = np.inf
            return out

        monkeypatch.setattr(regress, "predict", poisoned)
        problem = TestMemoryEstimate.X_DEPENDENT if discounted else "hjb_uncertain_vol"
        cfg = {"problem": problem, "J": 200, "N": 4, "seed": 1}
        assert _run(tmp_path, "solve-hjb", cfg) == 2
        assert len(calls) == 5
        err = capsys.readouterr().err
        assert err == ("parabolica: exit=2 error=NonFinite detail=non-finite backward value "
                       "at step 2\n")

    def test_no_partial_artifacts_after_a_numeric_failure(self, tmp_path):
        cfg = {"problem": "discount_bond", "scheme": "semilinear", "J": 10, "N": 4}
        _run(tmp_path, "solve-semilinear", cfg)
        assert not (tmp_path / "out").exists()

    INLINE = {"dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["1"]],
              "f": "-0.5*trace(gamma)", "g": "x[0]^2", "x0": [0.0]}
    CONTROL = {"control_dim": 1, "lower": [0.1], "upper": [0.2], "a": [["u[0]*x[0]"]]}

    @pytest.mark.parametrize("key, problem", [
        ("alpha", dict(INLINE, linear={"alpha": ["0"], "beta": "0"})),
        ("lower", dict(INLINE, domain={"upper": [2.0]})),
        ("growth", dict(INLINE, growth={"q": 1})),
        ("dim", dict(INLINE, dim="one")),
        ("mu", dict(INLINE, mu=5)),
        ("lower", dict(INLINE, f=None, control=dict(CONTROL, lower=["a"]))),
        ("control_dim", dict(INLINE, f=None, control=dict(CONTROL, control_dim="k"))),
        ("resolution", dict(INLINE, f=None, control=dict(CONTROL, resolution="x"))),
        # Unknown keys.
        ("domian", dict(INLINE, domian={"lower": [-1.0], "upper": [2.0]})),
        ("resoluton", dict(INLINE, f=None, control=dict(CONTROL, resoluton=3))),
        ("lowr", dict(INLINE, domain={"lowr": [-1.0], "lower": [-1.0], "upper": [2.0]})),
        ("gamma", dict(INLINE, linear={"alpha": "0", "beta": "0", "gamma": "0"})),
        # Numbers that are not finite JSON numbers.
        ("horizon", dict(INLINE, horizon="1")),
        ("horizon", dict(INLINE, horizon=True)),
        ("lower", dict(INLINE, domain={"lower": ["-1"], "upper": [2.0]})),
        ("growth", dict(INLINE, growth={"p2": NAN})),
        ("x0", dict(INLINE, x0=[INF])),
        ("upper", dict(INLINE, f=None, control=dict(CONTROL, upper=[True]))),
    ], ids=["linear-alpha", "domain-lower", "growth-key", "dim", "mu",
            "control-lower", "control-dim", "control-resolution",
            "unknown-problem-key", "unknown-control-key", "unknown-domain-key",
            "unknown-linear-key", "horizon-string", "horizon-boolean", "domain-string",
            "growth-nan", "x0-infinity", "control-boolean"])
    def test_malformed_inline_problem_is_one_config_error_line(self, tmp_path, capsys, key, problem):
        cfg = {"problem": problem, "scheme": "full_2bsde", "J": 10, "N": 2}
        assert _run(tmp_path, "solve-2bsde", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ConfigError detail=")
        assert key in err.split("detail=")[1]


    def test_syntax_error_names_the_coefficient(self, tmp_path, capsys):
        problem = dict(self.INLINE, sigma=[["x[0]+"]])
        cfg = {"problem": problem, "scheme": "full_2bsde", "J": 10, "N": 2}
        assert _run(tmp_path, "solve-2bsde", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ExprSyntaxError detail=sigma 'x[0]+': ")

    NEST_99 = "(" * 99 + "x[0]" + ")" * 99

    @pytest.mark.parametrize("g", ["+".join(["x[0]"] * 200), NEST_99,
                                   "+".join(["x[0]"] * 199) + "-" + NEST_99],
                             ids=["sum-of-200", "99-brackets", "both"])
    def test_an_expression_at_the_depth_bounds_runs(self, tmp_path, g):
        cfg = {"problem": dict(self.INLINE, g=g), "scheme": "full_2bsde", "J": 10, "N": 2}
        assert _run(tmp_path, "solve-2bsde", cfg) == 0

    @pytest.mark.parametrize("g, detail", [
        ("+".join(["x[0]"] * 1000), "the expression tree is more than 200 levels deep"),
        ("(" * 300 + "x[0]" + ")" * 300, "operands nest more than 100 levels deep"),
    ], ids=["sum-of-1000", "300-brackets"])
    def test_an_expression_past_the_depth_bounds_is_one_syntax_error_line(
            self, tmp_path, capsys, g, detail):
        cfg = {"problem": dict(self.INLINE, g=g), "scheme": "full_2bsde", "J": 10, "N": 2}
        assert _run(tmp_path, "solve-2bsde", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.count("parabolica: exit=1") == 1
        assert err.startswith(f"parabolica: exit=1 error=ExprSyntaxError detail=g '{g[:77]}...': ")
        assert detail in err

    def test_a_run_larger_than_memory_is_refused_before_simulating(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("euler_simulate must not run")

        monkeypatch.setattr(cli, "euler_simulate", never)
        cfg = {"problem": "heat", "scheme": "linear", "J": 10_000_000, "N": 100_000}
        assert _run(tmp_path, "solve-linear", cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        # The run's 128 KiB fixed overhead; X of 1e7 paths over 1e5 steps
        # and stop_index (no dW: the linear pass does not read it); then
        # Euler's five float columns, which outnumber the four of a linear
        # pass with neither alpha nor beta; and 4 + d boolean ones.
        assert err.startswith("parabolica: exit=1 error=ConfigError detail=a linear run "
                              "needs 8000610131072 bytes")

    # A payoff of about 1e300 on every path: finite samples whose sample
    # variance overflows.
    HUGE = {"dim": 1, "horizon": 1, "mu": ["0"], "sigma": [["1"]], "g": "x[0]^2",
            "dg": ["2*x[0]"], "f": "-0.5*gamma[0][0]", "linear": {}, "x0": [1e150]}

    @pytest.mark.parametrize("command", ["simulate", "solve-linear", "solve-semilinear",
                                         "solve-2bsde", "solve-hjb"])
    def test_a_non_finite_estimate_exits_2_without_artifacts(self, tmp_path, capsys, recwarn,
                                                             command):
        problem = self.HUGE
        if command == "solve-hjb":
            problem = {k: v for k, v in self.HUGE.items() if k != "linear"}
            problem.update(f=None, control=dict(self.CONTROL, a=[["u[0]"]]))
        assert _run(tmp_path, command, {"problem": problem, "J": 100, "N": 4}) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=2 error=NonFinite detail=non-finite estimate: "
                              "value ")
        assert err.endswith("e+299, stderr inf\n")
        assert not (tmp_path / "out").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_an_overflowing_terminal_hessian_is_one_line(self, tmp_path, capsys, recwarn):
        problem = {k: v for k, v in self.HUGE.items() if k != "dg"}
        cfg = {"problem": dict(problem, x0=[1e154]), "J": 100, "N": 4}
        assert _run(tmp_path, "solve-2bsde", cfg) == 2
        err = capsys.readouterr().err
        assert err == "parabolica: exit=2 error=NonFinite detail=non-finite terminal Hessian\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    # Finite per-path values whose sums overflow: about 1e308 on every path
    # (a rank-deficient design, which regress factors by QR) and up to 1e307
    # on paths spread around 0 (a well-conditioned one, solved by its Gram
    # matrix).
    OVERFLOWING_SUMS = {
        "qr": dict(HUGE, x0=[1e154]),
        "gram": dict(HUGE, g="1e307*exp(-x[0]^2)", dg=["-2*x[0]*(1e307*exp(-x[0]^2))"],
                     x0=[0.0]),
    }

    @pytest.mark.parametrize("route", ["qr", "gram"])
    @pytest.mark.parametrize("command", ["solve-linear", "solve-semilinear", "solve-2bsde"])
    def test_overflowing_sums_are_one_line(self, tmp_path, capsys, recwarn, command, route):
        cfg = {"problem": self.OVERFLOWING_SUMS[route], "J": 100, "N": 4}
        assert _run(tmp_path, command, cfg) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=2 error=NonFinite detail=")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    # One step of 1e308, whose increments of about 1e154 overflow the Gamma
    # target Z dW', and steps of 2.5e-321, over which E[Z dW'] / dt overflows.
    @pytest.mark.parametrize("horizon, N, step", [(1e308, 1, 0), (1e-320, 4, 2)],
                             ids=["target", "solve"])
    def test_an_overflowing_backward_step_is_one_line_naming_it(self, tmp_path, capsys, recwarn,
                                                                 horizon, N, step):
        problem = {"dim": 1, "horizon": horizon, "mu": ["0"], "sigma": [["0.2*x[0]"]],
                   "g": "x[0]^2", "f": "-0.02*x[0]^2*gamma[0][0]", "x0": [1]}
        assert _run(tmp_path, "solve-2bsde", {"problem": problem, "J": 200, "N": N}) == 2
        err = capsys.readouterr().err
        assert err == ("parabolica: exit=2 error=NonFinite detail=non-finite backward value "
                       f"at step {step}\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command, problem", [
        ("solve-semilinear", "semilinear_exp"),
        ("solve-2bsde", "bsb_uncertain_vol"),
        ("solve-hjb", "hjb_uncertain_vol"),
    ])
    def test_fewer_paths_than_basis_functions_are_refused_before_simulating(
        self, tmp_path, capsys, monkeypatch, command, problem
    ):
        def never(*args, **kwargs):
            raise AssertionError("euler_simulate must not run")

        monkeypatch.setattr(cli, "euler_simulate", never)
        assert _run(tmp_path, command, {"problem": problem, "J": 2, "N": 4}) == 1
        err = capsys.readouterr().err
        assert err == ("parabolica: exit=1 error=ConfigError detail=J = 2 paths cannot support "
                       "the 3 basis functions every backward step fits\n")
        assert not (tmp_path / "out").exists()

    def test_an_artifact_write_failure_is_one_line_naming_its_type(self, tmp_path, capsys):
        taken = tmp_path / "out"
        taken.write_text("a file, not a directory")
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=FileExistsError detail=")
        assert taken.read_text() == "a file, not a directory"


class TestMemoryEstimate:
    def test_a_backward_estimate_grows_with_the_grid_by_the_batch_only(self):
        spec = model.catalog_get("bsb_uncertain_vol")
        J, d = 1000, spec.dim

        def estimate(N):
            cfg = {"problem": "bsb_uncertain_vol", "scheme": "full_2bsde", "J": J, "N": N}
            return cli._array_bytes(cli.RunConfig.from_dict(cfg), spec)

        # One more step adds a row of X and one of dW, and nothing else.
        assert estimate(65) - estimate(64) == 8 * (J * d + J * d)
        batch = 8 * (J * 65 * d + J * 64 * d + J)
        # At d = 1: two (Y, Z, Gamma) node columns, the step's design (two
        # columns of p = 3), and the step's 18 other columns, which
        # outnumber the QR's working copy of the design.
        assert estimate(64) == cli._RUN_OVERHEAD_BYTES + batch + 8 * J * (2 * 3 + 2 * 3 + 18)

    def test_an_hjb_estimate_adds_the_control_column_and_the_node_arrays(self):
        spec = model.catalog_get("hjb_uncertain_vol")
        J, N, d = 1000, 64, spec.dim
        cfg = {"problem": "hjb_uncertain_vol", "scheme": "hjb", "J": J, "N": N}
        estimate = cli._array_bytes(cli.RunConfig.from_dict(cfg), spec)
        batch = 8 * (J * (N + 1) * d + J * N * d + J)
        step = cli._RUN_OVERHEAD_BYTES + batch + 8 * J * (2 * 3 + 2 * 3 + 18)
        # The 2BSDE step of d = 1 and p = 3, then the control column and,
        # whatever G, the catalog control's y-free reduction: the running
        # maximum, the candidate row and one control's temporaries (a and
        # a a', b and three value columns) in floats, the mask, and the
        # grid index with its step buffer in uint8, which holds G - 1 = 20.
        assert estimate == step + 8 * J * 1 + 8 * J * (2 + 2 + 1 + 3) + J * (1 + 2)
        # A discount rate adds base and beta over the G = 21 grid points,
        # which each y streams through the same reduction.
        G = 21
        cfg["problem"] = self.X_DEPENDENT
        discounted = cli._array_bytes(cli.RunConfig.from_dict(cfg),
                                      model.problem_from_dict(self.X_DEPENDENT))
        assert discounted == estimate + 2 * 8 * G * J

    X_DEPENDENT = {
        "dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["0.15*x[0]"]],
        "g": "x[0]^2", "dg": ["2*x[0]"], "x0": [1.0],
        "control": {"control_dim": 1, "lower": [0.1], "upper": [0.2],
                    "alpha": "0.01*u[0]*x[0]^2", "beta": "-0.01*u[0]*x[0]^2",
                    "b": ["0.01*u[0]*x[0]"], "a": [["u[0]*x[0]"]]},
    }

    # A y-free control of two coordinates on a 21 x 21 grid (G = 441).
    Y_FREE_K2 = {
        "dim": 2, "horizon": 1.0, "mu": ["0", "0"],
        "sigma": [["0.15*x[0]", "0"], ["0", "0.15*x[1]"]],
        "g": "x[0]^2 + x[1]^2", "dg": ["2*x[0]", "2*x[1]"], "x0": [1.0, 1.0],
        "control": {"control_dim": 2, "lower": [0.1, 0.1], "upper": [0.2, 0.2],
                    "resolution": 21, "alpha": "0.01*u[0]*x[0]", "b": ["0.01*u[1]*x[0]", "0"],
                    "a": [["u[0]*x[0]", "0"], ["0", "u[1]*x[1]"]]},
    }

    # The same control with a discount rate.
    DISCOUNTED_K2 = {**Y_FREE_K2, "control": {**Y_FREE_K2["control"],
                                              "beta": "-0.01*u[0]*x[1]^2"}}

    LINEAR_D2 = {
        "dim": 2, "horizon": 1.0, "mu": ["0.05*x[0]", "0.05*x[1]"],
        "sigma": [["0.2*x[0]", "0.05*x[0]"], ["0", "0.2*x[1]"]],
        "f": "-0.05*y", "g": "x[0]+x[1]", "x0": [1.0, 1.0],
        "linear": {"alpha": "0", "beta": "-0.05"},
    }

    LINEAR_BOX = {
        "dim": 1, "horizon": 1.0, "mu": ["0"], "sigma": [["1"]], "f": "0", "g": "x[0]^2",
        "x0": [0.0], "domain": {"lower": [-1.0], "upper": [1.0]},
        "linear": {"alpha": "0.5*x[0]", "beta": "-0.1*x[0]^2"},
    }

    @pytest.mark.parametrize("command, problem, J, N, threads", [
        ("solve-hjb", "hjb_uncertain_vol", 4000, 16, 2),
        ("solve-hjb", X_DEPENDENT, 4000, 16, 2),
        ("solve-hjb", Y_FREE_K2, 2000, 4, 2),
        ("solve-hjb", DISCOUNTED_K2, 2000, 4, 2),
        ("solve-2bsde", "bsb_uncertain_vol", 4000, 16, 2),
        ("solve-linear", "gbm_linear", 20_000, 4, 2),
        ("solve-linear", "heat", 20_000, 4, 2),
        ("solve-linear", "gbm_linear", 5000, 4, 2),
        ("solve-linear", "gbm_linear", 2000, 4, 2),
        ("solve-linear", LINEAR_D2, 20_000, 16, 2),
        ("solve-linear", LINEAR_BOX, 20_000, 16, 2),
        ("solve-linear", "gbm_linear", 64, 1, 16),
        ("simulate", "gbm_linear", 20_000, 1, 2),
    ], ids=["hjb-catalog", "hjb-x-dependent", "hjb-y-free-k2", "hjb-discounted-k2", "2bsde",
            "linear", "linear-heat", "linear-5e3", "linear-2e3", "linear-d2", "linear-box",
            "linear-64-t16", "simulate-n1"])
    def test_a_run_holds_at_most_its_estimate(self, tmp_path, command, problem, J, N, threads):
        # The x-dependent control widens base and beta to (G, J); the
        # y-free one at G = 441 holds (J,) columns only, and its
        # discounted twin adds base and beta over those 441 controls.
        # At N = 4 the linear pass's working columns are half of its peak,
        # and at J = 2e3 the run's fixed overhead is a third.  At d = 2
        # Euler's full sigma outweighs the linear pass.  At J = 64 on 16
        # workers the pool is most of the run.  In a box, an x-dependent
        # alpha and beta are evaluated on the gathered live rows.  A
        # one-step simulate run's peak is Euler's draw, not its record copy.
        cfg = {"problem": problem, "J": J, "N": N, "seed": 3}
        spec = (model.catalog_get(problem) if isinstance(problem, str)
                else model.problem_from_dict(problem))
        scheme = cli._SUBCOMMANDS[command]
        config = cli.RunConfig.from_dict(cfg, scheme=scheme, threads=threads)
        estimate = cli._array_bytes(config, spec)
        tracemalloc.start()
        try:
            assert _run(tmp_path, command, cfg, threads=threads) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * estimate

    def test_a_simulate_run_holds_the_batch_and_one_record_copy(self, tmp_path):
        # paths.bin streams to disk: besides the batch, the run holds only
        # the C-ordered copy of X made while that record is written.
        J, N = 20_000, 32
        cfg = {"problem": "gbm_linear", "scheme": "simulate", "J": J, "N": N, "seed": 4}
        estimate = cli._array_bytes(cli.RunConfig.from_dict(cfg), model.catalog_get("gbm_linear"))
        assert estimate == cli._RUN_OVERHEAD_BYTES + paths.batch_bytes(J, N, 1) + 8 * J * (N + 1)
        tracemalloc.start()
        try:
            assert _run(tmp_path, "simulate", cfg, threads=2) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * estimate
        assert paths.load_batch(str(tmp_path / "out" / "paths.bin")).J == J


class TestOverrides:
    def test_seed_flag_overrides_and_is_echoed(self, tmp_path):
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="s1") == 0
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="s7", seed=7) == 0
        s1, s7 = _summary(tmp_path, "s1"), _summary(tmp_path, "s7")
        assert s1["config"]["seed"] == 1
        assert s7["config"]["seed"] == 7
        assert s1["value"] != s7["value"]

    @pytest.mark.parametrize("flag, value, key", [("seed", -1, "seed"),
                                                  ("threads", 1025, "threads"),
                                                  ("threads", 0, "threads")])
    def test_flags_pass_the_readers_of_their_keys(self, tmp_path, capsys, monkeypatch,
                                                  flag, value, key):
        def never(*args, **kwargs):
            raise AssertionError("no thread pool may start")

        monkeypatch.setattr(paths, "ThreadPoolExecutor", never)
        monkeypatch.setattr(cli, "euler_simulate", never)
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, **{flag: value}) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"parabolica: exit=1 error=ConfigError detail=config key '{key}' ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "1025"])
    def test_threads_variable_passes_the_threads_reader(self, tmp_path, capsys, monkeypatch,
                                                        value):
        def never(*args, **kwargs):
            raise AssertionError("no thread pool may start")

        monkeypatch.setattr(paths, "ThreadPoolExecutor", never)
        monkeypatch.setenv("PARABOLICA_THREADS", value)
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("parabolica: exit=1 error=ConfigError detail=")
        assert "PARABOLICA_THREADS" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_a_malformed_threads_variable_is_ignored_when_a_count_is_set(
        self, tmp_path, monkeypatch, where
    ):
        monkeypatch.setenv("PARABOLICA_THREADS", "abc")
        cfg = dict(HEAT_LINEAR, threads=2) if where == "config" else HEAT_LINEAR
        assert _run(tmp_path, "solve-linear", cfg, threads=2 if where == "flag" else None) == 0

    def test_threads_resolve_from_flag_then_config_then_variable_then_one(self, monkeypatch):
        config = dict(HEAT_LINEAR, threads=3)
        monkeypatch.setenv("PARABOLICA_THREADS", "  ")  # blank counts as unset
        assert cli.RunConfig.from_dict(HEAT_LINEAR).threads == 1
        monkeypatch.setenv("PARABOLICA_THREADS", "5")
        assert cli.RunConfig.from_dict(HEAT_LINEAR).threads == 5
        assert cli.RunConfig.from_dict(config).threads == 3
        assert cli.RunConfig.from_dict(config, threads=2).threads == 2

    def test_seed_defaults_to_zero(self, tmp_path):
        cfg = {"problem": "heat", "scheme": "linear", "J": 10, "N": 4}
        assert _run(tmp_path, "solve-linear", cfg) == 0
        assert _summary(tmp_path)["config"]["seed"] == 0

    def test_scheme_can_come_from_the_subcommand_alone(self, tmp_path):
        cfg = {"problem": "heat", "J": 10, "N": 4, "seed": 1}
        assert _run(tmp_path, "solve-linear", cfg) == 0
        assert _summary(tmp_path)["config"]["scheme"] == "linear"


class TestModuleEntryPoint:
    def test_python_m_invocation_matches_in_process_bytes(self, tmp_path):
        cfg_path = _write_config(tmp_path, HEAT_LINEAR)
        out_sub = tmp_path / "sub"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "parabolica",
                "solve-linear",
                "--config",
                cfg_path,
                "--out",
                str(out_sub),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="inproc") == 0
        assert (out_sub / "steps.csv").read_bytes() == (
            tmp_path / "inproc" / "steps.csv"
        ).read_bytes()
        sub = json.loads((out_sub / "summary.json").read_text())
        inproc = _summary(tmp_path, "inproc")
        sub.pop("environment")
        inproc.pop("environment")
        assert sub == inproc

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about a second and tens of MB on every start,
        # scipy.special about 0.25 s and 24 MB; jsonschema (with attrs,
        # referencing and rpds) tens of ms.
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, parabolica.cli; "
                "sys.exit(', '.join(m for m in sys.argv[1:] if m in sys.modules) or None)",
                "scipy",
                "scipy.special",
                "scipy.stats",
                "jsonschema",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"imported: {proc.stderr}"

    def test_runs_leave_scipy_unloaded(self, tmp_path):
        # The normal draws are the package's own, and the package does not
        # depend on scipy; only the tests' oracles load it.
        # The build version is the package's own too, so importlib.metadata
        # (about 15 ms with email, csv and more) stays unloaded, and the
        # screens draw their probes from the paths' generator, so
        # numpy.random (about 14 ms) does too.
        runs = [("solve-hjb", "hjb_uncertain_vol"), ("solve-2bsde", "bsb_uncertain_vol"),
                ("solve-semilinear", "semilinear_exp"), ("solve-linear", "gbm_linear"),
                ("simulate", "gbm_linear"), ("verify", "heat")]
        argv = []
        for command, problem in runs:
            cfg = _write_config(tmp_path, {"problem": problem, "J": 200, "N": 4}, f"{command}.json")
            argv += [command, cfg, str(tmp_path / command)]
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from parabolica import cli; a = sys.argv[1:]; "
                "codes = [cli.main([a[i], '--config', a[i + 1], '--out', a[i + 2]]) "
                "for i in range(0, len(a), 3)]; "
                "sys.exit(any(codes) and f'exit codes {codes}' or ', '.join("
                "m for m in ('scipy', 'scipy.special', 'importlib.metadata', 'numpy.random') "
                "if m in sys.modules) or None)",
                *argv,
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"imported: {proc.stderr}"
        for command, _ in runs:
            assert (tmp_path / command / "summary.json").exists()

    def test_the_build_version_is_the_project_version(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
        assert parabolica.__version__ == version
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR) == 0
        assert _summary(tmp_path)["environment"]["build"] == version
