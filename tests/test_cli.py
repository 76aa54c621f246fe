"""End-to-end tests of the command-line interface.

Most tests drive ``cli.main`` in process; one subprocess test checks the
``python -m parabolica`` entry point produces the same bytes.
"""

import io
import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from parabolica import cli, hjb, model, paths

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
        jsonschema.validate(echo, cli.CONFIG_SCHEMA)
        assert _run(tmp_path, "solve-linear", echo, out="second") == 0
        assert (tmp_path / "first" / "steps.csv").read_bytes() == (
            tmp_path / "second" / "steps.csv"
        ).read_bytes()
        s1, s2 = _summary(tmp_path, "first"), _summary(tmp_path, "second")
        s1.pop("environment")
        s2.pop("environment")
        assert s1 == s2


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


class TestExitCodes:
    def test_gamma_dependent_driver_is_a_validation_failure(self, tmp_path, capsys):
        cfg = {"problem": "discount_bond", "scheme": "semilinear", "J": 10, "N": 4}
        assert _run(tmp_path, "solve-semilinear", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("parabolica: exit=1 error=GammaDependence detail=")

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

    def test_overflowing_source_is_a_numeric_failure(self, tmp_path, capsys):
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

    def test_no_partial_artifacts_after_a_numeric_failure(self, tmp_path):
        cfg = {"problem": "discount_bond", "scheme": "semilinear", "J": 10, "N": 4}
        _run(tmp_path, "solve-semilinear", cfg)
        assert not (tmp_path / "out").exists()


class TestOverrides:
    def test_seed_flag_overrides_and_is_echoed(self, tmp_path):
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="s1") == 0
        assert _run(tmp_path, "solve-linear", HEAT_LINEAR, out="s7", seed=7) == 0
        s1, s7 = _summary(tmp_path, "s1"), _summary(tmp_path, "s7")
        assert s1["config"]["seed"] == 1
        assert s7["config"]["seed"] == 7
        assert s1["value"] != s7["value"]

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
        # scipy.stats costs about a second and tens of MB on every start.
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, parabolica.cli; sys.exit('scipy.stats' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr or "scipy.stats was imported"
