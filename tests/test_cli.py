"""End-to-end CLI behavior: file outputs, config precedence, exit codes."""

import json
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from atdev import Dataset, SimSpec, generate, load_csv, save_csv
import atdev.io
from atdev.cli import main
from atdev.io import curve_from_dict, matrix_from_dict, read_json, \
    report_from_dict
from conftest import SCORER


@pytest.fixture()
def data622(tmp_path):
    d = generate(SimSpec(case="interaction_622", n=3_000, seed=3))
    path = tmp_path / "d622.csv"
    save_csv(d, path)
    return str(path)


@pytest.fixture()
def data61(tmp_path):
    d = generate(SimSpec(case="indep_61", n=1_500, seed=8))
    path = tmp_path / "d61.csv"
    save_csv(d, path)
    return str(path)


def run_effects(data, out, *extra):
    argv = ["effects", "--data", data, "--response", "y",
            "--model-id", "case_622", "--out-dir", str(out),
            "--k-bins", "30"]
    return main(argv + list(extra))


class TestSimulate:
    def test_writes_dataset_and_sidecar(self, tmp_path):
        rc = main(["simulate", "--case", "additive_621", "--n", "2000",
                   "--seed", "3", "--out-dir", str(tmp_path)])
        assert rc == 0
        d = load_csv(tmp_path / "additive_621.csv", has_response=True,
                     response_name="y")
        assert d.p == 3 and d.n == 2000
        meta = read_json(tmp_path / "additive_621.meta.json")
        assert meta["case"] == "additive_621"
        assert 0.9 < meta["theoretical_r2"] < 1.0
        corr = np.asarray(meta["correlation"]["values"])
        assert corr.shape == (3, 3)
        assert abs(corr[1, 2] - (-0.9627)) < 0.02

    def test_round_trips_bit_exactly(self, tmp_path):
        rc = main(["simulate", "--case", "indep_61", "--n", "500",
                   "--seed", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        d = generate(SimSpec(case="indep_61", n=500, seed=1))
        back = load_csv(tmp_path / "indep_61.csv", has_response=True,
                        response_name="y")
        assert np.array_equal(back.matrix(), d.matrix())
        assert np.array_equal(back.response, d.response)

    def test_requires_a_case(self, tmp_path, capsys):
        rc = main(["simulate", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "case" in capsys.readouterr().err


class TestEffects:
    def test_writes_curve_files_per_variable(self, data622, tmp_path):
        out = tmp_path / "fx"
        assert run_effects(data622, out) == 0
        for name in ("x1", "x2", "x3"):
            assert (out / f"curves_{name}.csv").exists()
            assert (out / f"curves_{name}.json").exists()
            assert (out / f"overlay_total_marginal_{name}.json").exists()
            assert (out / f"overlay_pd_marginal_ale_{name}.json").exists()
        assert not list(out.glob("*.svg"))

    def test_curve_bundle_schema(self, data622, tmp_path):
        out = tmp_path / "fx"
        assert run_effects(data622, out) == 0
        payload = read_json(out / "curves_x1.json")
        kinds = [c["kind"] for c in payload["curves"]]
        # pd, marginal, ale, two cross terms, total, derivative profile
        assert kinds == ["PD", "Marginal", "ALE", "ACE", "ACE", "ATDEV", "LE"]
        for c in payload["curves"]:
            curve = curve_from_dict(c)
            assert curve.centered is True
            assert c["meta"]["k_bins"] == 30
        ov = read_json(out / "overlay_total_marginal_x1.json")
        tot = curve_from_dict(ov["curves"]["total"])
        mg = curve_from_dict(ov["curves"]["marginal"])
        assert np.array_equal(tot.grid, mg.grid)

    def test_uncentered_flag(self, data622, tmp_path):
        out = tmp_path / "fx"
        assert run_effects(data622, out, "--no-center") == 0
        payload = read_json(out / "curves_x1.json")
        assert all(c["centered"] is False for c in payload["curves"])

    def test_column_selection(self, data622, tmp_path):
        out = tmp_path / "fx"
        assert run_effects(data622, out, "--columns", "x2") == 0
        assert (out / "curves_x2.json").exists()
        assert not (out / "curves_x1.json").exists()

    def test_svg_flag_adds_charts(self, data622, tmp_path):
        out = tmp_path / "fx"
        assert run_effects(data622, out, "--columns", "x1", "--svg") == 0
        svg = (out / "overlay_pd_marginal_ale_x1.svg").read_text()
        ET.fromstring(svg)

    def test_external_scorer_end_to_end(self, data622, tmp_path):
        out = tmp_path / "fx"
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(SCORER))} poly3"
        rc = main(["effects", "--data", data622, "--response", "y",
                   "--external-cmd", cmd, "--out-dir", str(out),
                   "--k-bins", "12", "--columns", "x1"])
        assert rc == 0
        assert (out / "curves_x1.json").exists()


class TestMatrixCommand:
    def test_total_derivative_bundle(self, data622, tmp_path):
        out = tmp_path / "mx"
        rc = main(["matrix", "--data", data622, "--response", "y",
                   "--model-id", "case_622", "--out-dir", str(out),
                   "--k-bins", "25"])
        assert rc == 0
        bundle = matrix_from_dict(read_json(out / "matrix_atdev.json"))
        assert bundle.p == 3
        assert bundle.totals is not None
        assert all(bundle.cell(i, j) is not None
                   for i in range(3) for j in range(3))

    def test_derivative_matrix_with_extras(self, data61, tmp_path):
        out = tmp_path / "mle"
        rc = main(["matrix", "--data", data61, "--response", "y",
                   "--model-id", "case_61", "--out-dir", str(out),
                   "--k-bins", "20", "--kind", "LE",
                   "--scatter-cap", "200", "--svg"])
        assert rc == 0
        payload = read_json(out / "matrix_le.json")
        assert payload["totals"] is None
        assert len(payload["scatter"]) == 25
        assert all(len(cell["x"]) == 200 for cell in payload["scatter"])
        assert len(payload["derivative_histograms"]) == 5
        ET.fromstring((out / "matrix_le.svg").read_text())

    def test_scatter_smaller_than_cap_keeps_all_rows(self, tmp_path):
        d = generate(SimSpec(case="interaction_622", n=120, seed=2))
        path = tmp_path / "small.csv"
        save_csv(d, path)
        out = tmp_path / "m"
        rc = main(["matrix", "--data", str(path), "--response", "y",
                   "--model-id", "case_622", "--out-dir", str(out),
                   "--k-bins", "10", "--kind", "LE"])
        assert rc == 0
        payload = read_json(out / "matrix_le.json")
        assert all(len(cell["x"]) == 120 for cell in payload["scatter"])


class TestHeatmapCommand:
    def test_outputs(self, data622, tmp_path):
        out = tmp_path / "hm"
        rc = main(["heatmap", "--data", data622, "--response", "y",
                   "--model-id", "case_622", "--out-dir", str(out),
                   "--k-bins", "25", "--svg"])
        assert rc == 0
        comp = read_json(out / "components_heatmap.json")
        vals = np.asarray(comp["values"])
        assert comp["scale"] == "nonnegative"
        assert abs(float(vals.max()) - 1.0) < 1e-12
        corr = read_json(out / "correlation_heatmap.json")
        cv = np.asarray(corr["values"])
        assert np.allclose(cv, cv.T)
        assert (out / "component_totals_bars.json").exists()
        assert (out / "derivative_energy_bars.json").exists()
        for stem in ("components_heatmap", "correlation_heatmap",
                     "component_totals_bars", "derivative_energy_bars"):
            ET.fromstring((out / f"{stem}.svg").read_text())


class TestImportanceCommand:
    def test_report_files(self, data622, tmp_path):
        out = tmp_path / "imp"
        rc = main(["importance", "--data", data622, "--response", "y",
                   "--model-id", "case_622", "--out-dir", str(out),
                   "--k-bins", "25"])
        assert rc == 0
        rep = report_from_dict(read_json(out / "importance.json"))
        assert rep.p == 3
        lines = (out / "importance.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 9


class TestFitMlp:
    def test_fit_then_reuse_weights(self, data61, tmp_path, capsys):
        out = tmp_path / "fit"
        rc = main(["fit-mlp", "--data", data61, "--out-dir", str(out),
                   "--hidden", "6", "--max-epochs", "15", "--patience", "6",
                   "--seed", "2"])
        assert rc == 0
        assert "validation R^2" in capsys.readouterr().out
        fit = read_json(out / "mlp_fit.json")
        assert fit["epochs_run"] <= 15
        weights = out / "mlp_weights.json"
        assert weights.exists()

        fx = tmp_path / "fx"
        rc = main(["effects", "--data", data61, "--response", "y",
                   "--mlp-weights", str(weights), "--out-dir", str(fx),
                   "--k-bins", "10", "--columns", "x1"])
        assert rc == 0
        assert (fx / "curves_x1.json").exists()

    def test_malformed_weights_exit_2(self, data61, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({
            "w1": np.ones((4, 5)).tolist(), "b1": [0.0, 0.0, 0.0],
            "w2": [1.0, 1.0, 1.0, 1.0], "b2": 0.0}))
        rc = main(["importance", "--data", data61, "--response", "y",
                   "--mlp-weights", str(weights),
                   "--out-dir", str(tmp_path / "never"), "--k-bins", "10"])
        assert rc == 2
        assert "bad weights payload: b1 has shape (3,)" in \
            capsys.readouterr().err

    def test_bad_valid_frac(self, data61, tmp_path):
        rc = main(["fit-mlp", "--data", data61, "--out-dir", str(tmp_path),
                   "--valid-frac", "1.5"])
        assert rc == 1


class TestConfigPrecedence:
    def test_flags_beat_config(self, data622, tmp_path):
        out = tmp_path / "cfg_out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "data": data622, "response": "y", "model_id": "case_622",
            "k_bins": 25, "out_dir": str(out), "columns": ["x1"]}))
        assert main(["effects", "--config", str(cfg)]) == 0
        payload = read_json(out / "curves_x1.json")
        assert payload["curves"][0]["meta"]["k_bins"] == 25

        out2 = tmp_path / "cfg_out2"
        assert main(["effects", "--config", str(cfg),
                     "--k-bins", "40", "--out-dir", str(out2)]) == 0
        payload = read_json(out2 / "curves_x1.json")
        assert payload["curves"][0]["meta"]["k_bins"] == 40

    def test_missing_config_file(self, tmp_path):
        rc = main(["effects", "--config", str(tmp_path / "absent.json")])
        assert rc == 1

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("ATDEV_OUT_DIR", str(target))
        rc = main(["simulate", "--case", "indep_61", "--n", "50",
                   "--seed", "0"])
        assert rc == 0
        assert (target / "indep_61.csv").exists()


    @pytest.mark.parametrize("config, message", [
        ({"k_bins": "many"}, "'k_bins' must be an integer, got 'many'"),
        ({"k_bins": 2.7}, "'k_bins' must be an integer, got 2.7"),
        ({"k_bins": True}, "'k_bins' must be an integer, got True"),
        ({"seed": "x"}, "'seed' must be an integer, got 'x'"),
        ({"smooth_marginal": 1.5},
         "'smooth_marginal' must be an integer, got 1.5"),
        ({"center": "false"}, "'center' must be true or false, got 'false'"),
        ({"center": 0}, "'center' must be true or false, got 0"),
        ({"svg": "yes"}, "'svg' must be true or false, got 'yes'"),
    ])
    def test_config_values_must_have_their_type(self, data622, tmp_path,
                                                 capsys, config, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"data": data622, "response": "y",
                                   "model_id": "case_622", **config}))
        out = tmp_path / "never"
        rc = main(["effects", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, message", [
        ("simulate", {"rho": "abc"}, "'rho' must be a finite number, got 'abc'"),
        ("simulate", {"noise_sd": True},
         "'noise_sd' must be a finite number, got True"),
        ("simulate", {"rho": 1e400}, "'rho' must be a finite number, got inf"),
        ("simulate", {"mean": 5}, "'mean' must be two finite numbers, got 5"),
        ("simulate", {"mean": [0.0, 1.0, 2.0]},
         "'mean' must be two finite numbers, got [0.0, 1.0, 2.0]"),
        ("simulate", {"sigma": [1.0, "x"]},
         "'sigma' must be two finite numbers, got [1.0, 'x']"),
        ("fit-mlp", {"valid_frac": "0.2"},
         "'valid_frac' must be a finite number, got '0.2'"),
        ("fit-mlp", {"learning_rate": None},
         "'learning_rate' must be a finite number, got None"),
    ])
    def test_config_floats_must_be_finite_numbers(self, data622, tmp_path,
                                                  capsys, command, config,
                                                  message):
        cfg = tmp_path / "run.json"
        base = ({"case": "bivariate_normal", "n": 50} if command == "simulate"
                else {"data": data622, "response": "y"})
        cfg.write_text(json.dumps({**base, **config}))
        out = tmp_path / "never"
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_reads_floats_from_config_and_flags(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"case": "bivariate_normal", "n": 50,
                                   "rho": 0.5, "mean": [1, 2],
                                   "sigma": [1.0, 3.0]}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--rho", "-0.25",
                     "--out-dir", str(out)]) == 0
        meta = read_json(out / "bivariate_normal.meta.json")
        assert (meta["rho"], meta["mean"], meta["sigma"]) == (
            -0.25, [1.0, 2.0], [1.0, 3.0])

    def test_matrix_reads_kind_and_scatter_cap_from_config(self, data622,
                                                           tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kind": "LE", "scatter_cap": 40}))
        out = tmp_path / "mx"
        argv = ["matrix", "--data", data622, "--response", "y",
                "--model-id", "case_622", "--k-bins", "10",
                "--config", str(cfg), "--out-dir", str(out)]
        assert main(argv) == 0
        assert not (out / "matrix_atdev.json").exists()
        payload = read_json(out / "matrix_le.json")
        assert all(len(cell["x"]) == 40 for cell in payload["scatter"])
        # Flags still win over the file.
        assert main(argv + ["--kind", "ATDEV"]) == 0
        assert (out / "matrix_atdev.json").exists()
        for config, message in [
            ({"kind": "le"}, "'kind' must be one of ('ATDEV', 'LE'), got 'le'"),
            ({"scatter_cap": "many"},
             "'scatter_cap' must be an integer, got 'many'"),
            ({"scatter_cap": -1}, "--scatter-cap must be >= 0"),
        ]:
            cfg.write_text(json.dumps(config))
            capsys.readouterr()
            assert main(argv[:-1] + [str(tmp_path / "never")]) == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_config_booleans_take_effect(self, data622, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"center": False, "svg": True,
                                   "k_bins": 12, "columns": ["x1"]}))
        out = tmp_path / "fx"
        assert run_effects(data622, out, "--config", str(cfg)) == 0
        payload = read_json(out / "curves_x1.json")
        assert all(c["centered"] is False for c in payload["curves"])
        assert (out / "overlay_total_marginal_x1.svg").exists()


class TestExitCodes:
    def test_usage_errors(self, data622, tmp_path, capsys):
        out = str(tmp_path / "never")
        # no model source
        assert main(["effects", "--data", data622, "--response", "y",
                     "--out-dir", out]) == 1
        # two model sources
        assert main(["effects", "--data", data622, "--response", "y",
                     "--model-id", "case_622", "--external-cmd", "cat",
                     "--out-dir", out]) == 1
        # degenerate binning
        assert main(["effects", "--data", data622, "--response", "y",
                     "--model-id", "case_622", "--k-bins", "1",
                     "--out-dir", out]) == 1
        # no dataset at all
        assert main(["effects", "--model-id", "case_622",
                     "--out-dir", out]) == 1
        capsys.readouterr()

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_data_errors(self, data622, tmp_path, capsys):
        out = str(tmp_path / "never")
        # missing file
        assert main(["effects", "--data", str(tmp_path / "gone.csv"),
                     "--response", "y", "--model-id", "case_622",
                     "--out-dir", out]) == 2
        # arity mismatch: five-input model on three columns
        assert main(["effects", "--data", data622, "--response", "y",
                     "--model-id", "case_61", "--out-dir", out]) == 2
        capsys.readouterr()

    def test_indicator_column_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        a = rng.normal(size=1_000)
        # 505 zeros: no quantile edge falls between the levels.
        b = rng.permutation(np.r_[np.zeros(505), np.ones(495)])
        path = tmp_path / "flag.csv"
        save_csv(Dataset(names=["a", "b"], columns=[a, b],
                         response=a * b + 2 * b), path)
        out = tmp_path / "never"
        # f = a b + 2 b: a single bin for b would report v_+b = 0.
        rc = main(["importance", "--data", str(path), "--response", "y",
                   "--model-id", "custom", "--terms",
                   '[[1.0, {"0": 1, "1": 1}], [2.0, {"1": 1}]]',
                   "--out-dir", str(out)])
        assert rc == 2
        assert "'b' cannot be binned" in capsys.readouterr().err
        assert not list(out.glob("*.json")) and not list(out.glob("*.csv"))

    def test_numerical_failure_leaves_no_files(self, data622, tmp_path,
                                               capsys):
        out = tmp_path / "broken"
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(SCORER))} nan"
        rc = main(["effects", "--data", data622, "--response", "y",
                   "--external-cmd", cmd, "--out-dir", str(out),
                   "--k-bins", "10"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not list(out.glob("*.json")) and not list(out.glob("*.csv"))


    def test_non_utf8_scorer_output_exits_2(self, data622, tmp_path, capsys):
        out = tmp_path / "broken"
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(SCORER))} binary"
        rc = main(["effects", "--data", data622, "--response", "y",
                   "--external-cmd", cmd, "--out-dir", str(out),
                   "--k-bins", "10"])
        assert rc == 2
        assert "external scorer protocol error" in capsys.readouterr().err
        assert not list(out.glob("*.json")) and not list(out.glob("*.csv"))


class TestFdStep:
    @pytest.mark.parametrize("command, stem, field", [
        ("importance", "importance.json", "dgsm"),
        ("heatmap", "derivative_energy_bars.json", "values"),
    ])
    def test_step_reaches_derivative_energy(self, data622, tmp_path,
                                            command, stem, field):
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(SCORER))} cube"
        energy = {}
        for tag, extra in (("auto", []), ("half", ["--fd-step", "0.5"])):
            out = tmp_path / tag
            rc = main([command, "--data", data622, "--response", "y",
                       "--external-cmd", cmd, "--out-dir", str(out),
                       "--k-bins", "10", *extra])
            assert rc == 0
            energy[tag] = np.asarray(read_json(out / stem)[field])
        x1 = load_csv(data622, has_response=True, response_name="y").column(0)
        # Central differences of x^3 over +-h read 3 x^2 + h^2.
        assert abs(energy["auto"][0] - np.mean((3 * x1 ** 2) ** 2)) < 1e-6
        assert abs(energy["half"][0]
                   - np.mean((3 * x1 ** 2 + 0.25) ** 2)) < 1e-9


    @pytest.mark.parametrize("flag, config", [
        (["--fd-step", "0"], {}),
        (["--fd-step", "nan"], {}),
        (["--fd-step", "inf"], {}),
        ([], {"fd_step": -1}),
        ([], {"fd_step": "small"}),
    ])
    def test_step_must_be_positive_finite(self, data622, tmp_path, capsys,
                                          flag, config):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(SCORER))} cube"
        out = tmp_path / "never"
        rc = main(["effects", "--config", str(cfg), "--data", data622,
                   "--response", "y", "--external-cmd", cmd,
                   "--out-dir", str(out), "--k-bins", "10", *flag])
        assert rc == 1
        assert "--fd-step must be a positive finite number" in \
            capsys.readouterr().err
        assert not out.exists()


class TestRollback:
    def test_failure_after_writes_removes_them(self, tmp_path, monkeypatch,
                                               capsys):
        d = generate(SimSpec(case="interaction_622", n=1_000, seed=3))
        flat = Dataset(names=list(d.names),
                       columns=[d.column(0), np.full(d.n, 0.5), d.column(2)],
                       response=d.response)
        path = tmp_path / "flat.csv"
        save_csv(flat, path)
        written = []
        real_write = atdev.io.write_text_atomic

        def spy(target, text):
            written.append(target.name)
            return real_write(target, text)

        monkeypatch.setattr(atdev.io, "write_text_atomic", spy)
        out = tmp_path / "rolled_back"
        rc = main(["effects", "--data", str(path), "--response", "y",
                   "--model-id", "case_622", "--out-dir", str(out),
                   "--k-bins", "10"])
        assert rc == 2
        assert "constant column" in capsys.readouterr().err
        assert "curves_x1.csv" in written and "curves_x1.json" in written
        for pattern in ("*.json", "*.csv", "*.tmp"):
            assert not list(out.glob(pattern))


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, data61, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(["matrix", "--data", data61, "--response", "y",
                       "--model-id", "case_61", "--out-dir", str(out),
                       "--k-bins", "15", "--kind", "LE",
                       "--scatter-cap", "100", "--seed", "4"])
            assert rc == 0
            outs.append((out / "matrix_le.json").read_bytes())
        assert outs[0] == outs[1]


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        run = subprocess.run(
            [sys.executable, "-m", "atdev.cli", "simulate", "--case",
             "indep_61", "--n", "40", "--seed", "0", "--out-dir",
             str(tmp_path)],
            capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "indep_61.meta.json").exists()
