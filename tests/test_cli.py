"""End-to-end CLI behavior: file outputs, config precedence, exit codes."""

import json
import os
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from atdev import (Dataset, SimSpec, catalog_model, generate, load_csv,
                   save_csv)
import atdev.cli
import atdev.io
import atdev.svg as asvg
from atdev.cli import main
from atdev.models import Predictor
from conftest import SCORER
from helpers import load_json


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
        meta = load_json(tmp_path / "additive_621.meta.json")
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


    @pytest.mark.parametrize("name, flag, value", [
        ("rho", ["--rho", "0.5"], 0.5),
        ("mean", ["--mean", "1", "2"], [1, 2]),
        ("sigma", ["--sigma", "2", "2"], [2, 2]),
        ("bn_model", ["--bn-model", "multiplicative"], "multiplicative"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bivariate_options_need_the_bivariate_case(
            self, tmp_path, capsys, name, flag, value, source):
        argv = ["simulate", "--case", "indep_61", "--n", "50",
                "--out-dir", str(tmp_path / "never")]
        if source == "flag":
            argv += flag
        else:
            cfg = tmp_path / "sim.json"
            cfg.write_text(json.dumps({name: value}))
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert f"{flag[0]} needs --case bivariate_normal" in \
            capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_bivariate_defaults_come_from_the_spec(self, tmp_path):
        assert main(["simulate", "--case", "bivariate_normal", "--n", "50",
                     "--out-dir", str(tmp_path)]) == 0
        meta = load_json(tmp_path / "bivariate_normal.meta.json")
        spec = SimSpec(case="bivariate_normal", n=50)
        assert (meta["mean"], meta["sigma"], meta["rho"], meta["model"]) == (
            list(spec.mean), list(spec.sigma), spec.rho, spec.model)

    def test_a_wide_finite_setting_has_a_finite_r2(self, tmp_path):
        # Var f is about 1e320 at sigma 1e80, past the largest double,
        # where the data are finite.
        assert main(["simulate", "--case", "bivariate_normal", "--sigma",
                     "1e80", "1", "--bn-model", "quad_plus_interaction",
                     "--n", "10", "--out-dir", str(tmp_path)]) == 0
        meta = load_json(tmp_path / "bivariate_normal.meta.json")
        assert meta["theoretical_r2"] == 1.0


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
        payload = load_json(out / "curves_x1.json")
        kinds = [c["kind"] for c in payload["curves"]]
        # pd, marginal, ale, two cross terms, total, derivative profile
        assert kinds == ["PD", "Marginal", "ALE", "ACE", "ACE", "ATDEV", "LE"]
        for c in payload["curves"]:
            assert c["centered"] is True
            assert c["meta"]["k_bins"] == 30
        ov = load_json(out / "overlay_total_marginal_x1.json")
        assert ov["curves"]["total"]["grid"] == \
            ov["curves"]["marginal"]["grid"]

    def test_uncentered_flag(self, data622, tmp_path):
        out = tmp_path / "fx"
        assert run_effects(data622, out, "--no-center") == 0
        payload = load_json(out / "curves_x1.json")
        assert all(c["centered"] is False for c in payload["curves"])

    def test_column_selection(self, data622, tmp_path):
        out = tmp_path / "fx"
        assert run_effects(data622, out, "--columns", "x2") == 0
        assert (out / "curves_x2.json").exists()
        assert not (out / "curves_x1.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_column_is_a_usage_error(self, data622, tmp_path,
                                              capsys, source):
        out = tmp_path / "never"
        columns = ["x1", "x2", "x1"]
        if source == "flag":
            rc = run_effects(data622, out, "--columns", *columns)
        else:
            rc = _run_with_config("effects", {"columns": columns}, tmp_path,
                                  "--data", data622, "--response", "y",
                                  "--model-id", "case_622",
                                  "--out-dir", str(out))
        assert rc == 1
        assert "--columns names 'x1' more than once" in \
            capsys.readouterr().err
        assert not out.exists()

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

    def test_a_run_scores_the_observed_rows_once(self, data622, tmp_path,
                                                 monkeypatch):
        calls = []

        class Counting(Predictor):
            """A catalog polynomial that logs the rows of every predict
            and gradient call."""

            has_analytic_gradient = True

            def __init__(self, inner):
                self.inner, self.p = inner, inner.p

            def predict(self, x):
                calls.append(("predict", len(x)))
                return self.inner.predict(x)

            def gradient(self, x):
                calls.append(("gradient", len(x)))
                return self.inner.gradient(x)

            def partial_dependence(self, x, j, grid):
                return self.inner.partial_dependence(x, j, grid)

        monkeypatch.setattr(atdev.cli, "catalog_model",
                            lambda *a, **kw: Counting(catalog_model(*a, **kw)))
        assert run_effects(data622, tmp_path / "fx") == 0
        # all three columns: one gradient table, one marginal scoring
        assert calls == [("gradient", 3000), ("predict", 3000)]

    def test_an_external_run_sends_the_observed_rows_once(self, data622,
                                                          tmp_path):
        log = tmp_path / "requests"
        log.mkdir()
        cmd = shlex.join([sys.executable, str(SCORER), "record", str(log),
                          "poly3"])
        rc = main(["effects", "--data", data622, "--response", "y",
                   "--external-cmd", cmd, "--out-dir", str(tmp_path / "fx"),
                   "--k-bins", "12"])
        assert rc == 0
        heads = [path.read_bytes().split(b"\n", 1)[0]
                 for path in log.glob("*.req")]
        # the 18 000 probe rows of all three columns in one spawn, 36 000
        # swept rows a column in two spawns of 18 000, and the observed
        # rows once
        assert sorted(heads) == sorted([b"18000 3"] + [b"18000 3"] * 6
                                       + [b"3000 3"])


class TestMatrixCommand:
    def test_total_derivative_bundle(self, data622, tmp_path):
        out = tmp_path / "mx"
        rc = main(["matrix", "--data", data622, "--response", "y",
                   "--model-id", "case_622", "--out-dir", str(out),
                   "--k-bins", "25"])
        assert rc == 0
        bundle = load_json(out / "matrix_atdev.json")
        assert len(bundle["names"]) == 3
        assert len(bundle["totals"]) == 3
        assert [len(row) for row in bundle["cells"]] == [3, 3, 3]
        assert all(cell["kind"] in ("ALE", "ACE")
                   for row in bundle["cells"] for cell in row)

    def test_derivative_matrix_with_extras(self, data61, tmp_path):
        out = tmp_path / "mle"
        rc = main(["matrix", "--data", data61, "--response", "y",
                   "--model-id", "case_61", "--out-dir", str(out),
                   "--k-bins", "20", "--kind", "LE",
                   "--scatter-cap", "200", "--svg"])
        assert rc == 0
        payload = load_json(out / "matrix_le.json")
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
        payload = load_json(out / "matrix_le.json")
        assert all(len(cell["x"]) == 120 for cell in payload["scatter"])


class TestHeatmapCommand:
    def test_outputs(self, data622, tmp_path):
        out = tmp_path / "hm"
        rc = main(["heatmap", "--data", data622, "--response", "y",
                   "--model-id", "case_622", "--out-dir", str(out),
                   "--k-bins", "25", "--svg"])
        assert rc == 0
        comp = load_json(out / "components_heatmap.json")
        vals = np.asarray(comp["values"])
        assert comp["scale"] == "nonnegative"
        assert abs(float(vals.max()) - 1.0) < 1e-12
        corr = load_json(out / "correlation_heatmap.json")
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
        rep = load_json(out / "importance.json")
        assert len(rep["names"]) == 3
        assert np.asarray(rep["v"]).shape == (3, 3)
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
        fit = load_json(out / "mlp_fit.json")
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

    def test_one_row_validation_split_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_csv(generate(SimSpec(case="interaction_622", n=12, seed=0)), data)
        out = tmp_path / "never"
        rc = main(["fit-mlp", "--data", str(data), "--out-dir", str(out),
                   "--valid-frac", "0.01"])
        assert rc == 2
        assert "constant validation response (1 row(s))" in \
            capsys.readouterr().err
        assert not out.exists()


class TestConfigPrecedence:
    def test_flags_beat_config(self, data622, tmp_path):
        out = tmp_path / "cfg_out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "data": data622, "response": "y", "model_id": "case_622",
            "k_bins": 25, "out_dir": str(out), "columns": ["x1"]}))
        assert main(["effects", "--config", str(cfg)]) == 0
        payload = load_json(out / "curves_x1.json")
        assert payload["curves"][0]["meta"]["k_bins"] == 25

        out2 = tmp_path / "cfg_out2"
        assert main(["effects", "--config", str(cfg),
                     "--k-bins", "40", "--out-dir", str(out2)]) == 0
        payload = load_json(out2 / "curves_x1.json")
        assert payload["curves"][0]["meta"]["k_bins"] == 40

    def test_missing_config_file(self, tmp_path):
        rc = main(["effects", "--config", str(tmp_path / "absent.json")])
        assert rc == 1

    @pytest.mark.parametrize("kind, message", [
        ("directory", "cannot read config file"),
        ("not-utf8", "is not valid JSON")])
    def test_unreadable_config_file(self, tmp_path, capsys, kind, message):
        cfg = tmp_path
        if kind == "not-utf8":
            cfg = tmp_path / "cfg.json"
            cfg.write_bytes(b'{"k_bins": \xff}')
        assert main(["effects", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

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
        ({"columns": []}, "'columns' must be a non-empty list of strings, "
                          "got []"),
        ({"coeffs": [], "model_id": "additive_linear"},
         "'coeffs' must be a non-empty list of finite numbers, got []"),
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
        meta = load_json(out / "bivariate_normal.meta.json")
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
        payload = load_json(out / "matrix_le.json")
        assert all(len(cell["x"]) == 40 for cell in payload["scatter"])
        # Flags still win over the file.
        assert main(argv + ["--scatter-cap", "7"]) == 0
        payload = load_json(out / "matrix_le.json")
        assert all(len(cell["x"]) == 7 for cell in payload["scatter"])
        # ATDEV draws no scatter, so the file's scatter_cap is refused.
        assert main(argv + ["--kind", "ATDEV"]) == 1
        assert "--scatter-cap needs --kind LE" in capsys.readouterr().err
        assert not (out / "matrix_atdev.json").exists()
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
        payload = load_json(out / "curves_x1.json")
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

    @pytest.mark.parametrize("command", ["effects", "importance"])
    def test_column_whose_variance_underflows_is_estimated(self, tmp_path,
                                                           command):
        # 1000 distinct values of a on +-1e-170: np.var(a) is 0, but the
        # column is not constant
        rng = np.random.default_rng(5)
        a = rng.uniform(-1e-170, 1e-170, 1_000)
        b = rng.uniform(-1, 1, 1_000)
        path = tmp_path / "tiny.csv"
        save_csv(Dataset(names=["a", "b"], columns=[a, b], response=b), path)
        rc = main([command, "--data", str(path), "--response", "y",
                   "--model-id", "custom", "--terms",
                   '[[1.0, {"0": 1}], [1.0, {"1": 1}]]',
                   "--k-bins", "10", "--out-dir", str(tmp_path / "out")])
        assert rc == 0

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


    @pytest.mark.parametrize("case", ["data-dir", "weights-dir",
                                      "out-dir-file", "a/b", "a\0b"])
    def test_unusable_path_exits_2_with_one_line(self, data622, tmp_path,
                                                 capsys, case):
        # An OS error on an input or output path, and a variable name that
        # is not one file-name component, are data errors: exit 2, one
        # "error:" line, no traceback and no file left.
        run = ["importance", "--data", data622, "--response", "y",
               "--model-id", "case_622"]
        out = tmp_path / "out"
        if case == "data-dir":
            run[2] = str(tmp_path)
        elif case == "weights-dir":
            run[-2:] = ["--mlp-weights", str(tmp_path)]
        elif case == "out-dir-file":
            out.write_text("")
        else:  # a variable name that cannot be part of a file name
            d = load_csv(data622, has_response=True, response_name="y")
            path = tmp_path / "named.csv"
            save_csv(Dataset(names=["x1", case, "x3"], columns=d.matrix(),
                             response=d.response), path)
            run = ["effects", "--data", str(path), "--response", "y",
                   "--model-id", "case_622", "--k-bins", "10"]
        assert main([*run, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if case.startswith("a"):
            assert repr(case) in err
            assert not list(out.rglob("*"))

    @pytest.mark.parametrize("case", ["nope", "a/b", "a\0b"])
    def test_bad_effects_variable_exits_2_before_scoring(self, data622,
                                                         tmp_path, capsys,
                                                         case):
        # An unknown --columns name, or a variable that cannot be part of
        # a file name, stops the run before the scorer sees one request.
        log = tmp_path / "requests"
        log.mkdir()
        data = data622
        if case != "nope":
            d = load_csv(data622, has_response=True, response_name="y")
            data = str(tmp_path / "named.csv")
            save_csv(Dataset(names=["x1", case, "x3"], columns=d.matrix(),
                             response=d.response), data)
        cmd = shlex.join([sys.executable, str(SCORER), "record", str(log),
                          "poly3"])
        run = ["effects", "--data", data, "--response", "y",
               "--external-cmd", cmd, "--k-bins", "10",
               "--out-dir", str(tmp_path / "out")]
        if case == "nope":
            run += ["--columns", "x1", "nope"]
        assert main(run) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(case) in err
        assert not list(log.iterdir())

    def test_non_utf8_data_exits_2_with_one_line(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes("x1,x2,y\n1,2,3\n4,5,\u00e9\n".encode("latin-1"))
        rc = main(["importance", "--data", str(data), "--response", "y",
                   "--model-id", "multiplicative",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not UTF-8 text" in err

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
            energy[tag] = np.asarray(load_json(out / stem)[field])
        x1 = load_csv(data622, has_response=True, response_name="y").column(0)
        # Central differences of x^3 over +-h read 3 x^2 + h^2.
        assert abs(energy["auto"][0] - np.mean((3 * x1 ** 2) ** 2)) < 1e-6
        assert abs(energy["half"][0]
                   - np.mean((3 * x1 ** 2 + 0.25) ** 2)) < 1e-9


    def test_step_lost_to_rounding_exits_2(self, tmp_path, capsys):
        # Around 1e6 the automatic step (1e-8) is below 100 doubles apart:
        # x2 +- h rounds, and the quotient of the row sum read about 1.0012.
        rng = np.random.default_rng(2)
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1, 1, 500),
                             1e6 + rng.uniform(-1e-6, 1e-6, 500)])
        path = tmp_path / "far.csv"
        save_csv(d, path)
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(SCORER))} sum"
        run = ["importance", "--data", str(path), "--external-cmd", cmd,
               "--k-bins", "10"]
        out = tmp_path / "never"
        assert main(run + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "column 'x2' is lost to rounding" in err and "--fd-step" in err
        assert not any(out.iterdir())
        out = tmp_path / "coarse"
        assert main(run + ["--out-dir", str(out), "--fd-step", "1e-3"]) == 0
        dgsm = load_json(out / "importance.json")["dgsm"]
        assert abs(dgsm[1] - 1.0) < 1e-6

    def test_step_that_overflows_asks_for_a_smaller_step(self, tmp_path,
                                                         capsys):
        # x +- 1e308 is finite on a unit-scale column, but the 2e308 span
        # is not: a larger step cannot help there.
        rng = np.random.default_rng(2)
        d = Dataset(names=["x1", "x2"], columns=list(rng.uniform(-1, 1, (2, 50))))
        path = tmp_path / "unit.csv"
        save_csv(d, path)
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(SCORER))} sum"
        out = tmp_path / "never"
        assert main(["importance", "--data", str(path), "--external-cmd", cmd,
                     "--fd-step", "1e308", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("step 1e+308 for column 'x1' overflows at its magnitude; "
                "pass a smaller --fd-step") in err
        assert "larger" not in err
        assert not any(out.iterdir())

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
        real_stage = atdev.io._staged

        def spy(target):
            written.append(target.name)
            return real_stage(target)

        # Text and JSON files are both staged through this one helper.
        monkeypatch.setattr(atdev.io, "_staged", spy)
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


def _blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"]
    except (TypeError, KeyError):  # numpy builds that cannot say
        return ""


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestSubprocessEntry:
    @pytest.mark.skipif(
        sys.platform != "linux" or "openblas" not in _blas_name().lower()
        or len(os.sched_getaffinity(0)) < 2,
        reason="counts OpenBLAS's Linux threads; needs 2 CPUs for a worker")
    @pytest.mark.parametrize("given, tasks", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": "2"}, 2)])
    def test_the_cli_loads_numpy_with_one_blas_thread_unless_told(self, given,
                                                                  tasks):
        # the idle OpenBLAS worker would spin CPU in every command
        code = ("import json, os, atdev.cli; print(json.dumps("
                "[len(os.listdir('/proc/self/task')), {k: os.environ[k] for k"
                f" in {BLAS_VARS!r} if k in os.environ}}]))")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        run = subprocess.run([sys.executable, "-c", code], env={**env, **given},
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [tasks, given]

    def test_estimation_commands_leave_numpy_ma_unloaded(self, data622,
                                                          tmp_path):
        # np.unique imported numpy.ma (10-18 ms, 1.3 MB) into every run
        # that binned a column.
        code = ("import sys; from atdev.cli import main; "
                "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
        for command in (["effects"], ["importance"], ["heatmap"],
                        ["matrix", "--kind", "ATDEV"]):
            run = subprocess.run(
                [sys.executable, "-c", code, *command, "--data", data622,
                 "--response", "y", "--model-id", "case_622", "--k-bins",
                 "20", "--out-dir", str(tmp_path / command[0])],
                capture_output=True, text=True, timeout=120)
            assert run.stdout.split() == ["0", "False"], (command, run.stderr)

    def test_module_invocation(self, tmp_path):
        run = subprocess.run(
            [sys.executable, "-m", "atdev.cli", "simulate", "--case",
             "indep_61", "--n", "40", "--seed", "0", "--out-dir",
             str(tmp_path)],
            capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "indep_61.meta.json").exists()

    def test_smoothed_marginal_is_the_same_at_any_power_of_two(self,
                                                              tmp_path):
        # x1 and x1 * 2^530 (about 1e160): the local quadratic once
        # squared grid offsets near 1e320, warned and exited 3.
        x = np.random.default_rng(0).uniform(-1.0, 1.0, (2000, 2))
        values = {}
        for scale in (0, 530):
            data = tmp_path / f"x{scale}.csv"
            save_csv(Dataset(names=["x1", "x2"],
                             columns=[np.ldexp(x[:, 0], scale), x[:, 1]]),
                     data)
            out = tmp_path / f"out{scale}"
            run = subprocess.run(
                [sys.executable, "-m", "atdev.cli", "effects", "--data",
                 str(data), "--model-id", "additive_linear", "--coeffs", "1",
                 "0", "--columns", "x1", "--k-bins", "20",
                 "--smooth-marginal", "5", "--out-dir", str(out)],
                capture_output=True, text=True, timeout=120)
            assert (run.returncode, run.stderr) == (0, "")
            curves = load_json(out / "curves_x1.json")["curves"]
            values[scale] = next(np.array(c["values"]) for c in curves
                                 if c["kind"] == "Marginal")
        assert np.array_equal(np.ldexp(values[0], 530), values[530])

    @pytest.mark.parametrize("command", ["importance", "heatmap"])
    def test_an_overflowing_variance_is_one_error_line(self, tmp_path,
                                                       command):
        # v of the x1 cells squares values near 1e160: no overflow
        # warning ahead of the one line that names the column.
        rng = np.random.default_rng(0)
        data = tmp_path / "wide.csv"
        save_csv(Dataset(names=["x1", "x2"],
                         columns=[rng.uniform(-1e160, 1e160, 2000),
                                  rng.uniform(-1.0, 1.0, 2000)]), data)
        run = subprocess.run(
            [sys.executable, "-m", "atdev.cli", command, "--data", str(data),
             "--model-id", "custom", "--terms",
             '[[1.0, {"0": 1, "1": 1}], [2.0, {"1": 2}]]', "--k-bins", "20",
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120)
        assert run.returncode == 3
        assert run.stderr == "numerical failure: non-finite v for column 'x1'\n"

    def test_an_overflowing_response_is_one_error_line(self, tmp_path):
        # x1^2 overflows at sigma 1e200: numpy's overflow warning is not
        # printed ahead of the one error line.
        run = subprocess.run(
            [sys.executable, "-m", "atdev.cli", "simulate", "--case",
             "bivariate_normal", "--sigma", "1e200", "1", "--bn-model",
             "quad_plus_interaction", "--n", "10", "--out-dir",
             str(tmp_path)],
            capture_output=True, text=True, timeout=120)
        assert run.returncode == 2
        assert run.stderr.startswith("error:")
        assert len(run.stderr.splitlines()) == 1, run.stderr


def _run_with_config(command, config, tmp_path, *flags):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    return main([command, "--config", str(cfg), *flags])


class TestConfigKeys:
    @pytest.mark.parametrize("command, config, message", [
        ("effects", {"kbins": 7}, "unknown config key 'kbins'"),
        ("effects", {"columns": "x1"},
         "'columns' must be a non-empty list of strings, got 'x1'"),
        ("effects", {"external_cmd": 5}, "'external_cmd' must be a string"),
        ("effects", {"data": 5}, "'data' must be a string, got 5"),
        ("effects", {"out_dir": 5}, "'out_dir' must be a string, got 5"),
        ("effects", {"fd_step": "0.1"}, "'fd_step' must be a finite number"),
        ("effects", {"fd_step": True}, "'fd_step' must be a finite number"),
        ("effects", {"scatter_cap": 10},
         "config key 'scatter_cap' is not an option of effects"),
        ("simulate", {"case": "nope"}, "'case' must be one of"),
        ("simulate", {"case": "bivariate_normal", "bn_model": "zzz"},
         "'bn_model' must be one of"),
    ])
    def test_bad_keys_are_usage_errors(self, data622, tmp_path, capsys,
                                       command, config, message):
        base = ({"case": "bivariate_normal", "n": 50} if command == "simulate"
                else {"data": data622, "response": "y",
                      "model_id": "case_622"})
        out = tmp_path / "never"
        rc = _run_with_config(command, {**base, **config}, tmp_path,
                              "--out-dir", str(out))
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--case", "nope"],
        ["--case", "bivariate_normal", "--bn-model", "zzz"],
    ])
    def test_choice_flags_are_usage_errors(self, tmp_path, flags):
        assert main(["simulate", *flags, "--out-dir",
                     str(tmp_path / "never")]) == 1


class TestDeadFlags:
    @pytest.mark.parametrize("command, flag", [
        ("effects", ["--seed", "3"]),
        ("matrix", ["--center"]),
        ("matrix", ["--smooth-marginal", "3"]),
        ("matrix", ["--columns", "x2"]),
        ("heatmap", ["--seed", "3"]),
        ("heatmap", ["--no-center"]),
        ("heatmap", ["--smooth-marginal", "3"]),
        ("heatmap", ["--columns", "x2"]),
        ("importance", ["--svg"]),
        ("importance", ["--columns", "x2"]),
        ("importance", ["--smooth-marginal", "3"]),
        ("importance", ["--seed", "3"]),
        ("importance", ["--center"]),
    ])
    def test_flags_a_command_ignores_are_rejected(self, data622, tmp_path,
                                                  capsys, command, flag):
        out = tmp_path / "never"
        rc = main([command, "--data", data622, "--response", "y",
                   "--model-id", "case_622", "--k-bins", "10",
                   "--out-dir", str(out), *flag])
        assert rc == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestModelSourceOptions:
    @pytest.mark.parametrize("source, message", [
        (["--model-id", "case_622", "--terms", '[[1.0, {"0": 2}]]'],
         "--terms needs --model-id custom"),
        (["--external-cmd", "cat", "--terms", '[[1.0, {"0": 2}]]'],
         "--terms needs --model-id custom"),
        (["--model-id", "custom", "--terms", '[[1.0, {"0": 2}]]',
          "--coeffs", "1", "2", "3"], "--coeffs needs a catalog --model-id"),
        (["--external-cmd", "cat", "--coeffs", "1", "2", "3"],
         "--coeffs needs a catalog --model-id"),
        (["--model-id", "case_622", "--fd-step", "0.1"],
         "--fd-step needs --external-cmd"),
        (["--model-id", "custom", "--terms", '[[1.0, {"0": 2}]]',
          "--fd-step", "0.1"], "--fd-step needs --external-cmd"),
        (["--mlp-weights", "w.json", "--fd-step", "0.1"],
         "--fd-step needs --external-cmd"),
    ])
    def test_options_the_source_ignores_are_rejected(self, data622, tmp_path,
                                                     capsys, source, message):
        out = tmp_path / "never"
        rc = main(["importance", "--data", data622, "--response", "y",
                   "--k-bins", "10", "--out-dir", str(out), *source])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_coeffs_on_a_fixed_form_model_stay_a_model_error(
            self, data622, tmp_path, capsys):
        rc = main(["importance", "--data", data622, "--response", "y",
                   "--model-id", "case_622", "--coeffs", "1", "2", "3",
                   "--out-dir", str(tmp_path / "never")])
        assert rc == 2
        assert "takes no coefficients" in capsys.readouterr().err


class TestCustomTerms:
    @pytest.mark.parametrize("terms, bad", [
        ([[1.0, {"0": 2.5}]], "term 1"),
        ([[1.0, {"0": 1}], [2.0, {"1": True}]], "term 2"),
        ([["1", {"0": 1}]], "term 1"),
        ([[1.0, {"a": 2}]], "term 1"),
        ([[1.0, {"-1": 2}]], "term 1"),
        ([[1.0, {"0": 0}]], "term 1"),
        ([[1.0, {"0": 1}], [2.0]], "term 2"),
        ([5], "term 1"),
        (5, "'terms' must be a list"),
    ])
    def test_terms_are_checked_not_coerced(self, data622, tmp_path, capsys,
                                           terms, bad):
        out = tmp_path / "never"
        rc = main(["effects", "--data", data622, "--response", "y",
                   "--model-id", "custom", "--terms", json.dumps(terms),
                   "--k-bins", "10", "--out-dir", str(out)])
        assert rc == 1
        assert bad in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_column_stays_a_model_error(self, data622, tmp_path,
                                                     capsys):
        rc = main(["effects", "--data", data622, "--response", "y",
                   "--model-id", "custom", "--terms", '[[1.0, {"7": 2}]]',
                   "--out-dir", str(tmp_path / "never")])
        assert rc == 2
        assert "term references variable 7" in capsys.readouterr().err


class TestFitMlpBounds:
    @pytest.mark.parametrize("flag, message", [
        (["--batch-size", "0"], "--batch-size must be >= 1"),
        (["--max-epochs", "0"], "--max-epochs must be >= 1"),
        (["--hidden", "0"], "--hidden must be >= 1"),
        (["--learning-rate", "-1"], "--learning-rate must be > 0"),
        (["--learning-rate", "0"], "--learning-rate must be > 0"),
        (["--patience", "-1"], "--patience must be >= 0"),
    ])
    def test_bounds_are_usage_errors(self, data61, tmp_path, capsys, flag,
                                     message):
        out = tmp_path / "never"
        rc = main(["fit-mlp", "--data", data61, "--out-dir", str(out),
                   "--max-epochs", "3", *flag])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def _charts(*stems):
    return {f"{stem}.json" for stem in stems}, {f"{stem}.svg" for stem in stems}


# command: (argv, files that are not charts, (chart JSONs, chart SVGs))
_OUTPUTS = {
    "effects": (["effects"], {f"curves_{name}.{ext}"
                              for name in ("x1", "x2", "x3")
                              for ext in ("csv", "json")},
                _charts(*(f"overlay_{pair}_{name}"
                          for pair in ("total_marginal", "pd_marginal_ale")
                          for name in ("x1", "x2", "x3")))),
    "matrix-atdev": (["matrix", "--kind", "ATDEV"], set(),
                     _charts("matrix_atdev")),
    "matrix-le": (["matrix", "--kind", "LE"], set(), _charts("matrix_le")),
    "heatmap": (["heatmap"], set(), _charts(
        "components_heatmap", "correlation_heatmap", "component_totals_bars",
        "derivative_energy_bars")),
    "importance": (["importance"], {"importance.json", "importance.csv"},
                   (set(), set())),
}


class TestOutputNames:
    """The exact set of files each estimation command writes. Every
    chart's SVG sits beside its JSON, under the same stem, and only with
    --svg, which the commands without charts do not take."""

    @pytest.mark.parametrize("case, svg", [
        (case, svg) for case, (_, _, (charts, _)) in _OUTPUTS.items()
        for svg in (False, True) if charts or not svg])
    def test_exact_file_names(self, data622, tmp_path, case, svg):
        command, files, (jsons, svgs) = _OUTPUTS[case]
        out = tmp_path / "out"
        rc = main([*command, "--data", data622, "--response", "y",
                   "--model-id", "case_622", "--k-bins", "12",
                   "--out-dir", str(out), *(["--svg"] if svg else [])])
        assert rc == 0
        assert {p.name for p in out.iterdir()} == \
            files | jsons | (svgs if svg else set())


# stem prefix: (chart, the title the command gives it, from its payload)
_CHARTS = {
    "overlay_": (asvg.curve_chart, lambda payload: payload["variable"]),
    "matrix_": (asvg.matrix_chart, lambda payload: payload["kind"]),
    "components_heatmap": (asvg.heatmap_chart,
                           lambda payload: "effect components"),
    "correlation_heatmap": (asvg.heatmap_chart, lambda payload: "correlation"),
    "component_totals_bars": (asvg.bar_chart, lambda payload: payload["label"]),
    "derivative_energy_bars": (asvg.bar_chart,
                               lambda payload: payload["label"]),
}


class TestChartsFromPayloads:
    def test_each_svg_is_drawn_from_its_json_alone(self, data622, tmp_path):
        out = tmp_path / "out"
        for command in (["effects"], ["matrix", "--kind", "ATDEV"],
                        ["matrix", "--kind", "LE"], ["heatmap"]):
            assert main([*command, "--data", data622, "--response", "y",
                         "--model-id", "case_622", "--k-bins", "12",
                         "--out-dir", str(out), "--svg"]) == 0
        svgs = sorted(out.glob("*.svg"))
        assert len(svgs) == 6 + 2 + 4
        for path in svgs:
            (chart, title), = [v for prefix, v in _CHARTS.items()
                               if path.stem.startswith(prefix)]
            payload = load_json(path.with_suffix(".json"))
            assert chart(payload, title(payload)).encode() == \
                path.read_bytes(), path.name


class TestNonFiniteEstimates:
    """x1 at the scale of 1e160 under f = x1^2 + x2: the curves and the
    derivative energy of x1 overflow. Such estimates are exit 3, and
    nothing is written; the local effects stay finite and are written."""

    TERMS = '[[1.0, {"0": 2}], [1.0, {"1": 1}]]'

    @pytest.fixture()
    def huge(self, tmp_path):
        rng = np.random.default_rng(0)
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1e160, 1e160, 500),
                             rng.uniform(-1.0, 1.0, 500)])
        path = tmp_path / "huge.csv"
        save_csv(d, path)
        return str(path)

    def run(self, data, out, *command):
        return main([*command, "--data", data, "--model-id", "custom",
                     "--terms", self.TERMS, "--k-bins", "10",
                     "--out-dir", str(out)])

    @pytest.mark.parametrize("command", [
        ["effects"], ["matrix", "--kind", "ATDEV"], ["heatmap"],
        ["importance"]], ids=lambda c: "-".join(c))
    def test_exit_3_and_no_files(self, huge, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning):
            rc = self.run(huge, out, *command)
        assert rc == 3
        assert "numerical failure: non-finite" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_local_effects_are_written(self, huge, tmp_path):
        out = tmp_path / "out"
        assert self.run(huge, out, "matrix", "--kind", "LE") == 0
        text = (out / "matrix_le.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        json.loads(text)


class TestColumnAtTheDoubleRange:
    """x2 spans +-1.7e308, so the two edges of its top bin sum past the
    largest double: its midpoints are taken as a / 2 + b / 2, and
    both commands run without a warning."""

    @pytest.fixture()
    def wide(self, tmp_path):
        rng = np.random.default_rng(0)
        x2 = 1.7e308 * rng.uniform(-1.0, 1.0, 500)
        x2[:2] = -1.7e308, 1.7e308
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1.0, 1.0, 500), x2],
                    response=np.zeros(500))
        path = tmp_path / "wide.csv"
        save_csv(d, path)
        return str(path)

    @pytest.mark.parametrize("command", ["effects", "importance"])
    def test_exit_0_with_finite_increasing_grids(self, wide, tmp_path,
                                                 capsys, command):
        out = tmp_path / "out"
        rc = main([command, "--data", wide, "--response", "y",
                   "--model-id", "additive_linear", "--coeffs", "3", "0",
                   "--out-dir", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        if command == "importance":
            report = load_json(out / "importance.json")
            assert np.all(np.isfinite(report["v"]))
            return
        for name in ("x1", "x2"):
            for curve in load_json(out / f"curves_{name}.json")["curves"]:
                grid = np.array(curve["grid"])
                assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)


class TestColumnPastTheDoubleRange:
    """a holds -1.7e308 and 1.7e308, more than the largest double apart:
    no quantile edge between them is a double. Binning it is exit 3 with
    one stderr line naming the column, and nothing is written."""

    @pytest.mark.parametrize("command", [["effects"],
                                         ["importance", "--k-bins", "2"]],
                             ids=lambda c: c[0])
    def test_exit_3_naming_the_column(self, tmp_path, capfd, command):
        data = tmp_path / "two.csv"
        data.write_text("a,b\n-1.7e308,0.5\n1.7e308,-0.25\n")
        out = tmp_path / "out"
        rc = main([*command, "--data", str(data), "--model-id",
                   "additive_linear", "--out-dir", str(out)])
        assert rc == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure: variable 'a' ")
        assert "largest double" in err[0]
        assert not list(out.glob("*"))


def test_the_run_holds_no_response(data622, tmp_path, monkeypatch):
    # No estimation command reads the response column, so the run's
    # Dataset holds none, and its matrix is the loaded one's, not a copy.
    built = []

    class Recording(atdev.cli.Estimation):
        def __init__(self, model, data, **settings):
            built.append(data)
            super().__init__(model, data, **settings)

    monkeypatch.setattr(atdev.cli, "Estimation", Recording)
    loaded = []
    load = atdev.cli.load_csv
    monkeypatch.setattr(atdev.cli, "load_csv",
                        lambda *a, **k: loaded.append(load(*a, **k))
                        or loaded[-1])
    assert run_effects(data622, tmp_path / "out") == 0
    [d] = built
    assert d.response is None
    assert loaded[0].response is not None
    assert np.shares_memory(d.matrix(), loaded[0].matrix())
