"""Predictor backends: polynomial catalog, trained network, external
scoring process."""

import sys

import numpy as np
import pytest

from atdev import SimSpec, catalog_model, custom_model, fit_mlp, generate, wrap_external
from atdev.data import Dataset
from atdev.errors import DataError, ModelError, NumericalError
from atdev.gradients import check_gradient
from atdev.models import CATALOG_IDS, MlpModel, Predictor
from helpers import take


def rows(*rs):
    return np.asarray(rs, dtype=np.float64)


class TestAnalytic:
    def test_additive_linear(self):
        m = catalog_model("additive_linear", coeffs=[1.0, 1.0])
        assert m.predict(rows((2.0, 3.0)))[0] == 5.0

    def test_multiplicative(self):
        m = catalog_model("multiplicative")
        assert m.predict(rows((2.0, 3.0)))[0] == 6.0

    def test_quad_plus_interaction(self):
        m = catalog_model("quad_plus_interaction")
        assert m.predict(rows((2.0, 3.0)))[0] == 10.0

    def test_five_input_additive_form(self):
        m = catalog_model("case_61")
        x = rows((0.5, -0.5, 1.0, 0.25, 9.0))
        want = 0.5 + 0.25 + 1.0 + 0.8 * (-0.5) * 0.25
        assert np.isclose(m.predict(x)[0], want)

    def test_five_input_polynomial_form(self):
        m = catalog_model("case_623")
        x = rows((0.2, 0.5, -0.4, 0.1, 3.0))
        want = (0.2 + (3 * 0.25 - 1) / 2 + (4 * (-0.064) - 3 * (-0.4)) / 2
                + 0.8 * 0.5 * 0.1)
        assert np.isclose(m.predict(x)[0], want)

    def test_unused_column_has_zero_gradient(self):
        m = catalog_model("case_623")
        g = m.gradient(rows((0.2, 0.5, -0.4, 0.1, 3.0)))
        assert g[0, 4] == 0.0

    def test_width_mismatch(self):
        m = catalog_model("multiplicative")
        with pytest.raises(ModelError):
            m.predict(rows((1.0, 2.0, 3.0)))

    def test_nonfinite_input(self):
        m = catalog_model("multiplicative")
        with pytest.raises(NumericalError):
            m.predict(rows((np.nan, 1.0)))

    def test_unknown_id(self):
        with pytest.raises(ModelError):
            catalog_model("no_such_model")

    def test_fixed_form_takes_no_coeffs(self):
        with pytest.raises(ModelError):
            catalog_model("multiplicative", coeffs=[2.0])

    def test_additive_needs_arity_or_coeffs(self):
        with pytest.raises(ModelError):
            catalog_model("additive_linear")
        assert catalog_model("additive_linear", p=3).p == 3

    def test_custom_term_bounds(self):
        with pytest.raises(ModelError):
            custom_model(2, [(1.0, {5: 1})])
        with pytest.raises(ModelError):
            custom_model(2, [])

    def test_scaled_model(self):
        m = catalog_model("quad_plus_interaction")
        x = rows((1.5, -2.0), (0.0, 3.0))
        assert np.allclose(m.scaled(3.0).predict(x), 3.0 * m.predict(x))

    def test_catalog_ids_constructible(self):
        for mid in CATALOG_IDS:
            m = catalog_model(mid, p=2) if mid == "additive_linear" \
                else catalog_model(mid)
            out = m.predict(np.zeros((3, m.p)))
            assert out.shape == (3,) and np.all(np.isfinite(out))


class TestPartialDependence:
    def test_polynomial_closed_form_matches_the_sweep(self):
        m = catalog_model("case_623")
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (2_000, 5))
        grid = np.linspace(-1.0, 1.0, 9)
        for j in range(5):
            exact = m.partial_dependence(x, j, grid)
            swept = Predictor.partial_dependence(m, x, j, grid)
            assert np.max(np.abs(exact - swept)) < 1e-12

    def test_polynomial_checks_its_input(self):
        m = catalog_model("multiplicative")
        with pytest.raises(ModelError):
            m.partial_dependence(np.zeros((3, 3)), 0, np.zeros(2))
        with pytest.raises(NumericalError):
            m.partial_dependence(rows((1.0, np.nan)), 0, np.zeros(2))

    def test_sweep_scores_once_per_grid_value(self, scorer_path, monkeypatch):
        ext = wrap_external([sys.executable, scorer_path, "sum"], p=2)
        spawns = []
        real = ext._score_batch
        monkeypatch.setattr(ext, "_score_batch",
                            lambda x: spawns.append(len(x)) or real(x))
        x = rows((1.0, 2.0), (3.0, 4.0))
        values = ext.partial_dependence(x, 0, np.array([0.0, 10.0, 20.0]))
        assert spawns == [2, 2, 2]
        assert np.array_equal(values, [3.0, 13.0, 23.0])
        assert np.array_equal(x, rows((1.0, 2.0), (3.0, 4.0)))

    def test_sweep_restores_the_column_when_scoring_fails(self, scorer_path,
                                                          monkeypatch):
        ext = wrap_external([sys.executable, scorer_path, "sum"], p=2)
        calls = []

        def fail_second(x):
            calls.append(x[0, 0])
            if len(calls) == 2:
                raise ModelError("scorer died")
            return x.sum(axis=1)

        monkeypatch.setattr(ext, "_score_batch", fail_second)
        x = rows((1.0, 2.0), (3.0, 4.0))
        with pytest.raises(ModelError):
            ext.partial_dependence(x, 0, np.array([0.0, 10.0, 20.0]))
        assert calls == [0.0, 10.0]
        assert np.array_equal(x, rows((1.0, 2.0), (3.0, 4.0)))


class TestMlp:
    def test_validation_quality_on_additive_benchmark(self, mlp61):
        _, report, _ = mlp61
        assert report.valid_r2 >= 0.97

    def test_constant_response_recovered(self):
        rng = np.random.default_rng(4)
        cols = [rng.uniform(-1, 1, 2500), rng.uniform(-1, 1, 2500)]
        d = Dataset(names=["x1", "x2"], columns=cols,
                    response=np.full(2500, 3.7))
        train, valid = take(d, np.arange(2000)), take(d, np.arange(2000, 2500))
        model, report = fit_mlp(train, valid, hidden=8, max_epochs=150,
                                patience=25, seed=1)
        pred = model.predict(valid.matrix())
        assert np.max(np.abs(pred - 3.7)) < 1e-3

    def test_gradient_matches_finite_differences(self, mlp61):
        model, _, train = mlp61
        worst = check_gradient(model, train, rows=100)
        assert worst < 1e-4

    def test_same_seed_same_weights(self):
        full = generate(SimSpec(case="additive_621", n=1500, seed=9))
        train, valid = take(full, np.arange(1200)), take(full, np.arange(1200, 1500))
        kw = dict(hidden=6, max_epochs=12, patience=4, seed=11)
        m1, _ = fit_mlp(train, valid, **kw)
        m2, _ = fit_mlp(train, valid, **kw)
        assert np.array_equal(m1.w1, m2.w1)
        assert np.array_equal(m1.b1, m2.b1)
        assert np.array_equal(m1.w2, m2.w2)
        assert m1.b2 == m2.b2

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_names_last_finite_epoch(self):
        full = generate(SimSpec(case="additive_621", n=800, seed=9))
        train, valid = take(full, np.arange(600)), take(full, np.arange(600, 800))
        with pytest.raises(NumericalError) as exc:
            fit_mlp(train, valid, hidden=6, max_epochs=10, seed=1,
                    learning_rate=1e200)
        assert "epoch" in str(exc.value)

    def test_needs_responses(self):
        full = generate(SimSpec(case="additive_621", n=200, seed=9))
        bare = Dataset(names=list(full.names), columns=list(full.columns))
        with pytest.raises(DataError):
            fit_mlp(bare, full)

    def test_weights_round_trip(self, tmp_path, mlp61):
        model, _, train = mlp61
        path = tmp_path / "w.json"
        model.save(path)
        back = MlpModel.load(path)
        x = train.matrix()[:50]
        assert np.array_equal(back.predict(x), model.predict(x))

    @pytest.mark.parametrize("change, message", [
        ({"w1": [1.0, 2.0]}, "w1 has shape (2,)"),
        ({"w1": [[]]}, "w1 has shape (1, 0)"),
        ({"b1": [0.0, 0.0, 0.0]}, "b1 has shape (3,)"),
        ({"w2": [[1.0, 1.0, 1.0, 1.0]]}, "w2 has shape (1, 4)"),
        ({"w1": [[1.0, float("nan")]] * 4}, "non-finite weight"),
        ({"b2": float("inf")}, "non-finite weight"),
    ])
    def test_malformed_weights_rejected(self, change, message):
        payload = {"w1": np.ones((4, 2)).tolist(), "b1": [0.0] * 4,
                   "w2": [1.0] * 4, "b2": 0.5}
        assert MlpModel.from_dict(payload).p == 2
        with pytest.raises(ModelError) as exc:
            MlpModel.from_dict({**payload, **change})
        assert f"bad weights payload: {message}" in str(exc.value)

    def test_bad_weights_file(self, tmp_path):
        bad = tmp_path / "w.json"
        bad.write_text("{not json")
        with pytest.raises(ModelError):
            MlpModel.load(bad)
        with pytest.raises(ModelError):
            MlpModel.load(tmp_path / "absent.json")


class TestExternal:
    def test_identity_sum_matches_additive_model(self, scorer_path):
        ext = wrap_external([sys.executable, scorer_path, "sum"], p=3)
        ref = catalog_model("additive_linear", coeffs=[1.0, 1.0, 1.0])
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 3))
        assert np.array_equal(ext.predict(x), ref.predict(x))

    def test_short_output_is_protocol_error(self, scorer_path):
        ext = wrap_external([sys.executable, scorer_path, "short"], p=2)
        with pytest.raises(ModelError) as exc:
            ext.predict(np.zeros((5, 2)))
        assert "protocol" in str(exc.value)

    def test_garbled_line_reports_row(self, scorer_path):
        ext = wrap_external([sys.executable, scorer_path, "garbage"], p=2)
        with pytest.raises(ModelError) as exc:
            ext.predict(np.zeros((5, 2)))
        assert "row" in str(exc.value)

    def test_nan_output_is_numerical_error(self, scorer_path):
        ext = wrap_external([sys.executable, scorer_path, "nan"], p=2)
        with pytest.raises(NumericalError):
            ext.predict(np.zeros((4, 2)))

    def test_nonzero_exit_reports_stderr(self, scorer_path):
        ext = wrap_external([sys.executable, scorer_path, "fail"], p=2)
        with pytest.raises(ModelError) as exc:
            ext.predict(np.zeros((2, 2)))
        assert "refusing to score" in str(exc.value)

    def test_spawn_failure(self):
        ext = wrap_external(["/no/such/binary"], p=2)
        with pytest.raises(ModelError):
            ext.predict(np.zeros((2, 2)))

    def test_no_analytic_gradient(self, scorer_path):
        ext = wrap_external([sys.executable, scorer_path], p=2)
        assert not ext.has_analytic_gradient
        with pytest.raises(ModelError):
            ext.gradient(np.zeros((2, 2)))

    def test_batching_preserves_order(self, scorer_path):
        ext = wrap_external([sys.executable, scorer_path, "sum"], p=1,
                            batch_size=7)
        x = np.arange(20.0).reshape(-1, 1)
        assert np.array_equal(ext.predict(x), x[:, 0])

    def test_empty_command_rejected(self):
        with pytest.raises(ModelError):
            wrap_external([], p=2)
