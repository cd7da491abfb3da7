"""Predictor backends: polynomial catalog, trained network, external
scoring process."""

import io
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atdev.data
from atdev import (SimSpec, catalog_model, custom_model, fit_mlp, generate,
                   marginal, models, pdp, quantile_bins, wrap_external)
from atdev.data import Dataset
from atdev.errors import DataError, ModelError, NumericalError
from atdev.gradients import check_gradient, fd_step, gradient_table
from atdev.models import (CATALOG_IDS, ROW_BUDGET, AnalyticModel, MlpModel,
                          Predictor, _parse_scores, _write_rows)
from helpers import failing_open, take
from mlp_reference import reference_fit_mlp


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

    @pytest.mark.parametrize("backend", ["polynomial", "network",
                                         "external"])
    def test_bad_arguments_are_rejected_before_scoring(self, scorer_path,
                                                       tmp_path, backend):
        model = {
            "polynomial": lambda: catalog_model("case_622"),
            "network": lambda: random_network(np.random.default_rng(1), 3, 4),
            "external": lambda: recording_scorer(scorer_path, tmp_path, p=3),
        }[backend]()
        x, grid = np.ones((4, 3)), np.array([0.0, 1.0])
        for j in (3, -1, 1.0, True, None):
            with pytest.raises(ModelError, match="column index"):
                model.partial_dependence(x, j, grid)
        with pytest.raises(ModelError, match="at least one row"):
            model.partial_dependence(np.ones((0, 3)), 0, grid)
        for bad in (np.ones((2, 2)), np.float64(0.5)):
            with pytest.raises(ModelError, match="1-D"):
                model.partial_dependence(x, 0, bad)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericalError):
                model.partial_dependence(x, 0, np.array([0.0, bad]))
        assert recorded(tmp_path) == []
        # The last column and an integer of numpy's own are fine.
        assert len(model.partial_dependence(x, np.int64(2), grid)) == 2

    def test_sweep_cuts_the_swept_rows_at_the_row_budget(self, scorer_path,
                                                         tmp_path):
        assert ROW_BUDGET == 32_768
        for n, k, spawns in [
            (8_192, 3, [24_576]),  # N K below R: one spawn
            (8_192, 4, [32_768]),  # N K at R: one full spawn
            (8_192, 5, [32_768, 8_192]),  # above R: the last is not full
            # R is not a multiple of N: the first spawn ends inside the
            # fourth grid value's rows
            (10_000, 4, [32_768, 7_232]),
            # N above R: spawns run on across grid values
            (40_000, 2, [32_768, 32_768, 14_464]),
        ]:
            log = tmp_path / f"{n}x{k}"
            log.mkdir()
            ext = recording_scorer(scorer_path, log, p=2)
            x = np.column_stack([np.arange(n) * 0.5, np.arange(n) % 4])
            before = x.copy()
            grid = np.arange(k) * 10.0 - 3.0
            values = ext.partial_dependence(x, 0, grid)
            chunks = swept_chunks(x, 0, grid)
            assert [len(c) for c in chunks] == spawns
            assert recorded(log) == sorted(map(per_cell_writer, chunks))
            # Column 1 cycles 0, 1, 2, 3: every row mean is z + 1.5 exactly.
            assert np.array_equal(values, grid + 1.5)
            assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_sweep_requests_hold_the_swept_rows_in_order(
            self, scorer_path, tmp_path, monkeypatch, j):
        monkeypatch.setattr(models, "ROW_BUDGET", 7)
        for n, spawns in [
            # N = 20 over a budget of 7: spawns cut through the rows of
            # every grid value, and one spawn holds the end of one grid
            # value and the start of the next.
            (20, [7] * 8 + [4]),
            # N = 3: a spawn holds two grid values and a third's first row.
            (3, [7, 2]),
        ]:
            log = tmp_path / str(n)
            log.mkdir()
            x = np.random.default_rng(j).uniform(-1.0, 1.0, (n, 5))
            x[n // 2] = TestWire.EXTREMES[:5]
            grid = np.array([-0.0, 0.1, 1e16])
            ext = recording_scorer(scorer_path, log, p=5)
            values = ext.partial_dependence(x, j, grid)
            chunks = swept_chunks(x, j, grid)
            assert [len(c) for c in chunks] == spawns
            assert recorded(log) == sorted(map(per_cell_writer, chunks))
            looped = predict_loop(
                wrap_external([sys.executable, scorer_path, "sum"], p=5),
                x, j, grid)
            assert values.tobytes() == looped.tobytes()

    def test_sweep_leaves_x_untouched_when_scoring_fails(self, scorer_path,
                                                         tmp_path):
        ext = recording_scorer(scorer_path, tmp_path, p=2,
                               mode=("failat", "40.0"))
        x = np.column_stack([np.linspace(-1.0, 1.0, 8_192), np.ones(8_192)])
        before = x.copy()
        with pytest.raises(ModelError, match="scorer exited 9: refusing"):
            ext.partial_dependence(x, 0, np.array([0.0, 10.0, 20.0, 30.0,
                                                   40.0]))
        calls = sorted((len(t), t[0, 0], t[-1, 0])
                       for t in map(parse_request, recorded(tmp_path)))
        assert calls == [(8_192, 40.0, 40.0), (32_768, 0.0, 30.0)]
        assert x.tobytes() == before.tobytes()

    def test_failure_mid_sweep_reaps_every_scorer(self, scorer_path,
                                                   tmp_path):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("open descriptors are listed under /proc/self/fd")
        # Four calls of two grid values each; the second call fails.
        ext = recording_scorer(scorer_path, tmp_path, p=2,
                               mode=("failat", "20.0"))
        x = np.column_stack([np.zeros(16_384), np.ones(16_384)])
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(ModelError) as exc:
            ext.partial_dependence(x, 0, np.arange(8) * 10.0)
        assert str(exc.value) == "external scorer exited 9: refusing to score"
        assert sorted(os.listdir("/proc/self/fd")) == fds
        # No child is left, running or unreaped.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # The third call may have started before the second failed; the
        # fourth never did.
        firsts = {parse_request(r)[0, 0] for r in recorded(tmp_path)}
        assert {0.0, 20.0} <= firsts <= {0.0, 20.0, 40.0}

    def test_non_finite_grid_is_rejected_before_any_spawn(self, scorer_path,
                                                          tmp_path):
        ext = recording_scorer(scorer_path, tmp_path, p=2)
        x = np.ones((10, 2))
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericalError):
                ext.partial_dependence(x, 1, np.array([0.0, 1.0, bad]))
        assert recorded(tmp_path) == []


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

    def test_failed_save_leaves_no_file(self, tmp_path, monkeypatch, mlp61):
        monkeypatch.setattr(atdev.data, "open", failing_open(0),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            mlp61[0].save(tmp_path / "w.json")
        assert list(tmp_path.iterdir()) == []

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


def split(d: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    return take(d, np.arange(n_train)), take(d, np.arange(n_train, d.n))


class TestFitMatchesReference:
    """fit_mlp gives the same bits as the per-layer loop it replaced: the
    weights and every FitReport field, both histories included."""

    @staticmethod
    def assert_same_fit(train, valid, **kw):
        model, report = fit_mlp(train, valid, **kw)
        ref_model, ref_report = reference_fit_mlp(train, valid, **kw)
        for name in ("w1", "b1", "w2"):
            assert np.array_equal(getattr(model, name),
                                  getattr(ref_model, name)), name
        assert model.b2 == ref_model.b2
        assert report == ref_report  # every field, histories included
        return report

    # 1001 rows in batches of 100 end on a one-row batch. With 75, a loss
    # computed through BLAS in blocks of batch_size rows moves the last
    # bit of a history value at this draw, as its per-row sums depend on
    # where each row sits in the call.
    @pytest.mark.parametrize("n_train, batch_size", [(1000, 75), (1001, 100)])
    def test_last_batch_is_short(self, n_train, batch_size):
        full = generate(SimSpec(case="complex_623", n=n_train + 300, seed=1))
        self.assert_same_fit(*split(full, n_train), hidden=9, max_epochs=6,
                             seed=0, batch_size=batch_size)

    def test_batch_larger_than_the_training_set(self):
        full = generate(SimSpec(case="interaction_622", n=400, seed=3))
        self.assert_same_fit(*split(full, 300), hidden=7, max_epochs=8,
                             seed=5, batch_size=512)

    def test_learning_rate_halved_and_stopped_early(self):
        full = generate(SimSpec(case="additive_621", n=900, seed=8))
        report = self.assert_same_fit(*split(full, 700), hidden=6,
                                      max_epochs=300, patience=2, seed=6,
                                      learning_rate=0.05, batch_size=64)
        # stopping after 2 epochs without gain halves the rate after 1
        assert report.epochs_run < 300

    def test_constant_response(self):
        rng = np.random.default_rng(4)
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1, 1, 700), rng.uniform(-1, 1, 700)],
                    response=np.full(700, 3.7))
        self.assert_same_fit(*split(d, 500), hidden=8, max_epochs=10,
                             patience=25, seed=1, batch_size=128)


def random_network(rng, p: int, hidden: int) -> MlpModel:
    return MlpModel(w1=rng.normal(size=(hidden, p)), b1=rng.normal(size=hidden),
                    w2=rng.normal(size=hidden), b2=float(rng.normal()))


class ScoredOnly(Predictor):
    """A model seen as a scorer: its gradients come from finite
    differences, whose probes go through ``predict``."""

    def __init__(self, model: Predictor):
        self.model, self.p = model, model.p

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.model.predict(x)


class TestRowBudget:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([ROW_BUDGET - 1, ROW_BUDGET, ROW_BUDGET + 1,
                            2 * ROW_BUDGET + 7]),
           st.integers(1, 5), st.integers(1, 48), st.integers(0, 2**32 - 1))
    def test_blocked_network_equals_the_unblocked_formulas(self, n, p, hidden,
                                                           seed):
        """Equal to 1e-12 of the scale: a threaded BLAS splits an N-row
        product among its threads at N-dependent rows, and a row's last
        bits depend on where it falls in its thread's share, so the
        unblocked formula itself is bit-exact only for one split."""
        rng = np.random.default_rng(seed)
        model = random_network(rng, p, hidden)
        x = rng.uniform(-2.0, 2.0, (n, p))
        a = np.tanh(x @ model.w1.T + model.b1)
        for got, want in ((model.predict(x), a @ model.w2 + model.b2),
                          (model.gradient(x),
                           ((1.0 - a * a) * model.w2) @ model.w1)):
            assert got.shape == want.shape
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(got - want))) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([ROW_BUDGET - 1, ROW_BUDGET, ROW_BUDGET + 1,
                            2 * ROW_BUDGET + 7]),
           st.lists(st.tuples(st.floats(-2.0, 2.0),
                              st.dictionaries(st.integers(0, 2),
                                              st.integers(1, 3), max_size=3)),
                    min_size=1, max_size=5),
           st.integers(0, 2**32 - 1))
    def test_blocked_polynomial_equals_the_unblocked_formulas(self, n, terms,
                                                              seed):
        model = custom_model(3, terms)
        x = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, 3))
        f, g = np.zeros(n), np.zeros((n, 3))
        for coef, powers in model.terms:
            t = np.full(n, coef)
            for j, a in powers.items():
                t *= x[:, j] ** a
            f += t
            for j, a in powers.items():
                t = np.full(n, coef * a)
                t *= x[:, j] ** (a - 1)
                for m, b in powers.items():
                    if m != j:
                        t *= x[:, m] ** b
                g[:, j] += t
        assert model.predict(x).tobytes() == f.tobytes()
        assert model.gradient(x).tobytes() == g.tobytes()

    def test_no_backend_call_sees_more_than_the_budget(self, monkeypatch):
        sizes = []
        for cls in (AnalyticModel, MlpModel):
            for name in ("_predict_rows", "_gradient_rows"):
                def counted(self, x, real=getattr(cls, name)):
                    sizes.append(len(x))
                    return real(self, x)
                monkeypatch.setattr(cls, name, counted)
        n = 2 * ROW_BUDGET + 7
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, (n, 3))
        d = Dataset(names=["a", "b", "c"], columns=list(x.T))
        bins = quantile_bins(d, 0, 10)
        network = random_network(rng, 3, 8)
        polynomial = custom_model(3, [(1.0, {0: 2, 1: 1}), (0.5, {2: 1})])
        for model in (network, polynomial, ScoredOnly(network)):
            sizes.clear()
            gradient_table(model, d)
            pdp(model, d, 0, bins=bins)
            marginal(model, d, 0, bins=bins)
            Predictor.partial_dependence(model, x, 1, np.linspace(-1, 1, 3))
            # The gradient or the FD probes, the marginal and the sweep.
            rows = n * (1 if model.has_analytic_gradient else 6) + 4 * n
            if model is not polynomial:
                rows += 10 * n  # pdp sweeps too; the polynomial's is exact
            assert sum(sizes) == rows
            assert max(sizes) <= ROW_BUDGET

    def test_external_probes_are_cut_at_the_budget(self, scorer_path,
                                                   tmp_path, monkeypatch):
        monkeypatch.setattr(models, "ROW_BUDGET", 7)
        x = np.random.default_rng(5).uniform(-1.0, 1.0, (10, 2))
        table = gradient_table(
            recording_scorer(scorer_path, tmp_path, p=2, mode=("cube",)), x)
        # 2N = 20 probe rows a column: spawns of 7, 7 and 6 rows.
        assert sorted(len(parse_request(r)) for r in recorded(tmp_path)) \
            == [6, 6, 7, 7, 7, 7]
        assert np.allclose(table.values[:, 0], 3.0 * x[:, 0] ** 2, atol=1e-6)

    def test_network_gradient_memory_does_not_grow_with_n(self):
        rng = np.random.default_rng(6)
        model = random_network(rng, 5, 40)
        above_output = []
        for n in (2 * ROW_BUDGET, 8 * ROW_BUDGET):
            x = rng.uniform(-1.0, 1.0, (n, 5))
            tracemalloc.start()
            try:
                g = model.gradient(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above_output.append(peak - g.nbytes)
        # Only the input check's one byte per cell grows with N; one
        # unblocked N x 40 layer would add 8 * 6R * 40 bytes.
        assert above_output[1] <= above_output[0] + 6 * ROW_BUDGET * 5 + 4096
        assert above_output[0] < 2 * ROW_BUDGET * 40 * 8


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

    def test_batching_preserves_order(self, scorer_path, tmp_path,
                                      monkeypatch):
        monkeypatch.setattr(models, "ROW_BUDGET", 7)
        ext = recording_scorer(scorer_path, tmp_path, p=1)
        x = np.arange(20.0).reshape(-1, 1)
        assert np.array_equal(ext.predict(x), x[:, 0])
        assert sorted(len(parse_request(r)) for r in recorded(tmp_path)) \
            == [6, 7, 7]

    def test_empty_command_rejected(self):
        with pytest.raises(ModelError):
            wrap_external([], p=2)

    def test_garbled_line_names_row_and_token(self, scorer_path):
        ext = wrap_external([sys.executable, scorer_path, "garbage"], p=2)
        with pytest.raises(ModelError) as exc:
            ext.predict(np.zeros((5, 2)))
        assert str(exc.value) == ("external scorer protocol error: row 2 is "
                                  "not a number: 'not-a-number'")

    def test_non_utf8_output_is_protocol_error(self, scorer_path):
        ext = wrap_external([sys.executable, scorer_path, "binary"], p=2)
        with pytest.raises(ModelError) as exc:
            ext.predict(np.zeros((3, 2)))
        assert "protocol error: row 0 is not a number" in str(exc.value)

    def test_fd_probes_share_one_call(self, scorer_path, tmp_path):
        ext = wrap_external([sys.executable, scorer_path, "cube"], p=3)
        x = np.random.default_rng(2).uniform(-1.0, 1.0, (50, 3))
        steps = [fd_step(x, j) for j in range(3)]
        separate, probes = [], []
        for j, h in enumerate(steps):
            up, dn = x.copy(), x.copy()
            up[:, j] += h
            dn[:, j] -= h
            separate.append((ext.predict(up) - ext.predict(dn)) / (2.0 * h))
            probes.append(np.concatenate([up, dn]))
        table = gradient_table(
            recording_scorer(scorer_path, tmp_path, p=3, mode=("cube",)), x)
        sent = recorded(tmp_path)
        assert sorted(len(parse_request(r)) for r in sent) == [100, 100, 100]
        assert sent == sorted(per_cell_writer(t) for t in probes)
        assert np.array_equal(table.values, np.column_stack(separate))


def per_cell_writer(x: np.ndarray) -> bytes:
    """The request as the original per-cell ``repr`` writer built it."""
    lines = [f"{len(x)} {x.shape[1]}"]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in x)
    return ("\n".join(lines) + "\n").encode()


def parse_request(request: bytes) -> np.ndarray:
    """The rows of a request, header dropped."""
    head, _, body = request.partition(b"\n")
    n, p = map(int, head.split())
    return np.array(body.split(), dtype=np.float64).reshape(n, p)


def recording_scorer(scorer_path, directory, p: int, mode=("sum",),
                     **kwargs):
    """External model whose scorer saves every request it is sent in
    ``directory``."""
    return wrap_external([sys.executable, scorer_path, "record",
                          str(directory), *mode], p=p, **kwargs)


def recorded(directory) -> list[bytes]:
    """The requests a recording scorer saved, sorted: two scorers may run
    at once, so the order of arrival is not the order of the spawns."""
    return sorted(path.read_bytes() for path in Path(directory).glob("*.req"))


def swept_rows(x: np.ndarray, j: int, grid: np.ndarray) -> list[np.ndarray]:
    """x with column j set to each grid value in turn, one copy each."""
    copies = [x.copy() for _ in grid]
    for c, z in zip(copies, grid):
        c[:, j] = z
    return copies


def swept_chunks(x: np.ndarray, j: int,
                 grid: np.ndarray) -> list[np.ndarray]:
    """The rows each spawn of a sweep holds: the swept rows end to end,
    cut every ROW_BUDGET rows."""
    rows, budget = np.concatenate(swept_rows(x, j, grid)), models.ROW_BUDGET
    return [rows[r:r + budget] for r in range(0, len(rows), budget)]


def predict_loop(model: Predictor, x: np.ndarray, j: int,
                 grid: np.ndarray) -> np.ndarray:
    """Partial dependence the long way: one predict call per grid value."""
    return np.array([model.predict(c).mean() for c in swept_rows(x, j, grid)])


class TestWire:
    EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5, 0.1,
                -1.7976931348623157e308, -5e-324, 2.0 ** 53 + 2, 1 / 3]

    def test_encoder_matches_per_cell_repr(self):
        x = np.array(self.EXTREMES).reshape(-1, 2)
        buf = io.BytesIO()
        _write_rows(buf, x)
        assert buf.getvalue() == per_cell_writer(x)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 9_000), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_encoder_matches_per_cell_repr_on_random_bits(self, n, p, seed):
        # Blocks of rows span the encoder's block size.
        bits = np.random.default_rng(seed).integers(0, 2**64, (n, p),
                                                    dtype=np.uint64)
        x = bits.view(np.float64)
        x = np.where(np.isfinite(x), x, 1.5)
        buf = io.BytesIO()
        _write_rows(buf, x)
        assert buf.getvalue() == per_cell_writer(x)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), max_size=400),
           st.sampled_from([b"\n", b" ", b"\r\n"]))
    def test_vector_parse_equals_per_token_float(self, values, sep):
        tokens = [repr(v).encode() for v in values]
        tokens += [b"1_000", b"inf", b"-inf", b"1e400", b"-0.0", b"+7"]
        stdout = sep.join(tokens) + b"\n"
        loop = np.array([float(tok) for tok in stdout.decode().split()])
        assert _parse_scores(stdout, len(tokens)).tobytes() == loop.tobytes()

    def test_tokens_only_float_accepts_still_parse(self):
        # Non-ASCII digits and separators fail the vectorized parse; the
        # token pass reads them as the text protocol always did.
        stdout = "1.5\n\u0661\u0662\u00a0\n-0.0\n".encode()
        assert _parse_scores(stdout, 3).tolist() == [1.5, 12.0, -0.0]

    def test_round_trip_through_the_scorer_is_bit_exact(self, scorer_path):
        # With p = 1 the sum scorer echoes each value back as 0 + v,
        # which turns -0.0 into 0.0.
        bits = np.random.default_rng(11).integers(0, 2**64, 3_000,
                                                  dtype=np.uint64)
        x = bits.view(np.float64)
        x = np.where(np.isfinite(x), x, 0.25)
        x[:len(self.EXTREMES)] = self.EXTREMES
        ext = wrap_external([sys.executable, scorer_path, "sum"], p=1)
        assert ext.predict(x[:, None]).tobytes() == (0.0 + x).tobytes()

    def test_non_finite_answer_is_numerical_error(self):
        with pytest.raises(NumericalError, match="row 1"):
            wrap_external([sys.executable, "-c",
                           "import sys; sys.stdin.read(); print('1.0 1e400')"],
                          p=1).predict(np.zeros((2, 1)))
