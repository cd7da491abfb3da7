"""Predictor backends: polynomial catalog, trained network, external
scoring process."""

import dataclasses
import io
import os
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atdev.data
from atdev import (Estimation, SimSpec, catalog_model, custom_model, fit_mlp,
                   generate, marginal, models, pdp, wrap_external)
from atdev.data import Dataset
from atdev.errors import DataError, ModelError, NumericalError
from atdev.gradients import check_gradient, fd_step, gradient_table
from atdev.io import write_json
from atdev.models import (CATALOG_IDS, ROW_BUDGET, AnalyticModel,
                          ExternalModel, MlpModel, Predictor, _parse_scores,
                          _row_template, _write_swept)
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

    def test_three_input_additive_form(self):
        m = catalog_model("case_621")
        x = rows((-1.5, 0.25, 7.0))
        assert m.predict(x)[0] == 2.25 + 0.25

    def test_three_input_interaction_form(self):
        m = catalog_model("case_622")
        x = rows((2.0, -0.5, 7.0))
        assert m.predict(x)[0] == 2.0 - 0.5 + 2.0 * (-0.5)

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

    def test_analytic_gradient_is_a_class_attribute(self):
        # Not a dataclass field, so no constructor can switch a closed-form
        # gradient over to finite differences.
        for cls in (AnalyticModel, MlpModel):
            assert "has_analytic_gradient" not in {
                f.name for f in dataclasses.fields(cls)}
            assert cls.has_analytic_gradient
        with pytest.raises(TypeError):
            AnalyticModel(p=1, terms=((1.0, {0: 1}),),
                          has_analytic_gradient=False)

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
        # The sweep behind it takes K x N or K x 1 finite values.
        for bad in (np.ones((2, 3)), np.ones(2), np.ones((1, 4, 1))):
            with pytest.raises(ModelError, match="K x 4 or K x 1"):
                next(model.sweep(x, 0, bad))
        with pytest.raises(NumericalError):
            next(model.sweep(x, 0, [np.ones(4), [0.0, 0.0, np.inf, 0.0]]))
        # One swept column a block: K of them, each a column index.
        with pytest.raises(ModelError, match="2 swept columns for 1 blocks"):
            next(model.sweep(x, [0, 1], [[0.0]]))
        with pytest.raises(ModelError, match="column index"):
            next(model.sweep(x, [0, 3], [[0.0], [1.0]]))
        assert recorded(tmp_path) == []
        # The last column and an integer of numpy's own are fine.
        assert len(model.partial_dependence(x, np.int64(2), grid)) == 2

    def test_sweep_cuts_the_swept_rows_at_the_row_budget(self, scorer_path,
                                                         tmp_path):
        assert ROW_BUDGET == 32_768
        for n, k, spawns in [
            (8_192, 3, [24_576]),  # N K below R: one spawn
            (8_192, 4, [32_768]),  # N K at R: one spawn
            # above R: an even count of equal spawns; the first ends
            # inside the third grid value's rows
            (8_192, 5, [20_480, 20_480]),
            (10_000, 4, [20_000, 20_000]),
            # N above R: spawns of up to 2R rows, one a grid value here
            (40_000, 2, [40_000, 40_000]),
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
            # N = 20 over a budget of 7: 60 rows in six spawns of 10, two
            # a grid value.
            (20, [10] * 6),
            # N = 13: spawns of 9 or 10 rows cut through the rows of every
            # grid value, and the second holds the end of one grid value
            # and the start of the next.
            (13, [9, 10, 10, 10]),
            # N = 3: a spawn holds one grid value and the next's first row.
            (3, [4, 5]),
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
                               mode=("failat", "20.0"))
        x = np.column_stack([np.linspace(-1.0, 1.0, 8_192), np.ones(8_192)])
        before = x.copy()
        with pytest.raises(ModelError, match="scorer exited 9: refusing"):
            ext.partial_dependence(x, 0, np.array([0.0, 10.0, 20.0, 30.0,
                                                   40.0]))
        calls = sorted((len(t), t[0, 0], t[-1, 0])
                       for t in map(parse_request, recorded(tmp_path)))
        assert calls == [(20_480, 0.0, 20.0), (20_480, 20.0, 40.0)]
        assert x.tobytes() == before.tobytes()

    def test_failure_mid_sweep_reaps_every_scorer(self, scorer_path,
                                                   tmp_path):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("open descriptors are listed under /proc/self/fd")
        # Four calls of two grid values each; the second call fails.
        ext = recording_scorer(scorer_path, tmp_path, p=2,
                               mode=("failat", "20.0"))
        x = np.column_stack([np.zeros(20_000), np.ones(20_000)])
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

    def test_response_constant_everywhere_has_zero_r2(self):
        # np.var of 30 copies of 3.7 is 7.9e-31, not 0
        rng = np.random.default_rng(4)
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1, 1, 330), rng.uniform(-1, 1, 330)],
                    response=np.full(330, 3.7))
        _, report = fit_mlp(*split(d, 300), hidden=4, max_epochs=3)
        assert report.valid_r2 == 0.0

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

    @pytest.mark.parametrize("n_valid", [1, 3])
    def test_constant_validation_response_is_rejected(self, n_valid,
                                                      monkeypatch):
        full = generate(SimSpec(case="interaction_622", n=40, seed=2))
        d = Dataset(names=list(full.names), columns=full.matrix(),
                    response=np.concatenate([full.response[:-n_valid],
                                             np.full(n_valid, 0.1)]))
        train, valid = split(d, 40 - n_valid)
        # rejected before training: no epoch runs
        monkeypatch.setattr(MlpModel, "_hidden", None)
        with pytest.raises(DataError, match=rf"constant validation response "
                           rf"\({n_valid} row\(s\)\): R\^2 is undefined"):
            fit_mlp(train, valid, hidden=4, max_epochs=3)

    def test_weights_round_trip(self, tmp_path, mlp61):
        model, _, train = mlp61
        path = tmp_path / "w.json"
        write_json(path, model.to_dict())
        back = MlpModel.load(path)
        x = train.matrix()[:50]
        assert np.array_equal(back.predict(x), model.predict(x))

    def test_failed_save_leaves_no_file(self, tmp_path, monkeypatch, mlp61):
        monkeypatch.setattr(atdev.data, "open", failing_open(0),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_json(tmp_path / "w.json", mlp61[0].to_dict())
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

    def test_weights_file_that_is_not_utf8(self, tmp_path):
        bad = tmp_path / "w.json"
        bad.write_bytes(b"\xff{}")
        with pytest.raises(ModelError, match="bad weights file"):
            MlpModel.load(bad)


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

    # Both splits span several of the network's 1024-row loss blocks and
    # neither is a multiple of 1024.
    def test_splits_span_several_blocks(self):
        full = generate(SimSpec(case="complex_623", n=4501, seed=2))
        self.assert_same_fit(*split(full, 3001), hidden=17, max_epochs=4,
                             seed=3, batch_size=75)

    def test_constant_response(self):
        rng = np.random.default_rng(4)
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1, 1, 700), rng.uniform(-1, 1, 700)],
                    response=np.full(700, 3.7))
        self.assert_same_fit(*split(d, 500), hidden=8, max_epochs=10,
                             patience=25, seed=1, batch_size=128)


# Rows per network evaluation block.
BLOCK = MlpModel._block_rows


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


class Placed(ScoredOnly):
    """A scorer whose answer depends on a row's place in its call: the
    network's BLAS sums may depend on a row's place in its 1024-row
    block, and this scorer adds that place (in units of 2^-30), so a
    probe scored at another place reads differently."""

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.model.predict(x) + np.arange(len(x)) % BLOCK * 2.0 ** -30


def stacked_probes(x: np.ndarray, steps) -> np.ndarray:
    """The finite-difference probes as one copy, in sweep order:
    [x + h_0 e_0; x - h_0 e_0; x + h_1 e_1; ...]."""
    blocks = []
    for j, h in enumerate(steps):
        up, down = x.copy(), x.copy()
        up[:, j] += h
        down[:, j] -= h
        blocks += [up, down]
    return np.concatenate(blocks)


def budget_chunks(rows: np.ndarray) -> list[np.ndarray]:
    """Rows cut every ROW_BUDGET rows, as a sweep cuts its swept rows."""
    budget = models.ROW_BUDGET
    return [rows[r:r + budget] for r in range(0, len(rows), budget)]


def chunked_differences(model: Predictor, x: np.ndarray,
                        steps) -> np.ndarray:
    """The finite-difference table the long way: the stacked probes
    predicted chunk by chunk, and each column's down block subtracted
    from its up block."""
    f = np.concatenate([model.predict(c)
                        for c in budget_chunks(stacked_probes(x, steps))])
    n = len(x)
    return np.column_stack([(f[2 * j * n:(2 * j + 1) * n]
                             - f[(2 * j + 1) * n:(2 * j + 2) * n]) / (2.0 * h)
                            for j, h in enumerate(steps)])


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
    @given(st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]),
           st.integers(1, 5), st.integers(1, 48), st.integers(0, 2**32 - 1))
    def test_network_rows_do_not_depend_on_n(self, n, p, hidden, seed):
        """Bit for bit: f(x) is f over x's BLOCK-row slices, end to end,
        and its first k BLOCK rows are f of x's first k BLOCK rows."""
        assert BLOCK == 1024
        rng = np.random.default_rng(seed)
        model = random_network(rng, p, hidden)
        x = rng.uniform(-2.0, 2.0, (n, p))
        for f in (model.predict, model.gradient):
            whole = f(x)
            slices = [f(x[s:s + BLOCK]) for s in range(0, n, BLOCK)]
            assert whole.tobytes() == np.concatenate(slices).tobytes()
            for k in range(1, n // BLOCK + 1):
                assert whole[:k * BLOCK].tobytes() == \
                    f(x[:k * BLOCK]).tobytes()

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
        network = random_network(rng, 3, 8)
        polynomial = custom_model(3, [(1.0, {0: 2, 1: 1}), (0.5, {2: 1})])
        for model in (network, polynomial, ScoredOnly(network)):
            sizes.clear()
            ctx = Estimation(model, d, k_bins=10)
            ctx.table
            pdp(ctx, 0)
            marginal(ctx, 0)
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
        # -0.0 and 1e16 on one row; x1^3 is lost next to 1e16, and the
        # derivative 3 x1^2 at x1 = -0.0 is 0 all the same
        x[4] = TestWire.EXTREMES[0], TestWire.EXTREMES[3]
        table = gradient_table(
            recording_scorer(scorer_path, tmp_path, p=2, mode=("cube",)), x)
        # 2Np = 40 probe rows in one sweep: ⌈40 / 14⌉ = 3 spawns rounded
        # up to 4, so that two scorers share the table, of 10 rows each.
        assert sorted(len(parse_request(r)) for r in recorded(tmp_path)) \
            == [10, 10, 10, 10]
        # Each request is its chunk of the stacked probes, byte for byte.
        chunks = request_chunks(stacked_probes(x, table.steps))
        assert recorded(tmp_path) == sorted(map(per_cell_writer, chunks))
        assert np.allclose(table.values[:, 0], 3.0 * x[:, 0] ** 2, atol=1e-6)

    def test_fd_probes_keep_their_place_in_each_1024_row_block(self):
        # 2N = R + 10: the first chunk holds column 0's up probes and all
        # but 10 of its down probes, the second those 10 and column 1's
        # probes up to 20 rows short of their end.
        rng = np.random.default_rng(8)
        model = Placed(random_network(rng, 3, 8))
        n = ROW_BUDGET // 2 + 5
        x = rng.uniform(-1.0, 1.0, (n, 3))
        table = gradient_table(model, x)
        assert table.values.tobytes() == \
            chunked_differences(model, x, table.steps).tobytes()

    @settings(max_examples=30, deadline=None)
    @example(10, 3, 7, "external", 0)
    @example(4, 2, 16, "placed", 1)
    @given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 40),
           st.sampled_from(["polynomial", "placed", "external"]),
           st.integers(0, 2**32 - 1))
    def test_fd_table_equals_the_stacked_probes_cut_at_the_budget(
            self, scorer_path, n, p, budget, backend, seed):
        """Chunks cut across blocks and columns, one chunk may hold many
        columns' probes, and the table is the stacked probes' bit for
        bit; every external request is its chunk's per-cell text."""
        rng = np.random.default_rng(seed)
        if backend == "external":
            # a process a spawn: at most 16 spawns
            n, budget = n % 8 + 1, budget % 9 + 4
        x = rng.uniform(-1.0, 1.0, (n, p))
        with mock.patch.object(models, "ROW_BUDGET", budget), \
                tempfile.TemporaryDirectory() as log:
            model = {
                "polynomial": lambda: ScoredOnly(custom_model(
                    p, [(1.0, {0: 3}), (-0.5, {p - 1: 2}), (0.25, {})])),
                "placed": lambda: Placed(random_network(rng, p, 5)),
                "external": lambda: recording_scorer(scorer_path, log, p=p),
            }[backend]()
            table = gradient_table(model, x)
            if backend == "external":
                chunks = request_chunks(stacked_probes(x, table.steps))
                assert recorded(log) == sorted(map(per_cell_writer, chunks))
                model = wrap_external([sys.executable, scorer_path, "sum"],
                                      p=p)
            want = chunked_differences(model, x, table.steps)
        assert table.values.tobytes() == want.tobytes()

    def test_failure_in_the_second_fd_chunk_reaps_every_scorer(
            self, scorer_path, tmp_path, monkeypatch):
        # Column 0's probes fill the first chunk; the second chunk starts
        # with column 1's up probes, whose first cell is the first row's
        # x_0, which the scorer refuses.
        monkeypatch.setattr(models, "ROW_BUDGET", 8)
        x = np.column_stack([np.full(4, 3.0), np.arange(4.0)])
        ext = recording_scorer(scorer_path, tmp_path, p=2,
                               mode=("failat", "3.0"))
        with pytest.raises(ModelError, match="scorer exited 9: refusing"):
            gradient_table(ext, x, h=0.5)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        firsts = sorted(parse_request(r)[0, 0] for r in recorded(tmp_path))
        assert firsts == [3.0, 3.5]

    def test_fd_table_memory_grows_less_than_the_probe_copy(self):
        # A 2N x p copy of the probes would add 16 p bytes a row; the
        # sweep holds a chunk of probes, the 2N swept values and scores.
        model = ScoredOnly(custom_model(5, [(1.0, {0: 2, 1: 1}),
                                            (0.5, {2: 3}),
                                            (-1.0, {3: 1, 4: 2})]))
        rng = np.random.default_rng(7)
        above_output, sizes = [], (2 * ROW_BUDGET, 8 * ROW_BUDGET)
        for n in sizes:
            x = rng.uniform(-1.0, 1.0, (n, 5))
            tracemalloc.start()
            try:
                table = gradient_table(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above_output.append(peak - table.values.nbytes)
        per_row = (above_output[1] - above_output[0]) / (sizes[1] - sizes[0])
        assert per_row < 16 * 5

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
        assert above_output[0] < 2 * BLOCK * 40 * 8

    def test_sweep_template_holds_little_beyond_its_text(self):
        # The template's text and its 8-byte row offsets grow with N; a
        # str, bytes and list-of-ints copy of all N rows would add about
        # 90 bytes a row more.
        rng = np.random.default_rng(9)
        above_text, sizes = [], (25_000, 100_000)
        for n in sizes:
            x = rng.uniform(-1.0, 1.0, (n, 5))
            tracemalloc.start()
            try:
                body, _ = models._row_template(x, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above_text.append(peak - len(body))
        assert above_text[1] - above_text[0] <= 48 * (sizes[1] - sizes[0])


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

    def test_no_rows_spawn_nothing(self):
        # The command cannot be spawned, so any spawn would raise.
        ext = wrap_external(["/no/such/binary"], p=2)
        out = ext.predict(np.empty((0, 2)))
        assert out.shape == (0,) and out.dtype == np.float64
        with pytest.raises(ModelError, match="width"):
            ext.predict(np.empty((0, 3)))

    def test_calls_inside_an_open_sweep_do_not_block(self, scorer_path,
                                                      monkeypatch):
        # A predict and a second sweep while a sweep is open, with one of
        # its scorers still running: calls share no state, so neither
        # waits for the open sweep. Run in a thread so that a hang fails.
        monkeypatch.setattr(models, "ROW_BUDGET", 7)
        ext = wrap_external([sys.executable, scorer_path, "sum"], p=2)
        x = np.arange(10.0).reshape(5, 2)
        results = []

        def run():
            for block in ext.sweep(x, 0, [[0.0], [1.0], [2.0]]):
                results.append((block, ext.predict(x),
                                list(ext.sweep(x, 1, [[-1.0]]))))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "a call inside an open sweep hung"
        assert len(results) == 3
        for z, (block, scores, (second,)) in enumerate(results):
            assert np.array_equal(block, z + x[:, 1])
            assert np.array_equal(scores, x.sum(axis=1))
            assert np.array_equal(second, x[:, 0] - 1.0)

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
            == [10, 10]
        assert recorded(tmp_path) == sorted(
            per_cell_writer(x[s:s + 10]) for s in range(0, 20, 10))

    @settings(max_examples=20, deadline=None)
    @example(4, (4, 3), 2)
    @example(5, (0, 1), 1)
    @given(st.integers(2, 9),
           # R = a B + c: 1, B - 1, B, B + 1, 2B, 2B + 1, 4B + 3, 7B + 5
           st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (2, 1),
                            (4, 3), (7, 5)]),
           st.integers(1, 3))
    def test_requests_are_few_and_even(self, scorer_path, b, ac, p):
        """A sweep of R rows goes out as ⌈R / 2B⌉ requests, rounded up to
        an even count when R > B, of at most 2B rows each and sizes that
        differ by at most one row, the swept rows in order."""
        r = ac[0] * b + ac[1]
        want = -(-r // (2 * b))
        if r > b:
            want += want % 2
        # up to three blocks of N swept rows, so requests cross blocks
        k = next(k for k in (3, 2, 1) if r % k == 0)
        n = r // k
        x = np.random.default_rng(r).uniform(-1.0, 1.0, (n, p))
        grid = np.arange(k) * 0.5 - 1.0
        with mock.patch.object(models, "ROW_BUDGET", b), \
                tempfile.TemporaryDirectory() as log:
            ext = recording_scorer(scorer_path, log, p=p)
            plan = ext._chunks(r)
            scores = np.concatenate(list(ext.sweep(x, p - 1, grid[:, None])))
            sent = recorded(log)
        sizes = [r1 - r0 for r0, r1 in plan]
        assert len(plan) == want
        assert max(sizes) <= 2 * b and max(sizes) - min(sizes) <= 1
        assert [r0 for r0, _ in plan] == [0] + [r1 for _, r1 in plan[:-1]]
        assert plan[-1][1] == r
        rows = np.concatenate(swept_rows(x, p - 1, grid))
        assert sent == sorted(per_cell_writer(rows[r0:r1])
                              for r0, r1 in plan)
        assert scores.tobytes() == np.array(
            [sum(map(float, row)) for row in rows]).tobytes()

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
        # 2Np = 300 probe rows: one spawn for all three columns
        assert recorded(tmp_path) == [per_cell_writer(np.concatenate(probes))]
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


def split_parse(stdout: bytes, n: int) -> np.ndarray:
    """The answer parser as it was before ``np.fromstring``: numpy over a
    list of the answer's tokens, then the token pass."""
    try:
        values = np.array(stdout.split(), dtype=np.float64)
        if len(values) == n:
            return values
    except ValueError:
        pass
    out = stdout.decode(errors="replace").split()
    if len(out) != n:
        raise ModelError(
            f"external scorer protocol error: expected {n} values, "
            f"got {len(out)}")
    values = np.empty(n)
    for i, tok in enumerate(out):
        try:
            values[i] = float(tok)
        except ValueError:
            raise ModelError(
                f"external scorer protocol error: row {i} is not a "
                f"number: {tok!r}") from None
    return values


def request_chunks(rows: np.ndarray) -> list[np.ndarray]:
    """Rows cut into the requests of an external sweep, as
    ``ExternalModel._chunks`` plans them."""
    plan = ExternalModel(["unused"], p=1)._chunks(len(rows))
    return [rows[r0:r1] for r0, r1 in plan]


def swept_chunks(x: np.ndarray, j: int,
                 grid: np.ndarray) -> list[np.ndarray]:
    """The rows each spawn of an external sweep holds: the swept rows end
    to end, cut into its requests."""
    return request_chunks(np.concatenate(swept_rows(x, j, grid)))


def predict_loop(model: Predictor, x: np.ndarray, j: int,
                 grid: np.ndarray) -> np.ndarray:
    """Partial dependence the long way: one predict call per grid value."""
    return np.array([model.predict(c).mean() for c in swept_rows(x, j, grid)])


class TestWire:
    EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5, 0.1,
                -1.7976931348623157e308, -5e-324, 2.0 ** 53 + 2, 1 / 3]

    @staticmethod
    def written(x: np.ndarray, j: int) -> bytes:
        """The request ``predict`` writes for x, with the template's
        placeholder in column j: one block, each row's own value."""
        buf = io.BytesIO()
        _write_swept(buf, x.shape[1], len(x), lambda _: _row_template(x, j),
                     lambda _: x[:, j], [(0, 0, len(x))])
        return buf.getvalue()

    def test_encoder_matches_per_cell_repr(self):
        x = np.array(self.EXTREMES).reshape(-1, 2)
        for j in (0, 1):
            assert self.written(x, j) == per_cell_writer(x)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 9_000), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_encoder_matches_per_cell_repr_on_random_bits(self, n, p, seed):
        # Blocks of rows span the encoder's block size; one row is a
        # block of one value, which takes the writer's other branch.
        bits = np.random.default_rng(seed).integers(0, 2**64, (n, p),
                                                    dtype=np.uint64)
        x = bits.view(np.float64)
        x = np.where(np.isfinite(x), x, 1.5)
        assert self.written(x, seed % p) == per_cell_writer(x)

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

    ODD_TOKENS = [b"1_000", b"nan", b"-nan", b"NaN", b"inf", b"-inf",
                  b"1e999", b"-1e999", b"1e-400", b"1.5abc", b"0x10",
                  b"\xff", b"\xff\xfe", b"nan(1)", b"+7", b"-0.0", b".5",
                  b"1.", b"e5", b"1e", b"1\x002", b"\x00",
                  "\u0661\u0662".encode(), b"5e-324"]

    SEPARATORS = [b"", b"\n", b"\r\n", b" ", b"\t", b"\n\n", b" \n",
                  b"\n\x0b"]

    @settings(max_examples=300, deadline=None)
    @example([], b"", 0)
    @example([], b"\n", 1)
    @example([], b" \r\n", 0)
    @example([(b"", b"1.5"), (b"\n", b"2.5")], b"\n", -1)
    @example([(b"", b"1.5"), (b"\n", b"abc"), (b"\n", b"1.5")], b"\n", -2)
    @example([(b"", b"-nan"), (b"\n", b"nan(1)")], b"\n", 0)
    @example([(b"", b"1.5"), (b"\n", b"-nan")], b"\n", 0)
    @given(st.lists(st.tuples(
               st.sampled_from(SEPARATORS[1:]),
               st.one_of(st.floats().map(lambda v: repr(v).encode()),
                         st.sampled_from(ODD_TOKENS))), max_size=12),
           st.sampled_from(SEPARATORS), st.integers(-2, 1))
    def test_parse_equals_the_split_parser(self, tokens, tail, delta):
        """Blank lines, CRLF, two numbers on a line and tokens the two
        parsers read differently: the same values, bit for bit, or a
        ModelError with the same message."""
        stdout = b"".join(sep + tok for sep, tok in tokens) + tail
        n = max(0, len(stdout.split()) + delta)

        def outcome(parse):
            try:
                return parse(stdout, n).tobytes()
            except ModelError as exc:
                return str(exc)

        assert outcome(_parse_scores) == outcome(split_parse)

    def test_parse_holds_little_beyond_its_output(self):
        values = np.random.default_rng(12).normal(size=65_536)
        stdout = "".join(f"{v!r}\n" for v in values.tolist()).encode()
        above = []
        for parse in (_parse_scores, split_parse):
            tracemalloc.start()
            try:
                out = parse(stdout, len(values))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.tobytes() == values.tobytes()
            above.append(peak - out.nbytes)
        # the split parser's list of 65 536 bytes objects takes about 4 MB
        assert above[0] < 2**20 <= above[1]

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
