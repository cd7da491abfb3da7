"""Per-sample derivatives: analytic path, finite differences, totals
along fitted dependence, and the self-check."""

import numpy as np
import pytest

from atdev import (SimSpec, catalog_model, check_gradient, custom_model,
                   fit_dependence, generate, gradient_table, quantile_bins)
from atdev.data import Dataset
from atdev.dependence import DependenceModel
from atdev.errors import DataError, NumericalError
from atdev.models import Predictor
from helpers import slopes_at


class ScoreOnly(Predictor):
    """Strips the analytic gradient off a backend so the finite-difference
    path gets exercised."""

    def __init__(self, inner):
        self.inner = inner
        self.p = inner.p

    def predict(self, x):
        return self.inner.predict(x)


class Counting(ScoreOnly):
    """ScoreOnly that records the row count of every predict call."""

    def __init__(self, inner):
        super().__init__(inner)
        self.rows = []

    def predict(self, x):
        self.rows.append(len(x))
        return self.inner.predict(x)


def uniform_dataset(p, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(names=[f"x{i+1}" for i in range(p)],
                   columns=[rng.uniform(-1, 1, n) for _ in range(p)])


class TestPartials:
    def test_linear_model_constant_gradient(self):
        m = catalog_model("additive_linear", coeffs=[2.0, 5.0])
        d = uniform_dataset(2)
        t = gradient_table(m, d)
        assert t.method == "analytic"
        assert np.all(t.values[:, 0] == 2.0)

    def test_product_gradient_is_other_coordinate(self):
        m = catalog_model("multiplicative")
        f = gradient_table(m, np.array([[0.5, -0.2]])).values[:, 0]
        assert np.isclose(f[0], -0.2)

    def test_cubic_term_analytic(self):
        m = catalog_model("case_623")
        d = uniform_dataset(5, seed=3)
        f = gradient_table(m, d).values[:, 2]
        want = 6.0 * d.column(2) ** 2 - 1.5
        assert np.max(np.abs(f - want)) < 1e-10

    def test_cubic_term_finite_differences(self):
        m = ScoreOnly(catalog_model("case_623"))
        d = uniform_dataset(5, seed=3)
        t = gradient_table(m, d)
        assert t.method == "central_fd" and t.steps is not None
        want = 6.0 * d.column(2) ** 2 - 1.5
        assert np.max(np.abs(t.values[:, 2] - want)) < 1e-6

    def test_linearity_in_the_model(self):
        d = uniform_dataset(2, seed=5)
        f = custom_model(2, [(1.0, {0: 2})])
        g = custom_model(2, [(1.0, {0: 1, 1: 1})])
        combo = custom_model(2, [(3.0, {0: 2}), (-2.0, {0: 1, 1: 1})])
        df = gradient_table(f, d).values[:, 0]
        dg = gradient_table(g, d).values[:, 0]
        dc = gradient_table(combo, d).values[:, 0]
        assert np.allclose(dc, 3.0 * df - 2.0 * dg, atol=1e-12)


class TestGradientTable:
    def test_fd_table_exact_for_quadratics(self):
        # Central differences have no error on polynomials of degree 2.
        inner = catalog_model("quad_plus_interaction")
        d = uniform_dataset(2, seed=2)
        ta = gradient_table(inner, d)
        tf = gradient_table(ScoreOnly(inner), d)
        assert tf.method == "central_fd"
        assert np.max(np.abs(ta.values - tf.values)) < 1e-7

    def test_fd_step_override(self):
        m = ScoreOnly(catalog_model("multiplicative"))
        d = uniform_dataset(2, seed=2)
        t = gradient_table(m, d, h=1e-3)
        assert np.all(t.steps == 1e-3)

    @pytest.mark.parametrize("centre, spread", [(1e9, 1e-9), (1e6, 1e-6)])
    def test_step_lost_to_rounding_is_rejected_before_scoring(self, centre,
                                                               spread):
        # x2 +- h rounds to x2 or to a neighbouring double: the quotient
        # of f = 3 x1 + 2 x2 read 0.0 (1e9) or 2.0023 (1e6) along x2.
        rng = np.random.default_rng(1)
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1, 1, 1000),
                             centre + rng.uniform(-spread, spread, 1000)])
        m = Counting(custom_model(2, [(3.0, {0: 1}), (2.0, {1: 1})]))
        with pytest.raises(DataError, match="column 'x2' is lost to rounding"):
            gradient_table(m, d)
        with pytest.raises(DataError, match="column 1 is lost"):
            gradient_table(m, d.matrix())
        assert m.rows == []

    def test_step_large_enough_for_the_magnitude_is_kept(self):
        rng = np.random.default_rng(1)
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1, 1, 1000),
                             1e6 + rng.uniform(-1e-6, 1e-6, 1000)])
        m = ScoreOnly(custom_model(2, [(3.0, {0: 1}), (2.0, {1: 1})]))
        t = gradient_table(m, d, h=1e-3)
        assert np.max(np.abs(t.values - [3.0, 2.0])) < 1e-6

    @pytest.mark.filterwarnings("error")
    def test_spread_near_the_largest_double_gives_a_finite_step(self):
        # np.std of b itself overflows, and the step was nan
        rng = np.random.default_rng(3)
        d = Dataset(names=["a", "b"],
                    columns=[rng.uniform(-1, 1, 1000),
                             1.7e308 * rng.uniform(-1, 1, 1000)])
        m = ScoreOnly(custom_model(2, [(3.0, {0: 1}), (0.5, {1: 1})]))
        t = gradient_table(m, d)
        assert np.all(np.isfinite(t.steps))
        assert np.max(np.abs(t.values[:, 1] - 0.5)) < 1e-9


def total_derivatives(m, d, j, dep):
    """The total derivative along the dependence anchored at j, per row:
    the row sum of the integrand G * S the binned curves average."""
    return (gradient_table(m, d).values * slopes_at(dep, d.column(j))).sum(axis=1)


class TestTotals:
    def test_zero_slopes_collapse_to_partials(self):
        m = catalog_model("case_61")
        d = uniform_dataset(5, seed=4)
        dep = DependenceModel(j=0, edges=np.array([-1.0, 1.0]),
                              slopes=np.array([[1.0, 0, 0, 0, 0.0]]))
        total = total_derivatives(m, d, 0, dep)
        own = gradient_table(m, d).values[:, 0]
        assert np.array_equal(total, own)

    def test_exact_linear_dependence_shifts_slope(self):
        rng = np.random.default_rng(7)
        x1 = rng.uniform(-1, 1, 4000)
        d = Dataset(names=["x1", "x2"], columns=[x1, 0.8 * x1])
        m = catalog_model("additive_linear", coeffs=[1.0, 1.0])
        dep = fit_dependence(d, quantile_bins(d, 0, 100))
        total = total_derivatives(m, d, 0, dep)
        assert np.max(np.abs(total - 1.8)) < 1e-10

    def test_row_mean_matches_reference_slope_at_mean(self):
        # Averaging the per-row totals equals differentiating the
        # closed-form accumulated curve at the sample mean; both reduce
        # to the same OLS moments.
        from atdev import oracle, params_from_data
        d = generate(SimSpec(case="additive_621", n=30_000, seed=6))
        m = catalog_model("case_621")
        dep = fit_dependence(d, quantile_bins(d, 2, 100))
        total = total_derivatives(m, d, 2, dep)
        P = params_from_data(d)
        ref = oracle("additive_621", "ATDEV", 2, P)
        mu3 = float(np.mean(d.column(2)))
        slope_at_mean = ref.coefficient(1) + 2.0 * ref.coefficient(2) * mu3
        assert abs(float(np.mean(total)) - slope_at_mean) < 1e-8


class TestCheckGradient:
    def test_catalog_models_pass(self):
        d2 = uniform_dataset(2, n=500, seed=1)
        for mid in ("multiplicative", "quad_plus_interaction"):
            assert check_gradient(catalog_model(mid), d2, rows=100) < 1e-4

    def test_broken_gradient_detected(self):
        class Broken(Predictor):
            p = 2
            has_analytic_gradient = True

            def predict(self, x):
                return x[:, 0] * x[:, 1]

            def gradient(self, x):
                return np.ones_like(x)

        d = uniform_dataset(2, n=300, seed=2)
        with pytest.raises(NumericalError):
            check_gradient(Broken(), d, rows=50)

    def test_needs_analytic_backend(self):
        m = ScoreOnly(catalog_model("multiplicative"))
        with pytest.raises(NumericalError):
            check_gradient(m, uniform_dataset(2, n=100), rows=10)
