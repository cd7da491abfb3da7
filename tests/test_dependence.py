"""Conditional-mean fits between predictors and the correlation matrix."""

import numpy as np
import pytest

from atdev import SimSpec, corr_matrix, fit_dependence, generate
from atdev.data import Dataset
from atdev.dependence import ols_line
from atdev.errors import DataError, NumericalError


def paired(n=50_000, seed=0, slope=0.8, noise=0.0):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1, 1, n)
    x2 = slope * x1 + (rng.normal(0, noise, n) if noise else 0.0)
    return Dataset(names=["x1", "x2"], columns=[x1, np.asarray(x2)])


class TestLinearFit:
    def test_exact_line_recovered(self):
        d = paired(slope=0.8)
        dep = fit_dependence(d, 0)
        assert abs(dep.beta(1) - 0.8) < 1e-10
        assert abs(dep.intercept(1)) < 1e-10
        resid = d.column(1) - (dep.beta(1) * d.column(0) + dep.intercept(1))
        assert float(np.var(resid)) < 1e-12

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10_000)
        y = 2.0 * x + rng.normal(size=10_000)
        d = Dataset(names=["a", "b"], columns=[x, y])
        dep = fit_dependence(d, 0)
        want = np.cov(x, y, bias=True)[0, 1] / np.var(x)
        assert abs(dep.beta(1) - want) < 1e-10

    def test_residuals_orthogonal_to_anchor(self):
        d = generate(SimSpec(case="additive_621", n=40_000, seed=2))
        dep = fit_dependence(d, 0)
        for k in (1, 2):
            resid = d.column(k) - (dep.beta(k) * d.column(0) + dep.intercept(k))
            assert abs(float(np.dot(resid, d.column(0)))) < 1e-8 * d.n

    def test_independent_columns_have_null_slope(self):
        rng = np.random.default_rng(2)
        n = 40_000
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        d = Dataset(names=["a", "b"], columns=[x, y])
        dep = fit_dependence(d, 0)
        resid = y - (dep.beta(1) * x + dep.intercept(1))
        se = float(np.std(resid) / (np.std(x) * np.sqrt(n)))
        assert abs(dep.beta(1)) < 3.0 * se

    def test_strongly_anticorrelated_pair(self):
        d = generate(SimSpec(case="interaction_622", n=100_000, seed=5))
        dep = fit_dependence(d, 0)
        assert abs(dep.beta(1) - (-0.98)) < 0.05

    def test_own_column_slope_is_one(self):
        d = paired(n=1000)
        dep = fit_dependence(d, 0)
        assert np.all(dep.slopes_at(d.column(0))[:, 0] == 1.0)

    def test_constant_anchor_rejected(self):
        d = Dataset(names=["a", "b"], columns=[np.ones(50), np.arange(50.0)])
        with pytest.raises(DataError):
            fit_dependence(d, 0)

    def test_unknown_kind_rejected(self):
        d = paired(n=100)
        with pytest.raises(DataError):
            fit_dependence(d, 0, kind="splines")

    def test_anchor_out_of_range(self):
        d = paired(n=100)
        with pytest.raises(DataError):
            fit_dependence(d, 7)


class TestLocalLinearFit:
    def test_exactly_linear_data_reproduces_global_slope(self):
        d = paired(slope=0.8)
        dep = fit_dependence(d, 0, kind="local_linear", bins=25)
        assert np.max(np.abs(dep.bin_slopes[:, 1] - 0.8)) < 1e-10
        # evaluation anywhere on the support agrees too
        probe = np.linspace(-0.99, 0.99, 57)
        assert np.max(np.abs(dep.slopes_at(probe)[:, 1] - 0.8)) < 1e-10

    def test_piecewise_constant_within_bins(self):
        d = generate(SimSpec(case="additive_621", n=30_000, seed=4))
        dep = fit_dependence(d, 0, kind="local_linear", bins=10)
        mids = (dep.edges[:-1] + dep.edges[1:]) / 2.0
        for frac in (0.2, 0.45):
            inside = mids + frac * np.diff(dep.edges)
            assert np.array_equal(dep.slopes_at(mids)[:, 1],
                                  dep.slopes_at(inside)[:, 1])

    def test_tracks_a_bending_conditional_mean(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 80_000)
        y = x * x + rng.normal(0, 0.05, 80_000)
        d = Dataset(names=["a", "b"], columns=[x, y])
        dep = fit_dependence(d, 0, kind="local_linear", bins=25)
        # slope of E[y|x] = 2x: negative on the left, positive on the right
        assert dep.slopes_at(-0.8)[0, 1] < -1.2
        assert dep.slopes_at(0.8)[0, 1] > 1.2
        assert abs(dep.slopes_at(0.0)[0, 1]) < 0.4

    def test_finite_everywhere_on_observed_support(self):
        d = generate(SimSpec(case="complex_623", n=20_000, seed=1))
        for j in range(d.p):
            dep = fit_dependence(d, j, kind="local_linear", bins=25)
            for k in range(d.p):
                vals = dep.slopes_at(d.column(j))[:, k]
                assert np.all(np.isfinite(vals))


class TestCorrMatrix:
    def test_strong_pairwise_structure(self, d621):
        cm = corr_matrix(d621)
        # signs follow the generating equations; magnitudes are stable
        assert abs(cm.of(0, 1) - 0.9773) < 0.005
        assert abs(cm.of(0, 2) - (-0.9853)) < 0.005
        assert abs(cm.of(1, 2) - (-0.9627)) < 0.005

    def test_symmetric_unit_diagonal(self, d621):
        cm = corr_matrix(d621)
        assert np.allclose(cm.values, cm.values.T, atol=1e-12)
        assert np.allclose(np.diag(cm.values), 1.0)
        assert np.all(np.abs(cm.values) <= 1.0 + 1e-12)

    def test_self_and_mirror(self):
        x = np.random.default_rng(8).normal(size=500)
        d = Dataset(names=["a", "b"], columns=[x, -x])
        cm = corr_matrix(d)
        assert np.isclose(cm.of(0, 0), 1.0)
        assert np.isclose(cm.of(0, 1), -1.0)

    def test_constant_column_rejected(self):
        d = Dataset(names=["a", "b"], columns=[np.zeros(9), np.arange(9.0)])
        with pytest.raises(DataError):
            corr_matrix(d)

    def test_overflowing_variance_is_a_numerical_error(self):
        # numpy's correlation of a column at 1e160 comes out as -0.0 or
        # 0.0 beside a NaN diagonal; the pair must not be reported as
        # uncorrelated
        rng = np.random.default_rng(0)
        d = Dataset(names=["a", "b", "c"],
                    columns=[rng.uniform(-1, 1, 50),
                             rng.uniform(-1e160, 1e160, 50),
                             rng.uniform(-1, 1, 50)])
        with pytest.warns(RuntimeWarning), \
                pytest.raises(NumericalError,
                              match="non-finite correlation of 'a' and 'b'"):
            corr_matrix(d)


class TestExtremeScales:
    @pytest.mark.parametrize("kind", ["linear", "local_linear"])
    @pytest.mark.parametrize("j", [0, 1])
    def test_columns_at_1e160_fit_without_overflow(self, j, kind):
        # x2 = 1e-160 x1 + noise: the residual of x1 on the x2 anchor is
        # about 1e160, whose square overflows.
        rng = np.random.default_rng(4)
        x1 = rng.uniform(-1e160, 1e160, 1000)
        x2 = 1e-160 * x1 + rng.normal(0.0, 0.01, 1000)
        d = Dataset(names=["x1", "x2"], columns=[x1, x2])
        dep = fit_dependence(d, j, kind)
        k = 1 - j
        want = 1e-160 if j == 0 else 1e160
        assert abs(dep.beta(k) / want - 1.0) < 0.01
        assert np.all(np.isfinite(dep.slopes_at(d.column(j))))


class TestOlsLine:
    def test_constant_x(self):
        a, b = ols_line(np.ones(5), np.arange(5.0))
        assert a == 0.0 and b == 2.0

    def test_recovers_line(self):
        x = np.arange(10.0)
        a, b = ols_line(x, 3.0 * x - 1.0)
        assert np.isclose(a, 3.0) and np.isclose(b, -1.0)

    def test_overflowing_moments_are_refitted_on_scaled_columns(self):
        # np.var of a column at 1e160 overflows; the slope of a column
        # tied to it (true slope 1e-160) read 0 before
        rng = np.random.default_rng(0)
        x1 = rng.uniform(-1e160, 1e160, 1000)
        x2 = 1e-160 * x1 + rng.normal(0.0, 0.01, 1000)
        d = Dataset(names=["x1", "x2"], columns=[x1, x2])
        slope, intercept = np.polyfit(x1 * 1e-160, x2, 1)
        dep = fit_dependence(d, 0)
        assert dep.slopes[0] == 1.0
        assert abs(dep.beta(1) / 1e-160 - slope) < 1e-9
        assert abs(dep.intercept(1) - intercept) < 1e-12
        # x at 1e150 and y at 1e200: only the covariance overflows
        a, b = ols_line(x1 * 1e-10, x2 * 1e200)
        assert abs(a / 1e50 - slope) < 1e-9
        assert abs(b / 1e200 - intercept) < 1e-12

    def test_finite_moments_keep_their_arithmetic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=1000)
        y = 0.3 * x + rng.normal(size=1000)
        slope = float(np.cov(x, y, bias=True)[0, 1]) / float(np.var(x))
        assert ols_line(x, y) == (
            slope, float(np.mean(y) - slope * np.mean(x)))

    def test_line_that_is_not_finite_is_a_numerical_error(self):
        # a slope of 1e310 from finite moments, and an infinite x
        small = np.array([1e-10, -1e-10, 2e-10])
        for x, y in ((small, 1e10 * small * 1e300),
                     (np.array([1e308, -1e308, np.inf]), small)):
            with pytest.raises(NumericalError, match="not finite"):
                ols_line(x, y)
