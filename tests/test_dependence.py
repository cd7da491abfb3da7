"""Conditional-mean fits between predictors and the correlation matrix."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atdev import (Estimation, SimSpec, catalog_model, corr_matrix,
                   fit_dependence, generate, quantile_bins)
import atdev.cli
from atdev.data import Dataset
from atdev.dependence import ols_line
from atdev.errors import DataError, NumericalError
from helpers import slopes_at
from ols_reference import reference_ols_line


def fit(d, j, kind="linear", k_bins=100):
    """The dependence fit of anchor j on its ``k_bins`` curve bins."""
    return fit_dependence(d, quantile_bins(d, j, k_bins), kind)


def context(d):
    """An estimation context whose model is never called."""
    return Estimation(catalog_model("additive_linear", p=d.p), d)


def paired(n=50_000, seed=0, slope=0.8, noise=0.0):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1, 1, n)
    x2 = slope * x1 + (rng.normal(0, noise, n) if noise else 0.0)
    return Dataset(names=["x1", "x2"], columns=[x1, np.asarray(x2)])


class TestLinearFit:
    def test_exact_line_recovered(self):
        d = paired(slope=0.8)
        slope = fit(d, 0).slopes[0, 1]
        intercept = ols_line(d.column(0), d.column(1))[1]
        assert abs(slope - 0.8) < 1e-10
        assert abs(intercept) < 1e-10
        resid = d.column(1) - (slope * d.column(0) + intercept)
        assert float(np.var(resid)) < 1e-12

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10_000)
        y = 2.0 * x + rng.normal(size=10_000)
        d = Dataset(names=["a", "b"], columns=[x, y])
        dep = fit(d, 0)
        want = np.cov(x, y, bias=True)[0, 1] / np.var(x)
        assert abs(dep.slopes[0, 1] - want) < 1e-10

    def test_residuals_orthogonal_to_anchor(self):
        d = generate(SimSpec(case="additive_621", n=40_000, seed=2))
        dep = fit(d, 0)
        for k in (1, 2):
            intercept = ols_line(d.column(0), d.column(k))[1]
            resid = d.column(k) - (dep.slopes[0, k] * d.column(0) + intercept)
            assert abs(float(np.dot(resid, d.column(0)))) < 1e-8 * d.n

    def test_independent_columns_have_null_slope(self):
        rng = np.random.default_rng(2)
        n = 40_000
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        d = Dataset(names=["a", "b"], columns=[x, y])
        dep = fit(d, 0)
        resid = y - (dep.slopes[0, 1] * x + ols_line(x, y)[1])
        se = float(np.std(resid) / (np.std(x) * np.sqrt(n)))
        assert abs(dep.slopes[0, 1]) < 3.0 * se

    def test_strongly_anticorrelated_pair(self):
        d = generate(SimSpec(case="interaction_622", n=100_000, seed=5))
        dep = fit(d, 0)
        assert abs(dep.slopes[0, 1] - (-0.98)) < 0.05

    def test_own_column_slope_is_one(self):
        d = paired(n=1000)
        dep = fit(d, 0)
        assert np.all(slopes_at(dep, d.column(0))[:, 0] == 1.0)

    def test_constant_anchor_rejected(self):
        d = Dataset(names=["a", "b"], columns=[np.ones(50), np.arange(50.0)])
        with pytest.raises(DataError):
            context(d).dep(0)

    def test_unknown_kind_rejected(self):
        d = paired(n=100)
        with pytest.raises(DataError):
            fit(d, 0, kind="splines")

    @pytest.mark.parametrize("j", [7, -1, True, 1.0])
    def test_anchor_out_of_range(self, j):
        d = paired(n=100)
        with pytest.raises(DataError):
            context(d).dep(j)


class TestLocalLinearFit:
    def test_exactly_linear_data_reproduces_global_slope(self):
        d = paired(slope=0.8)
        dep = fit(d, 0, kind="local_linear")
        assert np.max(np.abs(dep.slopes[:, 1] - 0.8)) < 1e-10
        # evaluation anywhere on the support agrees too
        probe = np.linspace(-0.99, 0.99, 57)
        assert np.max(np.abs(slopes_at(dep, probe)[:, 1] - 0.8)) < 1e-10

    def test_piecewise_constant_within_bins(self):
        d = generate(SimSpec(case="additive_621", n=30_000, seed=4))
        dep = fit(d, 0, kind="local_linear", k_bins=10)
        mids = (dep.edges[:-1] + dep.edges[1:]) / 2.0
        for frac in (0.2, 0.45):
            inside = mids + frac * np.diff(dep.edges)
            assert np.array_equal(slopes_at(dep, mids)[:, 1],
                                  slopes_at(dep, inside)[:, 1])

    def test_tracks_a_bending_conditional_mean(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 80_000)
        y = x * x + rng.normal(0, 0.05, 80_000)
        d = Dataset(names=["a", "b"], columns=[x, y])
        dep = fit(d, 0, kind="local_linear")
        # slope of E[y|x] = 2x: negative on the left, positive on the right
        assert slopes_at(dep, -0.8)[0, 1] < -1.2
        assert slopes_at(dep, 0.8)[0, 1] > 1.2
        assert abs(slopes_at(dep, 0.0)[0, 1]) < 0.4

    @pytest.mark.parametrize("k_bins, runs", [(100, 20), (50, 17), (30, 15),
                                               (7, 7)])
    def test_one_bin_per_run_of_curve_bins(self, k_bins, runs):
        # ceil(K / 20) curve bins a run, the last run possibly short
        d = paired(n=10_000, noise=0.1)
        scheme = quantile_bins(d, 0, k_bins)
        dep = fit_dependence(d, scheme, kind="local_linear")
        assert len(dep.slopes) == runs
        step = -(-k_bins // 20)
        assert np.array_equal(dep.edges[:-1], scheme.edges[:-1:step])
        assert dep.edges[-1] == scheme.edges[-1]

    def test_finite_everywhere_on_observed_support(self):
        d = generate(SimSpec(case="complex_623", n=20_000, seed=1))
        for j in range(d.p):
            dep = fit(d, j, kind="local_linear")
            for k in range(d.p):
                vals = slopes_at(dep, d.column(j))[:, k]
                assert np.all(np.isfinite(vals))


class TestCorrMatrix:
    def test_strong_pairwise_structure(self, d621):
        cm = corr_matrix(d621)
        # signs follow the generating equations; magnitudes are stable
        assert abs(cm[0, 1] - 0.9773) < 0.005
        assert abs(cm[0, 2] - (-0.9853)) < 0.005
        assert abs(cm[1, 2] - (-0.9627)) < 0.005

    def test_symmetric_unit_diagonal(self, d621):
        cm = corr_matrix(d621)
        assert np.allclose(cm, cm.T, atol=1e-12)
        assert np.allclose(np.diag(cm), 1.0)
        assert np.all(np.abs(cm) <= 1.0 + 1e-12)

    def test_self_and_mirror(self):
        x = np.random.default_rng(8).normal(size=500)
        d = Dataset(names=["a", "b"], columns=[x, -x])
        cm = corr_matrix(d)
        assert np.isclose(cm[0, 0], 1.0)
        assert np.isclose(cm[0, 1], -1.0)

    def test_constant_column_rejected(self):
        d = Dataset(names=["a", "b"], columns=[np.zeros(9), np.arange(9.0)])
        with pytest.raises(DataError):
            corr_matrix(d)

    def test_overflowing_variance_gives_the_scaled_value(self):
        # numpy's correlation of a column at 1e160 comes out as -0.0 or
        # 0.0 beside a NaN diagonal; on power-of-two-scaled columns it is
        # the correlation of the column brought back to unit scale
        rng = np.random.default_rng(0)
        cols = [rng.uniform(-1, 1, 50), rng.uniform(-1e160, 1e160, 50),
                rng.uniform(-1, 1, 50)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cm = corr_matrix(Dataset(names=["a", "b", "c"], columns=cols))
        want = np.corrcoef([cols[0], cols[1] * 1e-160, cols[2]])
        assert np.allclose(cm, want, rtol=1e-12, atol=0.0)
        assert abs(cm[0, 1]) > 0.01


class TestConstantColumns:
    """A column is constant when its min equals its max, whatever its
    computed variance."""

    def test_rounding_noise_is_not_spread(self):
        # np.var of 1000 copies of 0.1 is about 1.9e-34, not 0
        c = np.full(1000, 0.1)
        b = np.random.default_rng(1).uniform(-1, 1, 1000)
        assert np.var(c) > 0.0
        d = Dataset(names=["c", "b"], columns=[c, b])
        with pytest.raises(DataError, match="'c': constant column"):
            context(d).dep(0)
        with pytest.raises(DataError, match="'c': constant column"):
            corr_matrix(d)
        assert ols_line(c, b) == (0.0, float(np.mean(b)))

    @pytest.mark.parametrize("kind", ["linear", "local_linear"])
    def test_underflowing_variance_is_not_constant(self, kind):
        # 1000 distinct values whose variance underflows to 0
        rng = np.random.default_rng(2)
        a = rng.uniform(-1e-170, 1e-170, 1000)
        b = 1e170 * a + rng.normal(0.0, 0.1, 1000)
        assert np.var(a) == 0.0
        d = Dataset(names=["a", "b"], columns=[a, b])
        dep = fit(d, 0, kind)
        assert np.all(np.isfinite(dep.slopes))
        assert abs(ols_line(a, b)[0] / 1e170 - 1.0) < 0.05
        want = np.corrcoef(a * 1e170, b)[0, 1]
        assert abs(corr_matrix(d)[0, 1] - want) < 1e-12


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
        dep = fit(d, j, kind)
        k = 1 - j
        want = 1e-160 if j == 0 else 1e160
        assert abs(ols_line(d.column(j), d.column(k))[0] / want - 1.0) < 0.01
        assert np.all(np.isfinite(slopes_at(dep, d.column(j))))


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
        dep = fit(d, 0)
        assert dep.slopes[0, 0] == 1.0
        assert abs(dep.slopes[0, 1] / 1e-160 - slope) < 1e-9
        assert abs(ols_line(x1, x2)[1] - intercept) < 1e-12
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


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
       ex=st.floats(-150.0, 150.0), ey=st.floats(-150.0, 150.0),
       shift=st.floats(-1e3, 1e3))
def test_one_path_line_matches_the_two_branch_reference(seed, n, ex, ey, shift):
    # x and y at independent magnitudes from 1e-150 to 1e150, x off
    # center by up to 1e3 of its spread. (A constant x is where the two
    # differ on purpose: TestConstantColumns.)
    rng = np.random.default_rng(seed)
    x = rng.normal(shift, 1.0, n) * 10.0 ** ex
    y = (rng.normal() * x / 10.0 ** ex + rng.normal(size=n)) * 10.0 ** ey
    with np.errstate(over="ignore", invalid="ignore"):
        assume(np.isfinite(np.var(x))
               and np.isfinite(np.cov(x, y, bias=True)[0, 1]))
    assert ols_line(x, y) == reference_ols_line(x, y)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 4),
       scales=st.lists(st.floats(-150.0, 150.0), min_size=4, max_size=4))
def test_linear_slope_table_is_the_ols_slopes_broadcast(seed, p, scales):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(200, p)) @ rng.uniform(-1, 1, (p, p))
    d = Dataset(names=[f"x{i}" for i in range(p)],
                columns=[x[:, i] * 10.0 ** scales[i] for i in range(p)])
    for j in range(p):
        got = slopes_at(fit(d, j), d.column(j))
        want = [1.0 if k == j else ols_line(d.column(j), d.column(k))[0]
                for k in range(p)]
        # One covariance table per run, not one np.cov a pair: the same
        # slopes in another order of arithmetic, within 1e-12 of the
        # pair's scale (the ratio of the columns' ranges), not of the
        # slope: one that cancels to near 0 (-3.2e-5 at seed 353, p = 4)
        # moves by 1.1e-12 of itself, each fit within 7.2e-13 of exact.
        scale = np.ptp(d.matrix(), axis=0) / np.ptp(d.column(j))
        assert np.all(np.abs(got - np.array(want)) <= 1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
       p=st.integers(2, 5), scales=st.lists(st.floats(-150.0, 150.0),
                                            min_size=5, max_size=5))
def test_correlations_are_numpys_from_one_covariance_table(seed, n, p, scales):
    # Mixed columns at independent magnitudes from 1e-150 to 1e150; a
    # repeated column gives a correlation of exactly +-1 up to rounding.
    # The reference is np.corrcoef in extended precision: in float64 its
    # BLAS dot is itself off by 1.2e-15 at n = 182 (seed 887039984, p = 5,
    # unscaled), where the one-table value is the exact correlation.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) @ rng.uniform(-1, 1, (p, p))
    x[:, -1] = rng.choice([-1.0, 1.0]) * x[:, 0]
    x *= 10.0 ** np.array(scales[:p])
    assume(np.all(np.ptp(x, axis=0) > 0))
    d = Dataset(names=[f"x{i}" for i in range(p)], columns=x)
    c = corr_matrix(d)
    want = np.corrcoef(x.astype(np.longdouble), rowvar=False)
    assert np.all(np.abs(c - want) <= 1e-15)
    assert np.array_equal(c, c.T)
    assert np.all(np.diag(c) == 1.0)
    assert np.all(np.abs(c) <= 1.0)
    x[:, rng.integers(p)] = x[0, 0]
    with pytest.raises(DataError, match="constant column"):
        corr_matrix(Dataset(names=d.names, columns=x))


def test_one_moment_table_per_run(tmp_path, monkeypatch):
    """Every dependence slope and correlation of a run reads one
    covariance table: one effects run on all columns (five anchors), one
    importance run and one heatmap run (correlations too) build it once
    each, under either dependence kind."""
    built, build = [], Dataset.moments.func
    monkeypatch.setattr(Dataset.moments, "func",
                        lambda d: built.append(d) or build(d))
    data = tmp_path / "complex_623.csv"
    assert atdev.cli.main(["simulate", "--case", "complex_623", "--n", "2000",
                           "--out-dir", str(tmp_path)]) == 0
    for kind in ("linear", "local_linear"):
        for command in ("effects", "importance", "heatmap"):
            built.clear()
            assert atdev.cli.main([
                command, "--data", str(data), "--response", "y",
                "--model-id", "case_623", "--k-bins", "20",
                "--dependence", kind, "--out-dir", str(tmp_path / "out")]) == 0
            assert len(built) == 1, (command, kind)
