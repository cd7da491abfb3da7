"""Conditional-mean fits between predictors and the correlation matrix."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atdev import (CASES, Estimation, SimSpec, catalog_model, corr_matrix,
                   fit_dependence, generate, params_from_data, quantile_bins)
import atdev.cli
from atdev.data import Dataset
from atdev.errors import DataError, NumericalError
from helpers import slopes_at
from ols_reference import reference_ols_line


def fit(d, j, kind="linear", k_bins=100):
    """The K x p dependence slope table of anchor j on its ``k_bins``
    curve bins."""
    return fit_dependence(d, quantile_bins(d, j, k_bins), kind)


def fit_at(d, j, x, kind="linear", k_bins=100):
    """The rows of that table at x_j values x, each looked up in the
    curve bins' edges."""
    scheme = quantile_bins(d, j, k_bins)
    return slopes_at(fit_dependence(d, scheme, kind), scheme, x)


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
        slope = fit(d, 0)[0, 1]
        intercept = params_from_data(d).c[(1, 0)]
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
        assert abs(dep[0, 1] - want) < 1e-10

    def test_residuals_orthogonal_to_anchor(self):
        d = generate(SimSpec(case="additive_621", n=40_000, seed=2))
        dep = fit(d, 0)
        for k in (1, 2):
            intercept = params_from_data(d).c[(k, 0)]
            resid = d.column(k) - (dep[0, k] * d.column(0) + intercept)
            assert abs(float(np.dot(resid, d.column(0)))) < 1e-8 * d.n

    def test_independent_columns_have_null_slope(self):
        rng = np.random.default_rng(2)
        n = 40_000
        x = rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n)
        d = Dataset(names=["a", "b"], columns=[x, y])
        dep = fit(d, 0)
        resid = y - (dep[0, 1] * x + params_from_data(d).c[(1, 0)])
        se = float(np.std(resid) / (np.std(x) * np.sqrt(n)))
        assert abs(dep[0, 1]) < 3.0 * se

    def test_strongly_anticorrelated_pair(self):
        d = generate(SimSpec(case="interaction_622", n=100_000, seed=5))
        dep = fit(d, 0)
        assert abs(dep[0, 1] - (-0.98)) < 0.05

    @pytest.mark.parametrize("kind", ["linear", "local_linear"])
    def test_own_column_slope_is_one(self, kind):
        # As fitted (x / x), on every bin: nothing overwrites it.
        d = paired(n=1000, noise=0.1)
        assert np.all(fit(d, 0, kind)[:, 0] == 1.0)
        assert np.all(fit_at(d, 0, d.column(0), kind)[:, 0] == 1.0)

    @pytest.mark.parametrize("kind", ["linear", "local_linear"])
    def test_one_row_per_curve_bin_of_a_tied_anchor(self, kind):
        # Five distinct values: 20 quantile bins merge into fewer.
        rng = np.random.default_rng(9)
        x = rng.integers(0, 5, 5000).astype(np.float64)
        d = Dataset(names=["a", "b"],
                    columns=[x, 0.5 * x + rng.normal(0.0, 0.1, 5000)])
        ctx = Estimation(catalog_model("additive_linear", p=2), d,
                         k_bins=20, dependence=kind)
        assert ctx.bins(0).k < 20
        assert ctx.dep(0).shape == (ctx.bins(0).k, 2)
        assert np.all(ctx.dep(0)[:, 0] == 1.0)
        assert np.all(np.isfinite(ctx.dep(0)))

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
        assert np.max(np.abs(dep[:, 1] - 0.8)) < 1e-10
        # evaluation anywhere on the support agrees too
        probe = np.linspace(-0.99, 0.99, 57)
        assert np.max(np.abs(fit_at(d, 0, probe, "local_linear")[:, 1]
                             - 0.8)) < 1e-10

    def test_piecewise_constant_within_bins(self):
        # Any x_j inside a curve bin reads that bin's row.
        d = generate(SimSpec(case="additive_621", n=30_000, seed=4))
        scheme = quantile_bins(d, 0, 10)
        dep = fit_dependence(d, scheme, kind="local_linear")
        assert np.array_equal(slopes_at(dep, scheme, scheme.midpoints), dep)
        for frac in (0.2, 0.45):
            inside = scheme.midpoints + frac * scheme.widths
            assert np.array_equal(slopes_at(dep, scheme, inside), dep)

    def test_tracks_a_bending_conditional_mean(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 80_000)
        y = x * x + rng.normal(0, 0.05, 80_000)
        d = Dataset(names=["a", "b"], columns=[x, y])
        at = fit_at(d, 0, [-0.8, 0.8, 0.0], kind="local_linear")[:, 1]
        # slope of E[y|x] = 2x: negative on the left, positive on the right
        assert at[0] < -1.2
        assert at[1] > 1.2
        assert abs(at[2]) < 0.4

    @pytest.mark.parametrize("k_bins, runs", [(100, 20), (50, 17), (30, 15),
                                               (7, 7)])
    def test_one_bin_per_run_of_curve_bins(self, k_bins, runs):
        # ceil(K / 20) curve bins a run, the last run possibly short: a
        # row per curve bin, the same on every bin of a run, and a new
        # row where each run starts.
        d = paired(n=10_000, noise=0.1)
        scheme = quantile_bins(d, 0, k_bins)
        dep = fit_dependence(d, scheme, kind="local_linear")
        assert dep.shape == (scheme.k, 2) and scheme.k == k_bins
        step = -(-k_bins // 20)
        firsts = dep[::step]
        assert len(firsts) == runs
        assert np.array_equal(dep, np.repeat(firsts, step, axis=0)[:scheme.k])
        assert np.all(np.diff(firsts[:, 1]) != 0.0)

    def test_finite_everywhere_on_observed_support(self):
        d = generate(SimSpec(case="complex_623", n=20_000, seed=1))
        for j in range(d.p):
            vals = fit_at(d, j, d.column(j), kind="local_linear")
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
        P = params_from_data(d)
        assert (P.beta[(1, 0)], P.c[(1, 0)]) == (0.0, float(np.mean(b)))

    @pytest.mark.parametrize("kind", ["linear", "local_linear"])
    def test_underflowing_variance_is_not_constant(self, kind):
        # 1000 distinct values whose variance underflows to 0
        rng = np.random.default_rng(2)
        a = rng.uniform(-1e-170, 1e-170, 1000)
        b = 1e170 * a + rng.normal(0.0, 0.1, 1000)
        assert np.var(a) == 0.0
        d = Dataset(names=["a", "b"], columns=[a, b])
        assert np.all(np.isfinite(fit(d, 0, kind)))
        assert abs(params_from_data(d).beta[(1, 0)] / 1e170 - 1.0) < 0.05
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
        k = 1 - j
        want = 1e-160 if j == 0 else 1e160
        assert abs(params_from_data(d).beta[(k, j)] / want - 1.0) < 0.01
        assert np.all(np.isfinite(fit_at(d, j, d.column(j), kind)))

    @pytest.mark.parametrize("k_bins", [100, 7, 3])
    def test_anchor_rise_past_the_largest_double_keeps_the_ols_row(self, k_bins):
        # An anchor on +-1.7e308: the rise of its run means across the
        # middle overflows, and rise / rise would be nan, not 1.
        rng = np.random.default_rng(0)
        x2 = 1.7e308 * rng.uniform(-1.0, 1.0, 500)
        x2[:2] = -1.7e308, 1.7e308
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1.0, 1.0, 500), x2])
        with np.errstate(invalid="ignore", over="ignore"):
            dep = fit(d, 1, "local_linear", k_bins)
        assert np.all(dep[:, 1] == 1.0)
        assert np.all(np.isfinite(dep))
        assert np.any(dep[:, 0] == fit(d, 1)[0, 0])


def line(x, y):
    """(slope, intercept) of y on x as the reference curves read them."""
    P = params_from_data(Dataset(names=["x", "y"], columns=[x, y]))
    return P.beta[(1, 0)], P.c[(1, 0)]


class TestOracleLines:
    """``params_from_data``'s lines: the OLS fit of every column on every
    other, read from the data's moment table."""

    def test_constant_x(self):
        a, b = line(np.ones(5), np.arange(5.0))
        assert a == 0.0 and b == 2.0

    def test_recovers_line(self):
        x = np.arange(10.0)
        a, b = line(x, 3.0 * x - 1.0)
        assert np.isclose(a, 3.0) and np.isclose(b, -1.0)

    def test_overflowing_moments_are_fitted_on_scaled_columns(self):
        # np.var of a column at 1e160 overflows; the slope of a column
        # tied to it (true slope 1e-160) once read 0
        rng = np.random.default_rng(0)
        x1 = rng.uniform(-1e160, 1e160, 1000)
        x2 = 1e-160 * x1 + rng.normal(0.0, 0.01, 1000)
        d = Dataset(names=["x1", "x2"], columns=[x1, x2])
        slope, intercept = np.polyfit(x1 * 1e-160, x2, 1)
        dep = fit(d, 0)
        assert dep[0, 0] == 1.0
        assert abs(dep[0, 1] / 1e-160 - slope) < 1e-9
        assert abs(line(x1, x2)[1] - intercept) < 1e-12
        # x at 1e150 and y at 1e200: only the covariance overflows
        a, b = line(x1 * 1e-10, x2 * 1e200)
        assert abs(a / 1e50 - slope) < 1e-9
        assert abs(b / 1e200 - intercept) < 1e-12

    def test_the_reference_reads_the_estimators_slopes(self):
        # One table for the oracle and the estimator: the same doubles.
        d = generate(SimSpec(case="complex_623", n=3000, seed=2))
        P = params_from_data(d)
        for j in range(d.p):
            slopes = fit(d, j)[0]
            assert all(P.beta[(k, j)] == slopes[k]
                       for k in range(d.p) if k != j)

    def test_line_that_is_not_finite_is_a_numerical_error(self):
        # a slope of 1e310 from finite moments
        small = np.array([1e-10, -1e-10, 2e-10])
        with pytest.raises(NumericalError, match="not finite"):
            line(small, 1e10 * small * 1e300)

    @pytest.mark.parametrize("case", CASES)
    def test_every_simulated_case_matches_the_reference(self, case):
        # Within 1e-12 of each pair's scale: the slope's is the ratio of
        # the columns' ranges, the intercept's the larger of |y| and
        # |slope x|.
        for seed in range(5):
            d = generate(SimSpec(case=case, n=5000, seed=seed))
            P = params_from_data(d)
            for j in range(d.p):
                for k in range(d.p):
                    if k != j:
                        close_to_reference(P.beta[(k, j)], P.c[(k, j)],
                                           d.column(j), d.column(k))


def close_to_reference(slope, intercept, x, y):
    """(slope, intercept) is ``reference_ols_line(x, y)`` within 1e-12 of
    the pair's scale."""
    want_slope, want_intercept = reference_ols_line(x, y)
    scale = np.ptp(y) / np.ptp(x)
    assert abs(slope - want_slope) <= 1e-12 * scale
    reach = max(np.max(np.abs(y)), abs(want_slope) * np.max(np.abs(x)))
    assert abs(intercept - want_intercept) <= 1e-12 * reach


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
       ex=st.floats(-150.0, 150.0), ey=st.floats(-150.0, 150.0),
       shift=st.floats(-1e3, 1e3))
def test_table_line_matches_the_two_branch_reference(seed, n, ex, ey, shift):
    # x and y at independent magnitudes from 1e-150 to 1e150, x off
    # center by up to 1e3 of its spread. (A constant x is where the two
    # differ on purpose: TestConstantColumns.)
    rng = np.random.default_rng(seed)
    x = rng.normal(shift, 1.0, n) * 10.0 ** ex
    y = (rng.normal() * x / 10.0 ** ex + rng.normal(size=n)) * 10.0 ** ey
    with np.errstate(over="ignore", invalid="ignore"):
        assume(np.ptp(x) > 0 and np.isfinite(np.var(x))
               and np.isfinite(np.cov(x, y, bias=True)[0, 1]))
    close_to_reference(*line(x, y), x, y)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 4),
       scales=st.lists(st.floats(-150.0, 150.0), min_size=4, max_size=4))
def test_linear_slope_table_is_the_ols_slopes_broadcast(seed, p, scales):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(200, p)) @ rng.uniform(-1, 1, (p, p))
    d = Dataset(names=[f"x{i}" for i in range(p)],
                columns=[x[:, i] * 10.0 ** scales[i] for i in range(p)])
    for j in range(p):
        got = fit_at(d, j, d.column(j))
        want = [1.0 if k == j
                else reference_ols_line(d.column(j), d.column(k))[0]
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
