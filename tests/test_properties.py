"""Identities of the effect estimators, checked as properties over random
polynomial models and random correlated data."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atdev import (CurveKind, Dataset, Estimation, ace, ale, atdev,
                   build_report, catalog_model, center, custom_model,
                   effect_matrix, le_curve, marginal, models, pdp,
                   wrap_external)
from atdev.models import ROW_BUDGET, MlpModel, Predictor
from helpers import rowwise_curves, scaled, slopes_at

TOL = 1e-12


@st.composite
def problems(draw):
    """A random polynomial in p inputs, correlated data, a bin count and
    a dependence kind."""
    p = draw(st.integers(2, 4))
    coef = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    powers = st.dictionaries(st.integers(0, p - 1), st.integers(1, 3),
                             max_size=3)
    terms = draw(st.lists(st.tuples(coef, powers), min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(150, 600))
    rng = np.random.default_rng(seed)
    mix = rng.uniform(-1.0, 1.0, (p, p)) + 1.5 * np.eye(p)
    x = rng.uniform(-1.0, 1.0, (n, p)) @ mix / p
    d = Dataset(names=[f"x{i + 1}" for i in range(p)],
                columns=[x[:, i].copy() for i in range(p)])
    k_bins = draw(st.integers(3, 15))
    kind = draw(st.sampled_from(["linear", "local_linear"]))
    return custom_model(p, terms), d, k_bins, kind


def close(a: np.ndarray, b: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) <= TOL * scale


@settings(max_examples=40, deadline=None)
@given(problems())
def test_matrix_totals_are_centered_atdev(problem):
    model, d, k_bins, kind = problem
    ctx = Estimation(model, d, k_bins=k_bins, dependence=kind)
    em = effect_matrix(ctx, CurveKind.ATDEV)
    for j in range(d.p):
        standalone = center(atdev(ctx, j))
        assert close(em.totals[j].values, standalone.values)
        summed = np.sum([em.cells[i][j].values for i in range(d.p)], axis=0)
        assert close(em.totals[j].values, summed)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_matrix_cells_are_centered_standalone_curves(problem):
    model, d, k_bins, kind = problem
    ctx = Estimation(model, d, k_bins=k_bins, dependence=kind)
    em = effect_matrix(ctx, CurveKind.ATDEV)
    le = effect_matrix(ctx, CurveKind.LE)
    for j in range(d.p):
        for i in range(d.p):
            own = ale(ctx, j) if i == j else ace(ctx, i, j)
            assert close(em.cells[i][j].values, center(own).values)
            local = le_curve(ctx, i, j)
            assert close(le.cells[i][j].values, center(local).values)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_atdev_integrates_binned_total_derivatives(problem):
    model, d, k_bins, kind = problem
    ctx = Estimation(model, d, k_bins=k_bins, dependence=kind)
    for j in range(d.p):
        scheme = ctx.bins(j)
        # The total derivative along the dependence: the row sum of G * S.
        per_row = (ctx.table.values
                   * slopes_at(ctx.dep(j), scheme, d.column(j))).sum(axis=1)
        means = np.array([per_row[scheme.bin_of == b].mean()
                          for b in range(scheme.k)])
        contrib = means * np.diff(scheme.edges)
        midpoint = np.cumsum(contrib) - contrib / 2.0
        curve = atdev(ctx, j)
        assert close(curve.values, midpoint)


def centered_close(got: np.ndarray, want: np.ndarray, counts: np.ndarray) -> bool:
    """``got`` equals ``want`` centered against ``counts``, within TOL
    relative to the larger of the two curves' uncentered magnitudes."""
    ref = want - np.dot(want, counts) / counts.sum()
    scale = max(float(np.max(np.abs(want))), float(np.max(np.abs(got))))
    return float(np.max(np.abs(got - ref))) <= TOL * scale


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(2, 60),
       st.sampled_from(["linear", "local_linear"]))
def test_matrix_cells_match_the_rowwise_kernel(problem, k_bins, kind):
    # Slope table times bin means against the row-wise product G * S
    # (each row's slope looked up in the curve edges) averaged per
    # bin: every ATDEV and LE cell, and every ATDEV total.
    model, d, _, _ = problem
    # Away from the subnormals, where a product has no relative precision.
    assume(all(c == 0.0 or abs(c) > 1e-100 for c, _ in model.terms))
    ctx = Estimation(model, d, k_bins=k_bins, dependence=kind)
    em = effect_matrix(ctx, CurveKind.ATDEV)
    le = effect_matrix(ctx, CurveKind.LE)
    for j in range(d.p):
        counts = ctx.bins(j).counts.astype(np.float64)
        total = rowwise_curves(ctx, j)
        local = rowwise_curves(ctx, j, integrate=False)
        assert centered_close(em.totals[j].values, total.sum(axis=1), counts)
        for i in range(d.p):
            assert centered_close(em.cells[i][j].values, total[:, i], counts)
            assert centered_close(le.cells[i][j].values, local[:, i], counts)


@pytest.mark.parametrize("kind", ["linear", "local_linear"])
@pytest.mark.parametrize("k_bins", [7, 100])
def test_working_scale_cells_match_the_rowwise_kernel(d623, k_bins, kind):
    # The same at N = 100k on the benchmark's polynomial, where a bin
    # mean sums about 1000 to 14 000 rows.
    ctx = Estimation(catalog_model("case_623"), d623, k_bins=k_bins,
                     dependence=kind)
    em = effect_matrix(ctx, CurveKind.ATDEV)
    for j in range(d623.p):
        counts = ctx.bins(j).counts.astype(np.float64)
        total = rowwise_curves(ctx, j)
        assert centered_close(em.totals[j].values, total.sum(axis=1), counts)
        for i in range(d623.p):
            assert centered_close(em.cells[i][j].values, total[:, i], counts)


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(2, 60))
def test_local_linear_slopes_are_constant_on_every_curve_bin(problem, k_bins):
    # One partition per anchor: the slope table has a row per curve bin,
    # so S_k is one number on each curve bin and the ACE through k is the
    # midpoint cumsum of S_k times the bin mean of g_k.
    model, d, _, _ = problem
    ctx = Estimation(model, d, k_bins=k_bins, dependence="local_linear")
    for j in range(d.p):
        scheme, dep = ctx.bins(j), ctx.dep(j)
        assert dep.shape == (scheme.k, d.p)
        slopes = slopes_at(dep, scheme, scheme.midpoints)
        means = scheme.means(ctx.table.values.T)
        for k in range(d.p):
            if k == j:
                continue
            contrib = slopes[:, k] * means[:, k] * scheme.widths
            midpoint = np.cumsum(contrib) - contrib / 2.0
            assert close(ace(ctx, k, j).values, midpoint)


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_ale_of_a_linear_model_is_exact_at_the_midpoints(problem, data):
    # df/dx_j = c_j in every row, so the accumulated bin means reach
    # c_j (mid - edges[0]) at each midpoint.
    _, d, k_bins, _ = problem
    # Away from the subnormals, where c_j * width has no relative precision.
    c = st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) > 1e-100)
    coef = data.draw(st.lists(c, min_size=d.p, max_size=d.p))
    model = custom_model(d.p, [(c, {k: 1}) for k, c in enumerate(coef)])
    ctx = Estimation(model, d, k_bins=k_bins)
    for j in range(d.p):
        scheme = ctx.bins(j)
        curve = ale(ctx, j)
        want = coef[j] * (scheme.midpoints - scheme.edges[0])
        scale = abs(coef[j]) * (scheme.edges[-1] - scheme.edges[0])
        assert np.array_equal(curve.grid, scheme.midpoints)
        assert float(np.max(np.abs(curve.values - want))) <= TOL * scale


def predict_sweep(model, d: Dataset, j: int, grid: np.ndarray) -> np.ndarray:
    """Partial dependence the long way: one predict call per grid value
    on a copy of the data with column j overwritten."""
    x = d.matrix().copy()
    values = []
    for z in grid:
        x[:, j] = z
        values.append(np.mean(model.predict(x)))
    return np.array(values)


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_pdp_matches_predict_sweep(problem, data):
    model, d, k_bins, _ = problem
    j = data.draw(st.integers(0, d.p - 1))
    # A constant and a term without x_j always take part.
    model = custom_model(d.p, [*model.terms, (0.75, {}),
                               (-0.5, {(j + 1) % d.p: 2})])
    ctx = Estimation(model, d, k_bins=k_bins)
    assert close(pdp(ctx, j).values,
                 predict_sweep(model, d, j, ctx.bins(j).midpoints))
    xj = d.column(j)
    grid = np.linspace(xj.min(), xj.max(), 7)
    assert close(model.partial_dependence(d.matrix(), j, grid),
                 predict_sweep(model, d, j, grid))


@settings(max_examples=30, deadline=None)
@example(ROW_BUDGET + 1, 3, 1, "network", 0)
@example(ROW_BUDGET // 8, 8, 2, "polynomial", 1)
@example(20, 3, 0, "external", 2)
@given(st.integers(1, 2 * ROW_BUDGET + 7), st.integers(1, 40),
       st.integers(0, 2), st.sampled_from(["polynomial", "network", "external"]),
       st.integers(0, 2**32 - 1))
def test_stacked_pd_matches_predict_sweep(scorer_path, n, k, j, backend, seed):
    """The sweep equals one predict call per grid value, whether a chunk
    holds many grid values (N below the row budget) or cuts through one
    (N above it, or not dividing it). The external scorer, a process a
    spawn, runs on small N and K under a budget of 7 rows, and agrees bit
    for bit."""
    rng = np.random.default_rng(seed)
    budget = ROW_BUDGET
    if backend == "external":
        n, k, budget = n % 15 + 1, k % 4 + 1, 7
    x = rng.uniform(-1.0, 1.0, (n, 3))
    if backend == "network":
        model = MlpModel(w1=rng.normal(size=(6, 3)), b1=rng.normal(size=6),
                         w2=rng.normal(size=6), b2=float(rng.normal()))
    elif backend == "polynomial":
        model = custom_model(3, [(1.0, {0: 1, 1: 2}), (-0.5, {2: 3}),
                                 (0.25, {})])
    else:
        model = wrap_external([sys.executable, scorer_path, "sum"], p=3)
    grid = rng.uniform(-1.0, 1.0, k)
    d = Dataset(names=["x1", "x2", "x3"], columns=[x[:, i] for i in range(3)])
    with mock.patch.object(models, "ROW_BUDGET", budget):
        swept = Predictor.partial_dependence(model, x, j, grid)
        looped = predict_sweep(model, d, j, grid)
    if backend == "external":
        assert swept.tobytes() == looped.tobytes()
    else:
        assert close(swept, looped)


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(0, 2**32 - 1))
def test_pdp_and_atdev_ignore_row_order(problem, seed):
    model, d, k_bins, kind = problem
    order = np.random.default_rng(seed).permutation(d.n)
    shuffled = Dataset(names=list(d.names),
                       columns=[c[order] for c in d.columns])
    contexts = [Estimation(model, data, k_bins=k_bins, dependence=kind)
                for data in (d, shuffled)]
    for j in range(d.p):
        curves = [(pdp(ctx, j), atdev(ctx, j)) for ctx in contexts]
        for before, after in zip(*curves):
            assert np.array_equal(before.grid, after.grid)
            assert close(before.values, after.values)


@settings(max_examples=40, deadline=None)
@given(problems(), st.floats(-4.0, 4.0, allow_nan=False))
def test_scaling_the_model_scales_curves_and_variances(problem, c):
    model, d, k_bins, kind = problem
    base, times_c = (Estimation(m, d, k_bins=k_bins, dependence=kind)
                     for m in (model, scaled(model, c)))
    for j in range(d.p):
        k = (j + 1) % d.p
        for curve in (pdp, marginal, ale, atdev):
            assert close(curve(times_c, j).values, c * curve(base, j).values)
        for curve in (ace, le_curve):
            assert close(curve(times_c, k, j).values,
                         c * curve(base, k, j).values)
    assert close(build_report(times_c).v, c * c * build_report(base).v)
