"""Identities of the effect estimators, checked as properties over random
polynomial models and random correlated data."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from atdev import (CurveKind, Dataset, ace, ale, atdev, build_report, center,
                   custom_model, effect_matrix, fit_dependence, gradient_table,
                   le_curve, marginal, pdp, quantile_bins, total_derivatives)

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
    em = effect_matrix(model, d, CurveKind.ATDEV, k_bins=k_bins,
                       dependence=kind)
    for j in range(d.p):
        standalone = center(atdev(model, d, j, dep=fit_dependence(d, j, kind),
                                  bins=em.schemes[j]))
        assert close(em.total(j).values, standalone.values)
        summed = np.sum([em.cell(i, j).values for i in range(d.p)], axis=0)
        assert close(em.total(j).values, summed)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_matrix_cells_are_centered_standalone_curves(problem):
    model, d, k_bins, kind = problem
    table = gradient_table(model, d)
    em = effect_matrix(model, d, CurveKind.ATDEV, k_bins=k_bins,
                       dependence=kind, table=table)
    le = effect_matrix(model, d, CurveKind.LE, k_bins=k_bins, table=table)
    for j in range(d.p):
        scheme = em.schemes[j]
        dep = fit_dependence(d, j, kind)
        for i in range(d.p):
            own = ale(model, d, j, bins=scheme, table=table) if i == j \
                else ace(model, d, i, j, dep, bins=scheme, table=table)
            assert close(em.cell(i, j).values, center(own).values)
            local = le_curve(model, d, i, j, bins=scheme, table=table)
            assert close(le.cell(i, j).values, center(local).values)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_atdev_integrates_binned_total_derivatives(problem):
    model, d, k_bins, kind = problem
    for j in range(d.p):
        scheme = quantile_bins(d, j, k_bins)
        dep = fit_dependence(d, j, kind)
        per_row = total_derivatives(model, d, j, dep)
        means = np.array([per_row[scheme.bin_of == b].mean()
                          for b in range(scheme.k)])
        contrib = means * np.diff(scheme.edges)
        midpoint = np.cumsum(contrib) - contrib / 2.0
        curve = atdev(model, d, j, dep=dep, bins=scheme)
        assert close(curve.values, midpoint)


def predict_sweep(model, d: Dataset, j: int, grid: np.ndarray) -> np.ndarray:
    """Partial dependence the long way: one predict call per grid value
    on a copy of the data with column j overwritten."""
    x = d.matrix()
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
    scheme = quantile_bins(d, j, k_bins)
    assert close(pdp(model, d, j, bins=scheme).values,
                 predict_sweep(model, d, j, scheme.midpoints))
    xj = d.column(j)
    grid = np.linspace(xj.min(), xj.max(), 7)
    assert close(pdp(model, d, j, bins=scheme, grid=grid).values,
                 predict_sweep(model, d, j, grid))


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(0, 2**32 - 1))
def test_pdp_and_atdev_ignore_row_order(problem, seed):
    model, d, k_bins, kind = problem
    order = np.random.default_rng(seed).permutation(d.n)
    shuffled = Dataset(names=list(d.names),
                       columns=[c[order] for c in d.columns])
    for j in range(d.p):
        curves = []
        for data in (d, shuffled):
            scheme = quantile_bins(data, j, k_bins)
            dep = fit_dependence(data, j, kind)
            curves.append((pdp(model, data, j, bins=scheme),
                           atdev(model, data, j, dep=dep, bins=scheme)))
        for before, after in zip(*curves):
            assert np.array_equal(before.grid, after.grid)
            assert close(before.values, after.values)


@settings(max_examples=40, deadline=None)
@given(problems(), st.floats(-4.0, 4.0, allow_nan=False))
def test_scaling_the_model_scales_curves_and_variances(problem, c):
    model, d, k_bins, kind = problem
    scaled = model.scaled(c)
    for j in range(d.p):
        scheme = quantile_bins(d, j, k_bins)
        dep = fit_dependence(d, j, kind)
        k = (j + 1) % d.p
        for curve in (pdp, marginal, ale):
            assert close(curve(scaled, d, j, bins=scheme).values,
                         c * curve(model, d, j, bins=scheme).values)
        assert close(atdev(scaled, d, j, dep=dep, bins=scheme).values,
                     c * atdev(model, d, j, dep=dep, bins=scheme).values)
        assert close(ace(scaled, d, k, j, dep, bins=scheme).values,
                     c * ace(model, d, k, j, dep, bins=scheme).values)
        assert close(le_curve(scaled, d, k, j, bins=scheme).values,
                     c * le_curve(model, d, k, j, bins=scheme).values)
    v = build_report(model, d, k_bins=k_bins, dependence=kind).v
    v_scaled = build_report(scaled, d, k_bins=k_bins, dependence=kind).v
    assert close(v_scaled, c * c * v)
