"""Effect-curve estimators checked against closed-form references and a
brute-force Monte Carlo draw."""

import tracemalloc

import numpy as np
import pytest

from atdev import (
    CurveKind,
    Dataset,
    EffectCurve,
    Estimation,
    SimSpec,
    ace,
    ale,
    atdev,
    atdev_terms,
    catalog_model,
    center,
    effect_matrix,
    fit_dependence,
    generate,
    le_curve,
    marginal,
    oracle,
    params_from_data,
    pdp,
    quantile_bins,
    signal_model,
)
from atdev.dependence import DependenceModel
from atdev.effects import _local_quadratic
from atdev.errors import DataError
from helpers import (GivenDependence, bin_index, inner_mask, max_gap,
                     poly_coeffs, uncentered_max)


def uniform_pair(n=50_000, seed=4, slope=0.8, noise=0.1):
    """x2 riding on x1 with Gaussian wobble."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1, 1, n)
    x2 = slope * x1 + rng.normal(0, noise, n)
    return Dataset(names=["x1", "x2"], columns=[x1, x2])


def independent_pair(n=40_000, seed=12):
    rng = np.random.default_rng(seed)
    return Dataset(names=["x1", "x2"],
                   columns=[rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)])


def as_curve(template: EffectCurve, values: np.ndarray) -> EffectCurve:
    """Reference values dressed up on the estimate's grid and weights."""
    return EffectCurve(kind=template.kind, j=template.j, k=template.k,
                       grid=template.grid, values=np.asarray(values),
                       counts=template.counts)


class TestPdp:
    def test_additive_model_gives_the_grid_line(self):
        d = generate(SimSpec(case="bivariate_normal", n=5_000, seed=0,
                             rho=0.7, model="additive_linear"))
        model = catalog_model("additive_linear", p=2)
        curve = center(pdp(Estimation(model, d), 0))
        want = curve.grid - np.dot(curve.grid, curve.counts) / curve.counts.sum()
        assert np.max(np.abs(curve.values - want)) < 1e-12

    def test_product_model_slope_is_partner_mean(self):
        d = generate(SimSpec(case="bivariate_normal", n=8_000, seed=1,
                             rho=0.5, model="multiplicative"))
        curve = pdp(Estimation(catalog_model("multiplicative"), d), 0)
        coef = poly_coeffs(curve.grid, curve.values, 1)
        assert abs(coef[1] - float(np.mean(d.column(1)))) < 1e-10

    def test_interaction_enters_only_through_partner_mean(self):
        d = generate(SimSpec(case="bivariate_normal", n=8_000, seed=1,
                             rho=0.5, model="quad_plus_interaction"))
        # f = x1^2 + x1 x2, so the sweep over x2 is linear with slope E[x1]
        curve = pdp(Estimation(catalog_model("quad_plus_interaction"), d), 1)
        coef = poly_coeffs(curve.grid, curve.values, 1)
        assert abs(coef[1] - float(np.mean(d.column(0)))) < 1e-10


class TestMarginal:
    def test_matches_sweep_curve_when_independent(self):
        d = independent_pair()
        model = catalog_model("quad_plus_interaction")
        ctx = Estimation(model, d, k_bins=40)
        scheme = ctx.bins(0)
        m = marginal(ctx, 0, smooth=5)
        sweep = pdp(ctx, 0)
        mask = inner_mask(d.column(0), scheme.midpoints)
        assert max_gap(m, sweep, mask) < 0.05

    def test_exact_dependence_shifts_the_slope(self):
        d = uniform_pair(noise=0.0)
        model = catalog_model("additive_linear", p=2)
        # E[x1 + x2 | x1] = 1.8 x1 when x2 = 0.8 x1
        m = marginal(Estimation(model, d, k_bins=50), 0)
        coef = poly_coeffs(m.grid, m.values, 1)
        assert abs(coef[1] - 1.8) < 0.01

    def test_response_average_tracks_model_average(self, d61):
        model = signal_model(SimSpec(case="indep_61", n=1))
        ctx = Estimation(model, d61)
        scheme = ctx.bins(0)
        from_model = marginal(ctx, 0)
        y_means = (np.bincount(scheme.bin_of, weights=d61.response)
                   / scheme.counts)
        assert max_gap(from_model, as_curve(from_model, y_means)) < 0.02

    def test_smoother_is_exact_on_quadratics(self):
        rng = np.random.default_rng(7)
        g = np.sort(rng.uniform(-1, 1, 30))
        vals = 2.0 - 3.0 * g + 0.5 * g * g
        counts = rng.integers(1, 50, 30).astype(np.float64)
        out = _local_quadratic(g, vals, counts, 5)
        assert np.max(np.abs(out - vals)) < 1e-9

    def test_smoother_cuts_bin_noise(self):
        rng = np.random.default_rng(8)
        g = np.linspace(-1, 1, 60)
        truth = g * g
        noisy = truth + rng.normal(0, 0.1, 60)
        out = _local_quadratic(g, noisy, np.ones(60), 5)
        raw_rms = float(np.sqrt(np.mean((noisy - truth) ** 2)))
        new_rms = float(np.sqrt(np.mean((out - truth) ** 2)))
        assert new_rms < 0.6 * raw_rms


class TestAle:
    def test_unit_slope_reproduces_identity_at_midpoints(self):
        d = independent_pair(n=10_000)
        model = catalog_model("additive_linear", coeffs=(1.0, 0.0))
        ctx = Estimation(model, d, k_bins=37)
        scheme = ctx.bins(0)
        curve = ale(ctx, 0)
        want = scheme.midpoints - scheme.edges[0]
        assert np.max(np.abs(curve.values - want)) < 1e-10

    def test_product_model_curvature_is_half_the_slope(self):
        d = uniform_pair()
        ctx = Estimation(catalog_model("multiplicative"), d, k_bins=50)
        curve = ale(ctx, 0)
        b = ctx.dep(0).slopes[0, 1]
        mask = inner_mask(d.column(0), curve.grid)
        coef = poly_coeffs(curve.grid, curve.values, 2, mask)
        assert abs(coef[2] - b / 2.0) < 0.02

    def test_own_quadratic_adds_to_transferred_curvature(self):
        d = uniform_pair()
        ctx = Estimation(catalog_model("quad_plus_interaction"), d, k_bins=50)
        curve = ale(ctx, 0)
        b = ctx.dep(0).slopes[0, 1]
        mask = inner_mask(d.column(0), curve.grid)
        coef = poly_coeffs(curve.grid, curve.values, 2, mask)
        assert abs(coef[2] - (1.0 + b / 2.0)) < 0.02

    def test_matches_reference_curve_pointwise(self):
        d = uniform_pair()
        curve = ale(Estimation(catalog_model("multiplicative"), d, k_bins=50), 0)
        ref = oracle("multiplicative", CurveKind.ALE, 0, params_from_data(d))
        mask = inner_mask(d.column(0), curve.grid)
        assert max_gap(curve, as_curve(curve, ref(curve.grid)), mask) < 0.02


class TestAce:
    def test_zero_dependence_kills_cross_effects(self):
        d = independent_pair(n=2_000)
        dep = DependenceModel(j=0, edges=np.array([-1.0, 1.0]),
                              slopes=np.zeros((1, 2)))
        ctx = GivenDependence(catalog_model("quad_plus_interaction"), d,
                              lambda j: dep)
        curve = ace(ctx, 1, 0)
        assert np.all(curve.values == 0.0)

    def test_product_model_transfer_curvature(self):
        d = uniform_pair()
        ctx = Estimation(catalog_model("multiplicative"), d, k_bins=50)
        dep = ctx.dep(0)
        curve = ace(ctx, 1, 0)
        mask = inner_mask(d.column(0), curve.grid)
        coef = poly_coeffs(curve.grid, curve.values, 2, mask)
        assert abs(coef[2] - dep.slopes[0, 1] / 2.0) < 0.02
        assert abs(coef[1]) < 0.02

    def test_unmodeled_variable_transfers_the_quadratic(self, d621):
        # x3 never enters the response; its whole curve is borrowed from
        # x1 (quadratic) and x2 (linear) through the dependence fit.
        model = catalog_model("case_621")
        curve = ace(Estimation(model, d621, k_bins=50), 0, 2)
        ref = oracle("additive_621", CurveKind.ACE, 2,
                     params_from_data(d621), k=0)
        mask = inner_mask(d621.column(2), curve.grid)
        assert max_gap(curve, as_curve(curve, ref(curve.grid)), mask) < 0.03

    def test_own_column_rejected(self):
        d = independent_pair(n=300)
        with pytest.raises(DataError):
            ace(Estimation(catalog_model("multiplicative"), d), 0, 0)


class TestAtdev:
    def test_zero_dependence_collapses_to_own_curve(self):
        d = independent_pair(n=2_000)
        model = catalog_model("quad_plus_interaction")
        dep = DependenceModel(j=0, edges=np.array([-1.0, 1.0]),
                              slopes=np.zeros((1, 2)))
        ctx = GivenDependence(model, d, lambda j: dep, k_bins=20)
        total = atdev(ctx, 0)
        own = ale(ctx, 0)
        assert np.array_equal(total.values, own.values)

    def test_exact_line_gives_exact_total_slope(self):
        d = uniform_pair(noise=0.0)
        model = catalog_model("additive_linear", p=2)
        total = atdev(Estimation(model, d, k_bins=50), 0)
        coef = poly_coeffs(total.grid, total.values, 1)
        assert abs(coef[1] - 1.8) < 1e-8

    def test_decomposes_into_own_plus_cross(self, d622):
        model = catalog_model("case_622")
        ctx = Estimation(model, d622, k_bins=50)
        total = atdev(ctx, 0)
        parts = ale(ctx, 0).values.copy()
        for k in (1, 2):
            parts += ace(ctx, k, 0).values
        assert np.max(np.abs(total.values - parts)) < 1e-12

    def test_matches_conditional_mean_curve(self, d621):
        model = catalog_model("case_621")
        ctx = Estimation(model, d621, dependence="local_linear")
        scheme = ctx.bins(1)
        total = atdev(ctx, 1)
        cond = marginal(ctx, 1, smooth=7)
        mask = inner_mask(d621.column(1), scheme.midpoints)
        assert max_gap(total, cond, mask) < 0.05

    def test_terms_hold_one_integrand_column_at_a_time(self):
        # Beyond the N x p slope table, the kernel keeps one N-vector
        # integrand alive, 8 (p + 1) bytes a row; a second live column,
        # or all p of them, would add 8 or 8 (p - 1) more.
        model = catalog_model("case_623")
        peaks, sizes = [], (20_000, 80_000)
        for n in sizes:
            ctx = Estimation(model, generate(SimSpec(case="complex_623",
                                                     n=n, seed=1)))
            ctx.table, ctx.bins(2), ctx.dep(2)
            tracemalloc.start()
            try:
                atdev_terms(ctx, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_row = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
        assert per_row < 8 * (5 + 2)


class TestLeCurve:
    def test_own_profile_reads_the_cubic_derivative(self, d71i):
        model = signal_model(SimSpec(case="le_71_indep", n=1))
        curve = le_curve(Estimation(model, d71i), 2, 2)
        want = 6.0 * curve.grid ** 2 - 1.5
        assert curve.kind is CurveKind.LE
        assert curve.k is None
        assert np.max(np.abs(curve.values - want)) < 0.01

    def test_cross_profile_reads_the_interaction_slope(self, d71i):
        model = signal_model(SimSpec(case="le_71_indep", n=1))
        curve = le_curve(Estimation(model, d71i), 3, 1)
        assert curve.kind is CurveKind.LE_CROSS
        assert curve.k == 3
        coef = poly_coeffs(curve.grid, curve.values, 1)
        assert abs(coef[1] - 0.8) < 0.01
        ref = oracle("le_71_indep", CurveKind.LE_CROSS, 1,
                     params_from_data(d71i), k=3)
        assert np.max(np.abs(curve.values - ref(curve.grid))) < 0.01

    def test_cross_profile_under_strong_dependence(self, d71c):
        model = signal_model(SimSpec(case="le_71_corr", n=1))
        ctx = Estimation(model, d71c)
        b = ctx.dep(4).slopes[0, 2]
        curve = le_curve(ctx, 2, 4)
        mask = inner_mask(d71c.column(4), curve.grid)
        coef = poly_coeffs(curve.grid, curve.values, 2, mask)
        # E[6 x3^2 - 1.5 | x5] bends like 6 b^2 x5^2
        assert abs(coef[2] - 6.0 * b * b) < 0.5


# Every curve function and every per-anchor fact of the context with one
# bad column index in the slot named by the key; the other slot holds a
# valid index.
_INDEX_SLOTS = {
    "pdp": lambda ctx, i: pdp(ctx, i),
    "marginal": lambda ctx, i: marginal(ctx, i),
    "bins": lambda ctx, i: ctx.bins(i),
    "ale": lambda ctx, i: ale(ctx, i),
    "ace j": lambda ctx, i: ace(ctx, 0, i),
    "ace k": lambda ctx, i: ace(ctx, i, 0),
    "atdev": lambda ctx, i: atdev(ctx, i),
    "atdev_terms": lambda ctx, i: atdev_terms(ctx, i),
    "le_curve j": lambda ctx, i: le_curve(ctx, 0, i),
    "le_curve k": lambda ctx, i: le_curve(ctx, i, 0),
    "dep": lambda ctx, i: ctx.dep(i),
}


@pytest.mark.parametrize("index", [-1, 2, 1.0, True])
@pytest.mark.parametrize("slot", list(_INDEX_SLOTS))
def test_bad_column_index_is_rejected_by_name(slot, index):
    ctx = Estimation(catalog_model("multiplicative"), independent_pair(n=300))
    # Column 1 is the anchor held last: 1.0 and True compare equal to it.
    ctx.bins(1)
    ctx.dep(1)
    with pytest.raises(DataError, match=f"column index {index!r} is not an integer"):
        _INDEX_SLOTS[slot](ctx, index)


class TestEffectMatrix:
    def test_independent_data_has_flat_off_diagonals(self, d61):
        model = catalog_model("case_61")
        em = effect_matrix(Estimation(model, d61), CurveKind.ATDEV)
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                mask = inner_mask(d61.column(j), em.cells[i][j].grid)
                assert uncentered_max(em.cells[i][j], mask) < 0.02

    def test_absent_variable_cell_is_dark(self, d623):
        model = catalog_model("case_623")
        em = effect_matrix(Estimation(model, d623), CurveKind.ATDEV)
        # x5 never enters the response: nothing transfers through it
        assert uncentered_max(em.cells[4][2]) < 1e-12
        # but x3's effect transfers onto the x5 axis
        spread = em.cells[2][4].values
        assert float(spread.max() - spread.min()) > 0.2

    def test_totals_are_cell_sums_and_match_standalone(self, d622):
        model = catalog_model("case_622")
        ctx = Estimation(model, d622)
        em = effect_matrix(ctx, CurveKind.ATDEV)
        for j in range(3):
            summed = np.sum([em.cells[i][j].values for i in range(3)], axis=0)
            assert np.allclose(em.totals[j].values, summed, atol=1e-12)
            standalone = center(atdev(ctx, j))
            assert np.allclose(em.totals[j].values, standalone.values,
                               atol=1e-10)

    def test_derivative_kind_has_no_totals(self, d61):
        model = catalog_model("case_61")
        em = effect_matrix(Estimation(model, d61, k_bins=30), CurveKind.LE)
        assert em.totals is None
        # constant own derivative centers away to nothing
        assert uncentered_max(em.cells[0][0]) < 1e-12

    def test_matrix_kind_validation(self, d61):
        with pytest.raises(DataError):
            effect_matrix(Estimation(catalog_model("case_61"), d61),
                          CurveKind.PD)

    def test_single_column_matrix_is_the_own_curve(self):
        rng = np.random.default_rng(5)
        d = Dataset(names=["x1"], columns=[rng.uniform(-1, 1, 3_000)])
        model = catalog_model("additive_linear", coeffs=(2.0,))
        ctx = Estimation(model, d, k_bins=20)
        em = effect_matrix(ctx, CurveKind.ATDEV)
        own = center(ale(ctx, 0))
        assert np.allclose(em.cells[0][0].values, own.values, atol=1e-12)
        assert np.allclose(em.totals[0].values, own.values, atol=1e-12)


class TestSweepGradientIdentity:
    """Integrating the sweep-averaged gradient recovers the sweep curve."""

    @staticmethod
    def accumulate(d, scheme):
        # df/dx1 of the quadratic-with-interaction model, averaged over
        # the data at each sweep position, then integrated like ale.
        mu2 = float(np.mean(d.column(1)))
        means = 2.0 * scheme.midpoints + mu2
        contrib = means * scheme.widths
        return np.cumsum(contrib) - contrib / 2.0

    def test_additive_model_exact(self):
        d = independent_pair(n=6_000)
        model = catalog_model("additive_linear", coeffs=(2.0, 3.0))
        ctx = Estimation(model, d, k_bins=40)
        scheme = ctx.bins(0)
        sweep = center(pdp(ctx, 0))
        grad = np.full(scheme.k, 2.0)
        contrib = grad * scheme.widths
        acc = np.cumsum(contrib) - contrib / 2.0
        acc = acc - np.dot(acc, scheme.counts) / scheme.counts.sum()
        assert np.max(np.abs(sweep.values - acc)) < 1e-10

    def test_curved_model_within_half_bin_error(self):
        d = independent_pair(n=20_000)
        model = catalog_model("quad_plus_interaction")
        ctx = Estimation(model, d)
        scheme = ctx.bins(0)
        sweep = center(pdp(ctx, 0))
        acc = self.accumulate(d, scheme)
        acc = acc - np.dot(acc, scheme.counts) / scheme.counts.sum()
        assert np.max(np.abs(sweep.values - acc)) < 1e-3


class TestAgainstBruteForce:
    """A second, estimator-free Monte Carlo draw lands on the same
    conditional means."""

    def test_binned_conditional_means(self):
        d = generate(SimSpec(case="bivariate_normal", n=100_000, seed=9,
                             rho=0.5, model="quad_plus_interaction"))
        model = catalog_model("quad_plus_interaction")
        ctx = Estimation(model, d)
        scheme = ctx.bins(0)
        est = marginal(ctx, 0)

        rng = np.random.default_rng(1234)
        m = 1_000_000
        z1 = rng.standard_normal(m)
        z2 = rng.standard_normal(m)
        x1 = z1
        x2 = 0.5 * z1 + np.sqrt(1.0 - 0.25) * z2
        f = x1 * x1 + x1 * x2
        bins = bin_index(scheme.edges, x1)

        for b in (5, 50, 94):
            inside_est = est.values[b]
            sel = bins == b
            ref = f[sel]
            est_members = np.flatnonzero(scheme.bin_of == b)
            est_f = model.predict(d.matrix()[est_members])
            se = float(np.sqrt(np.var(ref) / len(ref)
                               + np.var(est_f) / len(est_f)))
            assert abs(inside_est - float(np.mean(ref))) < 3.0 * se

    def test_local_linear_anchor_and_level_means(self):
        # The local_linear slopes are difference quotients of the per-bin
        # means of x1 (the anchor) and x2 (the level); both land on a
        # second draw's conditional means.
        d = generate(SimSpec(case="bivariate_normal", n=100_000, seed=9,
                             rho=0.5, model="quad_plus_interaction"))
        scheme = quantile_bins(d, 0, 20)
        dep = fit_dependence(d, scheme, "local_linear")
        members = [scheme.bin_of == b for b in range(scheme.k)]
        means = np.array([[d.column(c)[m].mean() for c in (0, 1)]
                          for m in members])
        lo = np.maximum(np.arange(scheme.k) - 1, 0)
        hi = np.minimum(np.arange(scheme.k) + 1, scheme.k - 1)
        quotient = ((means[hi, 1] - means[lo, 1])
                    / (means[hi, 0] - means[lo, 0]))
        assert np.allclose(dep.slopes[:, 1], quotient, rtol=1e-12)

        rng = np.random.default_rng(4321)
        z1 = rng.standard_normal(1_000_000)
        z2 = rng.standard_normal(1_000_000)
        draw = (z1, 0.5 * z1 + np.sqrt(1.0 - 0.25) * z2)
        bins = bin_index(scheme.edges, z1)
        for b in (1, 10, 18):
            for c in (0, 1):
                ref = draw[c][bins == b]
                own = d.column(c)[members[b]]
                se = float(np.sqrt(np.var(ref) / len(ref)
                                   + np.var(own) / len(own)))
                assert abs(means[b, c] - float(np.mean(ref))) < 3.0 * se
