"""Synthetic-data recipes, their noise accounting, and the closed-form
reference curves."""

import numpy as np
import pytest

from atdev import (
    CASES,
    CurveKind,
    SimSpec,
    generate,
    oracle,
    params_from_data,
    signal_model,
    theoretical_r2,
)
from atdev.dependence import ols_line
from atdev.errors import DataError, NoOracleError
from atdev.simgen import _signal_variance

BIVARIATE = dict(mean=(0.5, -1.0), sigma=(2.0, 0.3), rho=0.6,
                 model="quad_plus_interaction")


def spec(case, n=1000, **kw):
    return SimSpec(case=case, n=n, **kw)


def direct_draws(s):
    """The dataset from default_rng calls made here in the documented
    order: every draw of a row's columns in column order, each dependence
    noise right after its parent, then the response noise."""
    rng = np.random.default_rng(s.seed)
    n, sd = s.n, s.noise_sd
    if s.case in ("indep_61", "le_71_indep"):
        cols = [rng.uniform(-1.0, 1.0, n) for _ in range(5)]
    elif s.case == "additive_621":
        x1 = rng.uniform(-1.0, 1.0, n)
        e2 = rng.normal(0.0, sd, n)
        e3 = rng.normal(0.0, sd, n)
        cols = [x1, 0.8 * x1 + e2, -x1 + e3]
    elif s.case == "interaction_622":
        x1 = rng.uniform(-1.0, 1.0, n)
        e2 = rng.normal(0.0, sd, n)
        x3 = rng.uniform(-1.0, 1.0, n)
        cols = [x1, -x1 + e2, x3]
    elif s.case in ("complex_623", "le_71_corr"):
        x1, x2, x3 = (rng.uniform(-1.0, 1.0, n) for _ in range(3))
        e4 = rng.normal(0.0, sd, n)
        e5 = rng.normal(0.0, sd, n)
        cols = [x1, x2, x3, x2 + e4, -x3 + e5]
    else:
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        (m1, m2), (s1, s2), r = s.mean, s.sigma, s.rho
        cols = [m1 + s1 * z1,
                m2 + s2 * (r * z1 + np.sqrt(1.0 - r * r) * z2)]
    x = np.column_stack(cols)
    return x, signal_model(s).predict(x) + rng.normal(0.0, sd, n)


def closed_form_variance(s):
    """Var f(X) worked out by hand for each case. E t^k = 1 / (k + 1)
    for t uniform on [-1, 1] and even k; a bivariate signal is a
    quadratic form x'Ax + b'x of a Gaussian pair, whose variance is
    2 tr((A S)^2) + (b + 2 A m)' S (b + 2 A m)."""
    sd2 = s.noise_sd ** 2
    m2, m4, m6 = 1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0
    var_u = m2                          # Var of a uniform column
    var_sq = m4 - m2 ** 2               # Var(t^2)
    var_herm3 = 4.0 * m6 - 6.0 * m4 + 2.25 * m2   # Var(2t^3 - 1.5t)
    if s.case == "indep_61":
        # x1 + x2^2 + x3^3 + 0.8 x2 x4, all independent
        return var_u + var_sq + m6 + 0.64 * var_u ** 2
    if s.case == "additive_621":
        # x1^2 + x2 with x2 = 0.8 x1 + e
        return var_sq + 0.64 * var_u + sd2
    if s.case == "interaction_622":
        # x1 + x2 + x1 x2 with x2 = -x1 + e collapses to e(1 + x1) - x1^2
        return sd2 * (1.0 + var_u) + var_sq
    if s.case in ("complex_623", "le_71_corr"):
        # x2 block collapses to 2.3 x2^2 + 0.8 x2 e4 (+ const)
        return var_u + 5.29 * var_sq + 0.64 * var_u * sd2 + var_herm3
    if s.case == "le_71_indep":
        return var_u + 2.25 * var_sq + var_herm3 + 0.64 * var_u ** 2
    (s1, s2), r = s.sigma, s.rho
    cov = np.array([[s1 * s1, r * s1 * s2], [r * s1 * s2, s2 * s2]])
    a, b = {"additive_linear": (np.zeros((2, 2)), np.ones(2)),
            "multiplicative": (np.array([[0.0, 0.5], [0.5, 0.0]]),
                               np.zeros(2)),
            "quad_plus_interaction": (np.array([[1.0, 0.5], [0.5, 0.0]]),
                                      np.zeros(2))}[s.model]
    g = b + 2.0 * a @ np.asarray(s.mean)
    return float(2.0 * np.trace(a @ cov @ a @ cov) + g @ cov @ g)


class TestGenerate:
    def test_shape_names_response(self):
        d = generate(spec("indep_61", n=400))
        assert d.p == 5 and d.n == 400
        assert d.names == ["x1", "x2", "x3", "x4", "x5"]
        assert d.response is not None and len(d.response) == 400

    def test_same_seed_is_bit_identical(self):
        a = generate(spec("complex_623", n=2_000, seed=42))
        b = generate(spec("complex_623", n=2_000, seed=42))
        assert np.array_equal(a.matrix(), b.matrix())
        assert np.array_equal(a.response, b.response)

    def test_different_seeds_differ(self):
        a = generate(spec("indep_61", n=100, seed=1))
        b = generate(spec("indep_61", n=100, seed=2))
        assert not np.array_equal(a.matrix(), b.matrix())

    def test_single_row_allowed(self):
        d = generate(spec("interaction_622", n=1))
        assert d.n == 1

    def test_empty_draw_rejected(self):
        with pytest.raises(DataError):
            SimSpec(case="indep_61", n=0)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("case", CASES)
    def test_draws_follow_the_documented_order(self, case, seed):
        s = spec(case, n=700, seed=seed, noise_sd=0.3,
                 **(BIVARIATE if case == "bivariate_normal" else {}))
        d = generate(s)
        x, y = direct_draws(s)
        assert d.matrix().tobytes() == x.tobytes()
        assert d.response.tobytes() == y.tobytes()

    def test_uniform_column_moments(self):
        n = 50_000
        d = generate(spec("indep_61", n=n, seed=9))
        bound = 3.0 / np.sqrt(3.0 * n)
        for j in range(5):
            assert abs(float(np.mean(d.column(j)))) < bound

    def test_bivariate_pair_hits_requested_correlation(self):
        d = generate(spec("bivariate_normal", n=50_000, seed=3, rho=0.9))
        got = float(np.corrcoef(d.column(0), d.column(1))[0, 1])
        assert abs(got - 0.9) < 0.005

    def test_interaction_pair_correlation(self, d622):
        got = float(np.corrcoef(d622.column(0), d622.column(1))[0, 1])
        assert abs(got - (-0.9853)) < 0.005

    def test_response_noise_has_the_stated_scale(self):
        s = spec("complex_623", n=50_000, seed=11)
        d = generate(s)
        resid = d.response - signal_model(s).predict(d.matrix())
        assert abs(float(np.mean(resid))) < 3.0 * 0.1 / np.sqrt(d.n)
        assert abs(float(np.std(resid)) - 0.1) < 0.005

    def test_validation(self):
        with pytest.raises(DataError):
            SimSpec(case="mystery", n=10)
        with pytest.raises(DataError):
            SimSpec(case="indep_61", n=10, noise_sd=-0.1)
        with pytest.raises(DataError):
            SimSpec(case="bivariate_normal", n=10, rho=1.0)
        with pytest.raises(DataError):
            SimSpec(case="bivariate_normal", n=10, sigma=(0.0, 1.0))
        with pytest.raises(DataError):
            SimSpec(case="bivariate_normal", n=10, model="case_61")

    @pytest.mark.parametrize("case", ["indep_61", "bivariate_normal"])
    @pytest.mark.parametrize("field, value", [
        ("noise_sd", float("nan")), ("noise_sd", float("inf")),
        ("rho", float("nan")), ("mean", (0.0, float("nan"))),
        ("mean", (float("-inf"), 0.0)), ("sigma", (float("nan"), 1.0)),
        ("sigma", (1.0, float("inf")))])
    def test_non_finite_parameters_rejected(self, case, field, value):
        # A NaN noise once gave theoretical_r2 == 0.0, a plausible number.
        with pytest.raises(DataError, match="finite"):
            SimSpec(case=case, n=10, **{field: value})


def signal_variance(s: SimSpec) -> float:
    """Var f from the scaled quadrature: 4^e times its scaled value."""
    v, e = _signal_variance(s)
    with np.errstate(over="ignore"):
        return float(np.ldexp(v, 2 * e))


class TestTheoreticalR2:
    @pytest.mark.parametrize("noise_sd", [0.0, 0.1, 0.7])
    @pytest.mark.parametrize("case", [c for c in CASES
                                      if c != "bivariate_normal"])
    def test_quadrature_matches_the_closed_forms(self, case, noise_sd):
        s = spec(case, noise_sd=noise_sd)
        v = closed_form_variance(s)
        assert abs(signal_variance(s) - v) < 1e-12
        assert abs(theoretical_r2(s) - v / (v + noise_sd ** 2)) < 1e-12

    @pytest.mark.parametrize("noise_sd", [0.1, 0.7])
    @pytest.mark.parametrize("mean, sigma", [((0.0, 0.0), (1.0, 1.0)),
                                             ((0.5, -1.0), (2.0, 0.3))])
    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("model", ["additive_linear", "multiplicative",
                                       "quad_plus_interaction"])
    def test_bivariate_quadrature_matches_the_closed_form(
            self, model, rho, mean, sigma, noise_sd):
        s = spec("bivariate_normal", noise_sd=noise_sd, rho=rho, mean=mean,
                 sigma=sigma, model=model)
        v = closed_form_variance(s)
        assert abs(signal_variance(s) - v) < 1e-12 * max(1.0, v)
        # The scaled ratio is the unscaled one, bit for bit.
        v = signal_variance(s)
        assert theoretical_r2(s) == v / (v + noise_sd ** 2)
        assert abs(theoretical_r2(s) - v / (v + noise_sd ** 2)) < 1e-12

    def test_independent_additive_case(self):
        r2 = theoretical_r2(spec("indep_61"))
        assert abs(r2 - 0.9845) < 1e-3
        assert abs(r2 - 0.986) < 0.002

    def test_complex_case(self):
        assert abs(theoretical_r2(spec("complex_623")) - 0.989329) < 1e-5

    def test_noiseless_signal_is_perfect(self):
        assert theoretical_r2(spec("indep_61", noise_sd=0.0)) == 1.0

    def test_signal_variance_past_the_largest_double(self):
        # Var f is about 1e320 at sigma 1e80; the noise is nothing next
        # to it.
        s = spec("bivariate_normal", sigma=(1e80, 1.0),
                 model="quad_plus_interaction")
        assert np.isinf(signal_variance(s))
        assert theoretical_r2(s) == 1.0

    @pytest.mark.parametrize("case", [c for c in CASES
                                      if c != "bivariate_normal"])
    def test_formula_matches_simulation(self, case):
        s = spec(case, n=200_000, seed=17)
        d = generate(s)
        sig = signal_model(s).predict(d.matrix())
        emp = float(np.var(sig) / (np.var(sig) + 0.01))
        assert abs(emp - theoretical_r2(s)) < 0.005

    def test_quadrature_matches_simulation(self):
        s = spec("bivariate_normal", n=400_000, seed=18, rho=0.6,
                 model="quad_plus_interaction")
        d = generate(s)
        sig = signal_model(s).predict(d.matrix())
        emp = float(np.var(sig) / (np.var(sig) + 0.01))
        assert abs(emp - theoretical_r2(s)) < 0.005


class TestOracle:
    def params(self, seed=21, slope=0.7, n=20_000):
        rng = np.random.default_rng(seed)
        x1 = rng.uniform(-1, 1, n)
        x2 = slope * x1 + rng.normal(0, 0.2, n)
        from atdev import Dataset
        return params_from_data(
            Dataset(names=["x1", "x2"], columns=[x1, x2]))

    def test_sweep_curve_uses_the_partner_mean(self):
        P = self.params()
        ref = oracle("multiplicative", CurveKind.PD, 0, P)
        assert ref.coeffs == (0.0, P.mu[1])

    def test_additive_transfer_is_the_fitted_slope(self):
        P = self.params()
        ref = oracle("additive_linear", CurveKind.ACE, 0, P)
        assert ref.coefficient(1) == P.beta[(1, 0)]
        assert ref.coefficient(2) == 0.0

    def test_quad_interaction_reverse_transfer(self):
        P = self.params()
        b, c = P.beta[(0, 1)], P.c[(0, 1)]
        ref = oracle("quad_plus_interaction", CurveKind.ACE, 1, P)
        assert np.allclose(ref.coeffs, (0.0, 2.0 * b * c, b * b + b / 2.0))

    def test_decomposition_holds_coefficientwise(self):
        P = self.params()

        def padded(curve, deg=4):
            out = np.zeros(deg)
            out[:len(curve.coeffs)] = curve.coeffs
            return out

        for model in ("additive_linear", "multiplicative",
                      "quad_plus_interaction"):
            for j in (0, 1):
                own = padded(oracle(model, CurveKind.ALE, j, P))
                cross = padded(oracle(model, CurveKind.ACE, j, P))
                total = padded(oracle(model, CurveKind.ATDEV, j, P))
                cond = padded(oracle(model, CurveKind.MARGINAL, j, P))
                assert np.allclose(own + cross, total, atol=1e-14)
                assert np.allclose(cond, total, atol=1e-14)

        # three inputs: the ACE terms run through each other column
        for case in ("additive_621", "interaction_622"):
            P3 = params_from_data(generate(spec(case, n=5_000, seed=4)))
            for j in (0, 1, 2):
                own = padded(oracle(case, CurveKind.ALE, j, P3))
                cross = sum(padded(oracle(case, CurveKind.ACE, j, P3, k=k))
                            for k in (0, 1, 2) if k != j)
                total = padded(oracle(case, CurveKind.ATDEV, j, P3))
                cond = padded(oracle(case, CurveKind.MARGINAL, j, P3))
                assert np.allclose(own + cross, total, atol=1e-14)
                assert np.allclose(cond, total, atol=1e-14)

    def test_additive_621_spillover_column(self):
        # f = x1^2 + x2 at anchor x3: x1 -> c1 + b1 x3 transfers
        # d(x1^2)/dx1 = 2 x1, x2 -> c2 + b2 x3 transfers 1
        P = params_from_data(generate(spec("additive_621", n=5_000, seed=4)))
        b1, c1 = P.beta[(0, 2)], P.c[(0, 2)]
        b2 = P.beta[(1, 2)]
        via1 = oracle("additive_621", CurveKind.ACE, 2, P, k=0)
        assert np.allclose(via1.coeffs, (0.0, 2.0 * b1 * c1, b1 * b1))
        via2 = oracle("additive_621", CurveKind.ACE, 2, P, k=1)
        assert np.allclose(via2.coeffs, (0.0, b2))

    def test_derivative_profiles_for_the_independent_case(self):
        d = generate(spec("le_71_indep", n=30_000, seed=2))
        P = params_from_data(d)
        own = oracle("le_71_indep", CurveKind.LE, 2, P)
        assert own.coeffs == (-1.5, 0.0, 6.0)
        cross = oracle("le_71_indep", CurveKind.LE_CROSS, 1, P, k=3)
        assert cross.coeffs == (0.0, 0.8)
        absent = oracle("le_71_indep", CurveKind.LE_CROSS, 0, P, k=4)
        assert absent.coeffs == (0.0,)

    def test_three_variable_spillover_column(self):
        d = generate(spec("interaction_622", n=30_000, seed=2))
        P = params_from_data(d)
        b1, c1 = P.beta[(0, 2)], P.c[(0, 2)]
        b2, c2 = P.beta[(1, 2)], P.c[(1, 2)]
        ref = oracle("interaction_622", CurveKind.ATDEV, 2, P)
        assert np.allclose(
            ref.coeffs,
            (0.0, b1 * (1.0 + c2) + b2 * (1.0 + c1), b1 * b2))

    def test_unsupported_combinations_raise(self):
        P = self.params()
        with pytest.raises(NoOracleError):
            oracle("indep_61", CurveKind.PD, 0, P)
        with pytest.raises(NoOracleError):
            oracle("case_61", CurveKind.LE, 0, P)
        with pytest.raises(NoOracleError):
            oracle("multiplicative", CurveKind.LE, 0, P)
        with pytest.raises(NoOracleError):
            oracle("multiplicative", CurveKind.ACE, 0, P, k=0)
        with pytest.raises(NoOracleError):
            oracle("multiplicative", CurveKind.PD, 5, P)
        P5 = params_from_data(generate(spec("le_71_indep", n=500, seed=3)))
        with pytest.raises(NoOracleError):  # no column 7 of five
            oracle("le_71_indep", CurveKind.LE, 7, P5)
        with pytest.raises(NoOracleError):  # no column 9 to run through
            oracle("le_71_indep", CurveKind.LE_CROSS, 0, P5, k=9)
        with pytest.raises(NoOracleError):  # LE is the own profile
            oracle("le_71_indep", CurveKind.LE, 2, P5, k=3)
        with pytest.raises(NoOracleError):  # LEcross needs another k
            oracle("le_71_indep", CurveKind.LE_CROSS, 2, P5)
        with pytest.raises(NoOracleError):
            oracle("le_71_indep", CurveKind.LE_CROSS, 2, P5, k=2)
        P3 = params_from_data(generate(spec("additive_621", n=500, seed=3)))
        for kind in ("PD", "Marginal", "ALE", "ATDEV"):
            with pytest.raises(NoOracleError):  # k is None or j
                oracle("case_621", kind, 0, P3, k=2)

    def test_curve_evaluates_as_a_polynomial(self):
        ref = oracle("multiplicative", CurveKind.ALE, 0, self.params())
        x = np.linspace(-1, 1, 9)
        want = ref.coefficient(1) * x + ref.coefficient(2) * x * x
        assert np.allclose(ref(x), want)
        assert ref.coefficient(7) == 0.0
