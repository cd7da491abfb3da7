"""Variance and derivative-energy importance summaries."""

import json
import subprocess
import sys

import numpy as np
import pytest

from atdev import (
    CurveKind,
    Dataset,
    EffectCurve,
    Estimation,
    ale,
    build_report,
    catalog_model,
    center,
    dgsm,
    effect_matrix,
)
from atdev.dependence import DependenceModel
from atdev.errors import DataError, NumericalError
from atdev.importance import ImportanceReport
from conftest import BRUTEFORCE
from helpers import GivenDependence, scaled

DGSM_EXACT = (1.0, 3.0 + 0.64 / 3.0, 36.0 / 5.0 - 6.0 + 2.25, 0.64 / 3.0, 0.0)


def flat_curve(value=2.5, k=10):
    return EffectCurve(kind=CurveKind.ALE, j=0, grid=np.arange(float(k)),
                       values=np.full(k, value), counts=np.ones(k))


def uniform_data(p, n=20_000, seed=3):
    rng = np.random.default_rng(seed)
    return Dataset(names=[f"x{i + 1}" for i in range(p)],
                   columns=[rng.uniform(-1, 1, n) for _ in range(p)])


def weighted_variance(curve: EffectCurve) -> float:
    """The count-weighted variance, operation for operation as the report
    is meant to take it: the weighted mean, then the weighted mean of the
    squared deviations."""
    w = curve.counts
    total = float(w.sum())
    mean = float(np.dot(curve.values, w) / total)
    return float(np.dot((curve.values - mean) ** 2, w) / total)


class TestWeightedVariance:
    def test_flat_curve_has_none(self):
        assert flat_curve().weighted_variance() == 0.0

    def test_weights_matter(self):
        c = EffectCurve(kind=CurveKind.ALE, j=0, grid=np.array([0.0, 1.0]),
                        values=np.array([0.0, 1.0]),
                        counts=np.array([3.0, 1.0]))
        # mean 1/4, variance 3/16
        assert abs(c.weighted_variance() - 3.0 / 16.0) < 1e-12

    def test_centering_does_not_change_it(self):
        rng = np.random.default_rng(1)
        c = EffectCurve(kind=CurveKind.ALE, j=0, grid=np.arange(8.0),
                        values=rng.normal(size=8),
                        counts=rng.integers(1, 9, 8).astype(np.float64))
        assert abs(c.weighted_variance()
                   - center(c).weighted_variance()) < 1e-12


class TestMatrixImportance:
    def test_zero_dependence_pushes_everything_to_the_diagonal(self):
        d = uniform_data(3, n=5_000)
        model = catalog_model("case_621")
        ctx = GivenDependence(model, d, lambda j: DependenceModel(
            j=j, edges=np.array([-1.0, 1.0]), slopes=np.zeros((1, 3))),
            k_bins=40)
        rep = build_report(ctx)
        v = rep.v
        off = v[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)
        assert np.allclose(rep.v_plus, np.diag(v))
        for j in range(3):
            own = ale(ctx, j).weighted_variance()
            assert abs(v[j, j] - own) < 1e-12

    def test_transfer_cells_dominate_their_mirrors(self, d623):
        model = catalog_model("case_623")
        v = build_report(Estimation(model, d623)).v
        assert np.all(v >= 0.0)
        # x2 drives x4's column far more than x4 drives x2's
        assert v[1, 3] > 10.0 * v[3, 1]
        assert v[2, 4] > 10.0 * v[4, 2]

    def test_constant_model_scores_zero_everywhere(self):
        d = uniform_data(2, n=2_000)
        model = catalog_model("additive_linear", coeffs=(0.0, 0.0))
        rep = build_report(Estimation(model, d, k_bins=20))
        assert np.all(rep.v == 0.0)
        assert np.all(rep.v_plus == 0.0)
        assert np.all(rep.dgsm == 0.0)

    def test_response_scaling_scales_quadratically(self):
        d = uniform_data(2, n=4_000)
        model = catalog_model("quad_plus_interaction")
        base = build_report(Estimation(model, d, k_bins=30))
        tripled = build_report(Estimation(scaled(model, 3.0), d, k_bins=30))
        assert np.allclose(tripled.v, 9.0 * base.v, rtol=1e-10, atol=1e-14)
        assert np.allclose(tripled.dgsm, 9.0 * base.dgsm, rtol=1e-10)

    @pytest.mark.parametrize("dependence", ["linear", "local_linear",
                                            "zero"])
    def test_v_is_each_cells_weighted_variance(self, d623, dependence):
        model = catalog_model("case_623")
        if dependence == "zero":
            ctx = GivenDependence(model, d623, lambda j: DependenceModel(
                j=j, edges=np.array([-10.0, 10.0]), slopes=np.zeros((1, 5))))
        else:
            ctx = Estimation(model, d623, dependence=dependence)
        cells = effect_matrix(ctx, CurveKind.ATDEV).cells
        want = np.array([[weighted_variance(c) for c in row] for row in cells])
        rep = build_report(ctx)
        assert np.array_equal(rep.v, want)
        assert np.array_equal(rep.v_plus, want.sum(axis=0))


class TestDgsm:
    def test_values_and_ranking_on_independent_data(self, d71i):
        model = catalog_model("case_623")
        rep = build_report(Estimation(model, d71i, k_bins=50))
        assert np.max(np.abs(rep.dgsm - np.array(DGSM_EXACT))) < 0.05
        assert list(np.argsort(-rep.dgsm)) == [2, 1, 0, 3, 4]

    def test_matches_direct_mean_square(self):
        d = uniform_data(2, n=3_000)
        model = catalog_model("multiplicative")
        got = dgsm(Estimation(model, d))
        want = np.array([np.mean(d.column(1) ** 2), np.mean(d.column(0) ** 2)])
        assert np.allclose(got, want, atol=1e-12)

    def test_bruteforce_script_reproduces_the_targets(self):
        out = subprocess.run(
            [sys.executable, str(BRUTEFORCE), "300000", "7"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout)
        assert tuple(result["exact"]) == DGSM_EXACT
        for est, se, exact in zip(result["estimates"], result["se"],
                                  result["exact"]):
            assert abs(est - exact) <= 3.0 * se + 1e-12


class TestReport:
    def test_column_totals_are_derived(self):
        v = np.array([[1.0, 0.5], [0.25, 2.0]])
        rep = ImportanceReport(names=("a", "b"), v=v, dgsm=np.zeros(2))
        assert np.array_equal(rep.v_plus, [1.25, 2.5])

    def test_negative_values_rejected(self):
        v = np.array([[-1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(DataError):
            ImportanceReport(names=("a", "b"), v=v, dgsm=np.zeros(2))

    @pytest.mark.parametrize("field, column", [
        ("v", "b"), ("v_plus", "b"), ("dgsm", "a")])
    def test_non_finite_values_name_field_and_column(self, field, column):
        values = {"v": np.array([[1.0, 0.0], [0.0, 2.0]]), "dgsm": np.ones(2)}
        if field == "v":
            values["v"][1, 1] = np.nan
        elif field == "v_plus":
            # finite cells whose column sum overflows
            values["v"][:, 1] = 1e308
        else:
            values["dgsm"][0] = np.inf
        with pytest.raises(NumericalError,
                           match=f"non-finite {field} for column '{column}'"):
            ImportanceReport(names=("a", "b"), **values)

    def test_build_report_is_consistent(self, d622):
        model = catalog_model("case_622")
        rep = build_report(Estimation(model, d622, k_bins=50))
        assert rep.p == 3
        assert np.all(rep.dgsm >= 0.0)
        # the interaction pair carries all the importance; x3 is inert
        assert rep.v_plus[0] > 10.0 * rep.v_plus[2]
        assert rep.dgsm[2] == 0.0
