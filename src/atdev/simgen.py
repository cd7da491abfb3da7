"""Synthetic data generators and closed-form reference curves.

Each named case has one recipe, ``_columns``, that builds its predictors
from independent draws. ``generate`` runs it on random draws (NumPy's
default_rng, PCG64; fixed seeds give bit-identical datasets) and adds a
noisy polynomial response; ``theoretical_r2`` runs it on Gauss
quadrature nodes, so its signal variance is exact for every case.

The reference-curve side evaluates the exact effect curves implied by a
polynomial model together with a linear conditional-mean assumption
between predictors. Slopes, intercepts and means are taken from the
dataset under test, so estimator and reference see the same finite-sample
dependence structure. Combinations without a worked-out closed form
raise, never guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import CurveKind, Dataset
from .dependence import _pow2_scaled, ols_line
from .errors import DataError, NoOracleError
from .models import AnalyticModel, catalog_model

__all__ = [
    "CASES",
    "SimSpec",
    "OracleParams",
    "OracleCurve",
    "generate",
    "signal_model",
    "theoretical_r2",
    "params_from_data",
    "oracle",
]

# The response polynomial of each case; bivariate_normal takes its model
# from the spec.
_POLYNOMIALS = {
    "indep_61": "case_61",
    "additive_621": "case_621",
    "interaction_622": "case_622",
    "complex_623": "case_623",
    "le_71_indep": "case_623",
    "le_71_corr": "case_623",
}
CASES = (*_POLYNOMIALS, "bivariate_normal")

# Two-input catalog entries usable with the bivariate_normal case.
BIVARIATE_MODELS = ("additive_linear", "multiplicative", "quad_plus_interaction")


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one synthetic dataset.

    ``noise_sd`` drives the response noise and every dependence noise in
    the case recipes. The bivariate_normal case also reads ``mean``,
    ``sigma``, ``rho`` and ``model``.
    """

    case: str
    n: int
    noise_sd: float = 0.1
    seed: int = 0
    mean: tuple[float, float] = (0.0, 0.0)
    sigma: tuple[float, float] = (1.0, 1.0)
    rho: float = 0.0
    model: str = "additive_linear"

    def __post_init__(self):
        if self.case not in CASES:
            raise DataError(f"unknown simulation case {self.case!r}; "
                            f"choose from {CASES}")
        if self.n < 1:
            raise DataError("need at least one row")
        if not all(map(math.isfinite,
                       (self.noise_sd, self.rho, *self.mean, *self.sigma))):
            raise DataError("noise sd, rho, mean and sigma must be finite")
        if self.noise_sd < 0:
            raise DataError("noise sd must be >= 0")
        if self.case == "bivariate_normal":
            if not (abs(self.rho) < 1.0):
                raise DataError("correlation must be in (-1, 1)")
            if min(self.sigma) <= 0:
                raise DataError("scale parameters must be positive")
            if self.model not in BIVARIATE_MODELS:
                raise DataError(f"bivariate case supports {BIVARIATE_MODELS}")


def signal_model(spec: SimSpec) -> AnalyticModel:
    """The noiseless response polynomial behind a case."""
    if spec.case == "bivariate_normal":
        return catalog_model(spec.model, p=2)
    return catalog_model(_POLYNOMIALS[spec.case])


def _columns(spec: SimSpec, u, e, z) -> list[np.ndarray]:
    """The case's predictor columns built from its independent draws,
    taken in column order, each dependence noise right after its parent:
    ``u()`` is uniform on [-1, 1], ``e()`` N(0, noise_sd^2) and ``z()``
    N(0, 1). This order is part of the reproducibility contract.
    """
    if spec.case in ("indep_61", "le_71_indep"):
        return [u() for _ in range(5)]
    if spec.case == "additive_621":
        x1 = u()
        return [x1, 0.8 * x1 + e(), -x1 + e()]
    if spec.case == "interaction_622":
        x1 = u()
        return [x1, -x1 + e(), u()]
    if spec.case in ("complex_623", "le_71_corr"):
        x1, x2, x3 = u(), u(), u()
        return [x1, x2, x3, x2 + e(), -x3 + e()]
    z1, z2 = z(), z()
    (m1, m2), (s1, s2), r = spec.mean, spec.sigma, spec.rho
    return [m1 + s1 * z1, m2 + s2 * (r * z1 + np.sqrt(1.0 - r * r) * z2)]


def generate(spec: SimSpec) -> Dataset:
    """Draw the dataset: the case's columns from ``_columns``, then the
    response noise."""
    rng = np.random.default_rng(spec.seed)
    n, sd = spec.n, spec.noise_sd
    x = np.column_stack(_columns(
        spec, lambda: rng.uniform(-1.0, 1.0, n),
        lambda: rng.normal(0.0, sd, n), lambda: rng.standard_normal(n)))
    y = signal_model(spec).predict(x) + rng.normal(0.0, sd, n)
    return Dataset(names=[f"x{i + 1}" for i in range(x.shape[1])],
                   columns=x, response=y)


def _signal_variance(spec: SimSpec) -> tuple[float, int]:
    """Var f(X) / 4^e and e, exact: the case's recipe run on a tensor
    Gauss rule, with f - E f divided by 2^e, e the exponent of its largest
    magnitude, so the variance is finite wherever f is. Scaling by a power
    of two is exact: 4^e times the first is Var f, the same double,
    wherever that is finite.

    Draw d puts 6 nodes on axis -1 - d (Gauss-Legendre for ``u``,
    Gauss-Hermite for ``e``, scaled by noise_sd, and for ``z``), so the
    columns broadcast to the node grid and ``w`` to its probabilities.
    The rule is exact to degree 11, so for any f of degree <= 5 in each
    draw; the cases' f have degree <= 3."""
    legendre = np.polynomial.legendre.leggauss(6)
    hermite = np.polynomial.hermite_e.hermegauss(6)
    w = np.ones(())

    def draw(nodes, weights, scale=1.0):
        nonlocal w
        shape = (-1,) + (1,) * w.ndim
        w = w * (weights / weights.sum()).reshape(shape)
        return scale * nodes.reshape(shape)

    cols = _columns(spec, lambda: draw(*legendre),
                    lambda: draw(*hermite, spec.noise_sd),
                    lambda: draw(*hermite))
    x = np.column_stack([np.broadcast_to(c, w.shape).ravel() for c in cols])
    # a non-finite f is left to the caller's finite checks
    with np.errstate(over="ignore", invalid="ignore"):
        f = signal_model(spec).predict(x)
        centred, e = _pow2_scaled(f - float(w.ravel() @ f))
        return float(w.ravel() @ centred ** 2), e


def theoretical_r2(spec: SimSpec) -> float:
    """Fraction of response variance carried by the noiseless signal,
    Var f / (Var f + noise_sd^2), formed from Var f and noise_sd both
    divided by the same power of two."""
    v, e = _signal_variance(spec)
    return v / (v + float(np.ldexp(spec.noise_sd, -e)) ** 2)


# ---------------------------------------------------------------------------
# Closed-form reference curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleParams:
    """Dependence summaries a reference curve may need: OLS slope and
    intercept of x_k on x_j for every ordered pair, plus column means and
    second moments."""

    beta: dict[tuple[int, int], float] = field(default_factory=dict)
    c: dict[tuple[int, int], float] = field(default_factory=dict)
    mu: tuple[float, ...] = ()
    m2: tuple[float, ...] = ()


def params_from_data(d: Dataset) -> OracleParams:
    beta: dict[tuple[int, int], float] = {}
    c: dict[tuple[int, int], float] = {}
    for j in range(d.p):
        for k in range(d.p):
            if k != j:
                beta[(k, j)], c[(k, j)] = ols_line(d.column(j), d.column(k))
    return OracleParams(
        beta=beta, c=c,
        mu=tuple(float(np.mean(col)) for col in d.columns),
        m2=tuple(float(np.mean(col ** 2)) for col in d.columns))


@dataclass(frozen=True)
class OracleCurve:
    """Exact polynomial curve, coefficients in ascending degree."""

    case: str
    kind: CurveKind
    j: int
    k: int | None
    coeffs: tuple[float, ...]

    def __call__(self, x: np.ndarray | float) -> np.ndarray:
        return np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=np.float64), self.coeffs)

    def coefficient(self, degree: int) -> float:
        return self.coeffs[degree] if degree < len(self.coeffs) else 0.0


def _pair(P: OracleParams, k: int, j: int) -> tuple[float, float]:
    return P.beta[(k, j)], P.c[(k, j)]


def _two_var_forms(model: str, P: OracleParams, j: int) -> dict:
    """Curve coefficient tables for the two-input example models.

    Keys: kind (ACE implicitly through the single other variable).
    Coefficients ascending; constant terms left at zero since comparisons
    happen after centering.
    """
    k = 1 - j
    b, c = _pair(P, k, j)
    if model == "additive_linear":
        return {
            CurveKind.PD: (0.0, 1.0),
            CurveKind.ALE: (0.0, 1.0),
            CurveKind.ACE: (0.0, b),
            CurveKind.ATDEV: (0.0, 1.0 + b),
            CurveKind.MARGINAL: (0.0, 1.0 + b),
        }
    if model == "multiplicative":
        return {
            CurveKind.PD: (0.0, P.mu[k]),
            CurveKind.ALE: (0.0, c, b / 2.0),
            CurveKind.ACE: (0.0, 0.0, b / 2.0),
            CurveKind.ATDEV: (0.0, c, b),
            CurveKind.MARGINAL: (0.0, c, b),
        }
    if model == "quad_plus_interaction":
        if j == 0:
            return {
                CurveKind.PD: (0.0, P.mu[1], 1.0),
                CurveKind.ALE: (0.0, c, 1.0 + b / 2.0),
                CurveKind.ACE: (0.0, 0.0, b / 2.0),
                CurveKind.ATDEV: (0.0, c, 1.0 + b),
                CurveKind.MARGINAL: (0.0, c, 1.0 + b),
            }
        return {
            CurveKind.PD: (0.0, P.mu[0]),
            CurveKind.ALE: (0.0, c, b / 2.0),
            CurveKind.ACE: (0.0, 2.0 * b * c, b * b + b / 2.0),
            CurveKind.ATDEV: (0.0, c * (1.0 + 2.0 * b), b * b + b),
            CurveKind.MARGINAL: (0.0, c * (1.0 + 2.0 * b), b * b + b),
        }
    raise NoOracleError(f"no reference curves for model {model!r}")


def _case_621_forms(P: OracleParams, j: int) -> dict:
    # f = x1^2 + x2 over (x1, x2, x3); x3 absent from the model.
    out: dict = {}
    if j == 0:
        b, _ = _pair(P, 1, 0)
        out[CurveKind.PD] = (0.0, 0.0, 1.0)
        out[CurveKind.ALE] = (0.0, 0.0, 1.0)
        out[(CurveKind.ACE, 1)] = (0.0, b)
        out[(CurveKind.ACE, 2)] = (0.0,)
        out[CurveKind.ATDEV] = (0.0, b, 1.0)
        out[CurveKind.MARGINAL] = (0.0, b, 1.0)
    elif j == 1:
        b, c = _pair(P, 0, 1)
        out[CurveKind.PD] = (0.0, 1.0)
        out[CurveKind.ALE] = (0.0, 1.0)
        out[(CurveKind.ACE, 0)] = (0.0, 2.0 * b * c, b * b)
        out[(CurveKind.ACE, 2)] = (0.0,)
        out[CurveKind.ATDEV] = (0.0, 1.0 + 2.0 * b * c, b * b)
        out[CurveKind.MARGINAL] = (0.0, 1.0 + 2.0 * b * c, b * b)
    else:
        b1, c1 = _pair(P, 0, 2)
        b2, _ = _pair(P, 1, 2)
        out[CurveKind.PD] = (0.0,)
        out[CurveKind.ALE] = (0.0,)
        out[(CurveKind.ACE, 0)] = (0.0, 2.0 * b1 * c1, b1 * b1)
        out[(CurveKind.ACE, 1)] = (0.0, b2)
        out[CurveKind.ATDEV] = (0.0, 2.0 * b1 * c1 + b2, b1 * b1)
        out[CurveKind.MARGINAL] = (0.0, 2.0 * b1 * c1 + b2, b1 * b1)
    return out


def _case_622_forms(P: OracleParams, j: int) -> dict:
    # f = x1 + x2 + x1 x2 over (x1, x2, x3); x3 absent from the model.
    out: dict = {}
    if j in (0, 1):
        k = 1 - j
        b, c = _pair(P, k, j)
        out[CurveKind.PD] = (0.0, 1.0 + P.mu[k])
        out[CurveKind.ALE] = (0.0, 1.0 + c, b / 2.0)
        out[(CurveKind.ACE, k)] = (0.0, b, b / 2.0)
        out[(CurveKind.ACE, 2)] = (0.0,)
        out[CurveKind.ATDEV] = (0.0, 1.0 + c + b, b)
        out[CurveKind.MARGINAL] = (0.0, 1.0 + c + b, b)
    else:
        b1, c1 = _pair(P, 0, 2)
        b2, c2 = _pair(P, 1, 2)
        out[CurveKind.PD] = (0.0,)
        out[CurveKind.ALE] = (0.0,)
        out[(CurveKind.ACE, 0)] = (0.0, b1 * (1.0 + c2), b1 * b2 / 2.0)
        out[(CurveKind.ACE, 1)] = (0.0, b2 * (1.0 + c1), b1 * b2 / 2.0)
        out[CurveKind.ATDEV] = (0.0, b1 * (1.0 + c2) + b2 * (1.0 + c1), b1 * b2)
        out[CurveKind.MARGINAL] = (0.0, b1 * (1.0 + c2) + b2 * (1.0 + c1), b1 * b2)
    return out


def _le_indep_forms(P: OracleParams, k: int, j: int) -> tuple[float, ...]:
    # Conditional mean of each partial of the five-input polynomial under
    # fully independent columns; constants use sample moments.
    if k == 0:
        return (1.0,)
    if k == 1:
        if j == 1:
            return (0.8 * P.mu[3], 3.0)
        if j == 3:
            return (3.0 * P.mu[1], 0.8)
        return (3.0 * P.mu[1] + 0.8 * P.mu[3],)
    if k == 2:
        if j == 2:
            return (-1.5, 0.0, 6.0)
        return (6.0 * P.m2[2] - 1.5,)
    if k == 3:
        if j == 1:
            return (0.0, 0.8)
        return (0.8 * P.mu[1],)
    return (0.0,)


def oracle(case: str, kind: CurveKind | str, j: int, params: OracleParams,
           k: int | None = None) -> OracleCurve:
    """Closed-form curve for a covered (case, kind, variable) combination.

    ``case`` is a simulation case id or a two-input model id. Raises
    NoOracleError for anything without a derived form.
    """
    kind = CurveKind(kind)
    alias = {"additive_621": "case_621", "interaction_622": "case_622"}
    case = alias.get(case, case)

    if case in ("case_61", "le_71_indep") and kind in (CurveKind.LE, CurveKind.LE_CROSS):
        if case == "le_71_indep":
            kk = j if k is None else k
            return OracleCurve(case=case, kind=kind, j=j, k=None if kk == j else kk,
                               coeffs=_le_indep_forms(params, kk, j))
        raise NoOracleError(f"no reference curve for ({case}, {kind.value})")

    if case in ("additive_linear", "multiplicative", "quad_plus_interaction"):
        if j not in (0, 1):
            raise NoOracleError(f"two-input model has no column {j}")
        forms = _two_var_forms(case, params, j)
        if kind not in forms:
            raise NoOracleError(f"no reference curve for ({case}, {kind.value})")
        if kind is CurveKind.ACE and k not in (1 - j, None):
            raise NoOracleError(f"no cross effect through column {k}")
        return OracleCurve(case=case, kind=kind, j=j,
                           k=1 - j if kind is CurveKind.ACE else None,
                           coeffs=forms[kind])

    if case in ("case_621", "case_622"):
        if j not in (0, 1, 2):
            raise NoOracleError(f"three-input case has no column {j}")
        forms = _case_621_forms(params, j) if case == "case_621" \
            else _case_622_forms(params, j)
        key = (kind, k) if kind is CurveKind.ACE else kind
        if key not in forms:
            raise NoOracleError(
                f"no reference curve for ({case}, {kind.value}, j={j}, k={k})")
        return OracleCurve(case=case, kind=kind, j=j,
                           k=k if kind is CurveKind.ACE else None,
                           coeffs=forms[key])

    raise NoOracleError(f"no reference curves for case {case!r}")
