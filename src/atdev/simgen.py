"""Synthetic data generators and closed-form reference curves.

Each named case draws predictors (uniform on [-1, 1], possibly with
linear dependence plus Gaussian noise, or a bivariate normal pair) and a
noisy polynomial response. Fixed seeds give bit-identical datasets; the
RNG is NumPy's default_rng (PCG64).

The reference-curve side evaluates the exact effect curves implied by a
polynomial model together with a linear conditional-mean assumption
between predictors. Slopes, intercepts and means are taken from the
dataset under test, so estimator and reference see the same finite-sample
dependence structure. Combinations without a worked-out closed form
raise, never guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CurveKind, Dataset
from .dependence import ols_line
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

CASES = (
    "indep_61",
    "additive_621",
    "interaction_622",
    "complex_623",
    "le_71_indep",
    "le_71_corr",
    "bivariate_normal",
)

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
    table = {
        "indep_61": "case_61",
        "additive_621": "case_621",
        "interaction_622": "case_622",
        "complex_623": "case_623",
        "le_71_indep": "case_623",
        "le_71_corr": "case_623",
    }
    if spec.case == "bivariate_normal":
        return catalog_model(spec.model, p=2)
    return catalog_model(table[spec.case])


def generate(spec: SimSpec) -> Dataset:
    """Draw the dataset. Columns are drawn in index order, each
    dependence noise immediately after its parent column, response noise
    last; this order is part of the reproducibility contract.
    """
    rng = np.random.default_rng(spec.seed)
    n, sd = spec.n, spec.noise_sd
    u = lambda: rng.uniform(-1.0, 1.0, n)
    e = lambda: rng.normal(0.0, sd, n)

    if spec.case in ("indep_61", "le_71_indep"):
        cols = [u() for _ in range(5)]
    elif spec.case == "additive_621":
        x1 = u()
        cols = [x1, 0.8 * x1 + e(), -x1 + e()]
    elif spec.case == "interaction_622":
        x1 = u()
        x2 = -x1 + e()
        cols = [x1, x2, u()]
    elif spec.case in ("complex_623", "le_71_corr"):
        x1, x2, x3 = u(), u(), u()
        cols = [x1, x2, x3, x2 + e(), -x3 + e()]
    else:
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        m1, m2 = spec.mean
        s1, s2 = spec.sigma
        r = spec.rho
        cols = [m1 + s1 * z1,
                m2 + s2 * (r * z1 + np.sqrt(1.0 - r * r) * z2)]

    model = signal_model(spec)
    x = np.column_stack(cols)
    y = model.predict(x) + rng.normal(0.0, sd, n)
    names = [f"x{i + 1}" for i in range(len(cols))]
    return Dataset(names=names, columns=x, response=y)


def _even_moment(power: int) -> float:
    # E[t^power] for t uniform on [-1, 1], even powers.
    return 1.0 / (power + 1)


def _bivariate_signal_variance(spec: SimSpec) -> float:
    # Gauss-Hermite tensor quadrature; exact for polynomial signals.
    nodes, weights = np.polynomial.hermite_e.hermegauss(16)
    z1, z2 = np.meshgrid(nodes, nodes, indexing="ij")
    w = np.outer(weights, weights).ravel() / (2.0 * np.pi)
    m1, m2 = spec.mean
    s1, s2 = spec.sigma
    r = spec.rho
    x1 = m1 + s1 * z1.ravel()
    x2 = m2 + s2 * (r * z1.ravel() + np.sqrt(1.0 - r * r) * z2.ravel())
    f = signal_model(spec).predict(np.column_stack([x1, x2]))
    mean = float(np.dot(w, f))
    return float(np.dot(w, (f - mean) ** 2))


def _signal_variance(spec: SimSpec) -> float:
    sd2 = spec.noise_sd ** 2
    var_u = _even_moment(2)                      # Var of a uniform column
    var_sq = _even_moment(4) - _even_moment(2) ** 2   # Var(t^2)
    var_herm3 = (4.0 * _even_moment(6) - 6.0 * _even_moment(4)
                 + 2.25 * _even_moment(2))       # Var(2t^3 - 1.5t)
    if spec.case == "indep_61":
        # x1 + x2^2 + x3^3 + 0.8 x2 x4, all independent
        return var_u + var_sq + _even_moment(6) + 0.64 * var_u ** 2
    if spec.case == "additive_621":
        # x1^2 + x2 with x2 = 0.8 x1 + e
        return var_sq + 0.64 * var_u + sd2
    if spec.case == "interaction_622":
        # x1 + x2 + x1 x2 with x2 = -x1 + e collapses to e(1 + x1) - x1^2
        return sd2 * (1.0 + var_u) + var_sq
    if spec.case in ("complex_623", "le_71_corr"):
        # x2 block collapses to 2.3 x2^2 + 0.8 x2 e4 (+ const)
        return var_u + 5.29 * var_sq + 0.64 * var_u * sd2 + var_herm3
    if spec.case == "le_71_indep":
        return var_u + 2.25 * var_sq + var_herm3 + 0.64 * var_u ** 2
    return _bivariate_signal_variance(spec)


def theoretical_r2(spec: SimSpec) -> float:
    """Fraction of response variance carried by the noiseless signal."""
    v = _signal_variance(spec)
    denom = v + spec.noise_sd ** 2
    return v / denom if denom > 0 else 0.0


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
