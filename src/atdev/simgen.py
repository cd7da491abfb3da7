"""Synthetic data generators and closed-form reference curves.

Each named case has one recipe, ``_columns``, that builds its predictors
from independent draws. ``generate`` runs it on random draws (NumPy's
default_rng, PCG64; fixed seeds give bit-identical datasets) and adds a
noisy polynomial response; ``theoretical_r2`` runs it on Gauss
quadrature nodes, so its signal variance is exact for every case.

The reference side gives the exact curves of a catalog polynomial f,
each a polynomial in the anchor x_j, from two rules over f's terms.
Under a linear conditional mean every other x_m sits on its fitted line
c_mj + b_mj x_j: the Marginal and ATDEV are f itself, ALE integrates
df/dx_j and the ACE through x_k integrates b_kj df/dx_k. Under
independence every other x_m^a is averaged out to its sample moment:
PD is f and LE or LEcross is df/dx_k. PD, Marginal and ATDEV drop
their constant, as curves are compared after centering. Slopes, intercepts and moments
are taken from the dataset under test, so estimator and reference see
the same finite-sample dependence structure. ``_COVERAGE`` declares the
(case, kind) pairs answered; every other pair raises, never guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import CurveKind, Dataset, _check_index
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


# The (case, kind) pairs with a closed form; every other pair raises.
# additive_621 and interaction_622 answer as their polynomials.
_LINEAR_KINDS = frozenset({CurveKind.PD, CurveKind.MARGINAL, CurveKind.ALE,
                           CurveKind.ACE, CurveKind.ATDEV})
_COVERAGE = {
    **dict.fromkeys((*BIVARIATE_MODELS, "case_621", "case_622"), _LINEAR_KINDS),
    "le_71_indep": frozenset({CurveKind.LE, CurveKind.LE_CROSS}),
}
_ALIASES = {"additive_621": "case_621", "interaction_622": "case_622"}


def _derivative(terms, k: int) -> list:
    """The terms of df/dx_k."""
    return [(coef * powers[k],
             {m: a - (m == k) for m, a in powers.items() if m != k or a > 1})
            for coef, powers in terms if k in powers]


def _in_xj(terms, j: int, other) -> np.ndarray:
    """The terms as a polynomial in x_j, ascending coefficients, with
    each x_m^a of another column replaced by the polynomial other(m, a)."""
    poly = np.polynomial.polynomial
    out = np.zeros(1)
    for coef, powers in terms:
        t = np.array([coef])
        for m, a in powers.items():
            t = poly.polymul(t, poly.polypow((0.0, 1.0), a) if m == j
                             else other(m, a))
        out = poly.polyadd(out, t)
    return out


def oracle(case: str, kind: CurveKind | str, j: int, params: OracleParams,
           k: int | None = None) -> OracleCurve:
    """Closed-form curve for a covered (case, kind, variable) combination.

    ``case`` is a simulation case id or a two-input model id. ``k`` names
    the column an ACE or LEcross curve runs through; a two-input ACE
    defaults to the other column, and every other kind takes no k but j. Raises
    NoOracleError for anything without a derived form.
    """
    kind = CurveKind(kind)
    case = _ALIASES.get(case, case)
    if kind not in _COVERAGE.get(case, ()):
        raise NoOracleError(f"no reference curve for ({case}, {kind.value})")
    f = catalog_model(_POLYNOMIALS.get(case, case), p=2)
    _check_index(j, f.p, NoOracleError)
    if kind is CurveKind.ACE and k is None and f.p == 2:
        k = 1 - j
    if kind in (CurveKind.ACE, CurveKind.LE_CROSS):
        _check_index(k, f.p, NoOracleError)
        if k == j:
            raise NoOracleError(f"no cross curve of column {j} through itself")
    elif k not in (None, j):
        raise NoOracleError(f"a {kind.value} curve runs through its own column {j}")
    else:
        k = None

    P, poly = params, np.polynomial.polynomial

    def line(m, a):  # x_m on its fitted line in x_j
        return poly.polypow((P.c[(m, j)], P.beta[(m, j)]), a)

    def moment(m, a):  # x_m averaged out; covered f average powers <= 2
        return ((P.mu, P.m2)[a - 1][m],)

    through = j if k is None else k
    if kind in (CurveKind.LE, CurveKind.LE_CROSS):
        coeffs = _in_xj(_derivative(f.terms, through), j, moment)
    elif kind in (CurveKind.ALE, CurveKind.ACE):
        slope = 1.0 if k is None else P.beta[(k, j)]
        coeffs = poly.polyint(
            slope * _in_xj(_derivative(f.terms, through), j, line))
    else:
        coeffs = _in_xj(f.terms, j, moment if kind is CurveKind.PD else line)
        coeffs[0] = 0.0  # compared after centering
    return OracleCurve(case=case, kind=kind, j=j, k=k,
                       coeffs=tuple(map(float, poly.polytrim(coeffs))))
