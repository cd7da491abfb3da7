"""Pairwise dependence between predictors.

For cross effects we need the slope of the conditional mean of one
predictor given another, dm_k/dx_j. Two estimators: a single OLS line
(``linear``) and per-bin OLS lines over a quantile partition
(``local_linear``) for dependence that bends. Also a plain Pearson
correlation matrix for reporting.

Per-bin slopes fitted independently are noisy where two columns are only
weakly related, and that noise compounds into a random walk once the
slopes enter an integral. The local_linear fit therefore takes difference
quotients of the binned conditional means (centered where possible,
one-sided at the ends): integrating such slopes telescopes back to the
level profile, so level errors stay bounded instead of accumulating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, bin_index, quantile_bins
from .errors import DataError

__all__ = [
    "DependenceModel",
    "CorrelationMatrix",
    "fit_dependence",
    "corr_matrix",
    "ols_line",
]

DEPENDENCE_KINDS = ("linear", "local_linear")


def ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y on x; slope 0 when x is
    constant."""
    vx = float(np.var(x))
    if vx == 0.0:
        return 0.0, float(np.mean(y))
    slope = float(np.cov(x, y, bias=True)[0, 1]) / vx
    return slope, float(np.mean(y) - slope * np.mean(x))


@dataclass(frozen=True)
class DependenceModel:
    """Fitted conditional-mean slopes of every other column on column j.

    ``linear`` stores one (slope, intercept, residual variance) per
    column; ``local_linear`` additionally stores bin edges and a slope
    per bin (difference quotients of binned conditional means, one-sided
    at the ends), falling back to the global line where the anchor is
    locally constant.
    """

    j: int
    kind: str
    p: int
    slopes: np.ndarray       # global OLS slope per column (column j slot is 1)
    intercepts: np.ndarray   # global OLS intercept per column
    resid_vars: np.ndarray | None = None     # residual variance per column
    edges: np.ndarray | None = None          # local_linear only
    bin_slopes: np.ndarray | None = None     # (k_bins x p), local_linear only

    def slopes_at(self, x: np.ndarray | float) -> np.ndarray:
        """dm_k/dx_j for every column k at x_j values, one row per value
        (N x p); the own column is exactly 1."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if self.kind == "linear":
            s = np.broadcast_to(self.slopes, (len(x), self.p)).copy()
        else:
            s = self.bin_slopes[bin_index(self.edges, x)]
        s[:, self.j] = 1.0
        return s

    def slope_at(self, k: int, x: np.ndarray | float) -> np.ndarray:
        """dm_k/dx_j evaluated at x_j values (own column: slope 1)."""
        return self.slopes_at(x)[:, k]

    def beta(self, k: int) -> float:
        return float(self.slopes[k])

    def intercept(self, k: int) -> float:
        return float(self.intercepts[k])

    def resid_var(self, k: int) -> float:
        """Residual variance of x_k around its global line (0 for k=j)."""
        if self.resid_vars is None:
            return 0.0
        return float(self.resid_vars[k])


def fit_dependence(d: Dataset, j: int, kind: str = "linear",
                   bins: int = 20) -> DependenceModel:
    """Fit dm_k/dx_j for all k against column j."""
    if kind not in DEPENDENCE_KINDS:
        raise DataError(f"unknown dependence kind {kind!r}; "
                        f"choose from {DEPENDENCE_KINDS}")
    if not (0 <= j < d.p):
        raise DataError(f"column index {j} out of range for p={d.p}")
    xj = d.column(j)
    if float(np.var(xj)) == 0.0:
        raise DataError(f"degenerate anchor {d.names[j]!r}: constant column")
    slopes = np.empty(d.p)
    intercepts = np.empty(d.p)
    resid_vars = np.empty(d.p)
    for k in range(d.p):
        if k == j:
            slopes[k], intercepts[k], resid_vars[k] = 1.0, 0.0, 0.0
        else:
            slopes[k], intercepts[k] = ols_line(xj, d.column(k))
            resid = d.column(k) - (slopes[k] * xj + intercepts[k])
            resid_vars[k] = float(np.var(resid))
    if kind == "linear":
        return DependenceModel(j=j, kind=kind, p=d.p,
                               slopes=slopes, intercepts=intercepts,
                               resid_vars=resid_vars)

    scheme = quantile_bins(d, j, bins)
    kb, bin_of = scheme.k, scheme.bin_of
    counts = scheme.counts.astype(np.float64)
    # Knot abscissa is the bin mean of x_j (not the midpoint) so that on
    # exactly linear data every difference quotient reproduces the global
    # OLS slope to machine precision.
    anchor = np.bincount(bin_of, weights=xj, minlength=kb) / counts
    bin_slopes = np.tile(slopes, (kb, 1))
    for k in range(d.p):
        if k == j:
            continue
        level = np.bincount(bin_of, weights=d.column(k), minlength=kb) / counts
        lo = np.maximum(np.arange(kb) - 1, 0)
        hi = np.minimum(np.arange(kb) + 1, kb - 1)
        run = anchor[hi] - anchor[lo]
        ok = run != 0.0
        bin_slopes[ok, k] = (level[hi] - level[lo])[ok] / run[ok]
    return DependenceModel(j=j, kind=kind, p=d.p,
                           slopes=slopes, intercepts=intercepts,
                           resid_vars=resid_vars,
                           edges=scheme.edges, bin_slopes=bin_slopes)


@dataclass(frozen=True)
class CorrelationMatrix:
    names: tuple[str, ...]
    values: np.ndarray  # p x p Pearson correlations

    def of(self, a: int, b: int) -> float:
        return float(self.values[a, b])


def corr_matrix(d: Dataset) -> CorrelationMatrix:
    """Pearson correlations between all predictor pairs. Constant columns
    have no defined correlation and are rejected."""
    x = d.matrix()
    sd = x.std(axis=0)
    if np.any(sd == 0.0):
        bad = d.names[int(np.flatnonzero(sd == 0.0)[0])]
        raise DataError(f"degenerate variable {bad!r}: constant column")
    c = np.eye(d.p)
    for a in range(d.p):
        for b in range(a + 1, d.p):
            r = float(np.corrcoef(x[:, a], x[:, b])[0, 1])
            c[a, b] = c[b, a] = r
    return CorrelationMatrix(names=tuple(d.names), values=c)
