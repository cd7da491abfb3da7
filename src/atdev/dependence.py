"""Pairwise dependence between predictors.

For cross effects we need the slope of the conditional mean of one
predictor given another, dm_k/dx_j, on the anchor's curve bins: one OLS
line (``linear``), or slopes over runs of ceil(K / 20) curve bins
(``local_linear``) for dependence that bends. Also a Pearson correlation matrix.

Per-bin slopes fitted independently are noisy where two columns are only
weakly related, and that noise compounds into a random walk once the
slopes enter an integral. The local_linear fit therefore takes difference
quotients of the binned conditional means (centered where possible,
one-sided at the ends): integrating such slopes telescopes back to the
level profile, so level errors stay bounded instead of accumulating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import BinScheme, Dataset
from .errors import DataError, NumericalError

__all__ = [
    "DependenceModel",
    "fit_dependence",
    "corr_matrix",
    "ols_line",
]

DEPENDENCE_KINDS = ("linear", "local_linear")


def _pow2_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """v divided by 2**e, with e the exponent of its largest |v|, and e.
    The scaled values lie below 1 in magnitude, so no moment of them
    overflows, and short of subnormal results the scaling is exact: a
    moment of the scaled values scales back to the same double."""
    e = int(np.frexp(np.max(np.abs(v)))[1])
    return np.ldexp(v, -e), e


def ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y on x; slope 0 when x is
    constant (min == max). The line is fitted on x and y scaled by
    powers of two and scaled back, so it is the unscaled fit's pair of
    doubles wherever that fit's moments are finite, and stays finite at
    any scale where they overflow. A slope or intercept that is not
    finite is a NumericalError."""
    (xs, ex), (ys, ey) = _pow2_scaled(x), _pow2_scaled(y)
    with np.errstate(all="ignore"):
        slope = (0.0 if np.min(x) == np.max(x)
                 else np.cov(xs, ys, bias=True)[0, 1] / np.var(xs))
        intercept = float(np.ldexp(np.mean(ys) - slope * np.mean(xs), ey))
        slope = float(np.ldexp(slope, ey - ex))
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise NumericalError("least-squares line of y on x is not finite")
    return slope, intercept


@dataclass(frozen=True)
class DependenceModel:
    """Fitted conditional-mean slopes dm_k/dx_j of every column k on the
    anchor column j, as one slope table.

    ``slopes`` is B x p: row b holds for x_j in bin b of the B + 1
    ``edges``. ``linear`` is the one-bin case, one OLS slope per column
    between the anchor's min and max; ``local_linear`` has one row per
    run of ceil(K / 20) of the anchor's K curve bins (difference
    quotients of the binned conditional means, one-sided at the ends),
    falling back to the OLS slope where the anchor is locally constant.
    Either way a slope is one number on each curve bin, and ``per_bin``
    gives the estimators that K x p table; no row is looked up.
    """

    j: int
    edges: np.ndarray   # B + 1 anchor bin edges
    slopes: np.ndarray  # B x p

    def per_bin(self, scheme: BinScheme) -> np.ndarray:
        """dm_k/dx_j for every column k on each of the anchor's K curve
        bins (K x p): the row of the slope bin that holds the curve bin's
        left edge, which is row b // ceil(K / 20) under ``local_linear``
        and the one row under ``linear``. The own column is exactly 1."""
        rows = np.searchsorted(self.edges, scheme.edges[:-1], side="right") - 1
        s = self.slopes[np.clip(rows, 0, len(self.slopes) - 1)]
        s[:, self.j] = 1.0
        return s


def fit_dependence(d: Dataset, scheme: BinScheme,
                   kind: str = "linear") -> DependenceModel:
    """Fit dm_k/dx_j for all k against the anchor of its curve bins ``scheme``."""
    if kind not in DEPENDENCE_KINDS:
        raise DataError(f"unknown dependence kind {kind!r}; "
                        f"choose from {DEPENDENCE_KINDS}")
    j = scheme.j
    # Contiguous copies: each column is read several times below, and a
    # read of a column view of the shared row matrix moves all p columns.
    xj = np.ascontiguousarray(d.column(j))
    slopes = np.array([1.0 if k == j else
                       ols_line(xj, np.ascontiguousarray(d.column(k)))[0]
                       for k in range(d.p)])
    if kind == "linear":
        return DependenceModel(j=j, edges=scheme.edges[[0, -1]], slopes=slopes[None, :])

    # Runs of ceil(K / 20) curve bins, the last maybe short: edges are curve edges.
    step = -(-scheme.k // 20)
    starts = np.arange(0, scheme.k, step)
    runs = BinScheme(j, np.r_[scheme.edges[starts], scheme.edges[-1]],
                     scheme.bin_of // step, np.add.reduceat(scheme.counts, starts))
    levels = runs.means(map(d.column, range(d.p)))
    kb = runs.k
    lo = np.maximum(np.arange(kb) - 1, 0)
    hi = np.minimum(np.arange(kb) + 1, kb - 1)
    # Knot abscissa is the bin mean of x_j (not the midpoint) so that on
    # exactly linear data every difference quotient reproduces the global
    # OLS slope to machine precision.
    run = levels[hi, j] - levels[lo, j]
    ok = run != 0.0
    bin_slopes = np.tile(slopes, (kb, 1))
    for k in range(d.p):
        if k != j:
            bin_slopes[ok, k] = (levels[hi, k] - levels[lo, k])[ok] / run[ok]
    return DependenceModel(j=j, edges=runs.edges, slopes=bin_slopes)


def corr_matrix(d: Dataset) -> np.ndarray:
    """The p x p Pearson correlations between all predictor pairs, in the
    order of ``d.names``, computed on the columns scaled by powers of two
    so that no moment overflows. Constant columns (min == max) have no
    defined correlation and are rejected."""
    x = d.matrix()
    constant = np.flatnonzero(x.min(axis=0) == x.max(axis=0))
    if len(constant):
        raise DataError(f"degenerate variable {d.names[constant[0]]!r}: "
                        f"constant column")
    c = np.eye(d.p)
    for a in range(d.p):
        for b in range(a + 1, d.p):
            r = np.corrcoef(_pow2_scaled(x[:, a])[0], _pow2_scaled(x[:, b])[0])
            c[a, b] = c[b, a] = float(r[0, 1])
    return c
