"""Pairwise dependence between predictors.

For cross effects we need the slope of the conditional mean of one
predictor given another, dm_k/dx_j, on the anchor's curve bins: one OLS
line (``linear``), or slopes over runs of ceil(K / 20) curve bins
(``local_linear``) for dependence that bends; and Pearson correlations.
Every OLS slope and correlation reads the data's one moment table,
``Dataset.moments``, as do the reference curves' lines
(``simgen.params_from_data``): the last bits may differ from one
``np.cov`` a pair.

Per-bin slopes fitted independently are noisy where two columns are only
weakly related, and that noise compounds into a random walk once the
slopes enter an integral. So local_linear takes difference quotients of
the binned conditional means (centered, one-sided at the ends), whose
integral telescopes back to the level profile: level errors stay bounded.
"""

from __future__ import annotations

import numpy as np

from .data import BinScheme, Dataset
from .errors import DataError, NumericalError

__all__ = [
    "fit_dependence",
    "corr_matrix",
]

DEPENDENCE_KINDS = ("linear", "local_linear")


def fit_dependence(d: Dataset, scheme: BinScheme,
                   kind: str = "linear") -> np.ndarray:
    """dm_k/dx_j for every column k on each of the anchor's K curve bins
    ``scheme``, as one K x p table: ``linear`` puts the OLS slopes on
    every row; ``local_linear`` repeats each run's difference quotients
    over its ceil(K / 20) curve bins (the last run maybe short), falling
    back to the OLS slopes where the anchor is locally constant. The own
    column is exactly 1 as fitted (x / x)."""
    if kind not in DEPENDENCE_KINDS:
        raise DataError(f"unknown dependence kind {kind!r}; "
                        f"choose from {DEPENDENCE_KINDS}")
    j = scheme.j
    cov, e, _ = d.moments
    # OLS slopes of every column on x_j from the covariance table, scaled
    # back; the anchor fills two bins, so cov_jj > 0 and its own slope is 1.
    with np.errstate(over="ignore"):
        slopes = np.ldexp(cov[j] / cov[j, j], e - e[j])
    if not np.all(np.isfinite(slopes)):
        raise NumericalError(f"dependence slope on {d.names[j]!r} is not finite")
    if kind == "linear":
        return np.tile(slopes, (scheme.k, 1))

    # Runs of ceil(K / 20) curve bins, the last maybe short.
    step = -(-scheme.k // 20)
    starts = np.arange(0, scheme.k, step)
    runs = BinScheme(j, np.r_[scheme.edges[starts], scheme.edges[-1]],
                     scheme.bin_of // step, np.add.reduceat(scheme.counts, starts))
    levels = runs.means(map(d.column, range(d.p)))
    b = np.arange(runs.k)
    rise = levels[np.minimum(b + 1, runs.k - 1)] - levels[np.maximum(b - 1, 0)]
    # Knot abscissa is the bin mean of x_j (not the midpoint) so that on
    # exactly linear data every difference quotient reproduces the global
    # OLS slope to machine precision. Column j's quotient is exactly 1:
    # a rise of x_j that is 0 or overflows keeps the OLS row.
    ok = np.isfinite(rise[:, j]) & (rise[:, j] != 0.0)
    run_slopes = np.tile(slopes, (runs.k, 1))
    run_slopes[ok] = rise[ok] / rise[ok, j, None]
    return np.repeat(run_slopes, step, axis=0)[:scheme.k]


def corr_matrix(d: Dataset) -> np.ndarray:
    """The p x p Pearson correlations of the predictors, in the order of
    ``d.names``, from their covariance table. Constant columns (min ==
    max) have no defined correlation and are rejected."""
    constant = np.flatnonzero(np.ptp(d.matrix(), axis=0) == 0.0)
    if len(constant):
        raise DataError(f"degenerate variable {d.names[constant[0]]!r}: "
                        f"constant column")
    cov = d.moments[0]
    s = np.sqrt(np.diag(cov))
    c = np.clip(cov / np.outer(s, s), -1.0, 1.0)
    np.fill_diagonal(c, 1.0)
    return c
