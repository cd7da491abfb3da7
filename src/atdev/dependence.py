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

from dataclasses import dataclass

import numpy as np

from .data import BinScheme, Dataset
from .errors import DataError, NumericalError

__all__ = [
    "DependenceModel",
    "fit_dependence",
    "corr_matrix",
]

DEPENDENCE_KINDS = ("linear", "local_linear")


@dataclass(frozen=True)
class DependenceModel:
    """Fitted conditional-mean slopes dm_k/dx_j of every column k on the
    anchor column j, as one B x p table: row b holds for x_j in bin b of
    the B + 1 ``edges``. ``linear`` is the one-bin case, the OLS slopes
    between the anchor's min and max; ``local_linear`` has a row per run
    of ceil(K / 20) of the anchor's K curve bins, falling back to the OLS
    slope where the anchor is locally constant. Either way a slope is one
    number on each curve bin: ``per_bin`` gives the K x p table."""

    j: int
    edges: np.ndarray   # B + 1 anchor bin edges
    slopes: np.ndarray  # B x p

    def per_bin(self, scheme: BinScheme) -> np.ndarray:
        """dm_k/dx_j for every column k on each of the anchor's K curve
        bins (K x p): row b // ceil(K / 20) under ``local_linear``, the
        slope bin holding the curve bin's left edge, and the one row under
        ``linear``. The own column is exactly 1."""
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
    cov, e, _ = d.moments
    # OLS slopes of every column on x_j from the covariance table, scaled
    # back; the anchor fills two bins, so cov_jj > 0 and its own slope is 1.
    with np.errstate(over="ignore"):
        slopes = np.ldexp(cov[j] / cov[j, j], e - e[j])
    if not np.all(np.isfinite(slopes)):
        raise NumericalError(f"dependence slope on {d.names[j]!r} is not finite")
    if kind == "linear":
        return DependenceModel(j=j, edges=scheme.edges[[0, -1]], slopes=slopes[None, :])

    # Runs of ceil(K / 20) curve bins, the last maybe short: edges are curve edges.
    step = -(-scheme.k // 20)
    starts = np.arange(0, scheme.k, step)
    runs = BinScheme(j, np.r_[scheme.edges[starts], scheme.edges[-1]],
                     scheme.bin_of // step, np.add.reduceat(scheme.counts, starts))
    levels = runs.means(map(d.column, range(d.p)))
    b = np.arange(runs.k)
    rise = levels[np.minimum(b + 1, runs.k - 1)] - levels[np.maximum(b - 1, 0)]
    # Knot abscissa is the bin mean of x_j (not the midpoint) so that on
    # exactly linear data every difference quotient reproduces the global
    # OLS slope to machine precision. Column j's quotient is exactly 1.
    ok = rise[:, j] != 0.0
    bin_slopes = np.tile(slopes, (runs.k, 1))
    bin_slopes[ok] = rise[ok] / rise[ok, j, None]
    return DependenceModel(j=j, edges=runs.edges, slopes=bin_slopes)


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
