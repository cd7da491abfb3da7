"""Variance-based importance summaries.

Two families: variances of the effect-matrix cells (how much each own or
transferred effect moves over the data) and mean squared partial
derivatives (derivative-energy per variable). Both are reported in one
ImportanceReport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CurveKind, EffectCurve
from .effects import EffectMatrix, Estimation, effect_matrix
from .errors import DataError, NumericalError

__all__ = [
    "ImportanceReport",
    "atdev_importance",
    "dgsm",
    "build_report",
    "weighted_variance",
]


def weighted_variance(curve: EffectCurve) -> float:
    """Variance of the curve values under the empirical distribution of
    the conditioning variable (bin counts as weights)."""
    w = curve.counts
    total = float(w.sum())
    if total == 0:
        return 0.0
    mean = float(np.dot(curve.values, w) / total)
    return float(np.dot((curve.values - mean) ** 2, w) / total)


def atdev_importance(em: EffectMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell curve variances v[i, j] and their column sums v_plus[j].

    The diagonal measures the own effect of x_j, off-diagonal (i, j) the
    effect of x_j transferred through x_i; the column sum is the spread
    of the whole column of curves.
    """
    if em.kind is not CurveKind.ATDEV:
        raise DataError("importance matrix needs the total-derivative kind")
    v = np.array([[weighted_variance(c) for c in row] for row in em.cells])
    return v, v.sum(axis=0)


def dgsm(ctx: Estimation) -> np.ndarray:
    """Mean squared partial derivative per variable, from the gradient
    table the curve estimators read."""
    return np.mean(ctx.table.values ** 2, axis=0)


@dataclass(frozen=True)
class ImportanceReport:
    names: tuple[str, ...]
    v: np.ndarray        # p x p cell-curve variances
    v_plus: np.ndarray   # column sums of v
    dgsm: np.ndarray     # mean squared partials

    def __post_init__(self):
        for field, values in (("v", self.v), ("v_plus", self.v_plus),
                              ("dgsm", self.dgsm)):
            bad = np.flatnonzero(~np.isfinite(values)) % len(self.names)
            if len(bad):
                raise NumericalError(f"non-finite {field} for column "
                                     f"{self.names[bad[0]]!r}")
        if np.any(self.v < 0) or np.any(self.dgsm < 0):
            raise DataError("importance values must be nonnegative")
        if not np.allclose(self.v_plus, self.v.sum(axis=0), atol=1e-12):
            raise DataError("column totals disagree with the matrix")

    @property
    def p(self) -> int:
        return len(self.names)


def build_report(ctx: Estimation) -> ImportanceReport:
    """Effect-matrix variances and derivative energies from the context's
    one gradient table."""
    v, v_plus = atdev_importance(effect_matrix(ctx, CurveKind.ATDEV))
    return ImportanceReport(names=tuple(ctx.data.names), v=v, v_plus=v_plus,
                            dgsm=dgsm(ctx))
