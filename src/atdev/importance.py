"""Variance-based importance summaries.

Two families: variances of the effect-matrix cells (how much each own or
transferred effect moves over the data) and mean squared partial
derivatives (derivative-energy per variable). Both are reported in one
ImportanceReport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CurveKind
from .effects import Estimation, effect_matrix
from .errors import DataError, NumericalError

__all__ = [
    "ImportanceReport",
    "dgsm",
    "build_report",
]


# Rows of the gradient table squared at a time by ``dgsm``.
_DGSM_ROWS = 1024


def dgsm(ctx: Estimation) -> np.ndarray:
    """Mean squared partial derivative per variable, from the gradient
    table the curve estimators read: ``np.mean(G ** 2, axis=0)`` bit for
    bit, without its N x p copy of the squares. numpy sums a one-column
    table pairwise, and a wider (C-order) one down the rows in order;
    summing a block of squared rows at a time below the sum so far keeps
    that order."""
    g = ctx.table.values
    if g.shape[1] == 1:
        return np.mean(g ** 2, axis=0)
    block = np.empty((min(len(g), _DGSM_ROWS) + 1, g.shape[1]))
    block[0] = 0.0
    for s in range(0, len(g), _DGSM_ROWS):
        rows = g[s:s + _DGSM_ROWS]
        np.square(rows, out=block[1:len(rows) + 1])
        block[0] = np.add.reduce(block[:len(rows) + 1], axis=0)
    return block[0] / len(g)


@dataclass(frozen=True)
class ImportanceReport:
    """``v[i, j]`` is the variance of effect-matrix cell (i, j): the own
    effect of x_j on the diagonal, off it its effect through x_i."""

    names: tuple[str, ...]
    v: np.ndarray        # p x p cell-curve variances
    dgsm: np.ndarray     # mean squared partials
    v_plus: np.ndarray = field(init=False)  # column sums of v

    def __post_init__(self):
        with np.errstate(over="ignore"):  # a sum that overflows is named below
            object.__setattr__(self, "v_plus", self.v.sum(axis=0))
        for name, values in (("v", self.v), ("v_plus", self.v_plus),
                             ("dgsm", self.dgsm)):
            bad = np.flatnonzero(~np.isfinite(values)) % len(self.names)
            if len(bad):
                raise NumericalError(f"non-finite {name} for column "
                                     f"{self.names[bad[0]]!r}")
        if np.any(self.v < 0) or np.any(self.dgsm < 0):
            raise DataError("importance values must be nonnegative")

    @property
    def p(self) -> int:
        return len(self.names)


def build_report(ctx: Estimation) -> ImportanceReport:
    """Effect-matrix variances and derivative energies from the context's
    one gradient table."""
    cells = effect_matrix(ctx, CurveKind.ATDEV).cells
    # A square that overflows is named by ImportanceReport's check.
    with np.errstate(over="ignore"):
        v = np.array([[c.weighted_variance() for c in row] for row in cells])
        g2 = dgsm(ctx)
    return ImportanceReport(names=tuple(ctx.data.names), v=v, dgsm=g2)
