"""The 1-D effect-curve estimators and the p x p effect matrix.

Six curves over a shared quantile-bin grid of the variable of interest:

- ``pdp``: average prediction with the column overwritten at every row
  (a full sweep that extrapolates off the joint support on purpose).
- ``marginal``: per-bin conditional mean of predictions at observed rows.
- ``ale``: integrated per-bin mean of the own partial derivative.
- ``ace``: integrated per-bin mean of a cross partial times the
  conditional-mean slope of the other variable.
- ``atdev``: ale plus all ace terms, the total-derivative effect.
- ``le_curve``: per-bin mean of a partial derivative, not integrated.

Each reads a run's facts from one ``Estimation``: f at the observed
rows, the gradient table G (N x p), and for an anchor x_j its bins and
two K x p tables on them, the bin means of G and the slopes
S[b, k] = dm_k/dx_j (S[:, j] = 1). S comes from the data's one
covariance table under ``linear`` and where ``local_linear`` falls back;
``local_linear`` otherwise reads run means of the columns. A polynomial
model forms powers of 3 or more as products, so its f and G may differ
from ``x ** a`` in the last bits.

The four derivative curves are one kernel, ``_anchor_curves``: S is one
number on each curve bin, so the bin mean of g_k * S_k is S[b, k] times
the bin mean of g_k. Column k integrated along the bins is ale (k = j)
or ace through x_k; atdev is their sum; not integrated, with S = 1, it
is le_curve. ``effect_matrix`` runs the kernel once per anchor.

Integration is a cumulative midpoint rule from the observed minimum: the
value at a bin midpoint is the full-width sum over earlier bins plus half
the current bin's contribution, so a unit-slope model reproduces the
identity exactly at the midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (BinScheme, CurveKind, Dataset, EffectCurve, _check_index,
                   _pow2_scaled, center, quantile_bins)
from .dependence import fit_dependence
from .errors import DataError
from .gradients import GradientTable, gradient_table
from .models import Predictor

__all__ = [
    "DEFAULT_BINS",
    "Estimation",
    "EffectMatrix",
    "pdp",
    "marginal",
    "ale",
    "ace",
    "atdev",
    "atdev_terms",
    "le_curve",
    "effect_matrix",
]

DEFAULT_BINS = 100


class Estimation:
    """The facts of one run that every estimator reads, each built once,
    when first asked: f at the observed rows (one ``predict`` call), the
    gradient table, and for the last anchor asked for its ``k_bins``
    quantile bins, the table's bin means and the ``dependence`` slopes.
    ``fd_step`` overrides the table's finite-difference step.

    One anchor's state is held at a time: asking for a new anchor drops
    the old one's bins, means and slopes before its bins are built. A run
    thus holds the data (8p bytes a row), the table (8p), f (8) and one
    anchor's bin numbers (8), plus at most two N-vectors while it works."""

    def __init__(self, model: Predictor, data: Dataset,
                 k_bins: int = DEFAULT_BINS, dependence: str = "linear",
                 fd_step: float | None = None):
        self.model, self.data = model, data
        self.k_bins, self.dependence, self.fd_step = k_bins, dependence, fd_step
        self._fx = self._table = self._bins = self._means = self._dep = None

    @property
    def fx(self) -> np.ndarray:
        """Predictions at the observed rows."""
        if self._fx is None:
            self._fx = self.model.predict(self.data.matrix())
        return self._fx

    @property
    def table(self) -> GradientTable:
        if self._table is None:
            self._table = gradient_table(self.model, self.data, h=self.fd_step)
        return self._table

    def bins(self, j: int) -> BinScheme:
        # Checked first: True and 1.0 compare equal to a held anchor of 1.
        _check_index(j, self.data.p)
        if self._bins is None or self._bins.j != j:
            # The old anchor's state goes first, so that its bin numbers
            # are not held while the new ones are built.
            self._bins = self._means = self._dep = None
            self._bins = quantile_bins(self.data, j, self.k_bins)
        return self._bins

    def bin_means(self, j: int) -> np.ndarray:
        """K x p per-bin means of the gradient table over the bins of x_j,
        a column at a time: no N x p copy of the table is made."""
        scheme = self.bins(j)
        if self._means is None:
            self._means = scheme.means(self.table.values.T)
        return self._means

    def dep(self, j: int) -> np.ndarray:
        """K x p dependence slopes dm_k/dx_j on the bins of x_j."""
        scheme = self.bins(j)
        if self._dep is None:
            self._dep = fit_dependence(self.data, scheme, self.dependence)
        return self._dep


def _kind(p: int, j: int, k: int, integrate: bool) -> CurveKind:
    """The naming rule of kernel column k, a column index, for anchor j:
    ALE (k = j) or ACE when integrated, LE or LEcross when not."""
    _check_index(k, p)
    if integrate:
        return CurveKind.ALE if k == j else CurveKind.ACE
    return CurveKind.LE if k == j else CurveKind.LE_CROSS


def _anchor_curves(ctx: Estimation, j: int, ks: list[int] | range,
                   integrate: bool = True
                   ) -> tuple[list[EffectCurve], np.ndarray, BinScheme]:
    """The one entry behind every derivative curve of anchor j: the
    context's bin means of columns ``ks`` of the gradient table, times
    the bin's dependence slope when an integrated column crosses to
    k != j, accumulated along the bins when ``integrate``. Returns a
    curve per k named by ``_kind``, the K x len(ks) values and the bins."""
    kinds = [_kind(ctx.data.p, j, k, integrate) for k in ks]
    scheme = ctx.bins(j)
    acc = ctx.bin_means(j)[:, ks]
    if integrate:
        if any(k != j for k in ks):
            acc = acc * ctx.dep(j)[:, ks]
        # Accumulate mean*width from the first edge; midpoint value backs
        # off half of the current bin's full-width contribution.
        contrib = acc * scheme.widths[:, None]
        acc = np.cumsum(contrib, axis=0) - contrib / 2.0
    return ([_curve(kind, j, scheme, acc[:, c], k)
             for c, (kind, k) in enumerate(zip(kinds, ks))], acc, scheme)


def _curve(kind: CurveKind, j: int, scheme: BinScheme, values: np.ndarray,
           k: int | None = None) -> EffectCurve:
    # A contiguous copy: centering takes a dot product, which rounds
    # differently on a strided column view.
    return EffectCurve(kind=kind, j=j, k=None if k == j else k,
                       grid=scheme.midpoints, values=np.ascontiguousarray(values),
                       counts=scheme.counts.astype(np.float64))


def pdp(ctx: Estimation, j: int) -> EffectCurve:
    """Average prediction as column j sweeps the bin midpoints while
    every other column keeps its observed values. Scores synthetic rows,
    so correlated data gets extrapolated. Polynomial models compute it
    exactly in one pass; other backends score the whole dataset once per
    grid value."""
    scheme = ctx.bins(j)
    values = ctx.model.partial_dependence(ctx.data.matrix(), j,
                                          scheme.midpoints)
    return _curve(CurveKind.PD, j, scheme, values)


def marginal(ctx: Estimation, j: int, smooth: int = 0) -> EffectCurve:
    """Per-bin mean of predictions at the observed rows (no synthetic
    points), placed at bin midpoints. ``smooth`` > 0 replaces each bin
    mean with a count-weighted local quadratic fit over a window of that
    many bins on each side, exact for polynomial conditional means up to
    cubic on interior windows: it cuts per-bin sampling noise without
    flattening shape."""
    scheme = ctx.bins(j)
    values = scheme.means([ctx.fx])[:, 0]
    if smooth > 0:
        values = _local_quadratic(scheme.midpoints, values,
                                  scheme.counts.astype(np.float64), smooth)
    return _curve(CurveKind.MARGINAL, j, scheme, values)


def _local_quadratic(grid: np.ndarray, values: np.ndarray, counts: np.ndarray,
                     half_window: int) -> np.ndarray:
    out, k = values.copy(), len(grid)
    for b in range(k):
        lo, hi = max(0, b - half_window), min(k, b + half_window + 1)
        if hi - lo < 4:
            continue
        # Offsets and values over powers of two, so that no square or
        # moment overflows; the intercept scales back exactly.
        t = _pow2_scaled(grid[lo:hi] - grid[b])[0]
        y, e = _pow2_scaled(values[lo:hi].copy())
        basis = np.column_stack([np.ones_like(t), t, t * t])
        bw = basis * counts[lo:hi, None]
        try:
            out[b] = np.ldexp(np.linalg.solve(basis.T @ bw, bw.T @ y)[0], e)
        except np.linalg.LinAlgError:
            pass
    return out


def ale(ctx: Estimation, j: int) -> EffectCurve:
    """Own-effect curve: per-bin mean of d f / d x_j over member rows,
    accumulated from the observed minimum. Uncentered."""
    return _anchor_curves(ctx, j, [j])[0][0]


def ace(ctx: Estimation, k: int, j: int) -> EffectCurve:
    """Cross-effect curve: the part of x_j's effect transmitted through
    x_k, the per-bin mean of (df/dx_k)(dm_k/dx_j) accumulated as in ale."""
    if k == j:
        raise DataError("cross effect needs k != j")
    return _anchor_curves(ctx, j, [k])[0][0]


def atdev_terms(ctx: Estimation, j: int
                ) -> tuple[list[EffectCurve], EffectCurve]:
    """The total-derivative effect and its terms from one kernel call:
    ``terms[k]`` is the ale curve for k = j and the ace curve through x_k
    otherwise; the total is their pointwise sum. Uncentered."""
    terms, acc, scheme = _anchor_curves(ctx, j, range(ctx.data.p))
    return terms, _curve(CurveKind.ATDEV, j, scheme, acc.sum(axis=1))


def atdev(ctx: Estimation, j: int) -> EffectCurve:
    """Total-derivative effect: ale plus the ace term of every other
    variable, on the shared grid."""
    return atdev_terms(ctx, j)[1]


def le_curve(ctx: Estimation, k: int, j: int) -> EffectCurve:
    """Per-bin mean of df/dx_k over the bins of x_j, not integrated: the
    own-derivative profile for k = j, else interactions and transfers."""
    return _anchor_curves(ctx, j, [k], integrate=False)[0][0]


@dataclass(frozen=True)
class EffectMatrix:
    """p x p grid of centered curves, column j conditioned on variable j.
    For the total-derivative kind the diagonal holds own effects (ale),
    cell (i, j) the cross effect of x_j through x_i, and ``totals`` each
    column's centered atdev curve, the pointwise sum of its cells. For
    the local-effects kind the cells are conditional mean derivatives
    and ``totals`` is None."""

    kind: CurveKind
    names: tuple[str, ...]
    cells: tuple[tuple[EffectCurve, ...], ...]  # [row i][col j]
    totals: tuple[EffectCurve, ...] | None = None


def effect_matrix(ctx: Estimation, kind: CurveKind | str = CurveKind.ATDEV
                  ) -> EffectMatrix:
    """Build all p^2 curves, one kernel call per column, from the
    context's one gradient table."""
    kind = CurveKind(kind)
    if kind not in (CurveKind.ATDEV, CurveKind.LE):
        raise DataError(f"matrix kind must be ATDEV or LE, got {kind.value}")
    p = ctx.data.p
    columns: list[list[EffectCurve]] = []
    totals: list[EffectCurve] = []
    for j in range(p):
        if kind is CurveKind.ATDEV:
            col, total = atdev_terms(ctx, j)
            totals.append(center(total))
        else:
            col = _anchor_curves(ctx, j, range(p), integrate=False)[0]
        columns.append([center(c) for c in col])

    cells = tuple(tuple(columns[j][i] for j in range(p)) for i in range(p))
    return EffectMatrix(kind=kind, names=tuple(ctx.data.names), cells=cells,
                        totals=tuple(totals) if kind is CurveKind.ATDEV else None)
