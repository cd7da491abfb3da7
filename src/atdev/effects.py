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

The four derivative curves are one quantity. For anchor j, with the
gradient table G (N x p) and the dependence slopes S[:, k] = dm_k/dx_j
(S[:, j] = 1), the kernel ``_binned`` takes the per-bin means of G * S
over the x_j bins; one entry, ``_anchor_curves``, runs it per anchor.
Column k integrated along the bins is ale (k = j) or ace through x_k;
atdev is their sum; not integrated, with S = 1, it is le_curve.
``effect_matrix`` is that entry run once per anchor. Every one of them reads G from its
``table`` argument and builds it when that is omitted.

Integration is a cumulative midpoint rule from the observed minimum: the
value at a bin midpoint is the full-width sum over earlier bins plus half
the current bin's contribution, so a unit-slope model reproduces the
identity exactly at the midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (BinScheme, CurveKind, Dataset, EffectCurve, _check_index,
                   center, quantile_bins)
from .dependence import DependenceModel, fit_dependence
from .errors import DataError
from .gradients import GradientTable, gradient_table
from .models import Predictor

__all__ = [
    "DEFAULT_BINS",
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


def _scheme(d: Dataset, j: int, bins: BinScheme | None) -> BinScheme:
    if bins is None:
        return quantile_bins(d, j, DEFAULT_BINS)
    _check_index(j, d.p)  # True and 1.0 compare equal to a bins.j of 1
    if bins.j != j:
        raise DataError(f"bin scheme built on column {bins.j}, expected {j}")
    return bins


def _binned(g: np.ndarray, scheme: BinScheme, cols: list[int] | range,
            slopes: np.ndarray | None = None, integrate: bool = True) -> np.ndarray:
    """The one estimator behind every derivative curve: per-bin means,
    over the anchor's bins, of columns ``cols`` of the integrand
    g * slopes (slopes default to 1), as a K x len(cols) array. With
    ``integrate`` each column is accumulated along the bins by the
    midpoint rule."""
    # Column by column: a whole N x m integrand costs more to allocate
    # than the per-column loop costs to run.
    sums = np.column_stack([
        np.bincount(scheme.bin_of, minlength=scheme.k,
                    weights=g[:, c] if slopes is None else g[:, c] * slopes[:, c])
        for c in cols])
    means = sums / scheme.counts[:, None]
    if not integrate:
        return means
    # Accumulate mean*width from the first edge; midpoint value backs off
    # half of the current bin's full-width contribution.
    contrib = means * scheme.widths[:, None]
    return np.cumsum(contrib, axis=0) - contrib / 2.0


def _kind(p: int, j: int, k: int, integrate: bool) -> CurveKind:
    """The naming rule of kernel column k for anchor j: ALE (k = j) or
    ACE when integrated, LE or LEcross when not. k must be a column
    index."""
    _check_index(k, p)
    if integrate:
        return CurveKind.ALE if k == j else CurveKind.ACE
    return CurveKind.LE if k == j else CurveKind.LE_CROSS


def _anchor_curves(model: Predictor, d: Dataset, j: int, ks: list[int] | range,
                   bins: BinScheme | None, table: GradientTable | None,
                   dep: DependenceModel | None = None, integrate: bool = True
                   ) -> tuple[list[EffectCurve], np.ndarray, BinScheme]:
    """The one entry behind every derivative curve of anchor j: bins x_j,
    checks that ``dep`` is anchored at j, takes its slopes (1 without
    ``dep``), reads the gradient table (built when omitted) and runs the
    kernel on columns ``ks``. Returns a curve per k named by ``_kind``,
    the kernel's K x len(ks) array and the bins."""
    kinds = [_kind(d.p, j, k, integrate) for k in ks]
    scheme = _scheme(d, j, bins)
    slopes = None
    if dep is not None:
        if dep.j != j:
            raise DataError(f"dependence model anchored at {dep.j}, expected {j}")
        slopes = dep.slopes_at(d.column(j))
    if table is None:
        table = gradient_table(model, d)
    acc = _binned(table.values, scheme, ks, slopes, integrate)
    return ([_curve(kind, j, scheme, acc[:, c], k)
             for c, (kind, k) in enumerate(zip(kinds, ks))], acc, scheme)


def _curve(kind: CurveKind, j: int, scheme: BinScheme, values: np.ndarray,
           k: int | None = None) -> EffectCurve:
    # A contiguous copy: centering takes a dot product, which rounds
    # differently on a strided column view.
    return EffectCurve(kind=kind, j=j, k=None if k == j else k,
                       grid=scheme.midpoints, values=np.ascontiguousarray(values),
                       counts=scheme.counts.astype(np.float64))


def pdp(model: Predictor, d: Dataset, j: int, bins: BinScheme | None = None,
        grid: np.ndarray | None = None) -> EffectCurve:
    """Average prediction as column j sweeps the grid (default: the bin
    midpoints) while every other column keeps its observed values. Scores
    synthetic rows, so correlated data gets extrapolated. Polynomial
    models compute it exactly in one pass; other backends score the
    whole dataset once per grid value."""
    scheme = _scheme(d, j, bins)
    if grid is None:
        grid = scheme.midpoints
        counts = scheme.counts.astype(np.float64)
    else:
        grid = np.asarray(grid, dtype=np.float64)
        lo, hi = float(np.min(d.column(j))), float(np.max(d.column(j)))
        if np.any(grid < lo) or np.any(grid > hi):
            raise DataError("pdp grid extends beyond the observed range")
        counts = np.ones(len(grid))
    values = model.partial_dependence(d.matrix(), j, grid)
    return EffectCurve(kind=CurveKind.PD, j=j, grid=grid, values=values,
                       counts=counts)


def marginal(model: Predictor, d: Dataset, j: int,
             bins: BinScheme | None = None, smooth: int = 0,
             from_response: bool = False) -> EffectCurve:
    """Per-bin mean of predictions at the observed rows (no synthetic
    points), placed at bin midpoints.

    ``smooth`` > 0 replaces each bin mean with a count-weighted local
    quadratic fit over a window of that many bins on each side. The fit
    is exact for polynomial conditional means up to cubic on interior
    windows, so it cuts per-bin sampling noise without flattening shape.
    ``from_response`` averages the observed response instead of model
    scores (identity link only).
    """
    scheme = _scheme(d, j, bins)
    if from_response:
        if d.response is None:
            raise DataError("response-based marginal needs a response column")
        per_row = np.asarray(d.response, dtype=np.float64)
    else:
        per_row = model.predict(d.matrix())
    values = _binned(per_row[:, None], scheme, [0], integrate=False)[:, 0]
    if smooth > 0:
        values = _local_quadratic(scheme.midpoints, values,
                                  scheme.counts.astype(np.float64), smooth)
    return _curve(CurveKind.MARGINAL, j, scheme, values)


def _local_quadratic(grid: np.ndarray, values: np.ndarray, counts: np.ndarray,
                     half_window: int) -> np.ndarray:
    out = values.copy()
    k = len(grid)
    for b in range(k):
        lo = max(0, b - half_window)
        hi = min(k, b + half_window + 1)
        if hi - lo < 4:
            continue
        t = grid[lo:hi] - grid[b]
        w = counts[lo:hi]
        basis = np.column_stack([np.ones_like(t), t, t * t])
        bw = basis * w[:, None]
        gram = basis.T @ bw
        rhs = bw.T @ values[lo:hi]
        try:
            coef = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            continue
        out[b] = coef[0]
    return out


def ale(model: Predictor, d: Dataset, j: int, bins: BinScheme | None = None,
        table: GradientTable | None = None) -> EffectCurve:
    """Own-effect curve: per-bin mean of d f / d x_j over member rows,
    accumulated from the observed minimum. Uncentered."""
    return _anchor_curves(model, d, j, [j], bins, table)[0][0]


def ace(model: Predictor, d: Dataset, k: int, j: int, dep: DependenceModel,
        bins: BinScheme | None = None,
        table: GradientTable | None = None) -> EffectCurve:
    """Cross-effect curve: the part of x_j's effect transmitted through
    the dependent variable x_k. Per-bin mean of
    (d f / d x_k) * (d m_k / d x_j), accumulated as in ale."""
    if k == j:
        raise DataError("cross effect needs k != j")
    return _anchor_curves(model, d, j, [k], bins, table, dep)[0][0]


def atdev_terms(model: Predictor, d: Dataset, j: int,
                dep: DependenceModel | None = None,
                bins: BinScheme | None = None,
                table: GradientTable | None = None
                ) -> tuple[list[EffectCurve], EffectCurve]:
    """The total-derivative effect and its terms from one kernel call:
    ``terms[k]`` is the ale curve for k = j and the ace curve through x_k
    otherwise; the total is their pointwise sum. Uncentered."""
    if dep is None:
        dep = fit_dependence(d, j)
    terms, acc, scheme = _anchor_curves(model, d, j, range(d.p), bins, table, dep)
    return terms, _curve(CurveKind.ATDEV, j, scheme, acc.sum(axis=1))


def atdev(model: Predictor, d: Dataset, j: int,
          dep: DependenceModel | None = None,
          bins: BinScheme | None = None,
          table: GradientTable | None = None) -> EffectCurve:
    """Total-derivative effect: ale plus the ace term of every other
    variable, on the shared grid."""
    return atdev_terms(model, d, j, dep=dep, bins=bins, table=table)[1]


def le_curve(model: Predictor, d: Dataset, k: int, j: int,
             bins: BinScheme | None = None,
             table: GradientTable | None = None) -> EffectCurve:
    """Per-bin mean of d f / d x_k conditioned on x_j bins, reported on
    the derivative scale (no integration). k = j is the own-derivative
    profile; k != j reads out interactions and transferred effects."""
    return _anchor_curves(model, d, j, [k], bins, table, integrate=False)[0][0]


@dataclass(frozen=True)
class EffectMatrix:
    """p x p grid of centered curves, column j conditioned on variable j.

    For the total-derivative kind the diagonal holds own effects (ale)
    and cell (i, j) holds the cross effect of x_j through x_i; ``totals``
    caches each column's centered atdev curve, the pointwise sum of its
    cells. For the local-effects kind the cells are conditional mean
    derivatives and ``totals`` is None. ``schemes`` holds the per-column
    bins.
    """

    kind: CurveKind
    names: tuple[str, ...]
    cells: tuple[tuple[EffectCurve, ...], ...]  # [row i][col j]
    totals: tuple[EffectCurve, ...] | None = None
    schemes: tuple[BinScheme, ...] = ()

    @property
    def p(self) -> int:
        return len(self.names)

    def cell(self, i: int, j: int) -> EffectCurve:
        return self.cells[i][j]

    def total(self, j: int) -> EffectCurve:
        if self.totals is None:
            raise DataError("totals cached only for the total-derivative kind")
        return self.totals[j]


def effect_matrix(model: Predictor, d: Dataset, kind: CurveKind | str = CurveKind.ATDEV,
                  k_bins: int = DEFAULT_BINS, dependence: str = "linear",
                  deps: list[DependenceModel] | None = None,
                  schemes: list[BinScheme] | None = None,
                  table: GradientTable | None = None) -> EffectMatrix:
    """Build all p^2 curves, one kernel call per column. One gradient pass
    is shared by every cell; per-column dependence fits may be supplied or
    are fitted here."""
    kind = CurveKind(kind)
    if kind not in (CurveKind.ATDEV, CurveKind.LE):
        raise DataError(f"matrix kind must be ATDEV or LE, got {kind.value}")
    p = d.p
    if schemes is None:
        schemes = [quantile_bins(d, j, k_bins) for j in range(p)]
    if table is None:
        table = gradient_table(model, d)
    if kind is CurveKind.ATDEV and deps is None:
        deps = [fit_dependence(d, j, dependence) for j in range(p)]

    columns: list[list[EffectCurve]] = []
    totals: list[EffectCurve] = []
    for j, scheme in enumerate(schemes):
        if kind is CurveKind.ATDEV:
            col, total = atdev_terms(model, d, j, dep=deps[j], bins=scheme,
                                     table=table)
            totals.append(center(total))
        else:
            col = _anchor_curves(model, d, j, range(p), scheme, table,
                                 integrate=False)[0]
        columns.append([center(c) for c in col])

    cells = tuple(tuple(columns[j][i] for j in range(p)) for i in range(p))
    return EffectMatrix(kind=kind, names=tuple(d.names), cells=cells,
                        totals=tuple(totals) if kind is CurveKind.ATDEV else None,
                        schemes=tuple(schemes))
