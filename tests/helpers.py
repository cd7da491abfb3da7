"""Shared test utilities: polynomial fits on curve grids, support masks,
curve comparison, dataset slicing, estimation contexts with a given
dependence fit, scaled polynomials, reading written JSON files, and
row-wise references for the binning and the derivative-curve kernel."""

import json

import numpy as np

from atdev import AnalyticModel, Estimation, center
from atdev.data import Dataset


def take(d: Dataset, rows) -> Dataset:
    """Row subset as a new Dataset."""
    return Dataset(
        names=list(d.names),
        columns=[c[rows] for c in d.columns],
        response=None if d.response is None else d.response[rows])


class GivenDependence(Estimation):
    """An estimation context whose dependence fit for anchor j is
    ``fit(j)``: for slope tables its settings do not name, such as a
    table of zeros."""

    def __init__(self, model, d: Dataset, fit, **settings):
        super().__init__(model, d, **settings)
        self.fit = fit

    def dep(self, j: int):
        return self.fit(j)


def scaled(model: AnalyticModel, c: float) -> AnalyticModel:
    """The same polynomial with every coefficient multiplied by c."""
    return AnalyticModel(p=model.p, terms=tuple(
        (c * coef, powers) for coef, powers in model.terms))


def load_json(path) -> dict:
    """A JSON file the package wrote, checked for the package's schema."""
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["schema"] == "atdev/1", path
    return payload


def inner_mask(x: np.ndarray, grid: np.ndarray, frac: float = 0.90) -> np.ndarray:
    """Boolean mask of grid points inside the central ``frac`` of the
    empirical distribution of x."""
    tail = (1.0 - frac) / 2.0
    lo, hi = np.quantile(x, [tail, 1.0 - tail])
    return (grid >= lo) & (grid <= hi)


def poly_coeffs(grid: np.ndarray, values: np.ndarray, deg: int,
                mask: np.ndarray | None = None) -> np.ndarray:
    """Least-squares polynomial coefficients (ascending degree) of the
    curve restricted to masked grid points."""
    if mask is not None:
        grid, values = grid[mask], values[mask]
    return np.polynomial.polynomial.polyfit(grid, values, deg)


def max_gap(a, b, mask: np.ndarray | None = None) -> float:
    """Largest pointwise distance between two centered curves sharing a
    grid."""
    ca, cb = center(a), center(b)
    if not np.array_equal(a.grid, b.grid):
        raise AssertionError("curves not on a shared grid")
    diff = np.abs(ca.values - cb.values)
    if mask is not None:
        diff = diff[mask]
    return float(diff.max())


def uncentered_max(curve, mask: np.ndarray | None = None) -> float:
    v = np.abs(curve.values)
    if mask is not None:
        v = v[mask]
    return float(v.max())


def failing_open(writes_before_failure: int):
    """An ``open`` whose files raise ``OSError`` (no space left) on the
    write after the given number of writes, as a full disk would."""
    real_open = open

    class Full:
        def __init__(self, f):
            self.f, self.left = f, writes_before_failure

        def write(self, text):
            if self.left == 0:
                raise OSError(28, "No space left on device")
            self.left -= 1
            return self.f.write(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    return lambda *args, **kwargs: Full(real_open(*args, **kwargs))


def bin_index(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the half-open bin ``[e_i, e_{i+1})`` holding each value,
    the last bin closed; values outside the edges are clamped into the
    first/last bin. A searchsorted over every value."""
    return np.clip(np.searchsorted(edges, x, side="right") - 1,
                   0, len(edges) - 2)


def reference_bins(x: np.ndarray, k: int):
    """Equal-count bins the row-wise way, as (edges, bin_of, counts):
    quantile edges of the unsorted column with ties merged, every row
    looked up by ``bin_index``, and every empty bin merged into its right
    neighbour (keep the first edge and the right edge of each non-empty
    bin, and renumber the rows). A constant column has one edge and no
    bins."""
    edges = np.unique(np.quantile(x, np.linspace(0.0, 1.0, k + 1)))
    if len(edges) < 2:
        return edges, np.zeros(len(x), dtype=np.int64), np.zeros(0, np.int64)
    bin_of = bin_index(edges, x)
    counts = np.bincount(bin_of, minlength=len(edges) - 1)
    full = counts > 0
    renumber = np.cumsum(full) - 1
    return (np.r_[edges[0], edges[1:][full]], renumber[bin_of],
            counts[full].astype(np.int64))


def slopes_at(dep, x) -> np.ndarray:
    """The dependence slopes dm_k/dx_j at x_j values, one row per value
    (N x p), each looked up in ``dep.edges``; the own column is exactly 1."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    s = dep.slopes[bin_index(dep.edges, x)]
    s[:, dep.j] = 1.0
    return s


def rowwise_curves(ctx: Estimation, j: int, integrate: bool = True) -> np.ndarray:
    """Every derivative curve of anchor j the row-wise way, as a K x p
    array: each row's gradient times its own slope row (``slopes_at``,
    or 1 when not integrated), then each bin's mean over its member
    rows, accumulated by the midpoint rule when ``integrate``. Column k
    is ALE (k = j) or the ACE through x_k; not integrated, LE or
    LEcross."""
    scheme = ctx.bins(j)
    g = ctx.table.values
    if integrate:
        g = g * slopes_at(ctx.dep(j), ctx.data.column(j))
    means = np.array([g[scheme.bin_of == b].mean(axis=0)
                      for b in range(scheme.k)])
    if not integrate:
        return means
    contrib = means * np.diff(scheme.edges)[:, None]
    return np.cumsum(contrib, axis=0) - contrib / 2.0
