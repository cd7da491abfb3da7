"""Shared test utilities: polynomial fits on curve grids, support masks,
curve comparison, dataset slicing, estimation contexts with a given
dependence fit, scaled polynomials, and reading written JSON files."""

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
