"""Per-sample partial derivatives over a dataset.

Backends with analytic gradients are used as-is; anything else goes
through central finite differences with a per-column step tied to the
column's spread. Derivatives are evaluated only at observed rows, never
on synthetic grids. A pointwise self-check compares the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .dependence import DependenceModel
from .errors import DataError, NumericalError
from .models import Predictor

__all__ = [
    "GradientTable",
    "gradient_table",
    "total_derivatives",
    "fd_step",
    "check_gradient",
]


def _rows(d: Dataset | np.ndarray) -> np.ndarray:
    if isinstance(d, Dataset):
        return d.matrix()
    return np.asarray(d, dtype=np.float64)


@dataclass(frozen=True)
class GradientTable:
    """All p partials at the observed rows, one column per variable.

    Built once and shared: curve estimators and the squared-derivative
    importance read the same numbers.
    """

    values: np.ndarray  # N x p
    method: str  # "analytic" or "central_fd"
    steps: np.ndarray | None = None  # per-column h when method is central_fd


def fd_step(x: np.ndarray, j: int) -> float:
    """Central-difference step for column j: 1e-4 of its spread, floored
    so constant columns still get a usable step."""
    return max(1e-4 * float(np.std(x[:, j])), 1e-8)


def _fd_column(model: Predictor, x: np.ndarray, j: int,
               h: float | np.ndarray) -> np.ndarray:
    """Central differences along column j; ``h`` is one step or one per row."""
    up = x.copy()
    dn = x.copy()
    up[:, j] += h
    dn[:, j] -= h
    d = (model.predict(up) - model.predict(dn)) / (2.0 * h)
    if not np.all(np.isfinite(d)):
        bad = int(np.flatnonzero(~np.isfinite(d))[0])
        raise NumericalError(f"non-finite derivative at row {bad}, column {j}")
    return d


def gradient_table(model: Predictor, d: Dataset | np.ndarray,
                   h: float | None = None) -> GradientTable:
    """All partials at once; finite differences cost 2p scoring passes.
    ``h`` overrides the automatic per-column step (FD path only)."""
    x = _rows(d)
    if model.has_analytic_gradient:
        g = model.gradient(x)
        if not np.all(np.isfinite(g)):
            raise NumericalError("non-finite analytic gradient")
        return GradientTable(values=g, method="analytic")
    p = x.shape[1]
    if h is None:
        steps = np.array([fd_step(x, j) for j in range(p)])
    else:
        steps = np.full(p, float(h))
    g = np.column_stack([_fd_column(model, x, j, steps[j]) for j in range(p)])
    return GradientTable(values=g, method="central_fd", steps=steps)


def total_derivatives(model: Predictor, d: Dataset | np.ndarray, j: int,
                      dep: DependenceModel,
                      table: GradientTable | None = None) -> np.ndarray:
    """Total derivative along the dependence structure anchored at j:
    own partial plus every cross partial weighted by the conditional-mean
    slope dm_k/dx_j at that row's x_j. This is the row sum of the
    integrand G * S that the binned curve estimators average."""
    x = _rows(d)
    if dep.j != j:
        raise DataError(f"dependence model anchored at {dep.j}, expected {j}")
    if table is None:
        table = gradient_table(model, d)
    return (table.values * dep.slopes_at(x[:, j])).sum(axis=1)


def check_gradient(model: Predictor, d: Dataset | np.ndarray, rows: int = 100,
                   tol: float = 1e-4, seed: int = 0) -> float:
    """Compare analytic partials against pointwise central differences on
    a row sample; returns the worst relative error and raises if it
    exceeds ``tol``.

    The probe step scales with the coordinate, h = 1e-5 (1 + |x|), and
    the relative error is floored to keep near-zero partials from
    dominating: |a - fd| / max(|a|, |fd|, 1e-6).
    """
    if not model.has_analytic_gradient:
        raise NumericalError("check_gradient needs an analytic backend")
    x = _rows(d)
    rng = np.random.default_rng(seed)
    take = rng.choice(len(x), size=min(rows, len(x)), replace=False)
    xs = x[take]
    analytic = model.gradient(xs)
    worst = 0.0
    for j in range(x.shape[1]):
        fd = _fd_column(model, xs, j, 1e-5 * (1.0 + np.abs(xs[:, j])))
        a = analytic[:, j]
        rel = np.abs(a - fd) / np.maximum.reduce(
            [np.abs(a), np.abs(fd), np.full_like(fd, 1e-6)])
        worst = max(worst, float(rel.max()))
    if worst > tol:
        raise NumericalError(
            f"analytic gradient disagrees with finite differences: "
            f"relative error {worst:.3g} > {tol:g}")
    return worst
