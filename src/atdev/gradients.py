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


# Largest relative error of a realized central-difference span
# (x + h) - (x - h) against 2h that a finite-difference table accepts.
FD_SPAN_RTOL = 1e-6


def fd_step(x: np.ndarray, j: int) -> float:
    """Central-difference step for column j: 1e-4 of its spread, floored
    so constant columns still get a usable step.

    The spread is taken of the column divided by the power of two nearest
    its largest |x|, then scaled back, so it is finite for a column near
    the largest double. Scaling by a power of two is exact: wherever the
    column's own spread is finite, the step is the same double."""
    col = x[:, j]
    e = np.frexp(np.max(np.abs(col)))[1]
    sd = np.ldexp(np.std(np.ldexp(col, -e)), e)
    return max(1e-4 * float(sd), 1e-8)


def _check_span(x: np.ndarray, j: int, h: float, label: str) -> None:
    """DataError when x_j +- h rounds so that some row's probes are not
    2h apart within FD_SPAN_RTOL: the step is lost at the column's
    magnitude and the difference quotient would be wrong."""
    # x_j +- h may pass the largest double, and h is infinite when the
    # column's spread overflows; neither span is kept.
    with np.errstate(over="ignore", invalid="ignore"):
        span = (x[:, j] + h) - (x[:, j] - h)
        kept = np.abs(span - 2.0 * h) <= FD_SPAN_RTOL * 2.0 * h
    if not np.all(kept):
        raise DataError(
            f"finite-difference step {h:g} for column {label} is lost to "
            f"rounding at its magnitude; pass a larger --fd-step")


def _fd_column(model: Predictor, x: np.ndarray, j: int,
               h: float | np.ndarray) -> np.ndarray:
    """Central differences along column j; ``h`` is one step or one per row.
    The up and down probes are scored together in one 2N-row call."""
    n = len(x)
    probes = np.concatenate([x, x])
    probes[:n, j] += h
    probes[n:, j] -= h
    f = model.predict(probes)
    d = (f[:n] - f[n:]) / (2.0 * h)
    if not np.all(np.isfinite(d)):
        bad = int(np.flatnonzero(~np.isfinite(d))[0])
        raise NumericalError(f"non-finite derivative at row {bad}, column {j}")
    return d


def gradient_table(model: Predictor, d: Dataset | np.ndarray,
                   h: float | None = None) -> GradientTable:
    """All partials at once; finite differences cost p scoring calls of
    2N rows each. ``h`` overrides the automatic per-column step (FD path
    only). A step that rounding loses at some row is a DataError, raised
    before any scoring call."""
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
    for j in range(p):
        _check_span(x, j, steps[j],
                    repr(d.names[j]) if isinstance(d, Dataset) else str(j))
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
