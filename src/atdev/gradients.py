"""Per-sample partial derivatives over a dataset.

Backends with analytic gradients are used as-is; anything else goes
through central finite differences with a per-column step tied to the
column's spread. Derivatives are evaluated only at observed rows, never
on synthetic grids. A pointwise self-check compares the two routes.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .dependence import _pow2_scaled
from .errors import DataError, NumericalError
from .models import Predictor

__all__ = [
    "GradientTable",
    "gradient_table",
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
    scaled, e = _pow2_scaled(x[:, j])
    return max(1e-4 * float(np.ldexp(np.std(scaled), e)), 1e-8)


def _check_span(x: np.ndarray, j: int, h: float, label: str) -> None:
    """DataError when some row's probes x_j +- h are not 2h apart within
    FD_SPAN_RTOL, the step lost to rounding or overflowing at the column's
    magnitude: the difference quotient would be wrong."""
    # x_j +- h may pass the largest double, and h is infinite when the
    # column's spread overflows; neither span is kept.
    with np.errstate(over="ignore", invalid="ignore"):
        span = (x[:, j] + h) - (x[:, j] - h)
        kept = np.abs(span - 2.0 * h) <= FD_SPAN_RTOL * 2.0 * h
    if not np.all(kept):
        fault = ("is lost to rounding at its magnitude; pass a larger"
                 if np.all(np.isfinite(span)) else
                 "overflows at its magnitude; pass a smaller")
        raise DataError(f"finite-difference step {h:g} for column {label} "
                        f"{fault} --fd-step")


class _Probes:
    """The 2p probe blocks of central differences on x, each made when
    it is asked for: block 2k is x_k + h_k and block 2k + 1 is x_k - h_k,
    with h_k = ``steps[k]``, one step or one per row."""

    def __init__(self, x: np.ndarray, steps):
        self.x, self.steps = x, steps

    def __len__(self) -> int:
        return 2 * len(self.steps)

    def __getitem__(self, g: int) -> np.ndarray:
        k, down = divmod(g, 2)
        if down:
            return self.x[:, k] - self.steps[k]
        return self.x[:, k] + self.steps[k]


def _central_differences(model: Predictor, x: np.ndarray,
                         steps) -> np.ndarray:
    """The N x p central differences of the model at x, column k's with
    step ``steps[k]`` (one, or one per row). The probes are one sweep of
    2p blocks, x_0 + h_0, x_0 - h_0, x_1 + h_1, ..., cut into chunks
    across columns; a column's quotient is taken as soon as its down
    block arrives."""
    g = np.empty(x.shape)
    blocks = model.sweep(x, np.repeat(np.arange(x.shape[1]), 2),
                         _Probes(x, steps))
    with closing(blocks):
        for k in range(x.shape[1]):
            # up minus down, neither held past its column
            d = np.subtract(next(blocks), next(blocks), out=g[:, k])
            d /= 2.0 * steps[k]
            if not np.all(np.isfinite(d)):
                bad = int(np.flatnonzero(~np.isfinite(d))[0])
                raise NumericalError(
                    f"non-finite derivative at row {bad}, column {k}")
    return g


def gradient_table(model: Predictor, d: Dataset | np.ndarray,
                   h: float | None = None) -> GradientTable:
    """All partials at once; finite differences cost one sweep of 2Np
    rows, scored in the chunks the model plans (``Predictor._chunks``).
    ``h`` overrides the automatic per-column step (FD path only). A step
    that rounding loses or that overflows at some row is a DataError,
    raised before any scoring call."""
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
    return GradientTable(values=_central_differences(model, x, steps),
                         method="central_fd", steps=steps)


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
    a = model.gradient(xs)
    fd = _central_differences(model, xs, (1e-5 * (1.0 + np.abs(xs))).T)
    rel = np.abs(a - fd) / np.maximum.reduce(
        [np.abs(a), np.abs(fd), np.full_like(fd, 1e-6)])
    worst = float(rel.max())
    if worst > tol:
        raise NumericalError(
            f"analytic gradient disagrees with finite differences: "
            f"relative error {worst:.3g} > {tol:g}")
    return worst
