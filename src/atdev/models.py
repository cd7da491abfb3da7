"""Model backends behind one Predictor interface.

Three families: exact polynomial models from a small catalog (used as
ground truth in tests and simulations), a single-hidden-layer tanh
network trained here with early stopping, and an external scoring
process driven over a line protocol. Analytic and MLP backends expose
closed-form gradients; the external backend is scored only, so callers
fall back to finite differences.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import tempfile
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from .data import Dataset, _FORMAT_ROWS, _check_index, _format_rows
from .errors import DataError, ModelError, NumericalError

__all__ = [
    "Predictor",
    "AnalyticModel",
    "MlpModel",
    "ExternalModel",
    "FitReport",
    "catalog_model",
    "custom_model",
    "CATALOG_IDS",
    "fit_mlp",
    "wrap_external",
]


# Rows per model evaluation. ``predict`` and ``gradient`` work through
# blocks of at most this many rows (fewer where a backend sets
# ``_block_rows``), and a sweep scores its rows in chunks of this many; an
# external scorer is sent at most twice this many a spawn.
ROW_BUDGET = 32_768


class Predictor:
    """Scoring interface: ``predict`` on an N x p matrix returns N finite
    values; backends with ``has_analytic_gradient`` also implement
    ``gradient`` returning N x p partial derivatives."""

    p: int
    has_analytic_gradient: ClassVar[bool] = False
    _block_rows: int | None = None  # None: ROW_BUDGET

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise ModelError("backend has no analytic gradient")

    def partial_dependence(self, x: np.ndarray, j: int,
                           grid: np.ndarray) -> np.ndarray:
        """Mean prediction over the rows of x with column j set to each
        grid value: one ``sweep`` block a value (closed forms override)."""
        return np.array([block.mean() for block in
                         self.sweep(x, j, _grid_values(grid))])

    def sweep(self, x: np.ndarray, j, values):
        """Generate the N scores of each block g: x with column ``j[g]``
        set to ``values[g]``. j is one column for every block or one a
        block; values holds K blocks of N values, or of one value each,
        as a K x N or K x 1 array or any sequence of K such rows, which
        may make each block when it is asked for. A block is made when
        its first chunk is scored and dropped before the next is made, so
        one sweep can hold many columns' blocks without holding them at
        once.
        The swept rows are scored in the chunks ``_chunks`` plans, cut
        across blocks, by ``_score_swept``: the two steps backends differ
        in. The arguments are checked before anything is scored; x is
        never written."""
        x, columns = self._check_sweep(x, j, values)
        n = len(x)
        chunks = self._chunks(len(columns) * n)
        block = _Latest(lambda g: np.asarray(values[g], dtype=np.float64))
        parts = []
        # scores first, so that _score_swept runs to its end
        for scores, (r0, r1) in zip(
                self._score_swept(x, columns, block, chunks), chunks):
            for g, i0, i1 in _segments(n, r0, r1):
                parts.append(scores[g * n + i0 - r0:g * n + i1 - r0])
                if i1 == n:
                    yield np.concatenate(parts)
                    parts = []

    def _chunks(self, rows: int) -> list[tuple[int, int]]:
        """The chunks ``(r0, r1)`` a sweep of ``rows`` swept rows is scored
        in: ``ROW_BUDGET`` rows each, the last one short, so a chunk
        starts at a multiple of any block length that divides
        ``ROW_BUDGET``."""
        return [(r, min(r + ROW_BUDGET, rows))
                for r in range(0, rows, ROW_BUDGET)]

    def _score_swept(self, x: np.ndarray, columns: list, block, chunks):
        """The scores of each chunk ``(r0, r1)`` of swept rows, in order:
        the chunk is built from contiguous slices of x, with column
        ``columns[g]`` of block g's rows set from ``block(g)``, and
        predicted."""
        buf = np.empty((min(ROW_BUDGET, len(columns) * len(x)), self.p))
        for r0, r1 in chunks:
            for g, i0, i1 in _segments(len(x), r0, r1):
                o = r0 - len(x) * g
                buf[i0 - o:i1 - o] = x[i0:i1]
                buf[i0 - o:i1 - o, columns[g]] = _block_rows(block(g), i0, i1)
            yield self.predict(buf[:r1 - r0])

    def _check_sweep(self, x: np.ndarray, j, values):
        """x, checked, and the column of each of values' K blocks: x a
        model input of at least one row, j an integer in [0, p) or K of
        them, and each block N or 1 finite values. Each block is made
        and dropped in turn."""
        x = self._check_input(x)
        if len(x) == 0:
            raise ModelError("a column sweep needs at least one row")
        columns = [j] * len(values) if np.ndim(j) == 0 else list(j)
        if len(columns) != len(values):
            raise ModelError(f"{len(columns)} swept columns for "
                             f"{len(values)} blocks")
        for c in columns:
            _check_index(c, self.p, ModelError)
        for g in range(len(values)):
            _check_block(values[g], len(x))
        return x, columns

    def _blocked(self, x: np.ndarray, evaluate, width: int | None = None
                 ) -> np.ndarray:
        """Check x, then fill one preallocated output (N values, or N x
        width) with ``evaluate`` of each of x's blocks of at most
        ``_block_rows`` rows (by default ``ROW_BUDGET``)."""
        x = self._check_input(x)
        out = np.empty(len(x) if width is None else (len(x), width))
        step = self._block_rows or ROW_BUDGET
        for s in range(0, len(x), step):
            out[s:s + step] = evaluate(x[s:s + step])
        return out

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.p:
            raise ModelError(f"input width {x.shape} does not match arity p={self.p}")
        if not np.all(np.isfinite(x)):
            raise NumericalError("non-finite value in model input")
        return x


def _segments(n: int, r0: int, r1: int):
    """``(g, i0, i1)`` for each block g with swept rows in [r0, r1),
    in order: rows i0 .. i1 - 1 of x, swept rows g N + i0 .. g N + i1 - 1."""
    for g in range(r0 // n, (r1 - 1) // n + 1):
        yield g, max(r0 - g * n, 0), min(r1 - g * n, n)


def _check_block(values, n: int) -> None:
    """ModelError unless a block's values are N or 1 numbers,
    NumericalError unless they are finite."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) not in (1, n):
        raise ModelError(f"swept values must be K x {n} or K x 1, got a "
                         f"block of shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NumericalError("non-finite swept value")


def _block_rows(values: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """A block's values for its rows i0 .. i1 - 1: one value a block is
    every row's."""
    return values if len(values) == 1 else values[i0:i1]


class _Latest:
    """``make(key)`` for the last key asked for only: the value of the
    previous key is dropped before a new key's is made, so callers that
    hold no value of their own between calls hold one at a time."""

    def __init__(self, make):
        self.make, self.key, self.value = make, None, None

    def __call__(self, key):
        if key != self.key:
            self.key = self.value = None
            self.value = self.make(key)
            self.key = key
        return self.value


def _grid_values(grid: np.ndarray) -> np.ndarray:
    """A partial-dependence grid as sweep values, one a block: K x 1."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1:
        raise ModelError(f"grid must be 1-D, got shape {grid.shape}")
    return grid[:, None]


# ---------------------------------------------------------------------------
# Polynomial models
# ---------------------------------------------------------------------------

# A term is (coefficient, {variable index: power}); the model is the sum.
Term = tuple[float, dict[int, int]]


@dataclass(frozen=True)
class AnalyticModel(Predictor):
    """Polynomial in the predictors, with exact gradients."""

    p: int
    terms: tuple[Term, ...]
    model_id: str = "custom"
    has_analytic_gradient: ClassVar[bool] = True

    def __post_init__(self):
        if not self.terms:
            raise ModelError("polynomial model needs at least one term")
        for _, powers in self.terms:
            for j, a in powers.items():
                if not (0 <= j < self.p):
                    raise ModelError(f"term references variable {j}, arity is {self.p}")
                if a < 1:
                    raise ModelError("term powers must be >= 1 (constants: empty dict)")

    # A term may overflow at a finite row. Its value is inf or nan then,
    # and the caller's finite check raises; numpy's warning is not shown.
    def predict(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self._blocked(x, self._predict_rows)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self._blocked(x, self._gradient_rows, self.p)

    def _predict_rows(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(len(x))
        for coef, powers in self.terms:
            t = np.full(len(x), coef)
            for j, a in powers.items():
                t *= x[:, j] ** a
            out += t
        return out

    def _gradient_rows(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros_like(x)
        for coef, powers in self.terms:
            for j, a in powers.items():
                t = np.full(len(x), coef * a)
                t *= x[:, j] ** (a - 1)
                for m, b in powers.items():
                    if m != j:
                        t *= x[:, m] ** b
                g[:, j] += t
        return g

    def partial_dependence(self, x: np.ndarray, j: int,
                           grid: np.ndarray) -> np.ndarray:
        """Exact in one pass over the rows: as a polynomial in x_j,
        f = sum_a x_j^a c_a(x_-j), so the sweep average at z is
        sum_a z^a mean(c_a)."""
        grid = _grid_values(grid)
        x, _ = self._check_sweep(x, j, grid)
        grid = grid[:, 0]
        c: dict[int, float] = {}
        for coef, powers in self.terms:
            rest = 1.0
            for m, b in powers.items():
                if m != j:
                    rest = rest * x[:, m] ** b
            a = powers.get(j, 0)
            c[a] = c.get(a, 0.0) + coef * float(np.mean(rest))
        values = np.zeros(len(grid))
        for a in sorted(c):
            values += c[a] * grid ** a
        return values


def _t(coef: float, *pairs: tuple[int, int]) -> Term:
    return (coef, {j: a for j, a in pairs})


_CATALOG: dict[str, tuple[int, tuple[Term, ...]]] = {
    # f = x1 * x2
    "multiplicative": (2, (_t(1.0, (0, 1), (1, 1)),)),
    # f = x1^2 + x1 x2
    "quad_plus_interaction": (2, (_t(1.0, (0, 2)), _t(1.0, (0, 1), (1, 1)))),
    # f = x1 + x2^2 + x3^3 + 0.8 x2 x4  (five inputs, x5 unused)
    "case_61": (5, (_t(1.0, (0, 1)), _t(1.0, (1, 2)), _t(1.0, (2, 3)),
                    _t(0.8, (1, 1), (3, 1)))),
    # f = x1^2 + x2  (three inputs, x3 unused)
    "case_621": (3, (_t(1.0, (0, 2)), _t(1.0, (1, 1)))),
    # f = x1 + x2 + x1 x2  (three inputs, x3 unused)
    "case_622": (3, (_t(1.0, (0, 1)), _t(1.0, (1, 1)), _t(1.0, (0, 1), (1, 1)))),
    # f = x1 + (3 x2^2 - 1)/2 + (4 x3^3 - 3 x3)/2 + 0.8 x2 x4  (x5 unused)
    "case_623": (5, (_t(1.0, (0, 1)), _t(1.5, (1, 2)), _t(-0.5),
                     _t(2.0, (2, 3)), _t(-1.5, (2, 1)),
                     _t(0.8, (1, 1), (3, 1)))),
}

CATALOG_IDS = ("additive_linear",) + tuple(_CATALOG)


def catalog_model(model_id: str, coeffs: list[float] | None = None,
                  p: int | None = None) -> AnalyticModel:
    """Build a catalog polynomial by id.

    ``additive_linear`` takes its slope vector through ``coeffs`` (default
    all ones at arity ``p``); the fixed-form entries take no coefficients.
    """
    if model_id == "additive_linear":
        if coeffs is None:
            if p is None:
                raise ModelError("additive_linear needs coeffs or an arity")
            coeffs = [1.0] * p
        terms = tuple(_t(float(b), (j, 1)) for j, b in enumerate(coeffs) if b != 0.0)
        if not terms:
            terms = (_t(0.0, (0, 1)),)
        return AnalyticModel(p=len(coeffs), terms=terms, model_id=model_id)
    if model_id not in _CATALOG:
        raise ModelError(f"unknown catalog model {model_id!r}")
    if coeffs is not None:
        raise ModelError(f"catalog model {model_id!r} takes no coefficients")
    arity, terms = _CATALOG[model_id]
    return AnalyticModel(p=arity, terms=terms, model_id=model_id)


def custom_model(p: int, terms: list[tuple[float, dict[int, int]]]) -> AnalyticModel:
    """Polynomial from an explicit term list: [(coef, {var: power}), ...]."""
    return AnalyticModel(p=p, terms=tuple((float(c), dict(pw)) for c, pw in terms))


# ---------------------------------------------------------------------------
# Single-hidden-layer network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlpModel(Predictor):
    """tanh hidden layer, linear output: f(x) = w2 . tanh(W1 x + b1) + b2.

    The gradient is exact: d f / d x = W1^T (sech^2(W1 x + b1) * w2).
    Weights act on raw (unstandardized) inputs. ``predict`` and
    ``gradient`` run 1024-row blocks, each with one hidden-layer array
    updated in place (0.33 MB at H=40), small enough for OpenBLAS to run
    on the calling thread; memory does not grow with N beyond the output.
    """

    w1: np.ndarray  # H x p
    b1: np.ndarray  # H
    w2: np.ndarray  # H
    b2: float
    has_analytic_gradient: ClassVar[bool] = True
    _block_rows = 1024

    @property
    def p(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._blocked(x, self._predict_rows)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._blocked(x, self._gradient_rows, self.p)

    def _hidden(self, x: np.ndarray) -> np.ndarray:
        """tanh(W1 x + b1) for each row, in one array."""
        z = x @ self.w1.T
        z += self.b1
        return np.tanh(z, out=z)

    def _predict_rows(self, x: np.ndarray) -> np.ndarray:
        return self._hidden(x) @ self.w2 + self.b2

    def _gradient_rows(self, x: np.ndarray) -> np.ndarray:
        # (1 - a^2) * w2, computed in a's own array
        a = self._hidden(x)
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
        a *= self.w2
        return a @ self.w1

    def to_dict(self) -> dict:
        return {
            "schema": "atdev/1",
            "kind": "mlp",
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2,
        }

    @staticmethod
    def from_dict(payload: dict) -> "MlpModel":
        try:
            model = MlpModel(
                w1=np.asarray(payload["w1"], dtype=np.float64),
                b1=np.asarray(payload["b1"], dtype=np.float64),
                w2=np.asarray(payload["w2"], dtype=np.float64),
                b2=float(payload["b2"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"bad weights payload: {exc}") from exc
        w1 = model.w1
        if w1.ndim != 2 or min(w1.shape) < 1:
            raise ModelError(f"bad weights payload: w1 has shape {w1.shape}, "
                             f"expected H x p with H, p >= 1")
        for name in ("b1", "w2"):
            shape = getattr(model, name).shape
            if shape != (model.hidden,):
                raise ModelError(f"bad weights payload: {name} has shape "
                                 f"{shape}, expected ({model.hidden},)")
        if not all(np.all(np.isfinite(w)) for w in
                   (model.w1, model.b1, model.w2, model.b2)):
            raise ModelError("bad weights payload: non-finite weight")
        return model

    @staticmethod
    def load(path: str | Path) -> "MlpModel":
        path = Path(path)
        if not path.exists():
            raise ModelError(f"no such weights file: {path}")
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ModelError(f"bad weights file {path}: {exc}") from exc
        return MlpModel.from_dict(payload)


@dataclass
class FitReport:
    train_mse: float
    valid_mse: float
    valid_r2: float
    epochs_run: int
    train_history: list[float] = field(default_factory=list)
    valid_history: list[float] = field(default_factory=list)


def _mlp_views(flat: np.ndarray, h: int, p: int) -> tuple[np.ndarray, ...]:
    """w1 (h x p), b1, w2 and a one-element b2 as views of one flat
    vector of h p + 2 h + 1 values."""
    hp = h * p
    return (flat[:hp].reshape(h, p), flat[hp:hp + h],
            flat[hp + h:hp + 2 * h], flat[hp + 2 * h:])


def fit_mlp(train: Dataset, valid: Dataset, hidden: int = 40,
            max_epochs: int = 600, patience: int = 20, seed: int = 0,
            learning_rate: float = 1e-2, batch_size: int = 256,
            ) -> tuple[MlpModel, FitReport]:
    """Train the network with Adam, mini-batches and early stopping on the
    validation MSE; returns the weights from the best validation epoch.

    Inputs and response are standardized internally for optimization; the
    returned weights are folded back to raw units, so ``predict`` and
    ``gradient`` operate on the original scale.

    Layout of the loop: w1, b1, w2 and b2 are views of one flat parameter
    vector and their gradients views of a second, so Adam runs once per
    step over all of them; each epoch gathers its shuffled rows once and
    takes every mini-batch as a contiguous slice; the per-epoch losses
    score the network's own 1024-row blocks. Every product keeps its
    operands and its order of summation, so a fixed seed gives
    bit-identical weights, the same as earlier versions that kept one
    array per layer.
    """
    if train.response is None or valid.response is None:
        raise DataError("fit_mlp needs response columns on both datasets")
    if train.p != valid.p:
        raise DataError("train/valid arity mismatch")

    x = train.matrix()
    y = np.asarray(train.response)
    xv = valid.matrix()
    yv = np.asarray(valid.response)
    if np.ptp(yv) == 0 and np.ptp(y) > 0:
        raise DataError(f"constant validation response ({len(yv)} row(s)): "
                        "R^2 is undefined; use a larger validation split")

    mx, sx = x.mean(axis=0), x.std(axis=0)
    sx = np.where(sx > 0, sx, 1.0)
    my, sy = y.mean(), y.std()
    if sy == 0:
        sy = 1.0
    xs, ys = (x - mx) / sx, (y - my) / sy
    xvs, yvs = (xv - mx) / sx, (yv - my) / sy

    rng = np.random.default_rng(seed)
    p, h = train.p, hidden
    limit = np.sqrt(6.0 / (p + h))
    # The network on standardized inputs. Its b2 is a one-element view,
    # so that Adam's update of theta reaches every weight.
    theta = np.zeros(h * p + 2 * h + 1)
    net = MlpModel(*_mlp_views(theta, h, p))
    net.w1[...] = rng.uniform(-limit, limit, size=(h, p))
    net.w2[...] = rng.uniform(-limit, limit, size=h) / np.sqrt(h)
    grad = np.empty_like(theta)
    g_w1, g_b1, g_w2, g_b2 = _mlp_views(grad, h, p)
    m_adam = np.zeros_like(theta)
    v_adam = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = learning_rate
    step = 0

    n = len(xs)
    best_valid = np.inf
    best = theta.copy()
    best_epoch = 0
    since_best = 0
    train_hist: list[float] = []
    valid_hist: list[float] = []

    def mse(xm, ym):
        # 1024-row blocks on one thread; a row's BLAS sum depends on its
        # place in the call, and blocks at multiples of 1024 keep its bits
        pred = net.predict(xm)
        pred -= ym
        return float(np.mean(np.square(pred, out=pred)))

    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(n)
        xo, yo = xs[order], ys[order]
        for start in range(0, n, batch_size):
            xb = xo[start:start + batch_size]
            nb = len(xb)
            a = net._hidden(xb)
            err = a @ net.w2 + net.b2
            err -= yo[start:start + batch_size]
            # d(mean err^2)/d(pred) = 2 err / nb
            g_out = 2.0 * err / nb
            g_w2[...] = a.T @ g_out
            g_b2[0] = g_out.sum()
            # (g_out outer w2) * (1 - a^2), the last factor in a's array
            g_z = g_out[:, None] * net.w2
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
            g_z *= a
            g_w1[...] = g_z.T @ xb
            g_b1[...] = g_z.sum(axis=0)
            step += 1
            m_adam += (1 - beta1) * (grad - m_adam)
            v_adam += (1 - beta2) * (grad * grad - v_adam)
            mhat = m_adam / (1 - beta1 ** step)
            vhat = v_adam / (1 - beta2 ** step)
            theta -= lr * mhat / (np.sqrt(vhat) + eps)

        tr_mse = mse(xs, ys)
        va_mse = mse(xvs, yvs)
        if not (np.isfinite(tr_mse) and np.isfinite(va_mse)):
            raise NumericalError(
                f"non-finite training loss at epoch {epoch}; "
                f"last finite epoch {epoch - 1}")
        train_hist.append(tr_mse)
        valid_hist.append(va_mse)
        if va_mse < best_valid - 1e-12:
            best_valid = va_mse
            best = theta.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best == max(1, patience // 2):
                lr *= 0.5
            if since_best >= patience:
                break

    w1b, b1b, w2b, b2b = _mlp_views(best, h, p)
    # Fold standardization into raw-space weights.
    w1_raw = w1b / sx
    b1_raw = b1b - w1b @ (mx / sx)
    w2_raw = w2b * sy
    b2_raw = float(b2b[0] * sy + my)
    model = MlpModel(w1=w1_raw, b1=b1_raw, w2=w2_raw, b2=b2_raw)

    best_valid_raw = best_valid * sy * sy
    report = FitReport(
        train_mse=float(train_hist[best_epoch - 1] * sy * sy),
        valid_mse=best_valid_raw,
        # "constant" by the split check's exact rule: np.var of identical
        # values need not be 0 (30 copies of 3.7 give 7.9e-31)
        valid_r2=(0.0 if np.ptp(yv) == 0
                  else 1.0 - best_valid_raw / float(np.var(yv))),
        epochs_run=len(train_hist),
        train_history=[v * sy * sy for v in train_hist],
        valid_history=[v * sy * sy for v in valid_hist],
    )
    return model, report


# ---------------------------------------------------------------------------
# External scoring process
# ---------------------------------------------------------------------------

# Scorers one call keeps running at once: the next request is written and
# its scorer started while the previous answer is awaited and parsed.
_IN_FLIGHT = 2
_TIMEOUT_S = 600


class ExternalModel(Predictor):
    """Scores rows through a child process, one spawn per chunk of a
    sweep, whose chunks may cross from one block, and one swept column,
    to the next. A sweep of R rows goes out as ⌈R / 2 ``ROW_BUDGET``⌉
    requests, a count rounded up to a multiple of ``_IN_FLIGHT`` when R
    exceeds ``ROW_BUDGET``, whose sizes differ by at most one row
    (``_chunks``). ``predict`` is the one block of a sweep that sets
    column 0 to itself, so every request, observed rows included, is
    assembled from each cell of x outside the swept column formatted
    once.

    Wire format: a header line ``N p``, then N rows of p space-separated
    decimals (Python ``repr`` of each float64) on stdin; the child must
    answer with exactly N lines of one decimal each and exit 0. Anything
    else, output that is not UTF-8 text included, is a protocol error.
    The request, the answer and the child's stderr all pass through
    temporary files, so no child blocks on a full pipe. Concurrent calls
    share no state: each has its own scorers and files. One call may
    have two children running: the next chunk's scorer starts while the
    previous one's answer is awaited.
    """

    def __init__(self, cmd: list[str], p: int):
        if not cmd:
            raise ModelError("empty external command")
        if p < 1:
            raise ModelError("arity must be >= 1")
        self.cmd = list(cmd)
        self.p = p

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        if len(x) == 0:
            return np.empty(0)
        # the one block, unpacked, so the sweep runs to its end
        (scores,) = self.sweep(x, 0, x[None, :, 0])
        return scores

    def _chunks(self, rows: int) -> list[tuple[int, int]]:
        """m requests cut at ``rows i // m``: m is the fewest that hold
        at most 2 ``ROW_BUDGET`` rows each, since every spawn costs a
        start-up; the cap bounds the scorer's memory, which grows with
        its request. Above ``ROW_BUDGET`` rows, m is rounded up to a
        multiple of ``_IN_FLIGHT``, so that every scorer slot gets an
        equal share of the sweep."""
        m = -(-rows // (2 * ROW_BUDGET))
        if rows > ROW_BUDGET:
            m = -(-m // _IN_FLIGHT) * _IN_FLIGHT
        return [(rows * i // m, rows * (i + 1) // m) for i in range(m)]

    def _score_swept(self, x: np.ndarray, columns: list, block, chunks):
        """One spawn a chunk, written without building it: x is formatted
        once per swept column, with a NUL for that column, when the
        column's first block is written, and the previous column's text
        is dropped first; a block's rows are a slice of that text with
        each NUL filled by the block's decimals. Up to ``_IN_FLIGHT``
        scorers run at once; when one fails, the others are killed and
        reaped before the error propagates."""
        text = _Latest(partial(_row_template, x))
        running: deque[_Scorer] = deque()
        try:
            for r0, r1 in chunks:
                if len(running) == _IN_FLIGHT:
                    yield running.popleft().scores()
                running.append(_Scorer(self.cmd, r1 - r0, partial(
                    _write_swept, p=self.p, rows=r1 - r0,
                    template=lambda g: text(columns[g]), block=block,
                    segments=_segments(len(x), r0, r1))))
            while running:
                yield running.popleft().scores()
        finally:
            for child in running:
                child.close()


class _Scorer:
    """One scorer process on one request of ``rows`` rows."""

    def __init__(self, cmd: list[str], rows: int, write):
        self.cmd, self.rows, self.proc = cmd, rows, None
        self.stdout = tempfile.TemporaryFile()
        self.stderr = tempfile.TemporaryFile()
        try:
            with tempfile.TemporaryFile() as stdin:
                write(stdin)
                stdin.seek(0)
                self.proc = subprocess.Popen(cmd, stdin=stdin, stdout=self.stdout,
                                             stderr=self.stderr)
        except FileNotFoundError as exc:
            self.close()
            raise ModelError(f"cannot spawn external scorer {cmd[0]!r}: {exc}") from exc
        except BaseException:
            self.close()
            raise
        self.deadline = time.monotonic() + _TIMEOUT_S

    def scores(self) -> np.ndarray:
        """Wait for the scorer and parse its answer; the files are closed
        and the child reaped whatever happens."""
        try:
            try:
                _wait(self.proc, max(0.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:
                raise ModelError(f"external scorer timed out: {self.cmd}") from exc
            if self.proc.returncode != 0:
                self.stderr.seek(0)
                stderr = self.stderr.read().decode(errors="replace")
                raise ModelError(f"external scorer exited {self.proc.returncode}: "
                                 f"{stderr.strip()[:500]}")
            self.stdout.seek(0)
            values = _parse_scores(self.stdout.read(), self.rows)
        finally:
            self.close()
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NumericalError(f"external scorer returned non-finite value at row {bad}")
        return values

    def close(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.stdout.close()
        self.stderr.close()


def _wait(proc: subprocess.Popen, timeout: float) -> None:
    """``proc.wait(timeout)``, woken by the child's exit through a pidfd
    where the platform has one: Popen's own timed wait polls, and sleeps
    up to 50 ms between looks."""
    try:
        fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        proc.wait(timeout)
        return
    try:
        if not select.select([fd], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired(proc.args, timeout)
    finally:
        os.close(fd)
    proc.wait()


def _row_template(x: np.ndarray, j: int) -> tuple[bytearray, np.ndarray]:
    """The request body of x with a NUL byte in place of column j, and the
    offset of each row's first byte plus the body's length (N + 1 int64
    offsets): with the NUL replaced by a decimal v, rows i0 .. i1 - 1 are
    the text of those rows with column j set to v. Every cell outside
    column j is formatted once, ``_FORMAT_ROWS`` rows at a time, so only
    the body and its offsets grow with N."""
    row = " ".join(["%r"] * j + ["\0"] + ["%r"] * (x.shape[1] - 1 - j)) + "\n"
    body = bytearray()
    starts = np.zeros(len(x) + 1, dtype=np.int64)
    for s in range(0, len(x), _FORMAT_ROWS):
        rest = np.delete(x[s:s + _FORMAT_ROWS], j, axis=1)
        block = "".join(_format_rows(rest, row)).encode()
        ends = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
        starts[s + 1:s + 1 + len(ends)] = ends + (len(body) + 1)
        body += block
    return body, starts


def _write_swept(f, p: int, rows: int, template, block, segments) -> None:
    """Write a request of ``rows`` swept rows: the header, then for each
    segment ``(g, i0, i1)`` rows i0 .. i1 - 1 of block g, from its row
    template ``template(g)`` and its values ``block(g)``. Neither is held
    past its segment, so a caller that makes them one at a time holds
    one of each."""
    f.write(f"{rows} {p}\n".encode())
    for g, i0, i1 in segments:
        _write_rows(f, template(g), block(g), i0, i1)


def _write_rows(f, template: tuple[bytearray, np.ndarray],
                values: np.ndarray, i0: int, i1: int) -> None:
    """Write rows i0 .. i1 - 1 of a block, one line of ``repr`` decimals
    a row. A block of one value replaces every NUL with its decimal;
    per-row values fill the NULs of ``_FORMAT_ROWS`` rows at a time in
    one format (float decimals hold no other ``%``, and ``%a`` of a float
    is its ``repr``)."""
    body, starts = template
    if len(values) == 1:
        f.write(body[starts[i0]:starts[i1]].replace(
            b"\0", repr(float(values[0])).encode()))
        return
    for s in range(i0, i1, _FORMAT_ROWS):
        e = min(s + _FORMAT_ROWS, i1)
        f.write(body[starts[s]:starts[e]].replace(b"\0", b"%a")
                % tuple(values[s:e].tolist()))


def _parse_scores(stdout: bytes, n: int) -> np.ndarray:
    """The n scores in a scorer's answer. One vectorized parse that
    builds no token list; when it stops short of the end, counts wrong
    or reads a value that is not finite, a token-by-token pass reads
    the answer as ``float`` does and names the first problem. Bytes
    that are not UTF-8 stay in their token and fail it."""
    # numpy reads text that is all whitespace as [-1.0], and reads NaN
    # unlike float: without its sign, and from "nan(1)" too
    if not stdout.isspace():
        try:
            with warnings.catch_warnings():
                # older numpy warns, rather than raises, when it stops short
                warnings.simplefilter("error", DeprecationWarning)
                values = np.fromstring(stdout, dtype=np.float64, sep=" ")
            if len(values) == n and np.isfinite(values).all():
                return values
        except (DeprecationWarning, ValueError):
            pass
    out = stdout.decode(errors="replace").split()
    if len(out) != n:
        raise ModelError(
            f"external scorer protocol error: expected {n} values, "
            f"got {len(out)}")
    values = np.empty(n)
    for i, tok in enumerate(out):
        try:
            values[i] = float(tok)
        except ValueError:
            raise ModelError(
                f"external scorer protocol error: row {i} is not a "
                f"number: {tok!r}") from None
    return values


def wrap_external(cmd: list[str], p: int) -> ExternalModel:
    """Predictor over a scoring subprocess (no analytic gradient)."""
    return ExternalModel(cmd=cmd, p=p)
