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
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .data import Dataset
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


# Rows per stacked ``predict`` call in the generic partial-dependence
# sweep: 32768 rows of p=5 float64 are 1.3 MB, so memory stays flat while
# an external scorer is spawned once per several grid values.
PD_ROW_BUDGET = 32_768


class Predictor:
    """Scoring interface: ``predict`` on an N x p matrix returns N finite
    values; backends with ``has_analytic_gradient`` also implement
    ``gradient`` returning N x p partial derivatives."""

    p: int
    has_analytic_gradient: bool = False

    def predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise ModelError("backend has no analytic gradient")

    def partial_dependence(self, x: np.ndarray, j: int,
                           grid: np.ndarray) -> np.ndarray:
        """Mean prediction over the rows of x with column j set to each
        grid value in turn. This default stacks copies of x, one per grid
        value, into ``predict`` calls of at most ``PD_ROW_BUDGET`` rows
        (at least one grid value per call); backends with a closed form
        override it. x itself is never written."""
        x = np.asarray(x, dtype=np.float64)
        grid = np.asarray(grid, dtype=np.float64)
        n = len(x)
        per_call = max(1, PD_ROW_BUDGET // max(n, 1))
        values = np.empty(len(grid))
        for s in range(0, len(grid), per_call):
            block = grid[s:s + per_call]
            tile = np.tile(x, (len(block), 1))
            tile[:, j] = np.repeat(block, n)
            values[s:s + len(block)] = (
                self.predict(tile).reshape(len(block), n).mean(axis=1))
        return values

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.p:
            raise ModelError(f"input width {x.shape} does not match arity p={self.p}")
        if not np.all(np.isfinite(x)):
            raise NumericalError("non-finite value in model input")
        return x


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
    has_analytic_gradient: bool = True

    def __post_init__(self):
        if not self.terms:
            raise ModelError("polynomial model needs at least one term")
        for _, powers in self.terms:
            for j, a in powers.items():
                if not (0 <= j < self.p):
                    raise ModelError(f"term references variable {j}, arity is {self.p}")
                if a < 1:
                    raise ModelError("term powers must be >= 1 (constants: empty dict)")

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        out = np.zeros(len(x))
        for coef, powers in self.terms:
            t = np.full(len(x), coef)
            for j, a in powers.items():
                t *= x[:, j] ** a
            out += t
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
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
        x = self._check_input(x)
        grid = np.asarray(grid, dtype=np.float64)
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

    def scaled(self, c: float) -> "AnalyticModel":
        """Same polynomial with every coefficient multiplied by c."""
        return AnalyticModel(
            p=self.p,
            terms=tuple((c * coef, powers) for coef, powers in self.terms),
            model_id=f"{self.model_id}*{c:g}",
        )


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
    Weights act on raw (unstandardized) inputs.
    """

    w1: np.ndarray  # H x p
    b1: np.ndarray  # H
    w2: np.ndarray  # H
    b2: float
    has_analytic_gradient: bool = True

    @property
    def p(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        a = np.tanh(x @ self.w1.T + self.b1)
        return a @ self.w2 + self.b2

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        a = np.tanh(x @ self.w1.T + self.b1)
        return ((1.0 - a * a) * self.w2) @ self.w1

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

    def save(self, path: str | Path) -> None:
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.to_dict()))
        os.replace(tmp, path)

    @staticmethod
    def load(path: str | Path) -> "MlpModel":
        path = Path(path)
        if not path.exists():
            raise ModelError(f"no such weights file: {path}")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
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

    def to_dict(self) -> dict:
        return {
            "train_mse": self.train_mse,
            "valid_mse": self.valid_mse,
            "valid_r2": self.valid_r2,
            "epochs_run": self.epochs_run,
            "train_history": self.train_history,
            "valid_history": self.valid_history,
        }


def fit_mlp(train: Dataset, valid: Dataset, hidden: int = 40,
            max_epochs: int = 600, patience: int = 20, seed: int = 0,
            learning_rate: float = 1e-2, batch_size: int = 256,
            ) -> tuple[MlpModel, FitReport]:
    """Train the network with Adam, mini-batches and early stopping on the
    validation MSE; returns the weights from the best validation epoch.

    Inputs and response are standardized internally for optimization; the
    returned weights are folded back to raw units, so ``predict`` and
    ``gradient`` operate on the original scale. Fixed seed gives
    bit-identical weights.
    """
    if train.response is None or valid.response is None:
        raise DataError("fit_mlp needs response columns on both datasets")
    if train.p != valid.p:
        raise DataError("train/valid arity mismatch")

    x = train.matrix()
    y = np.asarray(train.response)
    xv = valid.matrix()
    yv = np.asarray(valid.response)

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
    w1 = rng.uniform(-limit, limit, size=(h, p))
    b1 = np.zeros(h)
    w2 = rng.uniform(-limit, limit, size=h) / np.sqrt(h)
    b2 = 0.0

    params = [w1, b1, w2, np.array([b2])]
    m_adam = [np.zeros_like(q) for q in params]
    v_adam = [np.zeros_like(q) for q in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = learning_rate
    step = 0

    n = len(xs)
    best_valid = np.inf
    best = [q.copy() for q in params]
    best_epoch = 0
    since_best = 0
    train_hist: list[float] = []
    valid_hist: list[float] = []

    def forward_mse(xm, ym):
        a = np.tanh(xm @ params[0].T + params[1])
        pred = a @ params[2] + params[3][0]
        return float(np.mean((pred - ym) ** 2))

    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = xs[idx], ys[idx]
            nb = len(idx)
            z = xb @ params[0].T + params[1]
            a = np.tanh(z)
            pred = a @ params[2] + params[3][0]
            err = pred - yb
            # d(mean err^2)/d(pred) = 2 err / nb
            g_out = 2.0 * err / nb
            g_w2 = a.T @ g_out
            g_b2 = np.array([g_out.sum()])
            g_a = np.outer(g_out, params[2])
            g_z = g_a * (1.0 - a * a)
            g_w1 = g_z.T @ xb
            g_b1 = g_z.sum(axis=0)
            step += 1
            for q, g, mq, vq in zip(params, [g_w1, g_b1, g_w2, g_b2], m_adam, v_adam):
                mq += (1 - beta1) * (g - mq)
                vq += (1 - beta2) * (g * g - vq)
                mhat = mq / (1 - beta1 ** step)
                vhat = vq / (1 - beta2 ** step)
                q -= lr * mhat / (np.sqrt(vhat) + eps)

        tr_mse = forward_mse(xs, ys)
        va_mse = forward_mse(xvs, yvs)
        if not (np.isfinite(tr_mse) and np.isfinite(va_mse)):
            raise NumericalError(
                f"non-finite training loss at epoch {epoch}; "
                f"last finite epoch {epoch - 1}")
        train_hist.append(tr_mse)
        valid_hist.append(va_mse)
        if va_mse < best_valid - 1e-12:
            best_valid = va_mse
            best = [q.copy() for q in params]
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best == max(1, patience // 2):
                lr *= 0.5
            if since_best >= patience:
                break

    w1b, b1b, w2b, b2b = best
    # Fold standardization into raw-space weights.
    w1_raw = w1b / sx
    b1_raw = b1b - w1b @ (mx / sx)
    w2_raw = w2b * sy
    b2_raw = float(b2b[0] * sy + my)
    model = MlpModel(w1=w1_raw, b1=b1_raw, w2=w2_raw, b2=b2_raw)

    valid_var = float(np.var(yv))
    best_valid_raw = best_valid * sy * sy
    report = FitReport(
        train_mse=float(train_hist[best_epoch - 1] * sy * sy),
        valid_mse=best_valid_raw,
        valid_r2=1.0 - best_valid_raw / valid_var if valid_var > 0 else 0.0,
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
    """Scores rows through a child process, one spawn per batch.

    Wire format: a header line ``N p``, then N rows of p space-separated
    decimals (Python ``repr`` of each float64) on stdin; the child must
    answer with exactly N lines of one decimal each and exit 0. Anything
    else, output that is not UTF-8 text included, is a protocol error.
    The request, the answer and the child's stderr all pass through
    temporary files, so no child blocks on a full pipe. Calls are
    serialized with a lock so the facade is thread-safe, but one call may
    have two children running: the next batch's scorer starts while the
    previous one's answer is awaited.
    """

    has_analytic_gradient = False

    def __init__(self, cmd: list[str], p: int, batch_size: int = 100_000):
        if not cmd:
            raise ModelError("empty external command")
        if p < 1:
            raise ModelError("arity must be >= 1")
        self.cmd = list(cmd)
        self.p = p
        self.batch_size = batch_size
        self._lock = threading.Lock()

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        batches = [x[s:s + self.batch_size]
                   for s in range(0, len(x), self.batch_size)]
        spawns = ((None, len(b), partial(_write_rows, x=b)) for b in batches)
        with self._lock:
            chunks = [scores for _, scores in self._scores(spawns)]
        return np.concatenate(chunks) if chunks else np.empty(0)

    def partial_dependence(self, x: np.ndarray, j: int,
                           grid: np.ndarray) -> np.ndarray:
        """The base-class sweep, spawn for spawn and byte for byte, without
        its tiles: each cell of x is formatted once per call, and each grid
        value's rows are one join of those pieces around its decimal."""
        x = self._check_input(x)
        grid = np.asarray(grid, dtype=np.float64)
        if not np.all(np.isfinite(grid)):
            raise NumericalError("non-finite value in model input")
        n = len(x)
        if n == 0:
            return super().partial_dependence(x, j, grid)
        j = range(self.p)[j]
        pieces = _row_pieces(x, j)
        per_call = max(1, PD_ROW_BUDGET // n)
        b = self.batch_size

        def spawns():
            # The base class's predict calls: per_call grid values a call,
            # each call split into batch_size rows a spawn.
            for s in range(0, len(grid), per_call):
                block = grid[s:s + per_call].tolist()
                rows = len(block) * n
                for r in range(0, rows, b):
                    end = min(r + b, rows)
                    yield ((s, len(block), end == rows), end - r,
                           partial(_write_swept, pieces=pieces, p=self.p,
                                   block=block, rows=(r, end)))

        values = np.empty(len(grid))
        parts = []
        with self._lock:
            for (s, k, last), scores in self._scores(spawns()):
                parts.append(scores)
                if last:
                    values[s:s + k] = (np.concatenate(parts)
                                       .reshape(k, n).mean(axis=1))
                    parts = []
        return values

    def _scores(self, spawns):
        """Score each ``(tag, rows, write)`` request in order, yielding
        ``(tag, scores)``. Up to ``_IN_FLIGHT`` scorers run at once; when
        one fails, the others are killed and reaped before the error
        propagates."""
        running: deque[tuple[object, _Scorer]] = deque()
        try:
            for tag, rows, write in spawns:
                if len(running) == _IN_FLIGHT:
                    done, child = running.popleft()
                    yield done, child.scores()
                running.append((tag, _Scorer(self.cmd, rows, write)))
            while running:
                done, child = running.popleft()
                yield done, child.scores()
        finally:
            for _, child in running:
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


# Rows formatted per ``%`` operation on the wire; bounds the size of the
# intermediate string.
_WIRE_ROWS = 4096


def _write_rows(f, x: np.ndarray) -> None:
    """Write the request (header, then one line of ``repr`` decimals per
    row) to the binary file f, a block of rows per format operation."""
    n, p = x.shape
    f.write(f"{n} {p}\n".encode())
    row = " ".join(["%r"] * p) + "\n"
    for s in range(0, n, _WIRE_ROWS):
        block = x[s:s + _WIRE_ROWS]
        f.write(((row * len(block)) % tuple(block.ravel().tolist())).encode())


def _row_pieces(x: np.ndarray, j: int) -> list[bytes]:
    """``[pre_0, suf_0 + pre_1, ..., suf_{N-1}]``, where pre_i and suf_i
    are the request text of row i before and after column j (suf_i ends
    the line), so ``v.join(pieces)`` is the body of x with column j set to
    the decimal v. Every cell outside column j is formatted once."""
    n, p = x.shape
    rest = np.delete(x, j, axis=1)
    row = " ".join(["%r"] * j + ["\0"] + ["%r"] * (p - 1 - j)) + "\n"
    pieces = [b""]
    for s in range(0, n, _WIRE_ROWS):
        block = rest[s:s + _WIRE_ROWS]
        head, *tail = ((row * len(block)) % tuple(block.ravel().tolist())
                       ).encode().split(b"\0")
        pieces[-1] += head
        pieces.extend(tail)
    return pieces


def _write_swept(f, pieces: list[bytes], p: int, block: list[float],
                 rows: tuple[int, int]) -> None:
    """Write rows [r0, r1) of x tiled once per grid value in ``block``,
    column j set to that value, as ``_write_rows`` writes the tile."""
    r0, r1 = rows
    n = len(pieces) - 1
    f.write(f"{r1 - r0} {p}\n".encode())
    for g in range(r0 // n, (r1 - 1) // n + 1):
        i0, i1 = max(r0 - g * n, 0), min(r1 - g * n, n)
        # Trim the edge pieces to rows i0 .. i1 - 1: pre_i0 follows the
        # newline of suf_{i0-1}, and suf_{i1-1} ends at its own newline.
        first = pieces[i0].rpartition(b"\n")[2]
        last = pieces[i1][:pieces[i1].index(b"\n") + 1]
        f.write(repr(block[g]).encode().join(
            [first, *pieces[i0 + 1:i1], last]))


def _parse_scores(stdout: bytes, n: int) -> np.ndarray:
    """The n scores in a scorer's answer. One vectorized parse; when it
    fails or counts wrong, a token-by-token pass names the first problem.
    Bytes that are not UTF-8 stay in their token and fail it."""
    try:
        values = np.array(stdout.split(), dtype=np.float64)
        if len(values) == n:
            return values
    except ValueError:
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


def wrap_external(cmd: list[str], p: int, batch_size: int = 100_000) -> ExternalModel:
    """Predictor over a scoring subprocess (no analytic gradient)."""
    return ExternalModel(cmd=cmd, p=p, batch_size=batch_size)
