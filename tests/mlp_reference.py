"""The training loop of ``fit_mlp`` as it was written before its
parameters moved into one flat vector: one array per layer, Adam run per
array, a fresh gather per mini-batch and whole-set losses. Kept verbatim
as the reference that the current loop must match bit for bit, apart
from its R^2, which calls a validation response constant by the same
exact rule (np.ptp(yv) == 0) as the loop."""

import numpy as np

from atdev import Dataset
from atdev.errors import DataError, NumericalError
from atdev.models import FitReport, MlpModel


def reference_fit_mlp(train: Dataset, valid: Dataset, hidden: int = 40,
                      max_epochs: int = 600, patience: int = 20, seed: int = 0,
                      learning_rate: float = 1e-2, batch_size: int = 256,
                      ) -> tuple[MlpModel, FitReport]:
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

    best_valid_raw = best_valid * sy * sy
    report = FitReport(
        train_mse=float(train_hist[best_epoch - 1] * sy * sy),
        valid_mse=best_valid_raw,
        valid_r2=(0.0 if np.ptp(yv) == 0
                  else 1.0 - best_valid_raw / float(np.var(yv))),
        epochs_run=len(train_hist),
        train_history=[v * sy * sy for v in train_hist],
        valid_history=[v * sy * sy for v in valid_hist],
    )
    return model, report
