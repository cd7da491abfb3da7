"""``ols_line`` as it was written before it fitted every line on
power-of-two-scaled columns: the unscaled moments, with the scaled fit
only as a fallback where they overflow. Kept verbatim as the reference
that the one-path fit must match bit for bit."""

import math

import numpy as np

from atdev.errors import NumericalError


def reference_ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y on x; slope 0 when x is
    constant. When the variance of x or the covariance overflows, the
    line is fitted on x and y scaled by exact powers of two and scaled
    back. A slope or intercept that is not finite is a NumericalError."""
    with np.errstate(all="ignore"):
        vx = float(np.var(x))
        if vx == 0.0:
            return 0.0, float(np.mean(y))
        cxy = float(np.cov(x, y, bias=True)[0, 1])
        if math.isfinite(vx) and math.isfinite(cxy):
            slope = cxy / vx
            intercept = float(np.mean(y) - slope * np.mean(x))
        else:
            # Scaled below 1 in magnitude, no moment overflows; y - a - b x
            # scales by 2^ey exactly.
            ex, ey = (int(np.frexp(np.max(np.abs(v)))[1]) for v in (x, y))
            xs, ys = np.ldexp(x, -ex), np.ldexp(y, -ey)
            slope = np.cov(xs, ys, bias=True)[0, 1] / np.var(xs)
            intercept = float(np.ldexp(np.mean(ys) - slope * np.mean(xs), ey))
            slope = float(np.ldexp(slope, ey - ex))
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise NumericalError("least-squares line of y on x is not finite")
    return slope, intercept
