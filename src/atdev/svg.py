"""Static SVG rendering for curves, matrices, heat maps and bars.

Deliberately small: axes, polylines, rect grids and text labels built
from f-strings. The data files are the contract: each chart is drawn from
its ``atdev/1`` JSON payload and a title alone, behind a CLI flag, with
no styling knobs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "curve_chart",
    "matrix_chart",
    "heatmap_chart",
    "bar_chart",
]

# sizes in pixels: the curve and bar canvases, a matrix and a heat map cell
_CURVE_W, _CURVE_H = 560, 380
_BAR_W, _BAR_H = 460, 300
_MATRIX_CELL, _HEAT_CELL = 130, 56

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f7a800", "#882e72", "#777777")


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".") or "0"


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
            f'fill="{fill}" stroke="{stroke}"/>')

    def line(self, x1, y1, x2, y2, stroke="#333", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')

    def polyline(self, pts, stroke, width=1.5):
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def text(self, x, y, s, size=11, anchor="start", color="#222"):
        self.parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{color}">{_esc(s)}</text>')

    def to_string(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">\n{body}\n</svg>\n')


def _frame(cv: _Canvas, x0, y0, w, h, xlim, ylim, xlab="", ylab=""):
    cv.rect(x0, y0, w, h, fill="#fcfcfc", stroke="#999")
    cv.text(x0 + w / 2, y0 + h + 28, xlab, anchor="middle")
    cv.text(x0 - 6, y0 + h + 14, _fmt(xlim[0]), size=9, anchor="start")
    cv.text(x0 + w, y0 + h + 14, _fmt(xlim[1]), size=9, anchor="end")
    cv.text(x0 - 4, y0 + h, _fmt(ylim[0]), size=9, anchor="end")
    cv.text(x0 - 4, y0 + 9, _fmt(ylim[1]), size=9, anchor="end")
    if ylim[0] < 0 < ylim[1]:
        fy = y0 + h * (1 - (0 - ylim[0]) / (ylim[1] - ylim[0]))
        cv.line(x0, fy, x0 + w, fy, stroke="#ccc")


def _scaled(c: dict, x0, y0, w, h, xlim, ylim):
    """A curve payload's points in canvas coordinates."""
    gx = x0 + np.subtract(c["grid"], xlim[0]) / (xlim[1] - xlim[0]) * w
    gy = y0 + h - np.subtract(c["values"], ylim[0]) / (ylim[1] - ylim[0]) * h
    return list(zip(gx, gy))


def _limits(curves: list[dict]) -> tuple[tuple[float, float], tuple[float, float]]:
    xs = np.concatenate([c["grid"] for c in curves])
    ys = np.concatenate([c["values"] for c in curves])
    xlim = (float(xs.min()), float(xs.max()))
    lo, hi = float(ys.min()), float(ys.max())
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    return xlim, (lo - pad, hi + pad)


def curve_chart(payload: dict, title: str) -> str:
    """The payload's ``curves`` (label: curve) on shared axes, a legend."""
    curves = payload["curves"]
    cv = _Canvas(_CURVE_W, _CURVE_H)
    x0, y0 = 52, 34
    w, h = _CURVE_W - x0 - 16, _CURVE_H - y0 - 52
    xlim, ylim = _limits(list(curves.values()))
    cv.text(_CURVE_W / 2, 20, title, size=13, anchor="middle")
    _frame(cv, x0, y0, w, h, xlim, ylim)
    for idx, (lab, c) in enumerate(curves.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        cv.polyline(_scaled(c, x0, y0, w, h, xlim, ylim), color)
        cv.line(x0 + 8, y0 + 12 + 14 * idx, x0 + 28, y0 + 12 + 14 * idx,
                stroke=color, width=2)
        cv.text(x0 + 33, y0 + 16 + 14 * idx, lab, size=10)
    return cv.to_string()


def matrix_chart(payload: dict, title: str) -> str:
    """Small-multiples grid of the p x p matrix ``cells``; row = derivative
    variable, column = conditioning variable."""
    names, cells, size = payload["names"], payload["cells"], _MATRIX_CELL
    p = len(names)
    pad, top = 46, 30
    width = pad + p * size + 10
    height = top + p * size + 34
    cv = _Canvas(width, height)
    cv.text(width / 2, 18, title, size=13, anchor="middle")
    _, ylim = _limits([c for row in cells for c in row])
    for i in range(p):
        cv.text(pad - 6, top + i * size + size / 2, names[i],
                size=10, anchor="end")
        for j in range(p):
            x0 = pad + j * size + 4
            y0 = top + i * size + 4
            w = h = size - 10
            if i == 0:
                cv.text(x0 + w / 2, top - 6, names[j], size=10,
                        anchor="middle")
            cell = cells[i][j]
            xlim = (float(np.min(cell["grid"])), float(np.max(cell["grid"])))
            cv.rect(x0, y0, w, h, fill="#fcfcfc", stroke="#aaa")
            if ylim[0] < 0 < ylim[1]:
                fy = y0 + h * (1 - (0 - ylim[0]) / (ylim[1] - ylim[0]))
                cv.line(x0, fy, x0 + w, fy, stroke="#ddd")
            color = _PALETTE[0] if i == j else _PALETTE[1]
            cv.polyline(_scaled(cell, x0, y0, w, h, xlim, ylim), color,
                        width=1.2)
    return cv.to_string()


def _signed_color(v: float) -> str:
    # -1 blue, 0 white, +1 red
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        r, g, b = 255, int(255 * (1 - v)), int(255 * (1 - v))
    else:
        r, g, b = int(255 * (1 + v)), int(255 * (1 + v)), 255
    return f"rgb({r},{g},{b})"


def _heat_color(frac: float) -> str:
    # 0 near-black, 1 bright yellow
    frac = max(0.0, min(1.0, frac))
    r = int(40 + 215 * frac)
    g = int(20 + 200 * frac)
    b = int(60 * (1 - frac))
    return f"rgb({r},{g},{b})"


def heatmap_chart(payload: dict, title: str) -> str:
    """Colored grid of the payload's p x p ``values``; signed scale is
    blue-white-red over [-1, 1], nonnegative is dark-to-bright over [0, max]."""
    names, scale, values = payload["names"], payload["scale"], payload["values"]
    p, cell = len(names), _HEAT_CELL
    pad, top = 52, 34
    cv = _Canvas(pad + p * cell + 12, top + p * cell + 30)
    cv.text((pad + p * cell) / 2, 18, title, size=13, anchor="middle")
    vmax = float(np.max(values)) if scale == "nonnegative" else 1.0
    for i in range(p):
        cv.text(pad - 6, top + i * cell + cell / 2 + 4, names[i],
                size=10, anchor="end")
        cv.text(pad + i * cell + cell / 2, top + p * cell + 14, names[i],
                size=10, anchor="middle")
        for j in range(p):
            v = float(values[i][j])
            fill = _signed_color(v) if scale == "signed" \
                else _heat_color(v / vmax if vmax > 0 else 0.0)
            cv.rect(pad + j * cell, top + i * cell, cell, cell, fill=fill,
                    stroke="#fff")
            dark = abs(v) < 0.55 * vmax if scale == "nonnegative" else abs(v) < 0.6
            cv.text(pad + j * cell + cell / 2, top + i * cell + cell / 2 + 4,
                    f"{v:.2g}", size=9, anchor="middle",
                    color="#eee" if dark and scale == "nonnegative" else "#222")
    return cv.to_string()


def bar_chart(payload: dict, title: str) -> str:
    """One bar per name of the payload's nonnegative ``values``."""
    names, values = payload["names"], payload["values"]
    cv = _Canvas(_BAR_W, _BAR_H)
    x0, y0 = 52, 34
    w, h = _BAR_W - x0 - 16, _BAR_H - y0 - 52
    vmax = float(np.max(values)) if len(values) and np.max(values) > 0 else 1.0
    cv.text(_BAR_W / 2, 20, title, size=13, anchor="middle")
    cv.rect(x0, y0, w, h, fill="#fcfcfc", stroke="#999")
    cv.text(x0 - 4, y0 + 9, f"{vmax:.3g}", size=9, anchor="end")
    cv.text(x0 - 4, y0 + h, "0", size=9, anchor="end")
    slot = w / max(1, len(names))
    for idx, (name, v) in enumerate(zip(names, values)):
        bh = h * float(v) / vmax
        cv.rect(x0 + idx * slot + slot * 0.18, y0 + h - bh, slot * 0.64, bh,
                fill=_PALETTE[0])
        cv.text(x0 + idx * slot + slot / 2, y0 + h + 14, name, size=10,
                anchor="middle")
    return cv.to_string()
