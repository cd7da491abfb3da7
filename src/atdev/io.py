"""Serialization: versioned JSON payloads, the fixed curve CSV schema,
and atomic file writes.

Every JSON document carries ``"schema": "atdev/1"``, and floats are
written at full repr precision. Files are staged to a temp name in the
target directory and renamed into place, so readers never see partial
content; a failed write removes its temp file. JSON is encoded as it is
written.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .data import EffectCurve, _format_rows, _staged
from .effects import EffectMatrix
from .errors import DataError, NumericalError
from .importance import ImportanceReport

SCHEMA = "atdev/1"

__all__ = [
    "SCHEMA",
    "bars_to_dict",
    "write_json",
    "write_text_atomic",
    "curve_to_dict",
    "curves_to_csv",
    "matrix_to_dict",
    "heatmap_to_dict",
    "report_to_dict",
    "report_to_csv",
]


def write_text_atomic(path: str | Path, text: str) -> Path:
    path = Path(path)
    with _staged(path) as f:
        f.write(text)
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    """``json.dumps(payload, indent=1)`` and a newline, streamed to the
    file: the document is never held whole in memory. A 1-D float64
    array anywhere in the payload is written as its ``tolist()`` would
    be, a block of values per format operation, and a list or tuple of
    finite Python floats in one format operation. A NaN or infinite float
    is a NumericalError, and no file is left: JSON has no spelling for
    it. An object JSON cannot hold is a TypeError."""
    path = Path(path)
    try:
        with _staged(path) as f:
            f.writelines(_encode(payload, "\n"))
            f.write("\n")
    except ValueError as exc:
        raise NumericalError(f"{path.name}: {exc}") from None
    return path


def _encode(obj, newline: str):
    """``json.dumps(obj, indent=1)`` in pieces, for obj at the depth whose
    line break and indent is ``newline``."""
    inner = newline + " "
    nested = (dict, list, tuple, np.ndarray)
    if isinstance(obj, dict):
        yield "{"
        sep = inner
        for key, value in obj.items():
            yield sep + _key(key) + ": "
            if isinstance(value, nested):
                yield from _encode(value, inner)
            else:
                yield _scalar(value)
            sep = "," + inner
        yield newline + "}" if obj else "}"
    elif isinstance(obj, (list, tuple)) and _finite_floats(obj):
        # one format operation for the whole list
        item = "," + inner + "%r"
        yield ("[" + item[1:] + item * (len(obj) - 1) + newline + "]") \
            % tuple(obj)
    elif isinstance(obj, (list, tuple)):
        yield "["
        sep = inner
        for value in obj:
            if isinstance(value, nested):
                yield sep
                yield from _encode(value, inner)
            else:
                yield sep + _scalar(value)
            sep = "," + inner
        yield newline + "]" if obj else "]"
    elif (isinstance(obj, np.ndarray) and obj.ndim == 1
          and obj.dtype == np.float64):
        bad = np.flatnonzero(~np.isfinite(obj))
        if len(bad):
            _scalar(float(obj[bad[0]]))  # raises
        yield "["
        # each value after its separator, but the first after the bracket
        for i, text in enumerate(_format_rows(obj, "," + inner + "%r")):
            yield text[1:] if i == 0 else text
        yield newline + "]" if len(obj) else "]"
    else:
        yield _scalar(obj)


def _finite_floats(items) -> bool:
    """Whether items is not empty and holds finite Python floats only
    (no subclass such as np.float64, whose repr differs)."""
    return (len(items) > 0 and set(map(type, items)) == {float}
            and all(map(math.isfinite, items)))


def _scalar(obj) -> str:
    """A string, number, boolean or null as json spells it."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    return json.dumps(obj)


def _key(key) -> str:
    """A dict key as json spells it: a string, or an int, float, bool or
    None turned into one."""
    if not isinstance(key, (str, int, float, type(None))):
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")
    return json.dumps(key if isinstance(key, str) else _scalar(key))


# ---------------------------------------------------------------------------
# Effect curves
# ---------------------------------------------------------------------------


def curve_to_dict(curve: EffectCurve, meta: dict | None = None) -> dict:
    payload = {
        "schema": SCHEMA,
        "kind": curve.kind.value,
        "j": curve.j,
        "k": curve.k,
        "grid": curve.grid.tolist(),
        "values": curve.values.tolist(),
        "counts": curve.counts.tolist(),
        "centered": curve.centered,
    }
    if meta:
        payload["meta"] = meta
    return payload


def curves_to_csv(curves: list[EffectCurve]) -> str:
    """Fixed flat schema: kind, j, k, grid, value, count. The k cell is
    empty for own-effect curves. Full-precision floats."""
    parts = ["kind,j,k,grid,value,count\n"]
    for c in curves:
        row = f"{c.kind.value},{c.j},{'' if c.k is None else c.k},%r,%r,%r\n"
        cells = np.array([c.grid, c.values, c.counts], dtype=np.float64).T
        parts.extend(_format_rows(cells, row))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Effect matrices
# ---------------------------------------------------------------------------


def matrix_to_dict(em: EffectMatrix, scatter: list | None = None,
                   histograms: list | None = None) -> dict:
    """Serialize an effect matrix. Optional LE extras ride along: per-cell
    raw derivative scatters and per-variable derivative histograms."""
    payload = {
        "schema": SCHEMA,
        "kind": em.kind.value,
        "names": list(em.names),
        "cells": [[curve_to_dict(c) for c in row] for row in em.cells],
        "totals": None if em.totals is None
        else [curve_to_dict(t) for t in em.totals],
    }
    if scatter is not None:
        payload["scatter"] = scatter
    if histograms is not None:
        payload["derivative_histograms"] = histograms
    return payload


# ---------------------------------------------------------------------------
# Heat maps, bar charts, importance reports
# ---------------------------------------------------------------------------


def heatmap_to_dict(names, values: np.ndarray, scale: str) -> dict:
    """A heat map's p x p display values. Scale 'signed' spans [-1, 1]
    (correlations, symmetric); 'nonnegative' spans [0, max] (component
    importances may be asymmetric)."""
    if scale not in ("signed", "nonnegative"):
        raise DataError(f"unknown heat map scale {scale!r}")
    v = np.asarray(values)
    if v.shape != (len(names), len(names)):
        raise DataError("heat map shape does not match names")
    if scale == "signed" and not np.allclose(v, v.T, atol=1e-12):
        raise DataError("signed heat map must be symmetric")
    if scale == "nonnegative" and np.any(v < 0):
        raise DataError("nonnegative heat map has negative entries")
    return {
        "schema": SCHEMA,
        "names": list(names),
        "values": v.tolist(),
        "scale": scale,
    }


def bars_to_dict(label: str, names, values: np.ndarray) -> dict:
    """Labeled nonnegative values for a bar chart."""
    if len(names) != len(values):
        raise DataError("bar names/values length mismatch")
    return {
        "schema": SCHEMA,
        "label": label,
        "names": list(names),
        "values": np.asarray(values).tolist(),
    }


def report_to_dict(r: ImportanceReport) -> dict:
    return {
        "schema": SCHEMA,
        "names": list(r.names),
        "v": r.v.tolist(),
        "v_plus": r.v_plus.tolist(),
        "dgsm": r.dgsm.tolist(),
    }


def report_to_csv(r: ImportanceReport) -> str:
    """Flat cell form: row variable, column variable, cell variance."""
    cells = "".join(f"{i},{j},%r\n" for i in range(r.p) for j in range(r.p))
    v = np.asarray(r.v, dtype=np.float64).reshape(1, -1)
    return "i,j,v_ij\n" + "".join(_format_rows(v, cells))


