"""Dataset container, CSV ingestion, quantile binning and curve centering.

Everything downstream (estimators, dependence fits, importance summaries)
works off the three types defined here: an immutable column-major
``Dataset``, a ``BinScheme`` discretizing one variable, and an
``EffectCurve`` holding one estimated 1-D curve sampled at bin midpoints.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "CurveKind",
    "Dataset",
    "BinScheme",
    "EffectCurve",
    "load_csv",
    "save_csv",
    "quantile_bins",
    "bin_index",
    "center",
]


class CurveKind(str, Enum):
    PD = "PD"
    MARGINAL = "Marginal"
    ALE = "ALE"
    ACE = "ACE"
    ATDEV = "ATDEV"
    LE = "LE"
    LE_CROSS = "LEcross"


@dataclass(frozen=True)
class Dataset:
    """Column-major numeric table with unique variable names.

    ``columns`` is a list of p float vectors of identical length N;
    ``response`` is an optional N-vector. All values are finite. The rows
    double as the empirical predictor distribution used by every
    conditional-expectation estimate in the package.
    """

    names: list[str]
    columns: list[np.ndarray]
    response: np.ndarray | None = None

    def __post_init__(self):
        if len(self.names) != len(self.columns):
            raise DataError("names and columns length mismatch")
        if not self.names:
            raise DataError("dataset has no predictor columns")
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate variable names")
        if any(not n for n in self.names):
            raise DataError("empty variable name")
        n = len(self.columns[0])
        if n < 1:
            raise DataError("dataset has no rows")
        for name, col in zip(self.names, self.columns):
            if len(col) != n:
                raise DataError(f"column {name!r} has length {len(col)}, expected {n}")
            if not np.all(np.isfinite(col)):
                raise DataError(f"non-finite value in column {name!r}")
        if self.response is not None:
            if len(self.response) != n:
                raise DataError("response length mismatch")
            if not np.all(np.isfinite(self.response)):
                raise DataError("non-finite value in response")

    @property
    def p(self) -> int:
        return len(self.columns)

    @property
    def n(self) -> int:
        return len(self.columns[0])

    def matrix(self) -> np.ndarray:
        """Rows-by-variables copy of the predictors (N x p)."""
        return np.column_stack(self.columns)

    def column(self, j: int) -> np.ndarray:
        return self.columns[j]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"no variable named {name!r}") from None


@dataclass(frozen=True)
class BinScheme:
    """Quantile bins of one variable: K+1 edges, K midpoints, and the bin
    index of every dataset row.

    Bins are half-open ``[e_i, e_{i+1})`` with the last bin closed. The
    first edge is the observed minimum (the accumulation lower bound for
    the integrated curves) and the last the observed maximum.
    """

    j: int
    edges: np.ndarray
    bin_of: np.ndarray  # per-row bin index, length N
    counts: np.ndarray  # per-bin member count, length K

    @property
    def k(self) -> int:
        return len(self.edges) - 1

    @property
    def midpoints(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Bin index for arbitrary values; values outside the edge range
        are clamped into the first/last bin."""
        return bin_index(self.edges, x)


def bin_index(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the half-open bin ``[e_i, e_{i+1})`` holding each value,
    the last bin closed; values outside the edges are clamped into the
    first/last bin."""
    return np.clip(np.searchsorted(edges, x, side="right") - 1,
                   0, len(edges) - 2)


@dataclass(frozen=True)
class EffectCurve:
    """One 1-D effect curve sampled on a strictly increasing grid.

    ``counts`` carries the empirical weight of each grid point (bin member
    counts), which is what centering and variance summaries integrate
    against. ``k`` is the row variable for cross curves (ACE, LEcross) and
    None otherwise.
    """

    kind: CurveKind
    j: int
    grid: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    centered: bool = False
    k: int | None = None

    def __post_init__(self):
        if not (len(self.grid) == len(self.values) == len(self.counts)):
            raise DataError("grid/values/counts length mismatch")
        if len(self.grid) and np.any(np.diff(self.grid) <= 0):
            raise DataError("curve grid must be strictly increasing")
        if np.any(self.counts < 0):
            raise DataError("negative bin count")

    def weighted_mean(self) -> float:
        total = float(self.counts.sum())
        if total == 0:
            return float(np.mean(self.values))
        return float(np.dot(self.values, self.counts) / total)


def center(curve: EffectCurve) -> EffectCurve:
    """Subtract the count-weighted mean so the curve averages to zero
    against the empirical distribution of x_j. Idempotent."""
    return replace(curve, values=curve.values - curve.weighted_mean(), centered=True)


def quantile_bins(d: Dataset, j: int, k: int) -> BinScheme:
    """Equal-count bins of column j with edges at empirical quantiles.

    Duplicate edges produced by ties are merged (reducing the bin count),
    and any residual empty bin is merged into its right neighbour, so
    every surviving bin has at least one member. A column whose values
    fill fewer than two bins, such as a 0/1 indicator, is rejected.
    """
    if k < 2:
        raise DataError("bin count must be >= 2")
    x = d.column(j)
    edges = np.quantile(x, np.linspace(0.0, 1.0, k + 1))
    edges = np.unique(edges)  # sorted, exact duplicates merged
    if len(edges) < 2:
        raise DataError(f"degenerate variable {d.names[j]!r}: constant column")
    edges, bin_of, counts = _merge_empty(edges, x)
    if len(counts) < 2:
        # One bin holds no difference to accumulate: every derivative
        # curve would be a single point and its variance a silent 0.
        raise DataError(
            f"variable {d.names[j]!r} cannot be binned: its values fill "
            f"only {len(counts)} quantile bin, at least 2 are needed")
    return BinScheme(j=j, edges=edges, bin_of=bin_of, counts=counts)


def _merge_empty(edges: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Merge every empty bin into its right neighbour: keep the first edge
    # and the right edge of each non-empty bin, and renumber the rows.
    # The first and last bins hold the minimum and the maximum, so
    # neither is ever empty.
    bin_of = bin_index(edges, x)
    counts = np.bincount(bin_of, minlength=len(edges) - 1)
    full = counts > 0
    renumber = np.cumsum(full) - 1
    return (np.r_[edges[0], edges[1:][full]], renumber[bin_of],
            counts[full].astype(np.int64))


def load_csv(path: str | Path, has_response: bool = False,
             response_name: str | None = None) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    With ``has_response``, the response column is picked by name
    (defaulting to the last column). Any cell that does not parse as a
    finite number is reported with its row and column location.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        # A quoted header cell may span lines, which skiprows=1 would miss.
        columns = _fast_columns(path, len(header)) if reader.line_num == 1 else None
        if columns is None:
            columns = _parse_cells(path, reader, header)
    response = None
    if has_response:
        name = response_name if response_name is not None else header[-1]
        if name not in header:
            raise DataError(f"{path}: no response column named {name!r}")
        ridx = header.index(name)
        response = columns.pop(ridx)
        header = header[:ridx] + header[ridx + 1:]
    return Dataset(names=header, columns=columns, response=response)


def _fast_columns(path: Path, ncol: int) -> list[np.ndarray] | None:
    """The body below a one-line header parsed by np.loadtxt, or None
    when it needs the cell-by-cell parser: it is empty, fails to parse,
    or holds a row of another width, a blank line (which np.loadtxt
    skips and the CSV reader reports as a short row) or a non-finite
    value."""
    rows = _count_lines(path) - 1
    if rows < 1:
        return None
    try:
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                          comments=None)
    except ValueError:
        return None
    if body.shape != (rows, ncol) or not np.all(np.isfinite(body)):
        return None
    return list(np.ascontiguousarray(body.T))


def _count_lines(path: Path) -> int:
    """Number of lines, counting an unterminated last line."""
    count, last = 0, b""
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            count += block.count(b"\n")
            last = block
    return count + (1 if last and not last.endswith(b"\n") else 0)


def _parse_cells(path: Path, reader, header: list[str]) -> list[np.ndarray]:
    """Cell-by-cell parse of the remaining rows, naming the row and
    column of the first cell that is not a finite number."""
    ncol = len(header)
    raw: list[list[float]] = [[] for _ in range(ncol)]
    for rownum, row in enumerate(reader, start=2):
        if len(row) != ncol:
            raise DataError(f"{path}: row {rownum} has {len(row)} cells, expected {ncol}")
        for colnum, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {rownum}, column {header[colnum]!r}: "
                    f"cannot parse {cell!r}") from None
            if not math.isfinite(v):
                raise DataError(
                    f"{path}: row {rownum}, column {header[colnum]!r}: "
                    f"non-finite value {cell!r}")
            raw[colnum].append(v)
    return [np.asarray(c, dtype=np.float64) for c in raw]


def save_csv(d: Dataset, path: str | Path, response_name: str = "y") -> None:
    """Write a Dataset back to CSV. Cells use shortest round-trip float
    formatting, so load(save(d)) reproduces d bit-exactly. The file is
    staged beside the target and renamed into place."""
    path = Path(path)
    names = list(d.names)
    cols = list(d.columns)
    if d.response is not None:
        names.append(response_name)
        cols.append(d.response)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(d.n):
            writer.writerow([repr(float(c[i])) for c in cols])
    os.replace(tmp, path)
