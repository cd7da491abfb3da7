"""Dataset container, CSV ingestion, quantile binning and curve centering.

Everything downstream (estimators, dependence fits, importance summaries)
works off the three types defined here: an immutable ``Dataset`` over
one read-only row matrix, a ``BinScheme`` discretizing one variable, and an
``EffectCurve`` holding one estimated 1-D curve sampled at bin midpoints.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.lib import format as npformat

from .errors import DataError, NumericalError

# hashlib.blake2b itself: importing hashlib loads OpenSSL's libcrypto,
# a few MB of resident memory in every process. A build without it
# parses every load, as with no parse cache.
try:
    from _blake2 import blake2b
except ImportError:
    blake2b = None

__all__ = [
    "CurveKind",
    "Dataset",
    "BinScheme",
    "EffectCurve",
    "load_csv",
    "save_csv",
    "quantile_bins",
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
    """Numeric table with unique variable names.

    The predictors are one read-only C-order N x p float64 matrix that
    ``matrix()`` returns to every caller; ``columns`` holds views of its
    p columns. They are given as a list of columns (copied) or as an
    N x p array (kept as is when already C-order float64). Code that
    writes takes its own copy. ``response`` is an optional N-vector. All
    values are finite. The rows double as the empirical predictor
    distribution used by every conditional-expectation estimate in the
    package.
    """

    names: list[str]
    columns: list[np.ndarray]
    response: np.ndarray | None = None
    _x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = self.columns
        stacked = isinstance(given, np.ndarray) and given.ndim == 2
        width = given.shape[1] if stacked else len(given)
        if len(self.names) != width:
            raise DataError("names and columns length mismatch")
        if not self.names:
            raise DataError("dataset has no predictor columns")
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate variable names")
        if any(not n for n in self.names):
            raise DataError("empty variable name")
        n = len(given) if stacked else len(given[0])
        if n < 1:
            raise DataError("dataset has no rows")
        if not stacked:
            for name, col in zip(self.names, given):
                if len(col) != n:
                    raise DataError(
                        f"column {name!r} has length {len(col)}, expected {n}")
            given = np.column_stack(given)
        # a view, so that a caller's own array stays writeable
        x = np.ascontiguousarray(given, dtype=np.float64).view()
        x.flags.writeable = False
        if not np.all(np.isfinite(x)):
            bad = np.flatnonzero(~np.isfinite(x).all(axis=0))[0]
            raise DataError(f"non-finite value in column {self.names[bad]!r}")
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "columns", [x[:, j] for j in range(width)])
        if self.response is not None:
            if len(self.response) != n:
                raise DataError("response length mismatch")
            if not np.all(np.isfinite(self.response)):
                raise DataError("non-finite value in response")

    @property
    def p(self) -> int:
        return self._x.shape[1]

    @property
    def n(self) -> int:
        return self._x.shape[0]

    def matrix(self) -> np.ndarray:
        """The predictors, rows by variables (N x p): the shared read-only
        matrix, not a copy."""
        return self._x

    def column(self, j: int) -> np.ndarray:
        """Column j, a read-only view of ``matrix()``."""
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
        """a / 2 + b / 2 of each bin [a, b): halves, so a column that
        spans +-1.7e308 keeps finite midpoints where a + b overflows."""
        return self.edges[:-1] / 2.0 + self.edges[1:] / 2.0

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def means(self, columns: Iterable[np.ndarray]) -> np.ndarray:
        """Per-bin means of the N-vectors that ``columns`` yields, as a
        K x m array. They are summed one at a time, so a generator keeps
        one vector alive, not m."""
        sums = map(partial(np.bincount, self.bin_of, minlength=self.k),
                   columns)
        return np.column_stack(list(sums)) / self.counts[:, None]


@dataclass(frozen=True)
class EffectCurve:
    """One 1-D effect curve sampled on a strictly increasing grid.

    ``counts`` carries the empirical weight of each grid point (bin member
    counts), which is what centering and variance summaries integrate
    against; they must total more than 0. ``k`` is the row variable for
    cross curves (ACE, LEcross) and None otherwise. A NaN or infinite grid point or value is a
    NumericalError: an estimate that overflowed is never passed on.
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
        if not (np.all(np.isfinite(self.grid))
                and np.all(np.isfinite(self.values))):
            through = "" if self.k is None else f" through column {self.k}"
            raise NumericalError(
                f"non-finite {self.kind.value} curve of column {self.j}"
                f"{through}")
        if len(self.grid) and np.any(np.diff(self.grid) <= 0):
            raise DataError("curve grid must be strictly increasing")
        if np.any(self.counts < 0):
            raise DataError("negative bin count")
        if not self.counts.sum() > 0:
            raise DataError("curve bin counts must total more than 0")

    def weighted_mean(self) -> float:
        """Mean of the values against the counts."""
        return float(np.dot(self.values, self.counts) / self.counts.sum())

    def weighted_variance(self) -> float:
        """Variance of the values against the counts: the empirical
        distribution of the conditioning variable."""
        return float(np.dot((self.values - self.weighted_mean()) ** 2,
                            self.counts) / self.counts.sum())


def center(curve: EffectCurve) -> EffectCurve:
    """Subtract the count-weighted mean so the curve averages to zero
    against the empirical distribution of x_j. Idempotent."""
    return replace(curve, values=curve.values - curve.weighted_mean(), centered=True)


def _check_index(i, p: int, error: type[Exception] = DataError) -> None:
    """``error`` unless i is an integer column index in [0, p); a bool or
    a float is not one, and neither is a negative index."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) \
            or not 0 <= i < p:
        raise error(f"column index {i!r} is not an integer in [0, {p})")


def quantile_bins(d: Dataset, j: int, k: int) -> BinScheme:
    """Equal-count bins of column j with edges at empirical quantiles.

    Duplicate edges produced by ties are merged (reducing the bin count),
    and any residual empty bin is merged into its right neighbour, so
    every surviving bin has at least one member. A column whose values
    fill fewer than two bins, such as a 0/1 indicator, is rejected.

    One sort does the work: the edges are the quantiles of the sorted
    column (the same order statistics, so the same doubles), each bin's
    count is where its left edge falls in it, and the rows take their
    bin numbers back through the sort order.
    """
    _check_index(j, d.p)
    if k < 2:
        raise DataError("bin count must be >= 2")
    # A contiguous copy: argsort and the gather run twice as fast on it
    # as on a column view of the row matrix.
    x = np.ascontiguousarray(d.column(j))
    order = np.argsort(x)
    x = x[order]
    edges = np.quantile(x, np.linspace(0.0, 1.0, k + 1))
    edges = np.unique(edges)  # sorted, exact duplicates merged
    if len(edges) < 2:
        raise DataError(f"degenerate variable {d.names[j]!r}: constant column")
    # Bin b is [e_b, e_{b+1}), the last closed: its members start at the
    # first value >= e_b. The first and last bins hold the minimum and
    # the maximum, so neither is ever empty; an empty one between them
    # loses its right edge and joins its right neighbour.
    starts = np.searchsorted(x, edges[1:-1], side="left")
    counts = np.diff(np.r_[0, starts, len(x)])
    full = counts > 0
    edges, counts = np.r_[edges[0], edges[1:][full]], counts[full]
    if len(counts) < 2:
        # One bin holds no difference to accumulate: every derivative
        # curve would be a single point and its variance a silent 0.
        raise DataError(
            f"variable {d.names[j]!r} cannot be binned: its values fill "
            f"only {len(counts)} quantile bin, at least 2 are needed")
    bin_of = np.empty(len(x), dtype=np.int64)
    bin_of[order] = np.repeat(np.arange(len(counts)), counts)
    return BinScheme(j=j, edges=edges, bin_of=bin_of, counts=counts)


def load_csv(path: str | Path, has_response: bool = False,
             response_name: str | None = None) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    With ``has_response``, the response column is picked by name
    (defaulting to the last column). Any cell that does not parse as a
    finite number is reported with its row and column location. A UTF-8
    byte-order mark before the header is dropped; bytes that are not
    UTF-8 are a ``DataError``.

    A file is parsed once per content: its parsed body is kept in ``$XDG_CACHE_HOME/atdev/csv-1/`` (``~/.cache/atdev/csv-1/``
    by default) under the blake2b digest of the file's bytes, and a later
    load of the same bytes reads it from there. The directory keeps the
    8 most recently used bodies. A cache that cannot be written, or an
    entry that is truncated or not an array of the header's width, is
    passed over and the file parsed, so the result is the same with or
    without the cache.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            lines, digest, stamp = _scan(path)
            entry = _cache_entry(digest)
            body = None if entry is None else _read_entry(
                entry, len(header), lines - 1)
            parsed = body is None
            if parsed:
                # A quoted header cell may span lines, which skiprows=1
                # would miss.
                if reader.line_num == 1:
                    body = _fast_body(path, len(header), lines - 1)
                if body is None:
                    body = _parse_cells(path, reader, header)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    data = body
    response = None
    if has_response:
        name = response_name if response_name is not None else header[-1]
        if name not in header:
            raise DataError(f"{path}: no response column named {name!r}")
        ridx = header.index(name)
        # copies, so the N x (p + 1) block is freed on return
        response = body[:, ridx].copy()
        data = np.delete(body, ridx, axis=1)
        header = header[:ridx] + header[ridx + 1:]
    d = Dataset(names=header, columns=data, response=response)
    # Stored only once the Dataset is built, so a rejected file never is.
    if parsed and entry is not None:
        _store(entry, body, path, stamp)
    return d


def _fast_body(path: Path, ncol: int, rows: int) -> np.ndarray | None:
    """The ``rows`` rows below a one-line header parsed by np.loadtxt
    (rows by columns), or None when they need the cell-by-cell parser:
    there are none, they fail to parse, or they hold a row of another
    width, a blank line (which np.loadtxt skips and the CSV reader
    reports as a short row) or a non-finite value."""
    if rows < 1:
        return None
    try:
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                          comments=None)
    except ValueError:
        return None
    if body.shape != (rows, ncol) or not np.all(np.isfinite(body)):
        return None
    return body


# The parse cache (see load_csv): the number of bodies it keeps, and how
# old a temp file left by a killed writer must be before it is deleted.
_CACHE_ENTRIES = 8
_STALE_TMP_S = 60


def _scan(path: Path) -> tuple[int, str | None, tuple[int, int]]:
    """The file's number of lines, counting an unterminated last line;
    the hex blake2b digest of its bytes, or None without blake2b; and its
    size and modification time."""
    count, last = 0, b""
    digest = None if blake2b is None else blake2b(digest_size=32)
    with open(path, "rb") as fh:
        stamp = _stamp(os.fstat(fh.fileno()))
        for block in iter(lambda: fh.read(1 << 16), b""):
            count += block.count(b"\n")
            if digest is not None:
                digest.update(block)
            last = block
    count += 1 if last and not last.endswith(b"\n") else 0
    return count, None if digest is None else digest.hexdigest(), stamp


def _stamp(st: os.stat_result) -> tuple[int, int]:
    return st.st_size, st.st_mtime_ns


def _cache_entry(digest: str | None) -> Path | None:
    """Where the body of the file with this digest is kept, or None when
    there is no digest or no absolute cache directory."""
    if digest is None:
        return None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser(os.path.join("~", ".cache"))
    if not os.path.isabs(base):  # no home directory
        return None
    return Path(base, "atdev", "csv-1", digest + ".npy")


def _read_entry(entry: Path, ncol: int, rows: int) -> np.ndarray | None:
    """The body kept at ``entry``, its use time refreshed, or None unless
    it is a whole 2-D native float64 array of ``ncol`` columns and 1 to
    ``rows`` rows."""
    try:
        with open(entry, "rb") as fh:
            body = npformat.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None
    if (body.dtype != np.float64 or body.ndim != 2
            or body.shape[1] != ncol or not 1 <= body.shape[0] <= rows):
        return None
    with suppress(OSError):  # a read-only cache still serves its entries
        os.utime(entry)
    return body


def _store(entry: Path, body: np.ndarray, path: Path,
           stamp: tuple[int, int]) -> None:
    """Keep ``body``, parsed from ``path``, at ``entry``, best-effort and
    only if the file's size and modification time are still ``stamp``:
    written beside it and renamed into place, then all but the most
    recently used entries of the directory are deleted, with any temp
    file that a killed writer left behind."""
    try:
        if _stamp(os.stat(path)) != stamp:
            return
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
        try:
            with open(fd, "wb") as fh:
                npformat.write_array(fh, body, version=(1, 0),
                                     allow_pickle=False)
            os.replace(tmp, entry)
        except BaseException:
            os.unlink(tmp)
            raise
        kept = sorted(entry.parent.glob("*.npy"),
                      key=lambda e: e.stat().st_mtime_ns, reverse=True)
        for old in kept[_CACHE_ENTRIES:]:
            old.unlink(missing_ok=True)
        stale = time.time() - _STALE_TMP_S
        for tmp in entry.parent.glob("*.tmp"):
            if tmp.stat().st_mtime < stale:
                tmp.unlink(missing_ok=True)
    except OSError:
        pass


def _parse_cells(path: Path, reader, header: list[str]) -> np.ndarray:
    """Cell-by-cell parse of the remaining rows (rows by columns), naming
    the row and column of the first cell that is not a finite number."""
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
    return np.array(raw, dtype=np.float64).T


def save_csv(d: Dataset, path: str | Path, response_name: str = "y") -> None:
    """Write a Dataset back to CSV. Cells use shortest round-trip float
    formatting, so load(save(d)) reproduces d bit-exactly. The file is
    staged beside the target and renamed into place."""
    names, cols = list(d.names), list(d.columns)
    if d.response is not None:
        names.append(response_name)
        cols.append(d.response)
    with _staged(Path(path)) as fh:
        csv.writer(fh).writerow(names)
        fh.writelines(_format_rows(np.column_stack(cols),
                                   ",".join(["%r"] * len(cols)) + "\r\n"))


@contextmanager
def _staged(path: Path):
    """A text file open on ``path`` + ".tmp" (newlines untranslated),
    renamed onto path when the block ends and removed when it raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Rows formatted per ``%`` operation; bounds the intermediate string.
_FORMAT_ROWS = 4096


def _format_rows(x: np.ndarray, row: str):
    """x's rows as text, each ``row % cells`` for a ``row`` with one
    ``%r`` a column: one string per block of rows, one format each."""
    for s in range(0, len(x), _FORMAT_ROWS):
        block = x[s:s + _FORMAT_ROWS]
        yield (row * len(block)) % tuple(block.ravel().tolist())
