"""Dataset construction, CSV round trips and the parse cache, quantile
binning, centering."""

import csv
import hashlib
import io
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atdev.data
from atdev import SimSpec, center, generate, load_csv, quantile_bins, save_csv
from atdev.data import BinScheme, CurveKind, Dataset, EffectCurve
from atdev.errors import DataError, NumericalError
from helpers import (bin_index, failing_open, reference_bins,
                     reference_moments)


def curve(values, counts=None, grid=None):
    values = np.asarray(values, dtype=np.float64)
    if grid is None:
        grid = np.arange(len(values), dtype=np.float64)
    if counts is None:
        counts = np.ones(len(values))
    return EffectCurve(kind=CurveKind.ALE, j=0, grid=np.asarray(grid, float),
                       values=values, counts=np.asarray(counts, float))


class TestDataset:
    def test_shape_accessors(self):
        d = Dataset(names=["a", "b"],
                    columns=[np.arange(4.0), np.ones(4)])
        assert d.p == 2 and d.n == 4
        assert d.matrix().shape == (4, 2)
        assert d.index_of("b") == 1

    def test_matrix_is_one_shared_read_only_array(self):
        rng = np.random.default_rng(0)
        d = Dataset(names=["a", "b", "c"],
                    columns=[rng.normal(size=50) for _ in range(3)])
        x = d.matrix()
        assert x is d.matrix()
        assert x.flags.c_contiguous and x.dtype == np.float64
        with pytest.raises(ValueError):
            x[0, 0] = 1.0
        for j in range(d.p):
            assert np.shares_memory(d.column(j), x)
            assert d.column(j) is d.columns[j]
            with pytest.raises(ValueError):
                d.column(j)[0] = 1.0

    def test_a_row_matrix_is_kept_without_a_copy(self):
        x = np.arange(12.0).reshape(4, 3)
        d = Dataset(names=["a", "b", "c"], columns=x)
        assert np.shares_memory(d.matrix(), x)
        assert np.array_equal(d.column(1), [1.0, 4.0, 7.0, 10.0])
        x[0, 0] = -1.0  # the caller's own array stays writeable
        with pytest.raises(DataError, match="length mismatch"):
            Dataset(names=["a", "b"], columns=x)

    def test_unknown_name(self):
        d = Dataset(names=["a"], columns=[np.arange(3.0)])
        with pytest.raises(DataError):
            d.index_of("zz")

    def test_ragged_columns_rejected(self):
        with pytest.raises(DataError):
            Dataset(names=["a", "b"], columns=[np.arange(4.0), np.ones(3)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            Dataset(names=["a", "a"], columns=[np.ones(2), np.ones(2)])

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            Dataset(names=["a"], columns=[np.array([1.0, np.nan])])
        with pytest.raises(DataError):
            Dataset(names=["a"], columns=[np.ones(2)],
                    response=np.array([1.0, np.inf]))

    def test_response_length_checked(self):
        with pytest.raises(DataError):
            Dataset(names=["a"], columns=[np.ones(3)], response=np.ones(2))


class TestLoadCsv:
    def test_three_column_file_with_response(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
        d = load_csv(f, has_response=True)
        assert d.p == 2 and d.n == 4
        assert d.names == ["x1", "x2"]
        assert np.array_equal(d.response, [3.0, 6.0, 9.0, 12.0])

    def test_response_picked_by_name(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("y,x1\n1,2\n3,4\n")
        d = load_csv(f, has_response=True, response_name="y")
        assert d.names == ["x1"]
        assert np.array_equal(d.response, [1.0, 3.0])

    def test_missing_response_name(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_csv(f, has_response=True, response_name="zz")

    def test_unparseable_cell_reports_location(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("x1,x2\n1,2\n3,oops\n")
        with pytest.raises(DataError) as exc:
            load_csv(f)
        assert "row 3" in str(exc.value) and "x2" in str(exc.value)

    def test_nan_cell_reports_location(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("x1,x2\nnan,2\n3,4\n")
        with pytest.raises(DataError) as exc:
            load_csv(f)
        assert "row 2" in str(exc.value) and "x1" in str(exc.value)

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError) as exc:
            load_csv(f)
        assert "row 3" in str(exc.value)

    def test_duplicate_header_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,a\n1,2\n")
        with pytest.raises(DataError):
            load_csv(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("")
        with pytest.raises(DataError):
            load_csv(f)

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark.
        f = tmp_path / "t.csv"
        f.write_bytes("\ufeffx1,x2,y\n1,2,3\n4,5,6\n".encode("utf-8"))
        d = load_csv(f, has_response=True)
        assert d.names == ["x1", "x2"]
        assert np.array_equal(d.column(d.index_of("x1")), [1.0, 4.0])
        by_name = load_csv(f, has_response=True, response_name="x1")
        assert by_name.names == ["x2", "y"]
        assert np.array_equal(by_name.response, [1.0, 4.0])

    def test_non_utf8_header_is_a_data_error(self, tmp_path):
        # A UTF-16 byte-order mark: the header read fails to decode.
        f = tmp_path / "t.csv"
        f.write_bytes(b"\xff\xfe" + "x1,y\n1,2\n".encode("utf-16-le"))
        with pytest.raises(DataError) as exc:
            load_csv(f)
        assert str(exc.value).startswith(f"{f}: not UTF-8 text")

    def test_non_utf8_byte_deep_in_the_body_is_a_data_error(self, tmp_path):
        # Past the first 8 KiB, np.loadtxt turns the body down and the
        # cell parser's read is the one that fails to decode.
        f = tmp_path / "t.csv"
        body = ["0.5,0.25"] * 5_000
        body[4_000] = "0.5,\xff"
        f.write_bytes(("x1,x2\n" + "\n".join(body) + "\n").encode("latin-1"))
        assert f.read_bytes().index(b"\xff") > 8192
        with pytest.raises(DataError) as exc:
            load_csv(f)
        assert str(exc.value).startswith(f"{f}: not UTF-8 text")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv")

    # Fifty good rows (file rows 2-51) come first. The numpy parse turns
    # each body down as a whole; the cell parser still names the first
    # bad cell with the message it always gave.
    @pytest.mark.parametrize("body, message", [
        ("nan,2\n3,4\n", "row 52, column 'x1': non-finite value 'nan'"),
        ("1,2\n3,1e400\n", "row 53, column 'x2': non-finite value '1e400'"),
        ("1,2\n3,4\n5\n", "row 54 has 1 cells, expected 2"),
        ("1,2\n\n3,4\n", "row 53 has 0 cells, expected 2"),
        ("1,2\n3,4\n\n", "row 54 has 0 cells, expected 2"),
        ("1,2\n3,4 # note\n", "row 53, column 'x2': cannot parse '4 # note'"),
        ('1,"2"\n3,4,\n', "row 53 has 3 cells, expected 2"),
    ])
    def test_bad_body_reports_the_first_bad_cell(self, tmp_path, body, message):
        f = tmp_path / "t.csv"
        f.write_text("x1,x2\n" + "0.5,0.25\n" * 50 + body)
        with pytest.raises(DataError) as exc:
            load_csv(f)
        assert str(exc.value) == f"{f}: {message}"

    def test_crlf_and_unterminated_last_line(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_bytes(b"a,b\r\n1,2\r\n3,4")
        d = load_csv(f)
        assert np.array_equal(d.column(0), [1.0, 3.0])
        assert np.array_equal(d.column(1), [2.0, 4.0])

    def test_extreme_doubles_round_trip_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**63, size=(3, 2_000), dtype=np.uint64)
        cols = bits.view(np.float64)
        cols = np.where(np.isfinite(cols), cols, 1.0)
        cols[0, :4] = [5e-324, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308]
        d = Dataset(names=["a", "b"], columns=[cols[0], cols[1]],
                    response=cols[2])
        f = tmp_path / "x.csv"
        save_csv(d, f)
        back = load_csv(f, has_response=True)
        for a, b in zip([*back.columns, back.response], cols):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_columns_match_a_transposing_loader(self, tmp_path):
        # The loader used to copy np.loadtxt's block into one contiguous
        # array per column; the shared matrix must hold the same bits.
        d = generate(SimSpec(case="complex_623", n=100_000, seed=8))
        f = tmp_path / "complex_623.csv"
        save_csv(d, f)
        back = load_csv(f, has_response=True)
        body = np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2,
                          comments=None)
        *columns, response = np.ascontiguousarray(body.T)
        assert back.names == ["x1", "x2", "x3", "x4", "x5"]
        for got, want in zip([*back.columns, back.response],
                             [*columns, response]):
            assert got.tobytes() == want.tobytes()
        assert back.response.flags.c_contiguous
        assert not np.shares_memory(back.response, back.matrix())

    def test_generated_data_round_trips_bit_exactly(self, tmp_path):
        d = generate(SimSpec(case="interaction_622", n=500, seed=3))
        f = tmp_path / "sim.csv"
        save_csv(d, f)
        back = load_csv(f, has_response=True, response_name="y")
        assert back.names == d.names
        for a, b in zip(back.columns, d.columns):
            assert np.array_equal(a, b)
        assert np.array_equal(back.response, d.response)
        assert not f.with_name(f.name + ".tmp").exists()


def _csv(path, seed=0, quoted=False):
    """A CSV of 2000 rows of x1, x2, y, with every cell quoted (the
    cell-by-cell parser's path) or none (np.loadtxt's)."""
    cells = np.random.default_rng(seed).normal(size=(2_000, 3))
    fmt = ",".join(['"%r"' if quoted else "%r"] * 3) + "\n"
    path.write_text("x1,x2,y\n" + "".join(
        fmt % tuple(row) for row in cells.tolist()))
    return path


def _entry(cache, path):
    """Where the body of this file is kept: named by its content alone."""
    digest = hashlib.blake2b(path.read_bytes(), digest_size=32)
    return cache / f"{digest.hexdigest()}.npy"


def _same(a: Dataset, b: Dataset) -> bool:
    return (a.names == b.names
            and a.matrix().tobytes() == b.matrix().tobytes()
            and a.response.tobytes() == b.response.tobytes())


def _no_parse(*args):
    raise AssertionError("parsed on a cache hit")


class TestParseCache:
    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        return tmp_path / "xdg" / "atdev" / "csv-1"

    @pytest.mark.parametrize("quoted", [False, True],
                             ids=["loadtxt", "cell_by_cell"])
    def test_hit_equals_a_cold_parse(self, tmp_path, cache, monkeypatch,
                                     quoted):
        f = _csv(tmp_path / "t.csv", quoted=quoted)
        cold = load_csv(f, has_response=True)
        assert [e.name for e in cache.iterdir()] == [_entry(cache, f).name]
        monkeypatch.setattr(atdev.data, "_fast_body", _no_parse)
        monkeypatch.setattr(atdev.data, "_parse_cells", _no_parse)
        hit = load_csv(f, has_response=True)
        assert _same(hit, cold)
        assert hit.names == ["x1", "x2"]
        by_name = load_csv(f, has_response=True, response_name="x1")
        assert by_name.names == ["x2", "y"]
        assert by_name.response.tobytes() == cold.column(0).tobytes()

    def test_same_size_rewrite_with_old_mtime_is_a_miss(self, tmp_path,
                                                        cache):
        f = _csv(tmp_path / "t.csv")
        before = load_csv(f, has_response=True)
        st = f.stat()
        text = f.read_text()
        first = text.index("\n") + 1
        digit = "1" if text[first + 1] != "1" else "2"
        f.write_text(text[:first + 1] + digit + text[first + 2:])
        os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert f.stat().st_size == st.st_size
        after = load_csv(f, has_response=True)
        assert not _same(after, before)
        assert after.matrix()[0, 0] != before.matrix()[0, 0]
        assert np.array_equal(after.matrix()[1:], before.matrix()[1:])
        assert len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize("spoil", [
        lambda e, body: e.write_bytes(e.read_bytes()[:-8]),
        lambda e, body: np.save(e, body[:, :2]),
        lambda e, body: np.save(e, body.astype(np.float32)),
        lambda e, body: np.save(e, body.astype(">f8")),
        lambda e, body: np.save(e, body[:, 0]),
        lambda e, body: e.write_bytes(b"x1,x2,y\n1,2,3\n"),
        lambda e, body: e.write_bytes(b"PK\x03\x04"),
        lambda e, body: e.write_bytes(b""),
    ], ids=["truncated", "wrong_width", "float32", "big_endian", "1d",
            "foreign", "zip", "empty"])
    def test_spoilt_entry_is_a_miss_and_replaced(self, tmp_path, cache,
                                                 spoil):
        f = _csv(tmp_path / "t.csv")
        cold = load_csv(f, has_response=True)
        entry = _entry(cache, f)
        good = entry.read_bytes()
        spoil(entry, np.load(entry))
        assert entry.read_bytes() != good
        assert _same(load_csv(f, has_response=True), cold)
        assert entry.read_bytes() == good

    def test_default_dir_is_under_home(self, tmp_path, monkeypatch):
        # A relative XDG_CACHE_HOME is ignored, as the XDG spec says.
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.chdir(tmp_path)
        f = _csv(tmp_path / "t.csv")
        load_csv(f)
        cache = tmp_path / "home" / ".cache" / "atdev" / "csv-1"
        assert [e.name for e in cache.iterdir()] == [_entry(cache, f).name]
        assert not (tmp_path / "relative").exists()

    def test_cache_dir_that_cannot_be_made(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        f = _csv(tmp_path / "t.csv")
        first = load_csv(f, has_response=True)
        assert _same(load_csv(f, has_response=True), first)
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("header, tail, message", [
        ("x1,x2,y", "1,2,nan\n", "row 2002, column 'y': non-finite"),
        ("x1,,y", "", "empty variable name"),
    ])
    def test_rejected_file_is_never_stored(self, tmp_path, cache, header,
                                           tail, message):
        f = _csv(tmp_path / "t.csv")
        f.write_text(f.read_text().replace("x1,x2,y", header, 1) + tail)
        for _ in range(2):
            with pytest.raises(DataError, match=message):
                load_csv(f, has_response=True)
            assert not cache.exists()

    @pytest.mark.parametrize("change", [
        lambda f: os.utime(f, ns=(0, f.stat().st_mtime_ns + 1)),
        lambda f: f.unlink(),
    ], ids=["touched", "deleted"])
    def test_file_changed_while_parsed_is_not_stored(self, tmp_path, cache,
                                                     monkeypatch, change):
        f = _csv(tmp_path / "t.csv")
        want = np.loadtxt(f, delimiter=",", skiprows=1)
        parse = atdev.data._fast_body

        def parse_then_change(path, *args):
            body = parse(path, *args)
            change(path)
            return body

        monkeypatch.setattr(atdev.data, "_fast_body", parse_then_change)
        d = load_csv(f, has_response=True)
        assert d.matrix().tobytes() == want[:, :2].tobytes()
        assert not cache.exists()

    def test_a_one_row_file_is_stored(self, tmp_path, cache, monkeypatch):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n")
        cold = load_csv(f)
        assert [e.name for e in cache.iterdir()] == [_entry(cache, f).name]
        monkeypatch.setattr(atdev.data, "_fast_body", _no_parse)
        assert load_csv(f).matrix().tobytes() == cold.matrix().tobytes()

    def test_without_blake2_every_load_parses(self, tmp_path, cache,
                                              monkeypatch):
        monkeypatch.setattr(atdev.data, "blake2b", None)
        f = _csv(tmp_path / "t.csv")
        first = load_csv(f, has_response=True)
        assert _same(load_csv(f, has_response=True), first)
        assert not cache.exists()

    def test_a_store_deletes_stale_temp_files(self, tmp_path, cache):
        cache.mkdir(parents=True)
        stale, fresh = cache / "stale.tmp", cache / "fresh.tmp"
        stale.write_bytes(b"\0" * 100)
        fresh.write_bytes(b"\0" * 100)
        long_ago = time.time() - 2 * atdev.data._STALE_TMP_S
        os.utime(stale, (long_ago, long_ago))
        f = _csv(tmp_path / "t.csv")
        load_csv(f)
        assert {e.name for e in cache.iterdir()} == {
            _entry(cache, f).name, fresh.name}

    def test_ninth_file_evicts_the_least_recently_used(self, tmp_path,
                                                       cache):
        files = [_csv(tmp_path / f"{i}.csv", seed=i) for i in range(9)]
        long_ago = 1_000_000_000
        for i, f in enumerate(files[:8]):
            load_csv(f)
            os.utime(_entry(cache, f), (long_ago + i, long_ago + i))
        load_csv(files[0])  # a hit, which makes file 0 the most recent
        load_csv(files[8])
        kept = {e.name for e in cache.iterdir()}
        assert kept == {_entry(cache, f).name
                        for i, f in enumerate(files) if i != 1}

    def test_a_load_imports_no_openssl(self, tmp_path, cache):
        # hashlib loads OpenSSL's libcrypto, which costs every CLI
        # process a few MB of resident memory; numpy.polynomial and
        # numpy.random are loaded only by the commands that use them.
        f = _csv(tmp_path / "t.csv")
        script = textwrap.dedent(f"""
            import sys
            import atdev.cli
            from atdev.data import load_csv
            load_csv({str(f)!r})
            load_csv({str(f)!r})
            print(sorted({{"hashlib", "_hashlib", "numpy.polynomial",
                           "numpy.random"}} & set(sys.modules)))
        """)
        run = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"
        assert _entry(cache, f).exists()


class TestSaveCsv:
    EXTREMES = [5e-324, -0.0, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1e16,
                1e-5, 0.1, 2.0 ** 53 + 2, 1 / 3]

    def test_bytes_equal_a_per_cell_csv_writer(self, tmp_path):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2**63, size=(3, 9_000), dtype=np.uint64)
        cols = bits.view(np.float64)
        cols = np.where(np.isfinite(cols), cols, 1.0)
        cols[:, :len(self.EXTREMES)] = self.EXTREMES
        names = ["a,b", 'say "hi"']
        d = Dataset(names=names, columns=[cols[0], cols[1]],
                    response=cols[2])
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow([*names, "r\nl"])
        for row in cols.T:
            writer.writerow([repr(float(v)) for v in row])
        f = tmp_path / "x.csv"
        save_csv(d, f, response_name="r\nl")
        assert f.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("writes", [0, 1, 2])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch,
                                         writes):
        d = generate(SimSpec(case="interaction_622", n=10_000, seed=3))
        monkeypatch.setattr(atdev.data, "open", failing_open(writes),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_csv(d, tmp_path / "x.csv")
        assert list(tmp_path.iterdir()) == []


class TestQuantileBins:
    def test_four_values_two_bins(self):
        d = Dataset(names=["x"], columns=[np.array([1.0, 2.0, 3.0, 4.0])])
        s = quantile_bins(d, 0, 2)
        assert np.array_equal(s.edges, [1.0, 2.5, 4.0])
        assert np.array_equal(s.counts, [2, 2])
        assert s.k == 2

    def test_ties_merge_bins(self):
        d = Dataset(names=["x"], columns=[np.array([0.0, 0.0, 0.0, 1.0])])
        s = quantile_bins(d, 0, 4)
        assert s.k == 2
        assert np.array_equal(s.counts, [3, 1])

    def test_empty_bin_merges_into_right_neighbour(self):
        # Edges 0, 5/6, 1, 7/6, 2: no value lies in [5/6, 1), so that
        # bin's right edge goes and it joins [1, 7/6).
        x = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        s = quantile_bins(Dataset(names=["x"], columns=[x]), 0, 6)
        assert np.allclose(s.edges, [0.0, 5 / 6, 7 / 6, 2.0])
        assert np.array_equal(s.counts, [1, 4, 1])
        assert np.array_equal(s.bin_of, [0, 1, 1, 1, 1, 2])

    def test_uniform_counts_stay_balanced(self):
        rng = np.random.default_rng(0)
        d = Dataset(names=["x"], columns=[rng.uniform(-1, 1, 100_000)])
        s = quantile_bins(d, 0, 100)
        assert s.k == 100
        assert s.counts.min() >= 800 and s.counts.max() <= 1200

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(1)
        d = Dataset(names=["x"], columns=[rng.normal(size=5000)])
        for k in (2, 7, 50):
            s = quantile_bins(d, 0, k)
            assert int(s.counts.sum()) == 5000
            assert np.all(np.diff(s.edges) > 0)
            assert np.all(s.counts >= 1)

    def test_constant_column_rejected(self):
        d = Dataset(names=["x"], columns=[np.ones(10)])
        with pytest.raises(DataError):
            quantile_bins(d, 0, 4)

    def test_indicator_column_rejected(self):
        # With 505 zeros in 1000 rows no quantile edge falls between the
        # levels, so the 0/1 column fills one bin: no derivative curve
        # can be accumulated over it.
        x = np.r_[np.zeros(505), np.ones(495)]
        d = Dataset(names=["a", "flag"], columns=[np.arange(1_000.0), x])
        with pytest.raises(DataError) as exc:
            quantile_bins(d, 1, 100)
        assert "'flag'" in str(exc.value)

    def test_three_levels_still_bin(self):
        d = Dataset(names=["x"], columns=[np.array([0.0, 1.0, 2.0] * 10)])
        s = quantile_bins(d, 0, 100)
        assert s.k == 3
        assert np.array_equal(s.counts, [10, 10, 10])

    def test_too_few_bins_rejected(self):
        d = Dataset(names=["x"], columns=[np.arange(5.0)])
        with pytest.raises(DataError):
            quantile_bins(d, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=80),
           st.integers(2, 40))
    def test_tied_columns_fill_every_bin(self, values, k):
        # Integer levels force tied quantile edges and empty bins.
        x = np.asarray(values, dtype=np.float64)
        d = Dataset(names=["x"], columns=[x])
        try:
            s = quantile_bins(d, 0, k)
        except DataError as exc:
            assert "constant column" in str(exc) or "only 1" in str(exc)
            return
        assert np.all(np.diff(s.edges) > 0)
        assert s.edges[0] == x.min() and s.edges[-1] == x.max()
        assert np.all(s.counts >= 1) and int(s.counts.sum()) == len(x)
        assert np.array_equal(s.bin_of, bin_index(s.edges, x))
        assert np.array_equal(s.counts, np.bincount(s.bin_of, minlength=s.k))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 400),
           st.integers(2, 150), st.sampled_from(["scaled", "levels", "span",
                                                  "zeros"]))
    def test_edges_are_numpys_unique_quantiles(self, seed, n, k, shape):
        # The edges read from the sorted copy are those of
        # np.unique(np.quantile(x, q)) with empty bins merged, bit for bit:
        # at 1e-300 to 1e300, on tied levels, and on spans of +-1.7e308.
        # Where neighbours are apart by more than the largest double, numpy
        # gives an infinite or NaN edge, and binning a NumericalError.
        # Where a column holds both -0.0 and 0.0, np.quantile's partition
        # picks which one a zero edge is.
        rng = np.random.default_rng(seed)
        x = {"scaled": lambda: rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300),
             "levels": lambda: rng.choice([-1.5, 0.0, 0.25, 3.0], size=n),
             "span": lambda: 1.7e308 * rng.uniform(-1.0, 1.0, n),
             "zeros": lambda: rng.choice([-0.0, 0.0, 1.0], size=n),
             }[shape]()
        d = Dataset(names=["x"], columns=[x])
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.all(np.isfinite(
                np.quantile(x, np.linspace(0.0, 1.0, k + 1))))
            edges, _, counts = reference_bins(x, k)
        if not finite:
            with pytest.raises(NumericalError, match="largest double apart"):
                quantile_bins(d, 0, k)
            return
        try:
            s = quantile_bins(d, 0, k)
        except DataError:
            assert len(counts) < 2
            return
        if shape == "zeros":
            assert np.array_equal(s.edges, edges)
        else:
            assert s.edges.tobytes() == edges.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 500),
           st.integers(2, 150), st.sampled_from(["continuous", "integers",
                                                  "levels"]))
    def test_one_sort_matches_the_rowwise_reference(self, seed, n, k, shape):
        # Edges, bin numbers and counts bit for bit against quantile edges
        # of the unsorted column and a searchsorted per row, on continuous
        # columns and on tied ones, whose empty bins are merged.
        rng = np.random.default_rng(seed)
        x = {"continuous": lambda: rng.normal(size=n),
             "integers": lambda: rng.integers(-20, 21, n).astype(np.float64),
             "levels": lambda: rng.choice([-1.5, 0.0, 0.25, 3.0],
                                          size=n, p=[0.1, 0.6, 0.2, 0.1]),
             }[shape]()
        edges, bin_of, counts = reference_bins(x, k)
        try:
            s = quantile_bins(Dataset(names=["x"], columns=[x]), 0, k)
        except DataError:
            assert len(counts) < 2
            return
        assert np.array_equal(s.edges, edges)
        assert s.bin_of.dtype == bin_of.dtype and s.counts.dtype == counts.dtype
        assert np.array_equal(s.bin_of, bin_of)
        assert np.array_equal(s.counts, counts)

    def test_assign_clamps_out_of_range(self):
        d = Dataset(names=["x"], columns=[np.array([0.0, 1.0, 2.0, 3.0])])
        s = quantile_bins(d, 0, 2)
        idx = bin_index(s.edges, np.array([-10.0, 10.0]))
        assert idx[0] == 0 and idx[1] == s.k - 1

    def test_midpoints_and_widths(self):
        d = Dataset(names=["x"], columns=[np.array([0.0, 1.0, 2.0, 4.0])])
        s = quantile_bins(d, 0, 2)
        assert np.allclose(s.midpoints, (s.edges[:-1] + s.edges[1:]) / 2)
        assert np.allclose(s.widths.sum(), s.edges[-1] - s.edges[0])

    def test_midpoints_past_the_largest_double(self):
        # The top bin's edges sum past 1.8e308, yet its midpoint is
        # finite; every other one is (a + b) / 2 to the bit, since
        # halving a normal double is exact.
        edges = np.array([-1.7e308, -1.0, 0.5, 3.0, 1.6e308, 1.7e308])
        s = BinScheme(j=0, edges=edges, bin_of=np.arange(5),
                      counts=np.ones(5, dtype=np.int64))
        a, b = s.edges[:-1], s.edges[1:]
        assert np.all(np.isfinite(s.midpoints))
        assert np.all((a < s.midpoints) & (s.midpoints < b))
        assert s.midpoints[-1] == a[-1] / 2 + b[-1] / 2
        assert np.array_equal(s.midpoints[:-1], (a[:-1] + b[:-1]) / 2)

    def test_means_are_the_members_means(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(500, 3))
        s = quantile_bins(Dataset(names=["a", "b", "c"], columns=x), 1, 7)
        got = s.means(x[:, c] for c in range(3))
        assert got.shape == (s.k, 3)
        for b in range(s.k):
            assert np.allclose(got[b], x[s.bin_of == b].mean(axis=0),
                               rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 100])
    def test_edge_past_the_largest_double_is_named(self, k):
        # -1.7e308 and 1.7e308 are 3.4e308 apart: every edge between them
        # overflows. A NumericalError names the column, with no warning.
        d = Dataset(names=["w", "a"], columns=[np.array([0.0, 1.0]),
                                               np.array([-1.7e308, 1.7e308])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="'a' cannot be binned: "
                               "two neighbouring values are more than the "
                               "largest double apart"):
                quantile_bins(d, 1, k)

    def test_the_sorted_copy_is_freed_before_the_bin_numbers(self):
        # At the scatter only the sort order, the repeated bin numbers
        # and the bin numbers themselves are alive: three N-vectors, where
        # keeping the sorted copy would make four.
        rng = np.random.default_rng(4)
        d = Dataset(names=["x"], columns=[rng.normal(size=200_000)])
        tracemalloc.start()
        try:
            quantile_bins(d, 0, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * d.n


class TestMoments:
    @st.composite
    def tables(draw):
        """N x p tables, N from 1 and p from 1 to 8, whose columns sit at
        scales from 1e-150 to 1e150, some of them constant."""
        n, p = draw(st.integers(1, 600)), draw(st.integers(1, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=(n, p)) + rng.normal(size=p)
        for j in range(p):
            x[:, j] *= draw(st.sampled_from([1e-150, 1e-30, 1.0, 3e7, 1e150]))
            if draw(st.booleans()) and draw(st.booleans()):
                x[:, j] = x[0, j]
        return x

    @settings(max_examples=80, deadline=None)
    @given(tables())
    def test_equals_the_p_by_n_formula_bit_for_bit(self, x):
        got = Dataset(names=[f"x{j}" for j in range(x.shape[1])],
                      columns=x).moments
        for a, b in zip(got, reference_moments(x)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_holds_two_columns_at_a_time(self):
        # Two scaled, centred N-vectors, not the p x N copy.
        rng = np.random.default_rng(5)
        d = Dataset(names=list("abcdef"), columns=rng.normal(size=(50_000, 6)))
        tracemalloc.start()
        try:
            d.moments
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * d.n


class TestCenter:
    def test_unweighted(self):
        c = center(curve([1.0, 2.0, 3.0]))
        assert np.allclose(c.values, [-1.0, 0.0, 1.0])
        assert c.centered

    def test_count_weighted(self):
        c = center(curve([1.0, 3.0], counts=[3.0, 1.0]))
        assert np.allclose(c.values, [-0.5, 1.5])

    def test_idempotent(self):
        c1 = center(curve([4.0, 5.0, 9.0], counts=[2.0, 1.0, 5.0]))
        c2 = center(c1)
        assert np.array_equal(c1.values, c2.values)

    def test_weighted_mean_vanishes(self):
        rng = np.random.default_rng(2)
        c = center(curve(rng.normal(size=40), counts=rng.integers(1, 90, 40)))
        assert abs(c.weighted_mean()) < 1e-10


class TestEffectCurve:
    def test_grid_must_increase(self):
        with pytest.raises(DataError):
            curve([1.0, 2.0], grid=[0.0, 0.0])
        with pytest.raises(DataError):
            curve([1.0, 2.0], grid=[1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            EffectCurve(kind=CurveKind.ALE, j=0, grid=np.arange(3.0),
                        values=np.ones(2), counts=np.ones(3))

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            curve([1.0, 2.0], counts=[1.0, -1.0])

    def test_counts_must_total_more_than_zero(self):
        # no weights to center or take a variance against: an unweighted
        # fallback would center these values to [-2, -1, 3]
        with pytest.raises(DataError, match="total more than 0"):
            curve([0.0, 1.0, 5.0], counts=[0.0, 0.0, 0.0])
        with pytest.raises(DataError, match="total more than 0"):
            curve([])

    def test_weighted_moments(self):
        c = curve([0.0, 1.0, 5.0], counts=[1.0, 2.0, 1.0])
        assert c.weighted_mean() == 1.75
        assert c.weighted_variance() == (1.75 ** 2 + 2 * 0.75 ** 2
                                         + 3.25 ** 2) / 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_curve_is_a_numerical_error(self, bad):
        with pytest.raises(NumericalError, match="non-finite ALE curve of "
                                                 "column 0$"):
            curve([1.0, bad])
        with pytest.raises(NumericalError,
                           match="non-finite ACE curve of column 1 through "
                                 "column 2"):
            EffectCurve(kind=CurveKind.ACE, j=1, k=2, grid=np.array([bad, 1.0]),
                        values=np.zeros(2), counts=np.ones(2))
