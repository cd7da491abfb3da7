"""Dataset construction, CSV round trips, quantile binning, centering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atdev import SimSpec, center, generate, load_csv, quantile_bins, save_csv
from atdev.data import CurveKind, Dataset, EffectCurve
from atdev.errors import DataError


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
        assert np.array_equal(s.bin_of, s.assign(x))
        assert np.array_equal(s.counts, np.bincount(s.bin_of, minlength=s.k))

    def test_assign_clamps_out_of_range(self):
        d = Dataset(names=["x"], columns=[np.array([0.0, 1.0, 2.0, 3.0])])
        s = quantile_bins(d, 0, 2)
        idx = s.assign(np.array([-10.0, 10.0]))
        assert idx[0] == 0 and idx[1] == s.k - 1

    def test_midpoints_and_widths(self):
        d = Dataset(names=["x"], columns=[np.array([0.0, 1.0, 2.0, 4.0])])
        s = quantile_bins(d, 0, 2)
        assert np.allclose(s.midpoints, (s.edges[:-1] + s.edges[1:]) / 2)
        assert np.allclose(s.widths.sum(), s.edges[-1] - s.edges[0])


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
