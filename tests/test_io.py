"""JSON and CSV serialization: written numbers read back exactly through
the standard json and csv modules, and the writers' failure modes."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atdev.io
from atdev import CurveKind, Dataset, EffectCurve, EffectMatrix, Estimation, \
    ace, ale, catalog_model, center, corr_matrix, effect_matrix, le_curve, pdp
from atdev.errors import DataError, NumericalError
from atdev.importance import ImportanceReport
from atdev.io import (
    SCHEMA,
    bars_to_dict,
    curve_to_dict,
    curves_to_csv,
    heatmap_to_dict,
    matrix_to_dict,
    report_to_csv,
    report_to_dict,
    write_json,
    write_text_atomic,
)
from helpers import load_json


def sample_curve(seed=0, kind=CurveKind.ALE, k=None):
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.1, 1.0, 12))
    return EffectCurve(kind=kind, j=1, k=k, grid=grid,
                       values=rng.normal(size=12) * np.pi,
                       counts=rng.integers(1, 500, 12).astype(np.float64))


def small_matrix():
    rng = np.random.default_rng(7)
    d = Dataset(names=["x1", "x2"],
                columns=[rng.uniform(-1, 1, 3_000),
                         rng.uniform(-1, 1, 3_000)])
    model = catalog_model("quad_plus_interaction")
    return effect_matrix(Estimation(model, d, k_bins=15), CurveKind.ATDEV), d


# Lengths on the edges of the writer's 4096-value format blocks, and
# values whose shortest repr is unusual.
ARRAY_LENGTHS = [0, 1, 4095, 4096, 4097, 8193]
EXTREMES = [-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
            1.7e308, -1.7e308, 1.7976931348623157e308, -5e-324]


def float_array(n: int, seed: int) -> np.ndarray:
    """n doubles across the exponent range, the extremes among them."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    put = rng.choice(n, size=min(n, len(EXTREMES)), replace=False)
    a[put] = EXTREMES[:len(put)]
    return a


def through_json(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def as_lists(payload):
    """The payload with every array replaced by its tolist()."""
    if isinstance(payload, dict):
        return {k: as_lists(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [as_lists(v) for v in payload]
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    return payload


class TestCurveJson:
    def test_round_trip_is_bit_exact(self):
        curve = center(sample_curve())
        back = through_json(curve_to_dict(curve))
        assert CurveKind(back["kind"]) is curve.kind
        assert back["j"] == curve.j and back["k"] is None
        assert back["centered"] is True
        assert np.array_equal(back["grid"], curve.grid)
        assert np.array_equal(back["values"], curve.values)
        assert np.array_equal(back["counts"], curve.counts)

    def test_cross_curve_keeps_its_k(self):
        curve = sample_curve(kind=CurveKind.ACE, k=3)
        assert curve_to_dict(curve)["k"] == 3

    def test_meta_rides_along(self):
        payload = curve_to_dict(sample_curve(), meta={"k_bins": 12})
        assert payload["meta"]["k_bins"] == 12
        assert payload["schema"] == SCHEMA


class TestCurveCsv:
    def test_round_trip_values(self):
        curves = [sample_curve(1), sample_curve(2, kind=CurveKind.ACE, k=0)]
        rows = list(csv.reader(io.StringIO(curves_to_csv(curves))))
        assert rows[0] == ["kind", "j", "k", "grid", "value", "count"]
        body = rows[1:]
        assert len(body) == 24
        for c, part in zip(curves, (body[:12], body[12:])):
            assert {tuple(r[:3]) for r in part} == {
                (c.kind.value, str(c.j), "" if c.k is None else str(c.k))}
            cells = np.array([[float(v) for v in r[3:]] for r in part])
            assert np.array_equal(cells[:, 0], c.grid)
            assert np.array_equal(cells[:, 1], c.values)
            assert np.array_equal(cells[:, 2], c.counts)


def csv_writer_curves(curves) -> str:
    """curves_to_csv through the csv module: a repr per float cell."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["kind", "j", "k", "grid", "value", "count"])
    for c in curves:
        for g, v, n in zip(c.grid, c.values, c.counts):
            w.writerow([c.kind.value, c.j, "" if c.k is None else c.k,
                        repr(float(g)), repr(float(v)), repr(float(n))])
    return out.getvalue()


def csv_writer_report(r) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["i", "j", "v_ij"])
    for i in range(r.p):
        for j in range(r.p):
            w.writerow([i, j, repr(float(r.v[i, j]))])
    return out.getvalue()


class TestCsvText:
    """The CSV writers format a block of rows per operation, and write
    what the csv module writes with a repr per float cell."""

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
    def test_curves_equal_the_csv_module(self, n):
        rng = np.random.default_rng(n)
        curves = []
        for seed, kind, k in ((n, CurveKind.ALE, None),
                              (n + 1, CurveKind.ACE, 2)):
            grid = np.unique(float_array(n + 20, seed))[:n]
            curves.append(EffectCurve(
                kind=kind, j=1, k=k, grid=grid,
                values=float_array(n, seed + 7),
                counts=rng.integers(0, 10**6, n).astype(np.float64)))
        assert curves_to_csv(curves) == csv_writer_curves(curves)

    @pytest.mark.parametrize("p", [1, 3, 70])
    def test_report_equals_the_csv_module(self, p):
        v = np.abs(float_array(p * p, p)).reshape(p, p)
        v[v > 1e305] = 1e305
        r = ImportanceReport(names=tuple(f"x{i}" for i in range(p)), v=v,
                             dgsm=np.ones(p))
        assert report_to_csv(r) == csv_writer_report(r)


class TestMatrixBundle:
    def test_round_trip(self):
        em, _ = small_matrix()
        back = through_json(matrix_to_dict(em))
        assert back["kind"] == CurveKind.ATDEV.value
        assert back["names"] == ["x1", "x2"]
        for i in range(2):
            for j in range(2):
                assert np.array_equal(back["cells"][i][j]["values"],
                                      em.cells[i][j].values)
        assert len(back["totals"]) == 2
        for a, b in zip(back["totals"], em.totals):
            assert np.array_equal(a["values"], b.values)

    def test_le_extras_ride_along(self):
        em, _ = small_matrix()
        payload = matrix_to_dict(em, scatter=[{"i": 0, "j": 1}],
                                 histograms=[{"j": 0}])
        assert payload["scatter"] == [{"i": 0, "j": 1}]
        assert payload["derivative_histograms"] == [{"j": 0}]


class TestNumpyIndices:
    def test_curves_and_matrices_of_numpy_indices_are_written(self, tmp_path):
        # A numpy integer is a valid column index; a curve keeps it as a
        # Python int, which JSON can hold.
        rng = np.random.default_rng(3)
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1, 1, 500) for _ in range(2)])
        ctx = Estimation(catalog_model("quad_plus_interaction"), d, k_bins=10)
        i0, i1 = np.int64(0), np.int64(1)
        for n, c in enumerate([pdp(ctx, i0), ale(ctx, i1), ace(ctx, i0, i1),
                               le_curve(ctx, i1, i0)]):
            assert type(c.j) is int and (c.k is None or type(c.k) is int)
            back = load_json(write_json(tmp_path / f"c{n}.json",
                                        curve_to_dict(c)))
            assert (back["j"], back["k"]) == (c.j, c.k)
            assert back["values"] == c.values.tolist()
        em = EffectMatrix(CurveKind.ATDEV, ("x1", "x2"), cells=(
            (ale(ctx, i0), ace(ctx, i0, i1)), (ace(ctx, i1, i0), ale(ctx, i1))))
        back = load_json(write_json(tmp_path / "m.json", matrix_to_dict(em)))
        assert [[(c["j"], c["k"]) for c in row] for row in back["cells"]] == \
            [[(0, None), (1, 0)], [(0, 1), (1, None)]]


class TestHeatMap:
    def test_signed_must_be_symmetric(self):
        with pytest.raises(DataError):
            heatmap_to_dict(("a", "b"), np.array([[1.0, 0.5], [0.2, 1.0]]),
                            "signed")

    def test_nonnegative_rejects_negatives(self):
        with pytest.raises(DataError):
            heatmap_to_dict(("a", "b"), np.array([[1.0, -0.5], [0.2, 1.0]]),
                            "nonnegative")

    def test_unknown_scale(self):
        with pytest.raises(DataError):
            heatmap_to_dict(("a",), np.ones((1, 1)), "rainbow")

    def test_shape_must_match_names(self):
        with pytest.raises(DataError):
            heatmap_to_dict(("a", "b"), np.ones((3, 3)), "nonnegative")

    def test_correlation_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        d = Dataset(names=["a", "b"], columns=[x, x + rng.normal(size=400)])
        values = corr_matrix(d)
        h = heatmap_to_dict(d.names, values, "signed")
        assert h["scale"] == "signed"
        back = through_json(h)
        assert np.array_equal(back["values"], values)
        assert back["names"] == list(d.names)
        assert back["scale"] == "signed"


class TestBarsAndReport:
    def test_bars_round_trip(self):
        values = np.array([1.5, 0.25])
        back = through_json(bars_to_dict("energy", ("x1", "x2"), values))
        assert back["label"] == "energy"
        assert back["names"] == ["x1", "x2"]
        assert np.array_equal(back["values"], values)

    def test_bars_length_mismatch(self):
        with pytest.raises(DataError):
            bars_to_dict("x", ("a",), np.array([1.0, 2.0]))

    def test_report_round_trip(self):
        v = np.array([[0.5, 0.1], [0.0, 0.2]])
        r = ImportanceReport(names=("x1", "x2"), v=v,
                             dgsm=np.array([1.0, 2.0]))
        back = through_json(report_to_dict(r))
        assert np.array_equal(back["v"], r.v)
        assert np.array_equal(back["v_plus"], r.v_plus)
        assert np.array_equal(back["dgsm"], r.dgsm)

    def test_report_csv_has_one_row_per_cell(self):
        v = np.array([[0.5, 0.1], [0.0, 0.2]])
        r = ImportanceReport(names=("x1", "x2"), v=v,
                             dgsm=np.array([1.0, 2.0]))
        lines = report_to_csv(r).strip().splitlines()
        assert lines[0] == "i,j,v_ij"
        assert len(lines) == 1 + 4
        assert lines[1].split(",")[2] == "0.5"


class TestFileLayer:
    def test_json_file_round_trip(self, tmp_path):
        target = tmp_path / "curve.json"
        curve = sample_curve(5)
        write_json(target, curve_to_dict(curve))
        back = load_json(target)
        assert np.array_equal(back["values"], curve.values)
        assert not list(tmp_path.glob("*.tmp"))

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.text() | st.integers() | st.floats()
                           | st.booleans() | st.none(), st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        max_leaves=40)))
    def test_streamed_json_equals_dumps(self, tmp_path_factory, payload):
        # A payload with a NaN or infinite float has no JSON spelling: it
        # is a NumericalError and leaves no file.
        target = tmp_path_factory.mktemp("json") / "doc.json"
        try:
            want = json.dumps(payload, indent=1, allow_nan=False) + "\n"
        except ValueError:
            with pytest.raises(NumericalError):
                write_json(target, payload)
            assert not any(target.parent.iterdir())
            return
        write_json(target, payload)
        assert target.read_bytes() == want.encode()

    def test_streamed_json_of_an_le_matrix_equals_dumps(self, tmp_path):
        rng = np.random.default_rng(2)
        scatter = [{"i": i, "j": j, "x": rng.normal(size=500).tolist(),
                    "deriv": rng.normal(size=500).tolist()}
                   for i in range(3) for j in range(3)]
        payload = {"schema": SCHEMA, "cells": [[None, {}], [[], [1e-300]]],
                   "scatter": scatter, "name": "\u00e9\u2603"}
        write_json(tmp_path / "m.json", payload)
        assert (tmp_path / "m.json").read_bytes() == \
            (json.dumps(payload, indent=1) + "\n").encode()

    @pytest.mark.parametrize("values", [
        [0.5], (0.25, -3.0), [-0.0, 1e-300, 1.7e308, 5e-324],
        [i / 7.0 for i in range(9000)], [np.float64(0.1), 2.5]],
        ids=["one", "tuple", "extremes", "blocks", "float64"])
    def test_float_lists_are_written_as_dumps_writes_them(self, tmp_path,
                                                          values):
        # Plain lists and tuples of floats, alone and mixed with others.
        payload = {"v": values, "mixed": [values, [1, 2.0], [True, 1.0]]}
        write_json(tmp_path / "doc.json", payload)
        assert (tmp_path / "doc.json").read_bytes() == \
            (json.dumps(payload, indent=1) + "\n").encode()

    def test_a_float_list_is_one_format_operation(self, tmp_path,
                                                  monkeypatch):
        # Of a curve's payload only its five scalars go through _scalar,
        # none of the floats of its grid, values and counts.
        calls = []
        scalar = atdev.io._scalar
        monkeypatch.setattr(atdev.io, "_scalar",
                            lambda v: calls.append(v) or scalar(v))
        payload = curve_to_dict(sample_curve(3))
        write_json(tmp_path / "c.json", payload)
        assert (tmp_path / "c.json").read_bytes() == \
            (json.dumps(payload, indent=1) + "\n").encode()
        assert calls == [SCHEMA, "ALE", 1, None, False]

    @settings(max_examples=40, deadline=None)
    @given(st.recursive(
        st.builds(float_array, st.sampled_from(ARRAY_LENGTHS),
                  st.integers(0, 2**32 - 1))
        | st.none() | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6))
    def test_float_arrays_are_written_as_their_lists(self, tmp_path_factory,
                                                     payload):
        target = tmp_path_factory.mktemp("json") / "doc.json"
        write_json(target, {"schema": SCHEMA, "data": payload})
        want = json.dumps({"schema": SCHEMA, "data": as_lists(payload)},
                          indent=1) + "\n"
        assert target.read_bytes() == want.encode()

    @pytest.mark.parametrize("at", [0, 4095, 4096, 8192])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_array_value_is_a_numerical_error(self, tmp_path, at,
                                                         bad):
        kept = tmp_path / "kept.json"
        write_json(kept, {"schema": SCHEMA})
        before = kept.read_bytes()
        values = float_array(8193, at)
        values[at] = bad
        for target in (tmp_path / "new.json", kept):
            with pytest.raises(NumericalError, match="not JSON compliant"):
                write_json(target, {"cells": [{"x": values[:at + 1]},
                                              {"x": values}]})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]
        assert kept.read_bytes() == before

    def test_failure_mid_stream_leaves_no_file(self, tmp_path):
        payload = {"values": list(range(50_000)), "bad": object()}
        with pytest.raises(TypeError):
            write_json(tmp_path / "new.json", payload)
        kept = tmp_path / "kept.json"
        write_json(kept, {"schema": SCHEMA})
        before = kept.read_bytes()
        with pytest.raises(TypeError):
            write_json(kept, payload)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]
        assert kept.read_bytes() == before

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_float_is_a_numerical_error(self, tmp_path, bad):
        kept = tmp_path / "kept.json"
        write_json(kept, {"schema": SCHEMA})
        before = kept.read_bytes()
        for target in (tmp_path / "new.json", kept):
            with pytest.raises(NumericalError, match="not JSON compliant"):
                write_json(target, {"values": [1.0] * 5000 + [bad]})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]
        assert kept.read_bytes() == before

    def test_atomic_write_replaces_content(self, tmp_path):
        target = tmp_path / "note.txt"
        write_text_atomic(target, "first")
        write_text_atomic(target, "second")
        assert target.read_text() == "second"
        assert not list(tmp_path.glob("*.tmp"))
