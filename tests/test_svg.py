"""The SVG exports parse as XML and carry the expected elements. Each
chart is drawn from its JSON payload and a title."""

import xml.etree.ElementTree as ET

import numpy as np

from atdev import (CurveKind, Dataset, EffectCurve, Estimation, catalog_model,
                   effect_matrix)
from atdev.io import (bars_to_dict, curve_to_dict, heatmap_to_dict,
                      matrix_to_dict)
from atdev.svg import bar_chart, curve_chart, heatmap_chart, matrix_chart

NS = "{http://www.w3.org/2000/svg}"


def curve(seed=0, n=15):
    rng = np.random.default_rng(seed)
    return EffectCurve(kind=CurveKind.ALE, j=0,
                       grid=np.linspace(-1, 1, n),
                       values=rng.normal(size=n),
                       counts=np.ones(n))


def overlay(*curves, labels):
    return {"curves": {lab: curve_to_dict(c) for lab, c in zip(labels, curves)}}


def count(root, tag):
    return len(root.findall(f".//{NS}{tag}"))


class TestCurveChart:
    def test_parses_and_has_one_polyline_per_curve(self):
        text = curve_chart(overlay(curve(0), curve(1), curve(2),
                                   labels=["a", "b", "c"]), "overlay")
        root = ET.fromstring(text)
        assert root.tag == f"{NS}svg"
        assert count(root, "polyline") == 3

    def test_title_is_escaped(self):
        text = curve_chart(overlay(curve(), labels=["x"]), 'a < b & "c"')
        root = ET.fromstring(text)
        labels = [t.text for t in root.findall(f".//{NS}text")]
        assert 'a < b & "c"' in labels

    def test_deterministic(self):
        a = curve_chart(overlay(curve(3), labels=["x"]), "t")
        b = curve_chart(overlay(curve(3), labels=["x"]), "t")
        assert a == b

    def test_flat_curve_still_renders(self):
        flat = EffectCurve(kind=CurveKind.ALE, j=0,
                           grid=np.linspace(0, 1, 5),
                           values=np.zeros(5), counts=np.ones(5))
        ET.fromstring(curve_chart(overlay(flat, labels=["flat"]), ""))


class TestMatrixChart:
    def test_full_grid(self):
        rng = np.random.default_rng(4)
        d = Dataset(names=["x1", "x2"],
                    columns=[rng.uniform(-1, 1, 2_000),
                             rng.uniform(-1, 1, 2_000)])
        em = effect_matrix(Estimation(catalog_model("quad_plus_interaction"),
                                      d, k_bins=12), CurveKind.ATDEV)
        root = ET.fromstring(matrix_chart(matrix_to_dict(em), "cells"))
        assert count(root, "polyline") == 4
        labels = [t.text for t in root.findall(f".//{NS}text")]
        assert "x1" in labels and "x2" in labels


class TestHeatmapChart:
    def test_one_rect_per_cell(self):
        h = heatmap_to_dict(("a", "b", "c"), np.abs(np.diag([3.0, 2.0, 1.0])),
                            "nonnegative")
        root = ET.fromstring(heatmap_chart(h, "v"))
        assert count(root, "rect") == 9

    def test_signed_palette_renders(self):
        v = np.array([[1.0, -0.5], [-0.5, 1.0]])
        root = ET.fromstring(heatmap_chart(
            heatmap_to_dict(("a", "b"), v, "signed"), ""))
        assert count(root, "rect") == 4


class TestBarChart:
    def test_one_bar_per_name(self):
        root = ET.fromstring(
            bar_chart(bars_to_dict("energy", ["x1", "x2", "x3"],
                                   np.array([2.0, 1.0, 0.5])), "importance"))
        # frame rect plus three bars
        assert count(root, "rect") == 4

    def test_all_zero_values_render(self):
        ET.fromstring(bar_chart(bars_to_dict("energy", ["x1"],
                                             np.array([0.0])), ""))
