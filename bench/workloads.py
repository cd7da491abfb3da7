"""The three benchmark workloads: their set-up, their jobs and their output
checks.

A workload is a fixed set of `atdev` commands run on inputs that the
benchmark generates from its seed. `setup_commands` prepares the inputs
through the CLI; `steps` is one job, a list of CLI invocations, each with
the check its outputs must pass. WORKLOADS.md says why each workload exists
and which layer it should and should not stress.

The checks do not trust the code under test: every reference is computed
here with plain numpy from the generated CSV (read with np.loadtxt, not
atdev's loader), the network weights file, or the closed-form curves in
atdev.simgen. Their tolerances hold at any seed: the statistical ones are
about three times the largest residual seen over 40 seeds.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

K_BINS = 100


class CheckError(Exception):
    """An output differs from its reference."""


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a job and the check of what it wrote."""

    argv: list[str]
    check: Callable[[Path], None]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and the N x (p+1) matrix of a generated CSV."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    return names, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def quantile_grid(x: np.ndarray, k: int = K_BINS):
    """Midpoints, counts and per-row bin index of k equal-count bins with
    edges at the empirical quantiles, bins half-open with the last closed.
    Continuous draws have no tied edges, so no bins merge."""
    edges = np.quantile(x, np.linspace(0.0, 1.0, k + 1))
    if len(np.unique(edges)) != k + 1:
        raise CheckError("reference binning found tied quantile edges")
    bin_of = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, k - 1)
    counts = np.bincount(bin_of, minlength=k).astype(np.float64)
    return (edges[:-1] + edges[1:]) / 2.0, counts, bin_of


def centered(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return values - np.dot(values, counts) / counts.sum()


def expect_close(what: str, got, want, tol: float) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape}, expected {want.shape}")
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not gap <= tol:
        raise CheckError(f"{what}: max |diff| {gap:.3g} > {tol:.3g}")


def load_json(path: Path) -> dict:
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    return json.loads(path.read_text())


def expect_svg(path: Path) -> None:
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckError(f"{path.name} is not well-formed XML: {exc}") from None
    if not root.tag.endswith("svg"):
        raise CheckError(f"{path.name} has root <{root.tag}>, expected <svg>")


def expect_grid(what: str, curve: dict, mid: np.ndarray, counts: np.ndarray) -> None:
    expect_close(f"{what} grid", curve["grid"], mid, 1e-12)
    expect_close(f"{what} counts", curve["counts"], counts, 0.0)


def expect_report(report: dict, dgsm_ref: np.ndarray, rtol: float) -> None:
    """importance.json: dgsm against the reference, v_+j the column sums
    of v_ij, and every v_ij nonnegative."""
    v = np.asarray(report["v"], dtype=np.float64)
    if np.any(v < 0):
        raise CheckError("importance: negative v_ij")
    expect_close("importance v_plus", report["v_plus"], v.sum(axis=0),
                 1e-12 * max(1.0, float(v.sum())))
    expect_close("importance dgsm", report["dgsm"], dgsm_ref,
                 rtol * float(np.max(np.abs(dgsm_ref))))


# ---------------------------------------------------------------------------
# effects-poly
# ---------------------------------------------------------------------------


def case_623(x1, x2, x3, x4, x5) -> np.ndarray:
    """f = x1 + (3 x2^2 - 1)/2 + (4 x3^3 - 3 x3)/2 + 0.8 x2 x4, written
    out here so the check does not use the package's polynomial code."""
    return x1 + 1.5 * x2 * x2 - 0.5 + 2.0 * x3 * x3 * x3 - 1.5 * x3 + 0.8 * x2 * x4


class EffectsPoly:
    name = "effects-poly"
    n = 100_000

    def __init__(self, setup_dir: Path, seed: int):
        self.seed = seed
        self.data = setup_dir / "data" / "complex_623.csv"

    def setup_commands(self) -> list[list[str]]:
        return [["simulate", "--case", "complex_623", "--n", str(self.n),
                 "--seed", str(self.seed), "--out-dir", str(self.data.parent)]]

    def inputs(self) -> list[Path]:
        return [self.data]

    def steps(self, out: Path) -> list[Step]:
        return [Step(["effects", "--data", str(self.data), "--response", "y",
                      "--model-id", "case_623", "--k-bins", str(K_BINS),
                      "--out-dir", str(out)], self.check_effects)]

    def load_reference(self) -> None:
        """Brute-force PD sweep: for each bin midpoint z, overwrite column j
        with z in every row and average the polynomial."""
        names, table = read_table(self.data)
        self.names = names[:-1]
        columns = [np.ascontiguousarray(table[:, j]) for j in range(len(self.names))]
        self.ref = []
        for j, xj in enumerate(columns):
            mid, counts, _ = quantile_grid(xj)
            swept = list(columns)
            pd = np.empty(len(mid))
            for g, z in enumerate(mid):
                swept[j] = np.full(len(xj), z)
                pd[g] = np.mean(case_623(*swept))
            self.ref.append((mid, counts, centered(pd, counts)))

    def check_effects(self, out: Path) -> None:
        for name, (mid, counts, pd) in zip(self.names, self.ref):
            curves = load_json(out / f"curves_{name}.json")["curves"]
            kinds = [c["kind"] for c in curves]
            if kinds != ["PD", "Marginal", "ALE", "ACE", "ACE", "ACE", "ACE",
                         "ATDEV", "LE"]:
                raise CheckError(f"curves_{name}.json holds kinds {kinds}")
            expect_grid(f"{name} PD", curves[0], mid, counts)
            expect_close(f"{name} PD vs brute-force sweep", curves[0]["values"],
                         pd, 1e-9)


# ---------------------------------------------------------------------------
# report-mlp
# ---------------------------------------------------------------------------


class ReportMlp:
    name = "report-mlp"
    n = 100_000
    n_train = 22_000
    # The network is part of the workload, like the polynomial of
    # effects-poly: it is always trained on the same 22k draw. Its epoch
    # count (117) and so the cost of fit-mlp do not change with the seed,
    # which varies the 100k set the job runs on.
    train_seed = 0

    def __init__(self, setup_dir: Path, seed: int):
        self.seed = seed
        self.data = setup_dir / "data" / "complex_623.csv"
        self.train = setup_dir / "train" / "complex_623.csv"
        self.weights = setup_dir / "mlp" / "mlp_weights.json"

    def setup_commands(self) -> list[list[str]]:
        return [
            ["simulate", "--case", "complex_623", "--n", str(self.n),
             "--seed", str(self.seed), "--out-dir", str(self.data.parent)],
            ["simulate", "--case", "complex_623", "--n", str(self.n_train),
             "--seed", str(self.train_seed), "--out-dir", str(self.train.parent)],
            ["fit-mlp", "--data", str(self.train), "--response", "y",
             "--out-dir", str(self.weights.parent)],
        ]

    def inputs(self) -> list[Path]:
        return [self.data, self.train, self.weights]

    def steps(self, out: Path) -> list[Step]:
        run = ["--data", str(self.data), "--response", "y",
               "--mlp-weights", str(self.weights), "--k-bins", str(K_BINS),
               "--out-dir", str(out)]
        return [
            Step(["matrix", "--kind", "ATDEV", "--dependence", "local_linear",
                  "--svg", *run], self.check_matrix_atdev),
            Step(["matrix", "--kind", "LE", "--svg", *run], self.check_matrix_le),
            Step(["importance", *run], self.check_importance),
            Step(["heatmap", "--svg", *run], self.check_heatmap),
        ]

    def load_reference(self) -> None:
        """Network gradient in numpy: df/dx = W1^T (sech^2(W1 x + b1) * w2)."""
        _, table = read_table(self.data)
        x = table[:, :-1]
        w = json.loads(self.weights.read_text())
        w1, b1, w2 = (np.asarray(w[k], dtype=np.float64) for k in ("w1", "b1", "w2"))
        a = np.tanh(x @ w1.T + b1)
        grad = ((1.0 - a * a) * w2) @ w1
        self.dgsm = np.mean(grad ** 2, axis=0)
        self.le_diag = []
        for j in range(x.shape[1]):
            mid, counts, bin_of = quantile_grid(x[:, j])
            means = np.bincount(bin_of, weights=grad[:, j], minlength=K_BINS) / counts
            self.le_diag.append((mid, counts, centered(means, counts)))
        self.corr = np.corrcoef(x.T)

    def check_matrix_atdev(self, out: Path) -> None:
        m = load_json(out / "matrix_atdev.json")
        p = len(m["names"])
        for j in range(p):
            cells = [m["cells"][i][j] for i in range(p)]
            kinds = [c["kind"] for c in cells]
            if kinds != ["ACE"] * j + ["ALE"] + ["ACE"] * (p - j - 1):
                raise CheckError(f"matrix_atdev column {j} holds kinds {kinds}")
            col_sum = np.sum([c["values"] for c in cells], axis=0)
            expect_close(f"matrix_atdev total {j} vs column sum",
                         m["totals"][j]["values"], col_sum,
                         1e-12 * max(1.0, float(np.max(np.abs(col_sum)))))
        expect_svg(out / "matrix_atdev.svg")

    def check_matrix_le(self, out: Path) -> None:
        m = load_json(out / "matrix_le.json")
        for j, (mid, counts, le) in enumerate(self.le_diag):
            cell = m["cells"][j][j]
            expect_grid(f"matrix_le cell ({j},{j})", cell, mid, counts)
            expect_close(f"matrix_le cell ({j},{j}) vs numpy gradient",
                         cell["values"], le, 1e-9 * max(1.0, float(np.max(np.abs(le)))))
        if m["totals"] is not None or not m.get("scatter"):
            raise CheckError("matrix_le: expected scatter samples and no totals")
        expect_svg(out / "matrix_le.svg")

    def check_importance(self, out: Path) -> None:
        expect_report(load_json(out / "importance.json"), self.dgsm, 1e-9)

    def check_heatmap(self, out: Path) -> None:
        comp = np.asarray(load_json(out / "components_heatmap.json")["values"])
        if np.any(comp < 0) or np.max(comp) != 1.0:
            raise CheckError("components heat map is not scaled to max 1")
        expect_close("correlation heat map vs np.corrcoef",
                     load_json(out / "correlation_heatmap.json")["values"],
                     self.corr, 1e-9)
        expect_close("derivative energy bars vs numpy gradient",
                     load_json(out / "derivative_energy_bars.json")["values"],
                     self.dgsm, 1e-9 * float(np.max(self.dgsm)))
        for stem in ("components_heatmap", "correlation_heatmap",
                     "component_totals_bars", "derivative_energy_bars"):
            expect_svg(out / f"{stem}.svg")


# ---------------------------------------------------------------------------
# external-fd
# ---------------------------------------------------------------------------

# Largest residual of the x1 curves against the closed forms over 40 seeds,
# times about three: Marginal 0.066, ALE and ATDEV 1.7e-3, ACE 1.8e-4.
# PD and the ACE through the unused x3 are exact.
_ORACLE_TOL = {"PD": 1e-9, "Marginal": 0.2, "ALE": 5e-3, "ACE": 5e-3, "ATDEV": 5e-3}


class ExternalFd:
    name = "external-fd"
    n = 10_000

    def __init__(self, setup_dir: Path, seed: int):
        self.seed = seed
        self.data = setup_dir / "data" / "interaction_622.csv"
        scorer = Path(__file__).resolve().parent / "poly3_scorer.py"
        self.external_cmd = shlex.join([sys.executable, str(scorer)])

    def setup_commands(self) -> list[list[str]]:
        return [["simulate", "--case", "interaction_622", "--n", str(self.n),
                 "--seed", str(self.seed), "--out-dir", str(self.data.parent)]]

    def inputs(self) -> list[Path]:
        return [self.data]

    def steps(self, out: Path) -> list[Step]:
        run = ["--data", str(self.data), "--response", "y",
               "--external-cmd", self.external_cmd, "--k-bins", str(K_BINS),
               "--out-dir", str(out)]
        return [Step(["effects", "--columns", "x1", *run], self.check_effects),
                Step(["importance", *run], self.check_importance)]

    def load_reference(self) -> None:
        """Closed-form x1 curves of f = x1 + x2 + x1 x2 under the data's own
        linear dependence, and the mean squared exact partials."""
        from atdev.data import Dataset
        from atdev.simgen import oracle, params_from_data

        names, table = read_table(self.data)
        x = table[:, :-1]
        params = params_from_data(Dataset(names=names[:-1],
                                          columns=[x[:, j].copy() for j in range(x.shape[1])]))
        self.mid, self.counts, _ = quantile_grid(x[:, 0])
        self.curves = {}
        for kind, k in (("PD", None), ("Marginal", None), ("ALE", None),
                        ("ACE", 1), ("ACE", 2), ("ATDEV", None)):
            values = oracle("interaction_622", kind, 0, params, k=k)(self.mid)
            self.curves[(kind, k)] = centered(values, self.counts)
        self.dgsm = np.array([np.mean((1.0 + x[:, 1]) ** 2),
                              np.mean((1.0 + x[:, 0]) ** 2), 0.0])

    def check_effects(self, out: Path) -> None:
        curves = load_json(out / "curves_x1.json")["curves"]
        seen = {(c["kind"], c["k"]): c for c in curves}
        for (kind, k), want in self.curves.items():
            if (kind, k) not in seen:
                raise CheckError(f"curves_x1.json has no {kind} curve (k={k})")
            got = seen[(kind, k)]
            expect_grid(f"x1 {kind}", got, self.mid, self.counts)
            expect_close(f"x1 {kind} (k={k}) vs closed form", got["values"],
                         want, _ORACLE_TOL[kind])

    def check_importance(self, out: Path) -> None:
        # Central differences of a bilinear f are exact up to rounding.
        expect_report(load_json(out / "importance.json"), self.dgsm, 1e-6)


WORKLOADS = {w.name: w for w in (EffectsPoly, ReportMlp, ExternalFd)}
