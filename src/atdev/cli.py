"""Command-line surface.

Subcommands: simulate, fit-mlp, effects, matrix, heatmap, importance.
Options can come from a JSON config file (--config) with flags taking
precedence; the output directory falls back to the ATDEV_OUT_DIR
environment variable. Exit codes: 0 success, 1 usage error, 2 data or
model error, 3 numerical failure. A failing command removes whatever
files it already wrote.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as aio
from . import svg as asvg
from .data import CurveKind, Dataset, center, load_csv, quantile_bins, save_csv
from .dependence import DEPENDENCE_KINDS, corr_matrix, fit_dependence
from .effects import atdev_terms, effect_matrix, le_curve, marginal, pdp
from .errors import AtdevError, DataError, ModelError, NumericalError, UsageError
from .gradients import gradient_table
from .importance import build_report
from .models import (CATALOG_IDS, MlpModel, Predictor, catalog_model,
                     custom_model, fit_mlp, wrap_external)
from .simgen import CASES, SimSpec, generate, theoretical_r2

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems through the package
    error hierarchy instead of exiting with argparse's own code."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Resolved settings for an estimation command."""

    data: str
    response: str | None
    model_id: str | None
    coeffs: list[float] | None
    terms: list | None
    mlp_weights: str | None
    external_cmd: str | None
    k_bins: int
    fd_step: float | None
    dependence: str
    out_dir: Path
    center: bool
    seed: int
    smooth_marginal: int
    svg: bool
    columns: list[str] | None

    def __post_init__(self):
        sources = [s for s in (self.model_id, self.mlp_weights,
                               self.external_cmd) if s]
        if len(sources) != 1:
            raise UsageError(
                "exactly one model source required: --model-id, "
                "--mlp-weights or --external-cmd")
        if self.k_bins < 2:
            raise UsageError("--k-bins must be >= 2")
        if self.fd_step is not None:
            try:
                self.fd_step = float(self.fd_step)
            except (TypeError, ValueError):
                self.fd_step = math.nan  # rejected just below
            if not (math.isfinite(self.fd_step) and self.fd_step > 0):
                raise UsageError("--fd-step must be a positive finite number")
        if self.dependence not in DEPENDENCE_KINDS:
            raise UsageError(f"--dependence must be one of {DEPENDENCE_KINDS}")
        if self.smooth_marginal < 0:
            raise UsageError("--smooth-marginal must be >= 0")


class _Emitter:
    """Writes command outputs. Used as a context manager, it tears down
    everything it wrote when the body raises."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def __enter__(self) -> _Emitter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for path in self.written:
                path.unlink(missing_ok=True)

    def json(self, name: str, payload: dict) -> Path:
        path = aio.write_json(self.out_dir / name, payload)
        self.written.append(path)
        return path

    def text(self, name: str, text: str) -> Path:
        path = aio.write_text_atomic(self.out_dir / name, text)
        self.written.append(path)
        return path

    def dataset(self, name: str, d: Dataset) -> Path:
        path = self.out_dir / name
        save_csv(d, path)
        self.written.append(path)
        return path


# ---------------------------------------------------------------------------
# Option plumbing
# ---------------------------------------------------------------------------


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"no such config file: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {p} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {p} must hold a JSON object")
    return cfg


def _pick(args: argparse.Namespace, config: dict, name: str, default=None):
    """Flag value if given, else config value, else default."""
    v = getattr(args, name, None)
    if v is not None:
        return v
    if name in config:
        return config[name]
    return default


def _pick_int(args, config, name: str, default: int) -> int:
    """Like ``_pick``, but the value must be an integer (a JSON bool or
    2.7 is not one)."""
    v = _pick(args, config, name, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise UsageError(f"{name!r} must be an integer, got {v!r}")
    return v


def _pick_bool(args, config, name: str, default: bool) -> bool:
    """Like ``_pick``, but the value must be true or false (the string
    "false" is not)."""
    v = _pick(args, config, name, default)
    if not isinstance(v, bool):
        raise UsageError(f"{name!r} must be true or false, got {v!r}")
    return v


def _pick_out_dir(args, config) -> Path:
    v = _pick(args, config, "out_dir")
    if v is None:
        v = os.environ.get("ATDEV_OUT_DIR", ".")
    return Path(v)


def _run_config(args: argparse.Namespace) -> RunConfig:
    config = _read_config(getattr(args, "config", None))
    data = _pick(args, config, "data")
    if not data:
        raise UsageError("a dataset is required (--data or config 'data')")
    return RunConfig(
        data=data,
        response=_pick(args, config, "response"),
        model_id=_pick(args, config, "model_id"),
        coeffs=_pick(args, config, "coeffs"),
        terms=_pick(args, config, "terms"),
        mlp_weights=_pick(args, config, "mlp_weights"),
        external_cmd=_pick(args, config, "external_cmd"),
        k_bins=_pick_int(args, config, "k_bins", 100),
        fd_step=_pick(args, config, "fd_step"),
        dependence=_pick(args, config, "dependence", "linear"),
        out_dir=_pick_out_dir(args, config),
        center=_pick_bool(args, config, "center", True),
        seed=_pick_int(args, config, "seed", 0),
        smooth_marginal=_pick_int(args, config, "smooth_marginal", 0),
        svg=_pick_bool(args, config, "svg", False),
        columns=_pick(args, config, "columns"),
    )


def _load_dataset(cfg: RunConfig) -> Dataset:
    return load_csv(cfg.data, has_response=cfg.response is not None,
                    response_name=cfg.response)


def _build_model(cfg: RunConfig, d: Dataset) -> Predictor:
    if cfg.model_id:
        if cfg.model_id == "custom":
            if not cfg.terms:
                raise UsageError("--model-id custom requires --terms")
            terms = [(float(coef), {int(j): int(a) for j, a in powers.items()})
                     for coef, powers in cfg.terms]
            model = custom_model(d.p, terms)
        else:
            model = catalog_model(cfg.model_id, coeffs=cfg.coeffs, p=d.p)
    elif cfg.mlp_weights:
        model = MlpModel.load(cfg.mlp_weights)
    else:
        model = wrap_external(shlex.split(cfg.external_cmd), p=d.p)
    if model.p != d.p:
        raise ModelError(
            f"model expects {model.p} variables, dataset has {d.p}")
    return model


def _selected_columns(cfg: RunConfig, d: Dataset) -> list[int]:
    if not cfg.columns:
        return list(range(d.p))
    return [d.index_of(name) for name in cfg.columns]


def _maybe_center(curve, cfg: RunConfig):
    return center(curve) if cfg.center else curve


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    config = _read_config(getattr(args, "config", None))
    case = _pick(args, config, "case")
    if not case:
        raise UsageError("--case is required")
    spec = SimSpec(
        case=case,
        n=_pick_int(args, config, "n", 100_000),
        noise_sd=float(_pick(args, config, "noise_sd", 0.1)),
        seed=_pick_int(args, config, "seed", 0),
        mean=tuple(_pick(args, config, "mean", (0.0, 0.0))),
        sigma=tuple(_pick(args, config, "sigma", (1.0, 1.0))),
        rho=float(_pick(args, config, "rho", 0.0)),
        model=_pick(args, config, "bn_model", "additive_linear"),
    )
    with _Emitter(_pick_out_dir(args, config)) as em:
        d = generate(spec)
        em.dataset(f"{spec.case}.csv", d)
        cm = corr_matrix(d)
        em.json(f"{spec.case}.meta.json", {
            "schema": aio.SCHEMA,
            "case": spec.case,
            "n": spec.n,
            "noise_sd": spec.noise_sd,
            "seed": spec.seed,
            "mean": list(spec.mean),
            "sigma": list(spec.sigma),
            "rho": spec.rho,
            "model": spec.model,
            "theoretical_r2": theoretical_r2(spec),
            "correlation": {"names": list(cm.names),
                            "values": cm.values.tolist()},
        })
    return EXIT_OK


def _cmd_fit_mlp(args) -> int:
    config = _read_config(getattr(args, "config", None))
    data = _pick(args, config, "data")
    if not data:
        raise UsageError("--data is required")
    response = _pick(args, config, "response", "y")
    full = load_csv(data, has_response=True, response_name=response)
    seed = _pick_int(args, config, "seed", 0)
    valid_frac = float(_pick(args, config, "valid_frac", 0.1))
    if not (0.0 < valid_frac < 1.0):
        raise UsageError("--valid-frac must be in (0, 1)")
    n_valid = max(1, int(round(full.n * valid_frac)))
    if n_valid >= full.n:
        raise DataError("validation split leaves no training rows")
    order = np.random.default_rng(seed).permutation(full.n)
    tr, va = order[n_valid:], order[:n_valid]

    def _slice(rows):
        return Dataset(names=list(full.names),
                       columns=[c[rows] for c in full.columns],
                       response=full.response[rows])

    model, report = fit_mlp(
        _slice(tr), _slice(va),
        hidden=_pick_int(args, config, "hidden", 40),
        max_epochs=_pick_int(args, config, "max_epochs", 600),
        patience=_pick_int(args, config, "patience", 20),
        seed=seed,
        learning_rate=float(_pick(args, config, "learning_rate", 1e-2)),
        batch_size=_pick_int(args, config, "batch_size", 256),
    )
    with _Emitter(_pick_out_dir(args, config)) as em:
        em.json("mlp_weights.json", model.to_dict())
        em.json("mlp_fit.json", {"schema": aio.SCHEMA, **report.to_dict()})
    print(f"validation R^2 = {report.valid_r2:.4f} "
          f"({report.epochs_run} epochs)")
    return EXIT_OK


def _curve_meta(cfg: RunConfig, table) -> dict:
    return {"k_bins": cfg.k_bins, "dependence": cfg.dependence,
            "gradient_method": table.method,
            "smooth_marginal": cfg.smooth_marginal}


def _cmd_effects(args) -> int:
    cfg = _run_config(args)
    d = _load_dataset(cfg)
    model = _build_model(cfg, d)
    with _Emitter(cfg.out_dir) as em:
        table = gradient_table(model, d, h=cfg.fd_step)
        for j in _selected_columns(cfg, d):
            name = d.names[j]
            scheme = quantile_bins(d, j, cfg.k_bins)
            dep = fit_dependence(d, j, cfg.dependence)
            pd_c = pdp(model, d, j, bins=scheme)
            mg_c = marginal(model, d, j, bins=scheme,
                            smooth=cfg.smooth_marginal)
            terms, tot_c = atdev_terms(model, d, j, dep=dep, bins=scheme,
                                       table=table)
            ale_c = terms.pop(j)
            le_c = le_curve(model, d, j, j, bins=scheme, table=table)

            curves = [pd_c, mg_c, ale_c, *terms, tot_c, le_c]
            out = [_maybe_center(c, cfg) for c in curves]
            em.text(f"curves_{name}.csv", aio.curves_to_csv(out))
            em.json(f"curves_{name}.json", {
                "schema": aio.SCHEMA, "variable": name,
                "curves": [aio.curve_to_dict(c, meta=_curve_meta(cfg, table))
                           for c in out]})

            # Overlays are always centered; level offsets are exactly what
            # the comparisons are meant to ignore.
            tot_cc, mg_cc = center(tot_c), center(mg_c)
            pd_cc, ale_cc = center(pd_c), center(ale_c)
            em.json(f"overlay_total_marginal_{name}.json", {
                "schema": aio.SCHEMA, "variable": name,
                "curves": {"total": aio.curve_to_dict(tot_cc),
                           "marginal": aio.curve_to_dict(mg_cc)}})
            em.json(f"overlay_pd_marginal_ale_{name}.json", {
                "schema": aio.SCHEMA, "variable": name,
                "curves": {"pd": aio.curve_to_dict(pd_cc),
                           "marginal": aio.curve_to_dict(mg_cc),
                           "ale": aio.curve_to_dict(ale_cc)}})
            if cfg.svg:
                em.text(f"overlay_total_marginal_{name}.svg",
                        asvg.curve_chart([tot_cc, mg_cc],
                                         ["total", "marginal"], title=name))
                em.text(f"overlay_pd_marginal_ale_{name}.svg",
                        asvg.curve_chart([pd_cc, mg_cc, ale_cc],
                                         ["pd", "marginal", "ale"], title=name))
    return EXIT_OK


def _le_extras(d, table, cap: int, seed: int):
    rng = np.random.default_rng(seed)
    scatter = []
    for i in range(d.p):
        for j in range(d.p):
            rows = np.arange(d.n)
            if d.n > cap:
                rows = np.sort(rng.choice(d.n, size=cap, replace=False))
            scatter.append({
                "i": i, "j": j,
                "x": d.column(j)[rows].tolist(),
                "deriv": table.values[rows, i].tolist()})
    histograms = []
    for j in range(d.p):
        counts, edges = np.histogram(table.values[:, j], bins=40)
        histograms.append({"j": j, "edges": edges.tolist(),
                           "counts": counts.tolist()})
    return scatter, histograms


def _cmd_matrix(args) -> int:
    cfg = _run_config(args)
    kind = CurveKind(args.kind)
    d = _load_dataset(cfg)
    model = _build_model(cfg, d)
    with _Emitter(cfg.out_dir) as em:
        table = gradient_table(model, d, h=cfg.fd_step)
        matrix = effect_matrix(model, d, kind, k_bins=cfg.k_bins,
                               dependence=cfg.dependence, table=table)
        scatter = histograms = None
        if kind is CurveKind.LE:
            scatter, histograms = _le_extras(
                d, table, cap=int(args.scatter_cap), seed=cfg.seed)
        stem = f"matrix_{kind.value.lower()}"
        em.json(f"{stem}.json",
                aio.matrix_to_dict(matrix, scatter=scatter,
                                   histograms=histograms))
        if cfg.svg:
            em.text(f"{stem}.svg",
                    asvg.matrix_chart(matrix, title=kind.value))
    return EXIT_OK


def _cmd_heatmap(args) -> int:
    cfg = _run_config(args)
    d = _load_dataset(cfg)
    model = _build_model(cfg, d)
    with _Emitter(cfg.out_dir) as em:
        report = build_report(model, d, k_bins=cfg.k_bins,
                              dependence=cfg.dependence,
                              table=gradient_table(model, d, h=cfg.fd_step))
        vmax = float(report.v.max())
        shades = report.v / vmax if vmax > 0 else report.v
        comp = aio.HeatMapData(names=report.names, values=shades,
                               scale="nonnegative")
        corr = aio.corr_to_heatmap(corr_matrix(d))
        em.json("components_heatmap.json", aio.heatmap_to_dict(comp))
        em.json("correlation_heatmap.json", aio.heatmap_to_dict(corr))
        em.json("component_totals_bars.json", aio.bars_to_dict(
            aio.BarData(label="column effect variance",
                        names=report.names, values=report.v_plus)))
        em.json("derivative_energy_bars.json", aio.bars_to_dict(
            aio.BarData(label="mean squared derivative",
                        names=report.names, values=report.dgsm)))
        if cfg.svg:
            em.text("components_heatmap.svg",
                    asvg.heatmap_chart(comp, title="effect components"))
            em.text("correlation_heatmap.svg",
                    asvg.heatmap_chart(corr, title="correlation"))
            em.text("component_totals_bars.svg",
                    asvg.bar_chart(list(report.names), report.v_plus,
                                   title="column effect variance"))
            em.text("derivative_energy_bars.svg",
                    asvg.bar_chart(list(report.names), report.dgsm,
                                   title="mean squared derivative"))
    return EXIT_OK


def _cmd_importance(args) -> int:
    cfg = _run_config(args)
    d = _load_dataset(cfg)
    model = _build_model(cfg, d)
    with _Emitter(cfg.out_dir) as em:
        report = build_report(model, d, k_bins=cfg.k_bins,
                              dependence=cfg.dependence,
                              table=gradient_table(model, d, h=cfg.fd_step))
        em.json("importance.json", aio.report_to_dict(report))
        em.text("importance.csv", aio.report_to_csv(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--config", help="JSON file with defaults; flags win")
    sp.add_argument("--out-dir", dest="out_dir",
                    help="output directory (or ATDEV_OUT_DIR)")
    sp.add_argument("--seed", type=int, dest="seed")


def _add_run(sp):
    _add_common(sp)
    sp.add_argument("--data", help="predictor CSV (header row)")
    sp.add_argument("--response", dest="response",
                    help="name of a response column to split off")
    sp.add_argument("--model-id", dest="model_id",
                    help=f"built-in model: one of {', '.join(CATALOG_IDS)}, or custom")
    sp.add_argument("--coeffs", dest="coeffs", type=float, nargs="+",
                    help="slope vector for additive_linear")
    sp.add_argument("--terms", dest="terms", type=json.loads,
                    help='custom polynomial, e.g. \'[[1.0, {"0": 2}]]\'')
    sp.add_argument("--mlp-weights", dest="mlp_weights",
                    help="weights JSON written by fit-mlp")
    sp.add_argument("--external-cmd", dest="external_cmd",
                    help="scoring command reading the line protocol on stdin")
    sp.add_argument("--k-bins", dest="k_bins", type=int)
    sp.add_argument("--fd-step", dest="fd_step", type=float,
                    help="finite-difference step override")
    sp.add_argument("--dependence", choices=list(DEPENDENCE_KINDS))
    sp.add_argument("--center", dest="center",
                    action=argparse.BooleanOptionalAction,
                    help="center emitted curves (default on)")
    sp.add_argument("--smooth-marginal", dest="smooth_marginal", type=int,
                    help="half-window (in bins) for marginal smoothing")
    sp.add_argument("--svg", dest="svg", action=argparse.BooleanOptionalAction,
                    help="also render SVG charts")
    sp.add_argument("--columns", nargs="+",
                    help="restrict to these variables (names)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="atdev",
                     description="Derivative-based effect curves and "
                                 "importance measures for black-box models")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    sp = sub.add_parser("simulate", help="write a synthetic dataset + sidecar")
    _add_common(sp)
    sp.add_argument("--case", choices=list(CASES))
    sp.add_argument("--n", type=int)
    sp.add_argument("--noise-sd", dest="noise_sd", type=float)
    sp.add_argument("--rho", type=float)
    sp.add_argument("--mean", type=float, nargs=2)
    sp.add_argument("--sigma", type=float, nargs=2)
    sp.add_argument("--bn-model", dest="bn_model",
                    choices=["additive_linear", "multiplicative",
                             "quad_plus_interaction"])
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("fit-mlp", help="train the built-in network")
    _add_common(sp)
    sp.add_argument("--data")
    sp.add_argument("--response", dest="response")
    sp.add_argument("--hidden", type=int)
    sp.add_argument("--max-epochs", dest="max_epochs", type=int)
    sp.add_argument("--patience", type=int)
    sp.add_argument("--valid-frac", dest="valid_frac", type=float)
    sp.add_argument("--learning-rate", dest="learning_rate", type=float)
    sp.add_argument("--batch-size", dest="batch_size", type=int)
    sp.set_defaults(func=_cmd_fit_mlp)

    sp = sub.add_parser("effects",
                        help="per-variable curves and overlay bundles")
    _add_run(sp)
    sp.set_defaults(func=_cmd_effects)

    sp = sub.add_parser("matrix", help="p x p effect matrix data")
    _add_run(sp)
    sp.add_argument("--kind", choices=["ATDEV", "LE"], default="ATDEV")
    sp.add_argument("--scatter-cap", dest="scatter_cap", type=int,
                    default=5000,
                    help="max raw points per LE cell")
    sp.set_defaults(func=_cmd_matrix)

    sp = sub.add_parser("heatmap",
                        help="importance heat maps and bar data")
    _add_run(sp)
    sp.set_defaults(func=_cmd_heatmap)

    sp = sub.add_parser("importance", help="importance report JSON + CSV")
    _add_run(sp)
    sp.set_defaults(func=_cmd_importance)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AtdevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
