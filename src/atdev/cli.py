"""Command-line surface.

Subcommands: simulate, fit-mlp, effects, matrix, heatmap, importance.
Every option is declared once, in ``_OPTIONS``: its name, the
subcommands that read it, its JSON type or choices, its default and its
check. The subparsers' flags, the config-file reader and the resolved
settings all come from that table. A value comes from its flag, else
from the JSON config file (--config), else from its default; the output
directory falls back to the ATDEV_OUT_DIR environment variable before
its default. A config key must name an option of the subcommand and hold
a value of that option's JSON type.

The four estimation commands (``_RUNS``) share one run step,
``_estimation``: it checks the options, loads the data and the model,
opens the ``_Emitter`` and builds the run's ``Estimation`` context with
its gradient table, and the command only computes and writes. Every
chart is written by ``_Emitter.figure``: its JSON always, and an SVG
under the same stem with --svg. Exit codes:
0 success, 1 usage error, 2 data, model or file error, 3 numerical
failure. A failing command removes whatever files it already wrote.
Importing this module loads numpy with one BLAS thread unless the caller
set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

# OpenBLAS's idle worker spins about 0.13 s of CPU per process (2 vCPUs),
# as no product here is big enough to give it work. Unless the caller chose
# a count, numpy loads with one; the variable goes, so scorers never see it.
_PIN_BLAS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
             "OMP_NUM_THREADS"}.isdisjoint(os.environ)
if _PIN_BLAS:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _PIN_BLAS:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import io as aio
from . import svg as asvg
from .data import Dataset, center, load_csv, save_csv
from .dependence import DEPENDENCE_KINDS, corr_matrix
from .effects import (Estimation, atdev_terms, effect_matrix, le_curve,
                      marginal, pdp)
from .errors import AtdevError, DataError, ModelError, NumericalError, UsageError
from .importance import build_report
from .models import (CATALOG_IDS, MlpModel, catalog_model, custom_model,
                     fit_mlp, wrap_external)
from .simgen import BIVARIATE_MODELS, CASES, SimSpec, generate, theoretical_r2

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems through the package
    error hierarchy instead of exiting with argparse's own code."""

    def error(self, message):
        raise UsageError(message)


class _Once(argparse.Action):
    """Stores a list flag's values; a second use of the flag is a usage
    error, where argparse's own ``store`` would keep the last one only."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


class _Emitter:
    """Writes command outputs, charts as SVG too when ``svg`` is set. Used
    as a context manager, it tears down everything it wrote when the body
    raises."""

    def __init__(self, out_dir: str, svg: bool = False):
        self.out_dir = Path(out_dir)
        self.svg = svg
        self.written: list[Path] = []
        self.out_dir.mkdir(parents=True, exist_ok=True)

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

    def figure(self, stem: str, payload: dict,
               chart: Callable[[dict, str], str], title: str) -> None:
        """A chart: ``stem.json`` holds its payload, and ``stem.svg``, when
        the run asked for SVG, the picture ``chart(payload, title)``."""
        self.json(f"{stem}.json", payload)
        if self.svg:
            self.text(f"{stem}.svg", chart(payload, title))

    def dataset(self, name: str, d: Dataset) -> Path:
        path = self.out_dir / name
        save_csv(d, path)
        self.written.append(path)
        return path


# ---------------------------------------------------------------------------
# Option table
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


@dataclass(frozen=True)
class _Kind:
    """A JSON value type: its name in messages, its test, and how a flag
    spells it (argparse ``type`` and ``nargs``). ``cast`` maps a valid
    value to the one the command uses."""

    phrase: str
    test: Callable[[object], bool]
    type: Callable | None = None
    nargs: int | str | None = None
    cast: Callable = lambda v: v


_INT = _Kind("an integer", _is_int, int)
_FLOAT = _Kind("a finite number", _is_number, float, cast=float)
_PAIR = _Kind("two finite numbers",
              lambda v: (isinstance(v, list) and len(v) == 2
                         and all(map(_is_number, v))),
              float, 2, cast=lambda v: (float(v[0]), float(v[1])))
_FLOATS = _Kind("a non-empty list of finite numbers",
                lambda v: (isinstance(v, list) and len(v) > 0
                           and all(map(_is_number, v))),
                float, "+")
_BOOL = _Kind("true or false", lambda v: isinstance(v, bool))
_STR = _Kind("a string", lambda v: isinstance(v, str))
_STRS = _Kind("a non-empty list of strings",
              lambda v: (isinstance(v, list) and len(v) > 0
                         and all(isinstance(s, str) for s in v)),
              nargs="+")
_TERMS = _Kind("a list of [coefficient, {column: power}] terms",
               lambda v: isinstance(v, list), json.loads)


def _at_least(lo: int) -> tuple[Callable, str]:
    return (lambda v: v >= lo), f">= {lo}"


@dataclass(frozen=True)
class _Opt:
    """One option: the subcommands that read it, its JSON type (and
    choices), its default and its check, a (test, phrase) pair. A
    required option has no default."""

    name: str
    commands: tuple[str, ...]
    kind: _Kind
    default: object = None
    choices: tuple | None = None
    check: tuple[Callable, str] | None = None
    required: bool = False
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_RUNS = ("effects", "matrix", "heatmap", "importance")
_MATRIX_KINDS = ("ATDEV", "LE")

_OPTIONS = (
    _Opt("out_dir", ("simulate", "fit-mlp", *_RUNS), _STR, ".",
         help="output directory (or ATDEV_OUT_DIR)"),
    _Opt("seed", ("simulate", "fit-mlp"), _INT, 0, check=_at_least(0)),
    # simulate
    _Opt("case", ("simulate",), _STR, choices=CASES, required=True),
    _Opt("n", ("simulate",), _INT, 100_000, check=_at_least(2)),
    _Opt("noise_sd", ("simulate",), _FLOAT, 0.1,
         check=(lambda v: v >= 0, ">= 0")),
    # read by the bivariate_normal case only; SimSpec holds the defaults
    _Opt("rho", ("simulate",), _FLOAT,
         check=(lambda v: abs(v) < 1, "in (-1, 1)")),
    _Opt("mean", ("simulate",), _PAIR),
    _Opt("sigma", ("simulate",), _PAIR,
         check=(lambda v: min(v) > 0, "two numbers > 0")),
    _Opt("bn_model", ("simulate",), _STR, choices=BIVARIATE_MODELS),
    # data
    _Opt("data", ("fit-mlp", *_RUNS), _STR, required=True,
         help="CSV with a header row"),
    _Opt("response", ("fit-mlp",), _STR, "y"),
    _Opt("response", _RUNS, _STR,
         help="name of a response column to split off"),
    # fit-mlp
    _Opt("hidden", ("fit-mlp",), _INT, 40, check=_at_least(1)),
    _Opt("max_epochs", ("fit-mlp",), _INT, 600, check=_at_least(1)),
    _Opt("patience", ("fit-mlp",), _INT, 20, check=_at_least(0)),
    _Opt("valid_frac", ("fit-mlp",), _FLOAT, 0.1,
         check=(lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    _Opt("learning_rate", ("fit-mlp",), _FLOAT, 1e-2,
         check=(lambda v: v > 0, "> 0")),
    _Opt("batch_size", ("fit-mlp",), _INT, 256, check=_at_least(1)),
    # model source of the estimation commands: exactly one of model_id,
    # mlp_weights and external_cmd
    _Opt("model_id", _RUNS, _STR,
         help=f"built-in model: one of {', '.join(CATALOG_IDS)}, or custom"),
    _Opt("coeffs", _RUNS, _FLOATS, help="slope vector for additive_linear"),
    _Opt("terms", _RUNS, _TERMS,
         help='custom polynomial, e.g. \'[[1.0, {"0": 2}]]\''),
    _Opt("mlp_weights", _RUNS, _STR, help="weights JSON written by fit-mlp"),
    _Opt("external_cmd", _RUNS, _STR,
         help="scoring command reading the line protocol on stdin"),
    _Opt("fd_step", _RUNS, _FLOAT,
         check=(lambda v: v > 0, "a positive finite number"),
         help="finite-difference step (--external-cmd only)"),
    # estimation
    _Opt("k_bins", _RUNS, _INT, 100, check=_at_least(2)),
    _Opt("dependence", _RUNS, _STR, "linear", choices=DEPENDENCE_KINDS),
    _Opt("center", ("effects",), _BOOL, True,
         help="center emitted curves (default on)"),
    _Opt("smooth_marginal", ("effects",), _INT, 0, check=_at_least(0),
         help="half-window (in bins) for marginal smoothing"),
    _Opt("columns", ("effects",), _STRS,
         help="restrict to these variables (names)"),
    _Opt("svg", ("effects", "matrix", "heatmap"), _BOOL, False,
         help="also render SVG charts"),
    _Opt("kind", ("matrix",), _STR, "ATDEV", choices=_MATRIX_KINDS),
    _Opt("seed", ("matrix",), _INT, check=_at_least(0)),
    _Opt("scatter_cap", ("matrix",), _INT, check=_at_least(0),
         help="max raw points per LE cell (default 5000)"),
)


def _check(opt: _Opt, v) -> None:
    """Raise a UsageError naming the option unless v is a valid value.
    null stands for "not given" where the default is null. A value of
    the wrong type is told the option's check as well."""
    if v is None and opt.default is None:
        return
    if not opt.kind.test(v):
        bound = f" ({opt.flag} must be {opt.check[1]})" if opt.check else ""
        raise UsageError(
            f"{opt.name!r} must be {opt.kind.phrase}, got {v!r}{bound}")
    if opt.choices and v not in opt.choices:
        raise UsageError(
            f"{opt.name!r} must be one of {opt.choices}, got {v!r}")
    if opt.check and not opt.check[0](v):
        raise UsageError(f"{opt.flag} must be {opt.check[1]}")


def _read_config(path: str | None, command: str) -> dict:
    """The config file's object; each key is checked in turn: a known
    option, a valid value, an option of this command."""
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"no such config file: {p}")
    try:
        cfg = json.loads(p.read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config file {p}: {exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise UsageError(f"config file {p} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {p} must hold a JSON object")
    for key, v in cfg.items():
        named = [o for o in _OPTIONS if o.name == key]
        if not named:
            raise UsageError(f"unknown config key {key!r}")
        mine = [o for o in named if command in o.commands]
        _check((mine or named)[0], v)
        if not mine:
            raise UsageError(f"config key {key!r} is not an option of {command}")
    return cfg


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """One value per option of the command: flag, else config, else
    default."""
    config = _read_config(args.config, args.command)
    s = argparse.Namespace()
    for opt in _OPTIONS:
        if args.command not in opt.commands:
            continue
        v = getattr(args, opt.name)
        if v is not None:
            _check(opt, v)  # config values are checked as they are read
        else:
            v = config.get(opt.name)
        if v is None and opt.name == "out_dir":
            v = os.environ.get("ATDEV_OUT_DIR")
        if v is None:
            v = opt.default
        if opt.required and not v:
            raise UsageError(f"{opt.flag} is required")
        setattr(s, opt.name, v if v is None else opt.kind.cast(v))
    return s


def _custom_terms(terms: list) -> list[tuple[float, dict[int, int]]]:
    """[coefficient, {column: power}] terms: a finite coefficient, decimal
    column keys and integer powers >= 1. Nothing is coerced."""
    out = []
    for i, term in enumerate(terms, 1):
        if not (isinstance(term, list) and len(term) == 2
                and _is_number(term[0]) and isinstance(term[1], dict)
                and all(k.isdecimal() and _is_int(a) and a >= 1
                        for k, a in term[1].items())):
            raise UsageError(
                f"--terms: term {i} must be [finite coefficient, {{column: "
                f"integer power >= 1}}] with decimal column keys, got {term!r}")
        out.append((float(term[0]), {int(k): a for k, a in term[1].items()}))
    return out


def _estimation(body: Callable) -> Callable:
    """The run step of the estimation commands (``_RUNS``): check the
    options, load the dataset, resolve effects' ``columns`` to indices,
    build the model, open the emitter and build the run's context and its
    gradient table; ``body(s, ctx, em)`` then only computes and writes."""

    def run(s) -> None:
        columns = getattr(s, "columns", None) or []
        for name in columns:
            if columns.count(name) > 1:
                raise UsageError(f"--columns names {name!r} more than once")
        if len([x for x in (s.model_id, s.mlp_weights, s.external_cmd)
                if x]) != 1:
            raise UsageError(
                "exactly one model source required: --model-id, "
                "--mlp-weights or --external-cmd")
        custom = s.model_id == "custom"
        if s.terms is not None and not custom:
            raise UsageError("--terms needs --model-id custom")
        if s.coeffs is not None and (custom or not s.model_id):
            raise UsageError("--coeffs needs a catalog --model-id")
        if s.fd_step is not None and not s.external_cmd:
            raise UsageError("--fd-step needs --external-cmd; the other model "
                             "sources have exact gradients")
        if getattr(s, "kind", None) == "ATDEV":  # matrix's LE-only options
            for flag, v in (("--scatter-cap", s.scatter_cap),
                            ("--seed", s.seed)):
                if v is not None:
                    raise UsageError(f"{flag} needs --kind LE")
        if custom and not s.terms:
            raise UsageError("--model-id custom requires --terms")
        terms = _custom_terms(s.terms) if custom else None
        d = load_csv(s.data, has_response=s.response is not None,
                     response_name=s.response)
        if hasattr(s, "columns"):
            # effects writes files named after its variables: resolve and
            # check the names before anything is scored.
            s.columns = ([d.index_of(c) for c in s.columns] if s.columns
                         else range(d.p))
            for j in s.columns:
                if "/" in d.names[j] or "\0" in d.names[j]:
                    raise DataError(f"variable {d.names[j]!r} cannot be part "
                                    f"of a file name: it holds a '/' or a NUL")
        if custom:
            model = custom_model(d.p, terms)
        elif s.model_id:
            model = catalog_model(s.model_id, coeffs=s.coeffs, p=d.p)
        elif s.mlp_weights:
            model = MlpModel.load(s.mlp_weights)
        else:
            model = wrap_external(shlex.split(s.external_cmd), p=d.p)
        if model.p != d.p:
            raise ModelError(
                f"model expects {model.p} variables, dataset has {d.p}")
        ctx = Estimation(model, d, k_bins=s.k_bins, dependence=s.dependence,
                         fd_step=s.fd_step)
        with _Emitter(s.out_dir, svg=getattr(s, "svg", False)) as em:
            # The table first: a lost FD step stops the run before any
            # other scoring.
            ctx.table
            body(s, ctx, em)

    return run


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(s) -> None:
    given = [o for o in _OPTIONS if o.name in ("rho", "mean", "sigma", "bn_model")
             and getattr(s, o.name) is not None]
    if given and s.case != "bivariate_normal":
        raise UsageError(f"{given[0].flag} needs --case bivariate_normal")
    spec = SimSpec(case=s.case, n=s.n, noise_sd=s.noise_sd, seed=s.seed,
                   **{"model" if o.name == "bn_model" else o.name:
                      getattr(s, o.name) for o in given})
    with _Emitter(s.out_dir) as em:
        d = generate(spec)
        em.dataset(f"{spec.case}.csv", d)
        em.json(f"{spec.case}.meta.json", {
            "schema": aio.SCHEMA, **asdict(spec),
            "theoretical_r2": theoretical_r2(spec),
            "correlation": {"names": list(d.names),
                            "values": corr_matrix(d).tolist()},
        })


def _cmd_fit_mlp(s) -> None:
    full = load_csv(s.data, has_response=True, response_name=s.response)
    n_valid = max(1, int(round(full.n * s.valid_frac)))
    if n_valid >= full.n:
        raise DataError("validation split leaves no training rows")
    order = np.random.default_rng(s.seed).permutation(full.n)
    tr, va = order[n_valid:], order[:n_valid]

    def _slice(rows):
        return Dataset(names=list(full.names), columns=full.matrix()[rows],
                       response=full.response[rows])

    model, report = fit_mlp(
        _slice(tr), _slice(va), hidden=s.hidden, max_epochs=s.max_epochs,
        patience=s.patience, seed=s.seed, learning_rate=s.learning_rate,
        batch_size=s.batch_size)
    with _Emitter(s.out_dir) as em:
        em.json("mlp_weights.json", model.to_dict())
        em.json("mlp_fit.json", {"schema": aio.SCHEMA, **asdict(report)})
    print(f"validation R^2 = {report.valid_r2:.4f} "
          f"({report.epochs_run} epochs)")


@_estimation
def _cmd_effects(s, ctx, em) -> None:
    d = ctx.data
    meta = {"k_bins": s.k_bins, "dependence": s.dependence,
            "gradient_method": ctx.table.method,
            "smooth_marginal": s.smooth_marginal}
    for j in s.columns:
        name = d.names[j]
        pd_c = pdp(ctx, j)
        mg_c = marginal(ctx, j, smooth=s.smooth_marginal)
        terms, tot_c = atdev_terms(ctx, j)
        ale_c = terms.pop(j)
        le_c = le_curve(ctx, j, j)

        out = [pd_c, mg_c, ale_c, *terms, tot_c, le_c]
        if s.center:
            out = [center(c) for c in out]
        em.text(f"curves_{name}.csv", aio.curves_to_csv(out))
        em.json(f"curves_{name}.json", {
            "schema": aio.SCHEMA, "variable": name,
            "curves": [aio.curve_to_dict(c, meta=meta) for c in out]})

        # Overlays are always centered; level offsets are exactly what
        # the comparisons are meant to ignore.
        for stem, group in (
                ("total_marginal", {"total": tot_c, "marginal": mg_c}),
                ("pd_marginal_ale",
                 {"pd": pd_c, "marginal": mg_c, "ale": ale_c})):
            em.figure(f"overlay_{stem}_{name}", {
                "schema": aio.SCHEMA, "variable": name,
                "curves": {label: aio.curve_to_dict(center(c))
                           for label, c in group.items()}},
                asvg.curve_chart, name)


def _le_extras(ctx, cap: int, seed: int):
    """Per-cell raw (x_j, df/dx_i) samples, at most ``cap`` sorted rows a
    cell, kept as arrays for the JSON writer, and per-variable derivative
    histograms."""
    d, table = ctx.data, ctx.table
    rng = np.random.default_rng(seed)
    scatter = []
    for i in range(d.p):
        for j in range(d.p):
            rows = (np.sort(rng.choice(d.n, size=cap, replace=False))
                    if d.n > cap else slice(None))
            scatter.append({"i": i, "j": j, "x": d.column(j)[rows],
                            "deriv": table.values[rows, i]})
    histograms = []
    for j in range(d.p):
        counts, edges = np.histogram(table.values[:, j], bins=40)
        histograms.append({"j": j, "edges": edges.tolist(),
                           "counts": counts.tolist()})
    return scatter, histograms


@_estimation
def _cmd_matrix(s, ctx, em) -> None:
    matrix = effect_matrix(ctx, s.kind)
    scatter = histograms = None
    if s.kind == "LE":
        cap = 5000 if s.scatter_cap is None else s.scatter_cap
        scatter, histograms = _le_extras(ctx, cap=cap, seed=s.seed or 0)
    em.figure(f"matrix_{s.kind.lower()}",
              aio.matrix_to_dict(matrix, scatter=scatter,
                                 histograms=histograms),
              asvg.matrix_chart, s.kind)


@_estimation
def _cmd_heatmap(s, ctx, em) -> None:
    report = build_report(ctx)
    vmax = float(report.v.max())
    em.figure("components_heatmap", aio.heatmap_to_dict(
        report.names, report.v / vmax if vmax > 0 else report.v,
        "nonnegative"), asvg.heatmap_chart, "effect components")
    em.figure("correlation_heatmap", aio.heatmap_to_dict(
        ctx.data.names, corr_matrix(ctx.data), "signed"),
        asvg.heatmap_chart, "correlation")
    for stem, label, values in (
            ("component_totals_bars", "column effect variance", report.v_plus),
            ("derivative_energy_bars", "mean squared derivative", report.dgsm)):
        em.figure(stem, aio.bars_to_dict(label, report.names, values),
                  asvg.bar_chart, label)


@_estimation
def _cmd_importance(s, ctx, em) -> None:
    report = build_report(ctx)
    em.json("importance.json", aio.report_to_dict(report))
    em.text("importance.csv", aio.report_to_csv(report))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_COMMANDS = {
    "simulate": (_cmd_simulate, "write a synthetic dataset + sidecar"),
    "fit-mlp": (_cmd_fit_mlp, "train the built-in network"),
    "effects": (_cmd_effects, "per-variable curves and overlay bundles"),
    "matrix": (_cmd_matrix, "p x p effect matrix data"),
    "heatmap": (_cmd_heatmap, "importance heat maps and bar data"),
    "importance": (_cmd_importance, "importance report JSON + CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="atdev",
                     description="Derivative-based effect curves and "
                                 "importance measures for black-box models")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, (func, help_) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_)
        sp.set_defaults(func=func)
        sp.add_argument("--config", help="JSON file with option values; flags win")
        for opt in _OPTIONS:
            if command not in opt.commands:
                continue
            if opt.kind is _BOOL:
                kw = {"action": argparse.BooleanOptionalAction}
            else:
                kw = {"type": opt.kind.type, "nargs": opt.kind.nargs,
                      "choices": opt.choices}
                if opt.kind.nargs is not None:
                    kw["action"] = _Once
            sp.add_argument(opt.flag, dest=opt.name, help=opt.help, **kw)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        args.func(_settings(args))
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (AtdevError, OSError) as exc:  # OSError: an unusable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
