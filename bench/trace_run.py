"""Traced in-process run of one benchmark workload.

Usage: python bench/trace_run.py SPEC.json RESULT.json

SPEC.json holds three lists of `atdev` argument lists: "setup", "plain" and
"traced". With atdev/src on the import path, this script imports atdev.cli
once and then runs, each through atdev.cli.main(argv) in this process: the
set-up commands with tracing on, the job commands ("plain") with tracing
off, and the same job again ("traced") with tracing on. It writes the
per-layer figures, both job walls and every exit code to RESULT.json.

Tracing wraps every public function of each layer module (each name in the
module's __all__ that the module itself defines) in every atdev namespace
that bound it: cli.py and the other modules import names with
`from .effects import pdp`, so wrapping the home module alone would miss
those calls. Model predict and gradient are wrapped on the backend
classes, and subprocess.run on the subprocess module, which is how the
external backend spawns its scorer. Spans stay in memory until the run
ends.

A span's self time is its duration minus the durations of its direct
child spans. Each span's self time goes to one bucket, so the buckets add
up to the covered wall.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

LAYERS = ("data", "dependence", "gradients", "effects", "importance", "io",
          "svg", "models", "simgen")
CURVE_FNS = {"effects.ale", "effects.ace", "effects.atdev", "effects.le_curve"}
# Metrics taken from the set-up commands; all others come from the job.
SETUP_BUCKETS = ("data.save_csv", "simgen.generate", "models.fit_mlp")


class Span:
    __slots__ = ("name", "parent", "start", "end", "amount")

    def __init__(self, name: str, parent: int):
        self.name, self.parent, self.amount = name, parent, 0


def _spawn_rows(args, kwargs, result) -> int:
    payload = kwargs.get("input") or ""
    header = payload.split("\n", 1)[0].split()
    return int(header[0]) if header else 0


# What a span counts besides its time, from its arguments and result.
AMOUNTS = {
    "models.predict": lambda a, kw, r: len(a[1]),
    "models.gradient": lambda a, kw, r: len(a[1]),
    "models.external_spawn": _spawn_rows,
    "models.fit_mlp": lambda a, kw, r: r[1].epochs_run,
    "data.load_csv": lambda a, kw, r: Path(a[0]).stat().st_size,
    "effects.pdp": lambda a, kw, r: len(r.grid),
    "io.write_text_atomic": lambda a, kw, r: len(a[1]),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_, amount = self.spans, self._open, AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import atdev.cli
        from atdev.models import AnalyticModel, ExternalModel, MlpModel

        targets = [("cli.main", atdev.cli.main)]
        for layer in LAYERS:
            mod = importlib.import_module(f"atdev.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((f"{layer}.{attr}", fn))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "atdev" or n.startswith("atdev.")]
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for ns in namespaces:
                for attr in [a for a, v in vars(ns).items() if v is fn]:
                    self._patch(ns, attr, wrapper)
        for cls in (AnalyticModel, MlpModel, ExternalModel):
            for meth in ("predict", "gradient"):
                if meth in vars(cls):
                    self._patch(cls, meth, self._wrap(f"models.{meth}", vars(cls)[meth]))
        self._patch(subprocess, "run", self._wrap("models.external_spawn", subprocess.run))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    i = spans[i].parent
    while i >= 0:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def _bucket(spans: list[Span], i: int) -> str:
    name = spans[i].name
    layer = name.split(".", 1)[0]
    if name in CURVE_FNS:
        return ("effects.effect_matrix"
                if _has_ancestor(spans, i, "effects.effect_matrix")
                else "effects.curves")
    if name == "cli.main":
        return "cli.self"
    if name == "dependence.ols_line":
        return "dependence.fit_dependence"
    if layer == "importance":
        return "importance.build_report"
    if layer == "io":
        return "io.write"
    if layer == "svg":
        return "svg.render"
    return name


def summarize(spans: list[Span]) -> dict:
    """Self seconds per bucket, plus call counts and amounts per span name
    and the rows scored under PD sweeps."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    amounts: dict[str, int] = {}
    pd_rows = 0
    for i, s in enumerate(spans):
        b = _bucket(spans, i)
        self_s[b] = self_s.get(b, 0.0) + (s.end - s.start - child[i])
        calls[s.name] = calls.get(s.name, 0) + 1
        amounts[s.name] = amounts.get(s.name, 0) + s.amount
        if s.name == "models.predict" and _has_ancestor(spans, i, "effects.pdp"):
            pd_rows += s.amount
    return {"self_s": self_s, "calls": calls, "amounts": amounts,
            "pd_rows": pd_rows}


def layer_metrics(setup: dict, job: dict, job_wall: float) -> dict:
    """The per-layer figures the benchmark reports, except those the
    benchmark process measures itself (import time, overhead, emitted curves)."""
    s, c, a = job["self_s"], job["calls"], job["amounts"]
    m = {f"{b}_s": s.get(b, 0.0) for b in (
        "cli.self", "data.load_csv", "data.quantile_bins", "models.predict",
        "models.gradient", "models.external_spawn", "gradients.gradient_table",
        "dependence.fit_dependence", "dependence.corr_matrix", "effects.pdp",
        "effects.marginal", "effects.curves", "effects.effect_matrix",
        "importance.build_report", "io.write", "svg.render")}
    m.update({f"{b}_s": setup["self_s"].get(b, 0.0) for b in SETUP_BUCKETS})
    m["models.fit_mlp_epochs"] = setup["amounts"].get("models.fit_mlp", 0)
    for name in ("data.load_csv", "data.quantile_bins", "models.predict",
                 "gradients.gradient_table", "importance.build_report"):
        m[f"{name}_calls"] = c.get(name, 0)
    m["data.load_csv_mb_per_s"] = (a.get("data.load_csv", 0) / 1e6 / s["data.load_csv"]
                                   if s.get("data.load_csv") else 0.0)
    m["models.predict_rows"] = a.get("models.predict", 0)
    m["models.gradient_rows"] = a.get("models.gradient", 0)
    spawns = c.get("models.external_spawn", 0)
    m["models.external_spawns"] = spawns
    m["models.external_rows_per_spawn"] = (a.get("models.external_spawn", 0) / spawns
                                           if spawns else 0.0)
    points = a.get("effects.pdp", 0)
    m["effects.pd_rows_per_point"] = job["pd_rows"] / points if points else 0.0
    m["effects.ale_ace_calls"] = c.get("effects.ale", 0) + c.get("effects.ace", 0)
    m["io.bytes_written"] = a.get("io.write_text_atomic", 0)
    m["trace.coverage"] = sum(s.values()) / job_wall
    return m


def _run_all(main, commands: list[list[str]]) -> tuple[float, list[int]]:
    codes = []
    start = time.perf_counter()
    for argv in commands:
        codes.append(main(argv))
    return time.perf_counter() - start, codes


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import atdev.cli

    tracer = Tracer()
    tracer.install()
    _, setup_codes = _run_all(atdev.cli.main, spec["setup"])
    tracer.uninstall()
    setup = summarize(tracer.spans)

    plain_wall, plain_codes = _run_all(atdev.cli.main, spec["plain"])

    tracer = Tracer()
    tracer.install()
    traced_wall, traced_codes = _run_all(atdev.cli.main, spec["traced"])
    tracer.uninstall()
    job = summarize(tracer.spans)

    Path(sys.argv[2]).write_text(json.dumps({
        "codes": {"setup": setup_codes, "plain": plain_codes,
                  "traced": traced_codes},
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "metrics": layer_metrics(setup, job, traced_wall),
        "self_s": job["self_s"],
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
