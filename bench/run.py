"""Benchmark of the atdev CLI, driven from outside the program.

Run from the root of a checkout:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 each workload runs the way a user runs atdev: one fresh
interpreter per command (`python -c "from atdev.cli import main; ..."`,
what the `atdev` console script does), one command at a time, from this
single process. Each command starts through launch.py, which times it and
reads its resource use; see there why. The set-up commands run first, three times over, and
setup_s is the median of the three. Then whole jobs run back to back for
about --seconds seconds; a job is not started if the previous one says it
would end past that. After every job its outputs are checked (see
workloads.py). The end-to-end metrics are:

    job_s        median wall seconds of one job, interpreter starts included
    cpu_s        median user+sys seconds of one job, CLI processes and
                 their children (the external scorer), from os.wait4
    peak_rss_mb  median over jobs of the largest max-RSS of any CLI process
    setup_s      median wall seconds of the workload's set-up commands

and, printed with them, fail_frac: invocations that exited non-zero, timed
out or failed an output check, over those attempted.

With --trace 1 the workload runs in-process instead (trace_run.py), with
timing wrappers on each layer's public functions, and the per-layer
metrics are reported, plus the tracing overhead (traced wall minus
untraced wall of the same job in the same process).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only if every
invocation succeeded and every output check passed. Everything the run
writes goes under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import K_BINS, WORKLOADS, CheckError, sha256

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# The run must end within 180 s; a command still running at this point
# after the start is killed and counted as failed.
RUN_DEADLINE_S = 170.0
IMPORT_PROBES = 3
ENTRY = "import sys; from atdev.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import atdev.cli; "
                "print(time.perf_counter() - t)")


@dataclass
class Proc:
    """One finished child process, as launch.py measured it."""

    wall: float
    cpu: float
    rss_mb: float
    code: int  # exit code; -9 when killed at the deadline


class Runner:
    """Starts children one at a time through launch.py, with atdev's src
    on the import path, and collects what each used."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        src = str(ROOT / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.log = work / "children.log"
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, cmd: list[str], out: Path | None = None) -> Proc:
        timeout = max(0.0, self.deadline - time.monotonic())
        launched = subprocess.run(
            [sys.executable, str(BENCH / "launch.py"), repr(timeout),
             str(out or self.log), "--", *cmd],
            env=self.env, capture_output=True, text=True, check=True)
        return Proc(**json.loads(launched.stdout))

    def cli(self, argv: list[str]) -> Proc:
        """One `atdev` invocation; a non-zero exit is recorded as failed."""
        self.attempted += 1
        proc = self.spawn([sys.executable, "-c", ENTRY, *argv])
        if proc.code != 0:
            self.fail(f"atdev {argv[0]} exited {proc.code} (see {self.log})")
        return proc

    def fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"FAIL: {why}", file=sys.stderr)

    def check(self, step, out: Path) -> bool:
        try:
            step.check(out)
        except CheckError as exc:
            self.fail(f"atdev {step.argv[0]} output check: {exc}")
            return False
        return True


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def benchmark_spec() -> dict:
    """BENCHMARK.json: the metrics a run reports and the default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def steal_s() -> float:
    """CPU time the hypervisor took from this machine since boot, all CPUs.
    The difference over a run explains outliers on a shared host."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def source_identity() -> dict:
    """Git SHA when the checkout is a repository, and always a digest of
    src/ so that runs outside git can be matched too."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def input_manifest(wl) -> list[dict]:
    out = []
    for path in wl.inputs():
        entry = {"path": str(path.relative_to(ROOT)), "sha256": sha256(path)}
        if path.suffix == ".csv":
            with open(path) as fh:
                header = fh.readline().strip().split(",")
                rows = sum(1 for _ in fh)
            entry.update(N=rows, p=len(header) - 1, K=K_BINS)
        out.append(entry)
    return out


def manifest(wl, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        **source_identity(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "inputs": input_manifest(wl),
    }


def run_setup(wl, runner: Runner) -> tuple[list[float], dict]:
    """Set up SETUP_REPEATS times; every repeat must write the same bytes."""
    walls, digests, fit_mlp = [], [], []
    for _ in range(SETUP_REPEATS):
        wall = 0.0
        for argv in wl.setup_commands():
            proc = runner.cli(argv)
            wall += proc.wall
            if argv[0] == "fit-mlp":
                fit_mlp.append((proc.wall, proc.cpu))
            if proc.code != 0:
                return walls, {}
        walls.append(wall)
        digests.append([sha256(p) for p in wl.inputs()])
    if any(d != digests[0] for d in digests):
        runner.fail("set-up is not deterministic: repeats wrote different bytes")
    extra = {}
    if fit_mlp:
        w, c = statistics.median(w for w, _ in fit_mlp), statistics.median(c for _, c in fit_mlp)
        extra = {"fit_mlp_wall_s": w, "fit_mlp_cpu_s": c}
    return walls, extra


def run_jobs(wl, runner: Runner, seconds: float) -> list[dict]:
    jobs: list[dict] = []
    out = runner.work / "job"
    start = time.perf_counter()
    last = 0.0
    while not jobs or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        steps = wl.steps(out)
        procs = [runner.cli(step.argv) for step in steps]
        ok = [p.code == 0 and runner.check(s, out) for s, p in zip(steps, procs)]
        jobs.append({"wall": sum(p.wall for p in procs),
                     "cpu": sum(p.cpu for p in procs),
                     "rss_mb": max(p.rss_mb for p in procs),
                     "ok": all(ok)})
        last = time.perf_counter() - began
        if time.monotonic() >= runner.deadline:
            break
    return jobs


def run_untraced(wl, runner: Runner, seconds: float, info: dict) -> dict:
    walls, extra = run_setup(wl, runner)
    info.update(extra)
    if len(walls) < SETUP_REPEATS:
        return {}
    wl.load_reference()
    jobs = run_jobs(wl, runner, seconds)
    info["setup_walls_s"] = walls
    info["jobs"] = jobs
    return {
        "job_s": statistics.median(j["wall"] for j in jobs),
        "cpu_s": statistics.median(j["cpu"] for j in jobs),
        "peak_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
        "setup_s": statistics.median(walls),
    }


def emitted_ale_ace(out: Path) -> int:
    """ALE and ACE curves the job wrote: in per-variable curve files and
    in the ATDEV matrix."""
    n = 0
    for path in out.glob("curves_*.json"):
        n += sum(c["kind"] in ("ALE", "ACE")
                 for c in json.loads(path.read_text())["curves"])
    matrix = out / "matrix_atdev.json"
    if matrix.is_file():
        n += sum(c is not None and c["kind"] in ("ALE", "ACE")
                 for row in json.loads(matrix.read_text())["cells"] for c in row)
    return n


def run_traced(wl, runner: Runner, info: dict) -> dict:
    probes = []
    for _ in range(IMPORT_PROBES):
        out = runner.work / "import_probe.txt"
        out.unlink(missing_ok=True)
        if runner.spawn([sys.executable, "-c", IMPORT_PROBE], out).code != 0:
            runner.fail("import atdev.cli failed")
            return {}
        probes.append(float(out.read_text().split()[-1]))

    plain, traced = runner.work / "plain", runner.work / "traced"
    steps = {"plain": wl.steps(plain), "traced": wl.steps(traced)}
    spec = {"setup": wl.setup_commands(),
            **{k: [s.argv for s in v] for k, v in steps.items()}}
    spec_path, result_path = runner.work / "trace_spec.json", runner.work / "trace_result.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    proc = runner.spawn([sys.executable, str(BENCH / "trace_run.py"),
                         str(spec_path), str(result_path)])
    runner.attempted += sum(len(v) for v in spec.values())
    if proc.code != 0 or not result_path.is_file():
        runner.fail(f"traced run exited {proc.code} (see {runner.log})")
        return {}
    result = json.loads(result_path.read_text())
    for phase, codes in result["codes"].items():
        for argv, code in zip(spec[phase], codes):
            if code != 0:
                runner.fail(f"in-process atdev {argv[0]} ({phase}) returned {code}")
    if any(c != 0 for c in result["codes"]["setup"]):
        return {}
    wl.load_reference()
    for out, phase in ((plain, "plain"), (traced, "traced")):
        for step, code in zip(steps[phase], result["codes"][phase]):
            if code == 0:
                runner.check(step, out)

    m = result["metrics"]
    emitted = emitted_ale_ace(traced)
    m["effects.curve_evals_per_emitted"] = m.pop("effects.ale_ace_calls") / emitted if emitted else 0.0
    m["cli.import_s"] = statistics.median(probes)
    m["trace.overhead_s"] = result["traced_wall_s"] - result["plain_wall_s"]
    info.update(import_probes_s=probes, plain_wall_s=result["plain_wall_s"],
                traced_wall_s=result["traced_wall_s"], self_s=result["self_s"])
    return m


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)
    wl = WORKLOADS[name](work / "setup", seed)
    # One import before anything is timed: compiles the bytecode of a fresh
    # checkout and stops early if atdev cannot be imported at all.
    if runner.spawn([sys.executable, "-c", "import atdev.cli"]).code != 0:
        runner.fail("import atdev.cli failed")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    info: dict = {}
    stolen = steal_s()
    if trace:
        values, units = run_traced(wl, runner, info), metric_units("per_layer")
    else:
        values, units = run_untraced(wl, runner, seconds, info), metric_units("end_to_end")
    info["steal_s"] = steal_s() - stolen
    failed = len(runner.failures)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    result = {"correct": failed == 0 and len(metrics) == len(units),
              "attempted": max(runner.attempted, 1), "failed": failed,
              "metrics": metrics}
    record = {"manifest": manifest(wl, seed, seconds, trace) if metrics else None,
              "run": info, "failures": runner.failures, "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=1))

    print(f"== {name} (seed {seed}, trace {trace})")
    if metrics:
        print("manifest: " + json.dumps(record["manifest"]))
    samples = len(info.get("jobs", []))
    for k, v in metrics.items():
        note = f"  (median of {samples} jobs)" if k in ("job_s", "cpu_s", "peak_rss_mb") else ""
        print(f"{name} {k} = {v['value']:.6g} {v['unit']}{note}")
    print(f"{name} fail_frac = {failed / result['attempted']:.6g} fraction"
          f"  ({failed} of {result['attempted']} invocations)")
    print(f"{name} CPU time stolen by the hypervisor during the run: {info['steal_s']:.2f} s")
    if trace and "self_s" in info:
        top = sorted(info["self_s"].items(), key=lambda kv: -kv[1])[:6]
        print(f"{name} largest self times: "
              + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=int,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if not (ROOT / "src" / "atdev" / "cli.py").is_file():
        print(f"error: no atdev sources under {ROOT / 'src'}; run from the root "
              "of an atdev checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
