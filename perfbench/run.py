"""Benchmark of the orbitrans command-line pipeline on seeded synthetic inputs.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30
    python3 perfbench/run.py --workload growth --size smoke --seconds 1

Run it from the repository root; it builds nothing and imports orbitrans
from ``src/``. For the chosen workload it generates the inputs from
``--seed`` (see workloads.py), then runs the workload's CLI sequence as
child processes, one at a time, over and over for ``--seconds``: a closed
loop with one client. Each invocation's outputs are checked (checks.py)
and compared byte for byte with the first iteration's; an invocation that
exits non-zero or fails a check counts as failed.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
each the median over iterations:

* ``wall_s``: the wall times of the workload's children, summed;
* ``setup_s``: a fresh interpreter importing orbitrans and building the
  k=3 and k=4 classification tables; one sample is the mean of
  SETUP_REPEAT set-ups, taken once per iteration and twice
  before the first, after one warm-up that compiles bytecode;
* ``peak_rss_mb``: the largest maximum resident set of the iteration's
  children, from each child's own ``os.wait4`` usage.

Both times are scaled to reference speed (speed.py): the harness pins
itself and its children to one CPU, runs a fixed probe kernel after each
timed child for a share of the child's time, and multiplies each
iteration's (or set-up sample's) times by ``(REF_PROBE_S / mean of the
probes taken next to them) ** ELASTICITY``. The report lines above the
result also give the unscaled ``wall_raw_s`` and ``setup_raw_s``, the
mean probe time, the scaled wall time of each subcommand the workload
runs and the failure ratio.

With ``--trace 1`` it alternates untraced iterations with traced ones
(tracer.py wraps the layers from outside the program) and reports the
per-layer metrics of BENCHMARK.json, each the median over traced
iterations; ``trace.overhead_s`` is the traced minus the untraced
``wall_s``. The report lines also give the per-layer metrics that only
some workloads exercise (0 for a layer the workload never calls).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Reference, check_step  # noqa: E402
import speed  # noqa: E402
from tracer import LAYERS, layer_metrics  # noqa: E402
from workloads import SIZES, STEPS, Step, Workload, generate  # noqa: E402

ROOT = HERE.parent
WORK = HERE / "_work"
TRACER = HERE / "tracer.py"
SETUP_RUNS = 2  # set-up samples before the first round
SETUP_REPEAT = 4  # set-ups per sample, so one sample spans speed changes
SETUP_CODE = (
    "import orbitrans\n"
    "from orbitrans.census import build_classification_table\n"
    "build_classification_table(3)\n"
    "build_classification_table(4)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class StepRun:
    step: Step
    wall: float
    rss_mb: float
    code: int
    files: list[str]
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Iteration:
    runs: list[StepRun]
    traced: bool
    probes: list[float]
    spans: list[list] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)

    @property
    def scale(self) -> float:
        return speed.scale(self.probes)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.runs)


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[int, float]:
    """Run one child to completion; return its exit code and peak RSS in MB."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Bench:
    """One workload's inputs, reference and working directory."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.out = work / "out"
        self.reference = Reference(workload)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.first_runs: list[StepRun] | None = None
        workload.write(work)

    def setup_once(self) -> float:
        """Wall time of one fresh interpreter doing the set-up."""
        start = time.perf_counter()
        code, _ = spawn([sys.executable, "-c", SETUP_CODE], self.work, self.env,
                        self.work / "setup.log")
        if code:
            log = (self.work / "setup.log").read_text(errors="replace").strip()
            raise BenchError(f"cannot import orbitrans from {ROOT / 'src'}: {log}")
        return time.perf_counter() - start

    def setup_sample(self) -> tuple[float, list[float]]:
        """Mean wall time of SETUP_REPEAT set-ups, and the probes run after each."""
        walls, probes = [], []
        for _ in range(SETUP_REPEAT):
            walls.append(self.setup_once())
            probes += speed.probe(walls[-1])
        return statistics.fmean(walls), probes

    def iteration(self, traced: bool, tamper=None) -> Iteration:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        runs, probes = [], []
        for i, step in enumerate(self.workload.steps):
            if traced:
                argv = [sys.executable, str(TRACER), "--spans", f"spans{i}.json", "--", *step.argv]
            else:
                argv = [sys.executable, "-m", "orbitrans", *step.argv]
            before = set(os.listdir(self.out))
            start = time.perf_counter()
            code, rss = spawn(argv, self.work, self.env, self.work / f"step{i}.log")
            wall = time.perf_counter() - start
            probes += speed.probe(wall)
            runs.append(StepRun(step, wall, rss, code, sorted(set(os.listdir(self.out)) - before)))
        it = Iteration(runs, traced, probes)
        if tamper is not None:
            tamper(self.out)
        self._check(it)
        if traced:
            paths = [self.work / f"spans{i}.json" for i in range(len(runs))]
            it.spans = [json.loads(p.read_text()) if p.is_file() else [] for p in paths]
        return it

    def _check(self, it: Iteration) -> None:
        """Check each run's outputs; from the second iteration on, outputs
        byte-identical to a first run that passed are known to pass."""
        first = self.first_runs or [None] * len(it.runs)
        for i, (run, ref_run) in enumerate(zip(it.runs, first)):
            if run.code:
                log = (self.work / f"step{i}.log").read_text(errors="replace").strip()
                run.problems.append(f"exit code {run.code}: {log[-500:]}")
                continue
            run.digests = {f: hashlib.sha256((self.out / f).read_bytes()).hexdigest()
                           for f in run.files}
            if ref_run is not None and not ref_run.problems and run.digests == ref_run.digests:
                continue
            run.problems += check_step(run.step.name, self.out, self.reference)
            if ref_run is not None and run.digests != ref_run.digests:
                changed = sorted(f for f in set(ref_run.digests) | set(run.digests)
                                 if ref_run.digests.get(f) != run.digests.get(f))
                run.problems.append(f"outputs differ from the first run: {changed[:5]}")
        if self.first_runs is None:
            self.first_runs = it.runs

    def drain(self) -> dict:
        """k-sets and seconds of a bare enumerator pass over the workload's graphs."""
        step = self.workload.steps[0]
        code, _ = spawn([sys.executable, str(TRACER), "--drain", "drain.json", "--", *step.argv],
                        self.work, self.env, self.work / "drain.log")
        if code:
            raise BenchError((self.work / "drain.log").read_text(errors="replace"))
        return json.loads((self.work / "drain.json").read_text())


def run_loop(bench: Bench, seconds: float, trace: bool,
             tamper=None) -> tuple[list[Iteration], list[tuple[float, list[float]]]]:
    """Rounds until another one would overrun ``seconds`` (at least one).

    A round is one set-up sample and one untraced iteration, plus one
    traced iteration when ``trace`` is set. Spreading the set-up samples
    over the run exposes them to the same machine as the iterations.
    """
    bench.setup_once()  # compiles bytecode; not a sample
    setups = [bench.setup_sample() for _ in range(SETUP_RUNS)]
    iterations = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups.append(bench.setup_sample())
        iterations.append(bench.iteration(False, tamper))
        if trace:
            iterations.append(bench.iteration(True, tamper))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return iterations, setups


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(iterations: list[Iteration], setups: list[tuple[float, list[float]]]) -> dict[str, float]:
    """End-to-end metrics, including per-subcommand walls, of untraced iterations.

    Each iteration's times and each set-up sample are scaled to reference
    speed by the probes taken next to them before the median is taken;
    ``wall_raw_s`` and ``setup_raw_s`` are medians of the unscaled times.
    """
    plain = [it for it in iterations if not it.traced]
    metrics = {
        "wall_s": _median(it.wall * it.scale for it in plain),
        "setup_s": _median(wall * speed.scale(probes) for wall, probes in setups),
        "peak_rss_mb": _median(it.peak_rss_mb for it in plain),
    }
    for i, run in enumerate(plain[0].runs):
        if run.step.metric:
            metrics[run.step.metric] = _median(it.runs[i].wall * it.scale for it in plain)
    probes = [p for it in plain for p in it.probes] + [p for _w, ps in setups for p in ps]
    metrics.update(wall_raw_s=_median(it.wall for it in plain),
                   setup_raw_s=_median(wall for wall, _p in setups),
                   probe_ms=statistics.fmean(probes) * 1e3)
    return metrics


def per_layer(bench: Bench, iterations: list[Iteration], e2e: dict[str, float]) -> dict[str, float]:
    traced = [layer_metrics(it.spans) for it in iterations if it.traced]
    metrics = {key: _median(m[key] for m in traced) for key in traced[0]}
    drained = bench.drain()
    metrics["census.enumerate_us_per_kset"] = (
        drained["seconds"] / drained["ksets"] * 1e6 if drained["ksets"] else 0.0)
    nets = bench.reference.networks.values()
    metrics["graph_core.edge_churn"] = _median(net.edge_churn() for net in nets)
    traced = [it for it in iterations if it.traced]
    metrics["trace.overhead_s"] = _median(it.wall * it.scale for it in traced) - e2e["wall_s"]
    return metrics


def unit_of(metric: str) -> str:
    """Unit of a metric BENCHMARK.json does not list, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if "us_per_" in metric:
        return "us"
    if metric.endswith(("_share", "_ratio", "edge_churn")):
        return "ratio"
    return "count"


def environment() -> dict:
    return {"nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def benchmark_spec() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per group of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")}


def bench_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                   tamper=None) -> tuple[list[str], dict]:
    """Run one workload; return its report lines and its result object."""
    spec = benchmark_spec()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(generate(name, seed, size), work)
        started = time.perf_counter()
        iterations, setups = run_loop(bench, seconds, trace, tamper)
        elapsed = time.perf_counter() - started
        e2e = end_to_end(iterations, setups)
        layers = per_layer(bench, iterations, e2e) if trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    runs = [run for it in iterations for run in it.runs]
    failed = [run for run in runs if run.problems]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = layers if trace else e2e
    missing = [m for m in wanted if m not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    lines = [
        f"# workload {name} ({size}), seed {seed}, trace {int(trace)}: {len(iterations)} iterations "
        f"in {elapsed:.1f} s, {len(runs)} invocations, {len(failed)} failed",
        f"# env {json.dumps(environment())}",
    ]
    lines += [f"# input {net} {json.dumps(sizes)}"
              for net, sizes in bench.reference.input_sizes().items()]
    lines += [f"# failed {run.step.name}: {'; '.join(run.problems)[:300]}" for run in failed[:5]]
    if trace:
        traced_wall = _median(it.wall for it in iterations if it.traced)
        shares = {layer: layers[f"{layer}.self_s"] / traced_wall for layer in LAYERS}
        shares["outside spans (start-up, import)"] = 1 - sum(shares.values())
        lines.append("# self time / traced wall_s: "
                     + ", ".join(f"{k} {v:.2f}" for k, v in shares.items()))
    report = dict(e2e, fail_ratio=len(failed) / len(runs))
    report.update(layers)
    units = dict(spec["end_to_end"], **spec["per_layer"])
    for key, value in report.items():
        lines.append(f"{key:32s} {value:.6g} {units.get(key) or unit_of(key)}")
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in wanted.items()},
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*STEPS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    names = list(STEPS) if args.workload == "all" else [args.workload]
    speed.pin()
    try:
        if not (ROOT / "src" / "orbitrans" / "__init__.py").is_file():
            raise BenchError(f"no orbitrans sources under {ROOT / 'src'}")
        for name in names:
            lines, result = bench_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
