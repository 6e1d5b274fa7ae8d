"""Self-test of the benchmark harness on the smoke size of every workload.

    python3 perfbench/selftest.py

Run it from the repository root; it takes well under a minute. It checks
that:

* every workload runs at smoke size with no failed invocation, and prints
  each end-to-end metric of BENCHMARK.json and each subcommand wall time
  it runs by name with its unit, then the result object as the last line;
* a traced run of every workload prints every per-layer metric of
  BENCHMARK.json, each non-zero (a metric some workload never exercises
  belongs in the report lines only);
* an edited count in a ``transitions.json`` is caught and counted as a
  failed invocation in ``fail_ratio``;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import STEPS  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_bench(*args: str, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def metric_lines(lines: list[str]) -> dict[str, tuple[float, str]]:
    """name -> (value, unit), from the report lines '<name> <value> <unit>'."""
    fields = [line.split() for line in lines if line and line[0] not in "#{"]
    return {f[0]: (float(f[1]), f[2]) for f in fields if len(f) == 3}


def smoke_runs(spec: dict) -> None:
    for name, steps in STEPS.items():
        code, lines = run_bench("--workload", name, "--size", "smoke", "--seconds", "1")
        result = json.loads(lines[-1]) if code == 0 and lines else {}
        expect(code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{name}: exits 0 and ends with a result object")
        expect(result.get("correct") is True and result.get("failed") == 0,
               f"{name}: every invocation passes its checks")
        expect({m: v["unit"] for m, v in result.get("metrics", {}).items()} == spec["end_to_end"],
               f"{name}: result holds exactly the end-to-end metrics with their units")
        printed = {m: unit for m, (_value, unit) in metric_lines(lines).items()}
        wanted = dict(spec["end_to_end"], fail_ratio="ratio", wall_raw_s="s", setup_raw_s="s", probe_ms="ms")
        wanted.update({s.metric: "s" for s in steps if s.metric})
        expect(all(printed.get(m) == u for m, u in wanted.items()),
               f"{name}: report prints {sorted(wanted)} with units")


def traced_runs(spec: dict) -> None:
    for name in STEPS:
        code, lines = run_bench("--workload", name, "--size", "smoke", "--seconds", "1", "--trace", "1")
        result = json.loads(lines[-1]) if code == 0 and lines else {}
        metrics = result.get("metrics", {})
        expect({m: v["unit"] for m, v in metrics.items()} == spec["per_layer"],
               f"{name} traced: reports exactly the per-layer metrics with their units")
        zero = sorted(m for m, v in metrics.items() if not v["value"])
        expect(metrics and not zero, f"{name} traced: no per-layer metric is 0 {zero}")
        printed = {m: unit for m, (_value, unit) in metric_lines(lines).items()}
        expect(all(printed.get(m) == u for m, u in spec["per_layer"].items())
               and len(printed) > len(spec["per_layer"]),
               f"{name} traced: prints {len(printed)} metrics, the per-layer ones with their units")
        if name == "ensemble":
            expect(printed and metric_lines(lines)["nullmodel.replicas"][0] > 0,
                   "traced ensemble run sees the null model")


def corrupted_output() -> None:
    def tamper(out: Path) -> None:
        path = out / "lattice0.transitions.json"
        data = json.loads(path.read_text())
        data["counts"][0][0] += 1
        path.write_text(json.dumps(data, indent=2) + "\n")

    lines, result = run.bench_workload("churn", 1, 1.0, False, "smoke", tamper=tamper)
    expect(result["correct"] is False and result["failed"] >= 1,
           f"edited transitions.json is counted as failed ({result['failed']}/{result['attempted']})")
    ratio = metric_lines(lines).get("fail_ratio", (0.0, ""))[0]
    expect(ratio > 0 and any("conservation" in line for line in lines),
           f"fail_ratio {ratio} > 0 and the conservation check names the problem")


def without_sources() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        code, lines = run_bench("--workload", "churn", "--seconds", "1", cwd=bare)
        expect(code != 0 and not any(line.startswith("{") for line in lines),
               f"without sources: exit code {code}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()


def main() -> int:
    spec = run.benchmark_spec()
    smoke_runs(spec)
    traced_runs(spec)
    corrupted_output()
    without_sources()
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} of the checks above failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
