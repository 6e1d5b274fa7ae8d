"""The SHA-256 of every input and output file of the benchmark's workloads.

    PYTHONPATH=src python tests/workload_digests.py

runs the steps of each workload in ``perfbench/workloads.py`` at ``full``
size, for each of ``SEEDS``, in process through ``cli.main``, and writes
the digests to ``tests/data/workload_digests.json``, which
``tests/test_workloads.py`` compares with a fresh run. Regenerate the table
only where a change is meant to change an output, and say which files
changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "workload_digests.json"
SEEDS = (7, 913)
SIZE = "full"

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import STEPS, generate  # noqa: E402

from orbitrans.cli import main  # noqa: E402

WORKLOADS = tuple(STEPS)


def _digests(directory: Path) -> dict[str, str]:
    """The SHA-256 of each file in ``directory``, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def generate_inputs(name: str, seed: int, directory: Path) -> dict[str, str]:
    """Write workload ``name``'s manifest and edge lists for ``seed`` into ``directory``,
    and return their digests."""
    generate(name, seed, SIZE).write(directory)
    return _digests(directory)


def run_steps(name: str, directory: Path) -> dict[str, str]:
    """Run workload ``name``'s steps from ``directory``, as the benchmark does, so the
    paths the meta files record stay relative; return the digests of ``out``."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for step in STEPS[name]:
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(list(step.argv))
            assert code == 0, f"{name}: {step.name} exited {code}"
    finally:
        os.chdir(cwd)
    return _digests(directory / "out")


def table(directory: Path) -> dict[str, dict[str, dict[str, str]]]:
    """The digests of every workload and seed, each run in a directory under ``directory``."""
    result = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            work = directory / f"{name}-{seed}"
            work.mkdir()
            inputs = generate_inputs(name, seed, work)
            result[f"{name}/{seed}"] = {"inputs": inputs, "outputs": run_steps(name, work)}
    return result


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(table(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
