"""Every benchmark workload's outputs, pinned as bytes.

The golden files pin two networks of six events each, too small for a float
sum's order, GDA's normalization at scale or a motif ensemble of many swaps
to show. This test runs each workload's steps at ``full`` size, at two
seeds, and compares the SHA-256 of every input and output file with the
table ``tests/workload_digests.py`` writes.
"""

import json

import pytest

from workload_digests import SEEDS, TABLE, WORKLOADS, generate_inputs, run_steps

EXPECTED = json.loads(TABLE.read_text())


def test_table_covers_every_workload_and_seed():
    assert sorted(EXPECTED) == sorted(f"{name}/{seed}" for name in WORKLOADS for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_outputs_are_byte_identical(tmp_path, name, seed):
    expected = EXPECTED[f"{name}/{seed}"]
    inputs = generate_inputs(name, seed, tmp_path)
    # the inputs come from numpy's generator: a difference there is not orbitrans'
    for file in sorted(inputs.keys() | expected["inputs"].keys()):
        assert inputs.get(file) == expected["inputs"].get(file), (
            f"{name} seed {seed}: input {file} differs from the table, so numpy's random "
            f"generator changed, not orbitrans; the outputs cannot be compared")
    outputs = run_steps(name, tmp_path)
    changed = sorted(file for file in outputs.keys() | expected["outputs"].keys()
                     if outputs.get(file) != expected["outputs"].get(file))
    assert not changed, f"{name} seed {seed}: these outputs differ from the table: {changed}"
