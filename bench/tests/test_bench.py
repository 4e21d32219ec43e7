"""Self-test of the benchmark: tiny runs of every workload and the correctness gate.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from inputs import MISMATCH, STRONG, TOO_LARGE, WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=REPO):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, key):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "small-mixed", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def example(tmp_path_factory):
    from perronkit import positive_perron_vector, write_tensor
    from perronkit.examples import four_blocks_tensor

    path = tmp_path_factory.mktemp("tns") / "four_blocks.tns"
    A = four_blocks_tensor()
    write_tensor(A, path)
    return oracle.load_dense(path), positive_perron_vector(A)


def test_gate_accepts_the_solver_result(example):
    T, res = example
    P = res.classification.partition
    assert oracle.check_strong(T, res.z, res.lam) == []
    assert oracle.check_partition(P.blocks, P.genuine, (2, 2, 2, 2), STRONG) == []


def test_gate_flags_a_perturbed_z(example):
    T, res = example
    z = res.z.copy()
    z[3] *= 1.001
    assert oracle.check_strong(T, z, res.lam)
    z[3] = -z[3]
    assert oracle.check_strong(T, z, res.lam)


def test_gate_flags_a_wrong_lambda(example):
    T, res = example
    assert oracle.check_strong(T, res.z, res.lam * 1.01)


def test_gate_flags_a_wrong_partition(example):
    _, res = example
    P = res.classification.partition
    swapped = (P.blocks[1], P.blocks[0]) + P.blocks[2:]
    assert oracle.check_partition(swapped, P.genuine, (2, 2, 2, 2), STRONG)
    assert oracle.check_partition(P.blocks, (False, False, True, True), (2, 2, 2, 2), STRONG)


def test_expected_partition_of_a_genuine_mismatch():
    blocks, genuine = oracle.expected_partition((1, 2, 1), MISMATCH)
    assert blocks == [[2, 3], [1], [4]] and genuine == [False, True, True]


def test_gate_flags_a_wrong_outcome_and_cli_output():
    assert oracle.check_outcome(TOO_LARGE, MISMATCH)
    validator = oracle.perron_schema_validator(REPO / "schemas" / "cli-output.schema.json")
    good = json.dumps({"status": "strong", "lambda": 1.0, "vector": [0.5, 0.5],
                       "residual": 0.0, "iterations": 3})
    assert oracle.check_cli(validator, STRONG, 0, good) == []
    assert oracle.check_cli(validator, STRONG, 2, good)
    assert oracle.check_cli(validator, STRONG, 0, good.replace("0.5]", "-0.5]"))


def test_dense_contraction_matches_a_loop():
    rng = np.random.default_rng(0)
    T = rng.random((3, 3, 3))
    x = rng.random(3)
    loop = [sum(T[i, j, k] * x[j] * x[k] for j in range(3) for k in range(3)) for i in range(3)]
    assert np.allclose(oracle.contract(T, x), loop)


def test_tail_never_falls_below_the_median():
    from run import tail

    assert tail([float(k) for k in range(1, 12)]) == (11.0, 100.0, 0)
    assert tail([float(k) for k in range(1, 101)]) == (90.0, 90.0, 10)
