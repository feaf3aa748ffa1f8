"""Self-tests of the benchmark: determinism, span coverage, clean unbinding.

Run with ``python -m pytest bench``; they take about a minute and a half.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
from wiretap_mimo import cli, core  # noqa: E402

# one channel per (class, m) cell keeps the sweep pool to 16 ops
SMALL_POOL = 1
EXACT = ("calls", "evals", "eigh", "ratio", "errors")


def _exact_counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if any(word in k for word in EXACT)}


@pytest.mark.parametrize("workload", ["sweep_auto", "certify_grid", "oracle_mc"])
def test_same_seed_repeats_counts_and_digests(workload, tmp_path):
    runs = [harness.run(workload, seed=5, seconds=0.0, trace=True,
                        per_cell=SMALL_POOL,
                        spans_out=str(tmp_path / f"spans{i}.tsv"))
            for i in range(2)]
    (first, first_details), (second, second_details) = runs
    assert first["correct"] and second["correct"]
    assert _exact_counts(first) == _exact_counts(second)
    for key in ("error_frac", "wrong_frac", "digest_sha256", "spans"):
        assert first_details[key] == second_details[key]
    assert first_details["coverage_problems"] == []
    with open(tmp_path / "spans0.tsv") as fh:
        assert sum(1 for _ in fh) == first_details["spans"] + 1


def test_tracer_restores_every_binding():
    before = (cli.main, cli.solve_isotropic, core.HermitianMatrix.eig,
              core.ChannelPair.__dict__["from_gram"], np.linalg.eigh,
              np.linalg.eigvalsh)
    with spans.Tracer():
        assert cli.main is not before[0]
        assert np.linalg.eigh is not before[4]
    after = (cli.main, cli.solve_isotropic, core.HermitianMatrix.eig,
             core.ChannelPair.__dict__["from_gram"], np.linalg.eigh,
             np.linalg.eigvalsh)
    assert all(a is b for a, b in zip(before, after))


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
