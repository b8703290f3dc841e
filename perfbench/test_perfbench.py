"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload must print every metric by name and unit with its checks
passing, and a perturbed output must make the run fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from bench import END_TO_END_UNITS  # noqa: E402
from report import PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("grid-syn", "collect-fq", "ingest-osue")


def _run(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "0.2", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr[-3000:]
    return completed.stdout, json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    stdout, result = _result(_run("--workload", workload, "--seed", "7"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END_UNITS
    report = stdout.strip().splitlines()[:-1]
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert any(line.split() and line.split()[0] == name for line in report), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = _result(_run("--workload", workload, "--trace", "1"))
    assert result["correct"] is True
    assert {n: m["unit"] for n, m in result["metrics"].items()} == PER_LAYER_UNITS
    shares = [m["value"] for n, m in result["metrics"].items() if n.startswith("share.")]
    assert sum(shares) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_fails_the_run(workload):
    completed = _run("--workload", workload, "--corrupt")
    assert completed.returncode == 1
    assert "CHECK FAILED" in completed.stderr
    assert '"correct"' not in completed.stdout


def test_same_seed_gives_same_inputs():
    from bench import Seeds

    assert Seeds.from_seed(5) == Seeds.from_seed(5)
    assert Seeds.from_seed(5) != Seeds.from_seed(6)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        completed = _run("--workload", "grid-syn", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_refuses_another_kernel_backend():
    completed = _run("--workload", "grid-syn", "--backend", "numpy")
    assert completed.returncode == 3
    assert "refusing to run" in completed.stderr
