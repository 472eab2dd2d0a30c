"""Smoke run of the benchmark: tiny inputs, one pass, every correctness check.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the real command line, so the result contract, the oracle and the
metric names are all exercised; it keeps the harness from rotting.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from workloads import PER_LAYER, WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_check_passes(workload, trace):
    _, r = result("--workload", workload, "--trace", trace)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert list(r["metrics"]) == (list(END_TO_END) if trace == "0" else PER_LAYER)
    if trace == "1":
        coverage = r["metrics"]["trace.layer_coverage"]["value"]
        assert 0 < coverage <= 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_other_seed_checks_seed_free_facts(workload):
    _, r = result("--workload", workload, "--seed", "7")
    assert r["correct"] and r["failed"] == 0


def copy_benchmark(dest: Path) -> Path:
    """BENCHMARK.json and perfbench/ copied to `dest`, without run leftovers."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    return dest


@pytest.mark.parametrize("workload,job", [("audit", "window_audit.exhaustive"),
                                          ("field", "scenario[0]"),
                                          ("cli", "cli.sim")])
def test_wrong_expectation_is_reported(tmp_path, workload, job):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    oracle = tmp_path / "perfbench" / "expected.json"
    doc = json.loads(oracle.read_text())
    doc["smoke"][workload][job] = {"wrong": True}
    oracle.write_text(json.dumps(doc))
    proc = bench("--workload", workload, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    r = json.loads(lines[-1])
    assert not r["correct"] and r["failed"] == 1
    assert [line for line in lines if line.startswith("FAILED ")][0].startswith(f"FAILED {job} ")


def test_benchmark_json_names_match():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == PER_LAYER


def test_refuses_without_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("--workload", "audit", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
