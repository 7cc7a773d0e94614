"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_counts.py

For a fixed seed, every count the traced run reports and both output
digests must repeat bit for bit across processes, so that a later change
can base a count claim on them. The two processes use different hash
seeds, so nothing may depend on set or dict iteration order.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in ("s", "%")]


def _run(cwd, workload, trace, hash_seed=0):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("digest ")]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_and_digests_repeat(workload):
    first, first_digests = _result(_run(ROOT, workload, 1, hash_seed=1))
    second, second_digests = _result(_run(ROOT, workload, 1, hash_seed=2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert len(first_digests) == 2 and first_digests == second_digests
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_end_to_end_metrics_are_positive():
    res, _ = _result(_run(ROOT, "sample", 0))
    assert res["correct"] and res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, metric in res["metrics"].items():
        assert metric["value"] > 0, name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "certify-large", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
