"""Smoke test of the benchmark on its tiny profile (about half a minute).

    python3 -m pytest bench/test_smoke.py -q

Every workload must pass all its answer checks on two seeds, repeat its
counts exactly for one seed, and report exactly the metrics that
BENCHMARK.json declares.  Without the package sources the benchmark must
fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, root=BENCH.parent):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--profile", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_profile(workload):
    traced = result(bench(workload, 1, 1))
    again = result(bench(workload, 1, 1))
    timed = result(bench(workload, 2, 0))

    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(timed["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    counts = {k: v["value"] for k, v in traced["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: again["metrics"][k]["value"] for k in counts}
    for name, metric in timed["metrics"].items():
        assert metric["value"] > 0, name


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = bench("lab", 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
