"""BENCHMARK.json names exactly the metrics run.py reports, and the
benchmark refuses to run without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

REPO = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(REPO / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
