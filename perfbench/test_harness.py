"""Self-test of the benchmark harness at a tiny generated grid.

    python3 -m pytest -q perfbench/test_harness.py

Runs every workload, plain and traced, in a few seconds each, and checks that
a malformed input counts as a failed operation without crashing the harness.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as harness  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

TINY = {"Lx": 4, "Ly": 2, "m": 30, "q": 2, "Q": 3}


def bench(tmp_path, workload, trace, grid=TINY, root=harness.ROOT):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(grid))
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--grid", str(config)],
        capture_output=True, text=True, timeout=170, cwd=root)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_workload_runs_clean(tmp_path, workload, trace):
    out = bench(tmp_path, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    units = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "error_rate = 0.0 ratio" in out.stdout


def test_malformed_input_counts_as_failure(tmp_path):
    grid = {k: v for k, v in TINY.items() if k != "Lx"}
    out = bench(tmp_path, "paper-analyse", 0, grid=grid)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "generate" in out.stderr


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    out = bench(tmp_path, "desk-fit", 0, root=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_time_subtracts_children():
    tr = Tracer("t")
    tr.spans = [
        {"id": 0, "name": "fit", "start": 0.0, "end": 10.0, "parent": None, "run": "t"},
        {"id": 1, "name": "project", "start": 1.0, "end": 3.0, "parent": 0, "run": "t"},
        {"id": 2, "name": "project", "start": 2.0, "end": 4.0, "parent": 0, "run": "t"},
    ]
    assert tr.self_times() == [7.0, 2.0, 2.0]
    assert tr.self_total("project") == 4.0


def test_calibration_integrates_speed_over_the_interval():
    probe = SpeedProbe()
    probe.samples = [(0.5, 1.0), (1.5, 2.0), (2.5, 3.0), (9.0, 5.0)]
    assert probe.calibrate(0.0, 3.0) == pytest.approx(6.0)
    # too few samples inside: the nearest ones stand in
    assert probe.calibrate(1.4, 1.6) == pytest.approx(0.2 * 2.0)
