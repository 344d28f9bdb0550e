"""Smoke test of the benchmark: every workload at its small size, both modes.

    python3 -m pytest perfbench

Checks that the last output line carries every metric BENCHMARK.json names
for the mode, with its unit, that the output checks pass, that the trace
files parse, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, workload, trace, smoke=True):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for entry in expected:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))

    run_id = f"{workload}-smoke-seed3-trace{trace}"
    record = json.loads((BENCH_DIR / ".out" / run_id / "result.json").read_text())
    assert len(record["traces"]) == trace * (record["children"] // 2)
    for path in record["traces"]:
        spans = json.loads(Path(path).read_text())["spans"]
        assert spans and all({"name", "start", "end", "parent"} <= set(s) for s in spans)
        assert {s["name"] for s in spans} >= {"harness.run_experiment", "data.prepare_dataset"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".out", "__pycache__"))
    proc = run_bench(tmp_path, "em_reg", 0, smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
