"""The example scripts run end to end on a tiny generated graph."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_sweep_then_inspect_one_trial(tmp_path):
    out = run_script(
        "run_synthetic_sweep.py", "--fast", "--nodes", 40, "--trials", 2,
        "--densities", 0.1, "--out", tmp_path,
    )
    assert "62 cells, 0 failed" in out
    assert "mean accuracy" in out
    assert (tmp_path / "reports" / "summary.csv").is_file()

    out = run_script(
        "inspect_single_trial.py", "--nodes", tmp_path / "nodes.tsv",
        "--edges", tmp_path / "edges.tsv", "--density", 0.1,
    )
    assert "variant" in out and "accuracy" in out and "collapse" in out
    assert "relat-only" in out
