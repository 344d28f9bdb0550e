"""The example script runs end to end on a tiny generated graph."""

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


def test_sweep_runs_the_full_grid(tmp_path):
    out = run_script(
        "run_synthetic_sweep.py", "--fast", "--nodes", 40, "--trials", 2,
        "--densities", 0.1, "--out", tmp_path,
    )
    assert "62 cells, 0 failed" in out
    assert "mean accuracy" in out
    assert (tmp_path / "reports" / "summary.csv").is_file()
