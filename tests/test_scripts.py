"""The scripts run end to end on tiny generated graphs."""

import shutil
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


def test_same_reports_passes_on_one_tree_and_names_a_changed_report(tmp_path):
    src = SCRIPTS.parent / "src"
    tiny = ["--tiny", "--em-reg", 1, "--ica-large", 1]
    out = run_script("same_reports.py", src, src, *tiny, "--work", tmp_path / "same")
    assert "8 reports byte-identical over 4 inputs" in out

    patched = tmp_path / "patched"
    shutil.copytree(src, patched, ignore=shutil.ignore_patterns("__pycache__"))
    harness = patched / "hybridcc" / "harness.py"
    text = harness.read_text()
    assert '"%.4f" % value' in text
    harness.write_text(text.replace('"%.4f" % value', '"%.3f" % value'))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "same_reports.py"), str(src), str(patched),
         *map(str, tiny), "--work", str(tmp_path / "differ")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    first = tmp_path / "differ" / "new" / "em_reg-31010000" / "trials.csv"
    assert done.stdout.strip().endswith(str(first))
