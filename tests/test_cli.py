"""Command-line interface: subcommands, output, and exit codes."""

import os
import subprocess
import sys

import pytest

import hybridcc
import hybridcc.cli as cli
from hybridcc.cli import (
    EXIT_ALL_TRIALS_FAILED,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    main,
)
from hybridcc.harness import TrialResult


def write_config(tmp_path, nodes, edges, **overrides):
    settings = {
        "nodes_path": nodes,
        "edges_path": edges,
        "densities": "0.1",
        "trials": "2",
        "variants": "known-onepass, attr-only",
        "classifiers": "lr",
        "sigma_grid": "1",
        "alpha_grid": "1",
        "ica_iterations": "2",
        "output_dir": tmp_path / "reports",
        **overrides,
    }
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return str(path)


def test_gen_synthetic_then_validate_round_trips(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main([
        "gen-synthetic", "--nodes", "50", "--classes", "3",
        "--homophily", "0.8", "--attr-noise", "0.5",
        "--seed", "11", "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert (out / "nodes.tsv").exists() and (out / "edges.tsv").exists()

    rc = main([
        "validate", "--nodes", str(out / "nodes.tsv"),
        "--edges", str(out / "edges.tsv"),
    ])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "nodes: 50" in text
    assert "classes: 3" in text


def test_gen_synthetic_rejects_bad_parameters(tmp_path, capsys):
    rc = main([
        "gen-synthetic", "--nodes", "50", "--classes", "3",
        "--homophily", "1.5", "--attr-noise", "0.5",
        "--seed", "1", "--out", str(tmp_path / "x"),
    ])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_executes_and_writes_reports(tmp_path, small_dataset, capsys):
    nodes, edges = small_dataset
    cfg = write_config(tmp_path, nodes, edges)
    rc = main(["run", "--config", cfg, "--quiet"])
    assert rc == EXIT_OK
    assert (tmp_path / "reports" / "trials.csv").exists()
    assert (tmp_path / "reports" / "summary.csv").exists()
    assert "0 failed" in capsys.readouterr().err


def test_run_output_dir_flag_overrides_config(tmp_path, small_dataset):
    nodes, edges = small_dataset
    cfg = write_config(tmp_path, nodes, edges)
    override = tmp_path / "elsewhere"
    rc = main(["run", "--config", cfg, "--quiet", "--output-dir", str(override)])
    assert rc == EXIT_OK
    assert (override / "trials.csv").exists()
    assert not (tmp_path / "reports").exists()


def test_run_progress_lines_unless_quiet(tmp_path, small_dataset, capsys):
    nodes, edges = small_dataset
    cfg = write_config(tmp_path, nodes, edges)
    assert main(["run", "--config", cfg]) == EXIT_OK
    err = capsys.readouterr().err
    assert "density 0.1 trial 0 known-onepass/lr:" in err


def test_run_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("nodes_path = n\nedges_path = e\ntrials = minus one\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["sigma_grid", "alpha_grid"])
def test_run_non_finite_grid_exits_1(tmp_path, small_dataset, capsys, key):
    """A NaN grid used to run every cell at chance accuracy and report ok."""
    nodes, edges = small_dataset
    cfg = write_config(tmp_path, nodes, edges, **{key: "1, nan"})
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    assert f"{key} must be non-empty with positive finite entries" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def test_run_uncreatable_output_dir_exits_1_before_any_trial(tmp_path, small_dataset, capsys):
    """An output_dir under a regular file used to fail with a traceback
    after the whole grid had run."""
    nodes, edges = small_dataset
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    cfg = write_config(tmp_path, nodes, edges, output_dir=blocker / "reports")
    assert main(["run", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: cannot create output_dir" in err
    assert "density" not in err  # no progress line: no trial ran


def test_gen_synthetic_onto_a_file_exits_1_without_a_traceback(tmp_path, capsys):
    """``--out`` naming an existing file used to end in a FileExistsError
    traceback."""
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    rc = main([
        "gen-synthetic", "--nodes", "30", "--classes", "2", "--homophily", "0.7",
        "--attr-noise", "1.0", "--seed", "3", "--out", str(blocker),
    ])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "Traceback" not in err


def test_run_unwritable_report_exits_1_without_a_traceback(tmp_path, small_dataset, capsys):
    """A directory named trials.csv in output_dir used to end in an
    IsADirectoryError traceback after the whole grid had run."""
    nodes, edges = small_dataset
    (tmp_path / "reports" / "trials.csv").mkdir(parents=True)
    cfg = write_config(tmp_path, nodes, edges, trials="1")
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "Traceback" not in err


def test_run_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_missing_dataset_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, tmp_path / "no_nodes.tsv", tmp_path / "no_edges.tsv")
    assert main(["run", "--config", cfg]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_run_all_failed_trials_exit_3(tmp_path, small_dataset, monkeypatch, capsys):
    nodes, edges = small_dataset
    cfg = write_config(tmp_path, nodes, edges)

    def all_broken(config, progress=None):
        return [
            TrialResult(
                density=0.1, trial=t, variant="known-onepass", classifier="lr",
                accuracy=None, sigma_sq=None, nb_alpha=None, degenerate=False,
                status="error", note="RuntimeError: boom",
            )
            for t in range(2)
        ]

    monkeypatch.setattr(cli, "run_experiment", all_broken)
    assert main(["run", "--config", cfg, "--quiet"]) == EXIT_ALL_TRIALS_FAILED
    assert "every trial failed" in capsys.readouterr().err


def test_validate_reports_the_prepared_graph(tmp_path, capsys):
    """Counts come from the graph ``run`` would use: the isolated node is
    dropped, the duplicate, reversed and self-loop edges collapse, and the
    categorical column expands to one column per category."""
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text(
        "id\tlabel\treal\tcat\n"
        "n1\ta\t1.0\tx\nn2\tb\t2.0\ty\nn3\ta\t3.0\tz\nlone\tb\t4.0\tx\n"
    )
    edges.write_text("n1\tn2\nn2\tn1\nn2\tn3\nn1\tn2\nn3\tn3\n")
    assert main(["validate", "--nodes", str(nodes), "--edges", str(edges)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "nodes: 3 (1 isolated dropped)",
        "edges: 2",
        "classes: 2",
        "attributes: 4 after one-hot encoding",
    ]


def test_validate_reports_data_errors(tmp_path, capsys):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text("id\tlabel\treal\nn1\ta\t1.0\nn2\tb\t2.0\n")
    edges.write_text("n1\tmissing\n")
    rc = main(["validate", "--nodes", str(nodes), "--edges", str(edges)])
    assert rc == EXIT_DATA
    assert "unknown node id" in capsys.readouterr().err


def test_validate_rejects_single_class_data(tmp_path, capsys):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text("id\tlabel\treal\nn1\ta\t1.0\nn2\ta\t2.0\n")
    edges.write_text("n1\tn2\n")
    rc = main(["validate", "--nodes", str(nodes), "--edges", str(edges)])
    assert rc == EXIT_DATA
    assert "fewer than 2" in capsys.readouterr().err


def test_module_entry_point_matches_cli(tmp_path, small_dataset):
    # the child finds the package where this process found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(hybridcc.__file__)))
    out = tmp_path / "gen"
    proc = subprocess.run(
        [sys.executable, "-m", "hybridcc", "gen-synthetic", "--nodes", "30",
         "--classes", "2", "--homophily", "0.7", "--attr-noise", "1.0",
         "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_OK
    assert (out / "nodes.tsv").exists()
