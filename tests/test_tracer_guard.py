"""The benchmark's layer tracer (``perfbench/tracing.py``) patches functions
by name at their import sites and binds their arguments by name. This keeps
a rename in ``src/`` from breaking ``perfbench/run.py --trace 1`` unseen."""

import importlib.util
import inspect
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from hybridcc.classifiers import LRModel
from hybridcc.graph import DataGraph
from hybridcc.harness import ExperimentConfig
from hybridcc.synthetic import generate_dataset, write_dataset

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parameters(fn):
    return set(inspect.signature(fn).parameters)


def test_tracer_finds_every_name_it_patches_and_binds():
    tracing = load_tracing()
    sites = {}
    for module, attr, _ in tracing.TRACED:
        fn = getattr(module, attr, None)
        assert callable(fn), f"{module.__name__}.{attr}"
        sites[module.__name__, attr] = fn

    for module in ("hybridcc.learning", "hybridcc.inference"):
        for name in ("compute_proportion_features", "compute_multiset_features"):
            assert {"graph", "state"} <= parameters(sites[module, name])
    for module in ("hybridcc.learning", "hybridcc.harness"):
        assert {"features", "labels", "sigma_sq"} <= parameters(sites[module, "lr_train"])
    assert {
        "known_features", "known_labels", "known_beta", "unlabeled_features",
        "unlabeled_beta", "config", "sigma_sq", "beta_weighted_likelihood",
    } <= parameters(sites["hybridcc.learning", "lr_train_label_reg"])

    # Read from each fit's result and from each feature call's graph.
    assert {"weights", "n_iter", "converged"} <= {f.name for f in fields(LRModel)}
    graph = DataGraph.build([(0, 1), (1, 2)], np.zeros((3, 1)), ("a", "b"))
    assert graph.neighbor_ids.tolist() == [1, 0, 2, 1]


def test_traced_run_reports_every_layer_metric(monkeypatch, tmp_path):
    """One traced run through every patched site: the static check above
    cannot see an argument the tracer reads after the run (such as
    ``config.epsilon_floor``) going missing."""
    tracing = load_tracing()
    for module, attr, _ in tracing.TRACED:
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored afterwards
    nodes, edges = write_dataset(
        str(tmp_path), generate_dataset(120, 2, 0.8, 1.0, seed=5, attr_dim=3)
    )
    config = ExperimentConfig(
        nodes, edges, densities=(0.1,), trials=1,
        variants=("all-em", "known-em", "no-ssl", "attr-only", "relat-only"),
        classifiers=("lr+nb+reg", "lr+lr+reg", "lr"), em_iterations=2,
        sigma_grid=(1.0,), alpha_grid=(1.0,), output_dir=str(tmp_path / "reports"),
    )
    tracer = tracing.Tracer()
    results = tracer.install()(config)

    assert [r.status for r in results] == ["ok"] * 13
    metrics = tracer.layer_metrics()
    assert metrics["classifiers.lr_train_label_reg.calls"] > 0
    # perfbench/run.py adds the rest from the cell results and the untraced runs
    from_run = {"accuracy.mean", "degenerate_ratio", "error_ratio", "bench.trace_overhead_s"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(metrics) == [m["name"] for m in spec["per_layer"] if m["name"] not in from_run]
