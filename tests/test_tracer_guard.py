"""The benchmark's layer tracer (``perfbench/tracing.py``) patches functions
by name at their import sites and binds their arguments by name. This keeps
a rename in ``src/`` from breaking ``perfbench/run.py --trace 1`` unseen."""

import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np

from hybridcc.classifiers import LRModel
from hybridcc.graph import DataGraph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
