"""Shared fixtures: small synthetic datasets written to disk once per session,
and full-budget reference runs of the EM and ICA loops."""

import numpy as np
import pytest

from hybridcc.learning import ClassifierSpec, variant_from_name
from hybridcc.synthetic import generate_dataset, synthetic_graph, write_dataset
from reference_loops import full_budget_ssl_learn


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """An easy homophilous 2-class dataset on disk: (nodes_path, edges_path)."""
    out = tmp_path_factory.mktemp("smalldata")
    data = generate_dataset(80, 2, 0.85, 0.8, seed=17, avg_degree=6.0, attr_dim=3)
    return write_dataset(str(out), data)


@pytest.fixture(scope="session")
def full_budget_runs():
    """Full-budget EM and ICA runs on fixed seeded graphs, one per (graph,
    classifier kind, variant): ``(graph, variant, spec, em_history, ica_runs)``.
    Default budgets: 10 EM iterations, 10 ICA rounds."""
    runs = []
    for seed in (0, 1):
        graph, truth = synthetic_graph(80, 2, 0.85, 0.8, seed=seed, avg_degree=6.0)
        picks = np.random.default_rng(seed + 1).choice(80, size=8, replace=False)
        graph = graph.with_known_labels({int(i): int(truth[i]) for i in picks})
        for kind in ("lr+nb", "lr+lr", "lr+nb+reg"):
            spec = ClassifierSpec(kind)
            for name in ("all-em", "known-em"):
                variant = variant_from_name(name, em_iterations=10)
                history, ica_runs = full_budget_ssl_learn(graph, variant, spec, ica_iterations=10)
                runs.append((graph, variant, spec, history, ica_runs))
    return runs
