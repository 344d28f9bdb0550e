"""Collective inference: iterative classification and relational-only averaging."""

import numpy as np
import pytest

from hybridcc.classifiers import lr_train
from hybridcc.graph import DataGraph, class_prior, LabelState
from hybridcc.inference import ICAConfig, WvrnConfig, ica, wvrn_rl
from hybridcc.learning import ClassifierSpec, ssl_learn, variant_from_name
from hybridcc.synthetic import synthetic_graph


def test_ica_config_validation():
    with pytest.raises(ValueError):
        ICAConfig(iterations=0)


def test_wvrn_config_validation():
    with pytest.raises(ValueError):
        WvrnConfig(decay=0.0)
    with pytest.raises(ValueError):
        WvrnConfig(init="zeros")
    with pytest.raises(ValueError):
        WvrnConfig(max_iterations=0)


def homophilous_graph(seed=0):
    return synthetic_graph(60, 2, 0.9, 0.5, seed=seed, avg_degree=6.0)


def sparsely_label(graph, truth, k=6, seed=1):
    rng = np.random.default_rng(seed)
    picks = rng.choice(graph.node_count, size=k, replace=False)
    return graph.with_known_labels({int(i): int(truth[i]) for i in picks})


class UniformNodeModel:
    """Ignores all features; used to pin down bootstrap behavior."""

    def __init__(self, n_classes):
        self.n_classes = n_classes

    def predict_proba(self, attributes, proportions, counts):
        return np.full((attributes.shape[0], self.n_classes), 1.0 / self.n_classes)


def test_ica_keeps_known_labels_fixed():
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    m_a = lr_train(tg.attributes[tg.known_nodes], [tg.known_labels[i] for i in tg.known_nodes], 1.0, n_classes=2)
    state = ica(tg, m_a, UniformNodeModel(2))
    for node, cls_idx in tg.known_labels.items():
        assert state.labels[node] == cls_idx
    assert state.all_labeled


def test_ica_is_deterministic():
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    spec = ClassifierSpec("lr+lr")
    variant = variant_from_name("known-onepass")
    a = ssl_learn(tg, variant, spec)
    b = ssl_learn(tg, variant, spec)
    assert np.array_equal(a.labels, b.labels)


def test_ica_ties_break_to_lowest_index():
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    m_a = lr_train(tg.attributes[tg.known_nodes], [tg.known_labels[i] for i in tg.known_nodes], 1.0, n_classes=2)
    # a constant node model produces exact ties everywhere: all class 0
    state = ica(tg, m_a, UniformNodeModel(2))
    assert np.all(state.labels[tg.unknown_nodes] == 0)


def solve_clamped_average(graph, config_decayless=True):
    """Direct linear-system solution of the neighbor-averaging fixed point."""
    n, c = graph.node_count, graph.n_classes
    state = LabelState.from_graph(graph)
    known = graph.known_nodes
    unknown = graph.unknown_nodes
    A = np.zeros((n, n))
    for u in range(n):
        row = graph.neighbor_ids[graph.indptr[u]:graph.indptr[u + 1]]
        A[u, row] = 1.0
    P = A / graph.degrees[:, None]
    clamp = np.zeros((n, c))
    clamp[known, state.labels[known]] = 1.0
    lhs = np.eye(unknown.size) - P[np.ix_(unknown, unknown)]
    rhs = P[np.ix_(unknown, known)] @ clamp[known]
    sol = np.linalg.solve(lhs, rhs)
    full = clamp.copy()
    full[unknown] = sol
    return full


def six_node_two_seed_graph():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 4)]
    attrs = np.zeros((6, 1))
    return DataGraph.build(edges, attrs, ("a", "b"), known_labels={0: 0, 5: 1})


def test_wvrn_reaches_the_averaging_fixed_point():
    g = six_node_two_seed_graph()
    want = solve_clamped_average(g)
    cfg = WvrnConfig(max_iterations=20000, convergence_tol=1e-13)
    state, dist = wvrn_rl(g, config=cfg, return_distributions=True)
    assert np.max(np.abs(dist - want)) < 1e-6
    assert np.array_equal(state.labels, np.argmax(want, axis=1))


def test_wvrn_path_graph_interpolates_linearly():
    # 0(a) - 1 - 2 - 3 - 4 - 5(b): class-a mass decreases by 1/5 per hop
    edges = [(i, i + 1) for i in range(5)]
    g = DataGraph.build(edges, np.zeros((6, 1)), ("a", "b"), known_labels={0: 0, 5: 1})
    cfg = WvrnConfig(max_iterations=20000, convergence_tol=1e-13)
    _, dist = wvrn_rl(g, config=cfg, return_distributions=True)
    assert np.allclose(dist[:, 0], [1.0, 0.8, 0.6, 0.4, 0.2, 0.0], atol=1e-6)


def test_wvrn_init_choice_does_not_change_the_fixed_point():
    g = six_node_two_seed_graph()
    cfg_p = WvrnConfig(max_iterations=20000, convergence_tol=1e-13, init="class-prior")
    cfg_u = WvrnConfig(max_iterations=20000, convergence_tol=1e-13, init="uniform")
    _, dp = wvrn_rl(g, config=cfg_p, return_distributions=True)
    _, du = wvrn_rl(g, config=cfg_u, return_distributions=True)
    assert np.max(np.abs(dp - du)) < 1e-6


def test_wvrn_decay_damps_updates_but_converges_to_the_same_point():
    g = six_node_two_seed_graph()
    cfg = WvrnConfig(max_iterations=50000, convergence_tol=1e-13, decay=0.999)
    _, dist = wvrn_rl(g, config=cfg, return_distributions=True)
    want = solve_clamped_average(g)
    assert np.max(np.abs(dist - want)) < 1e-3


def test_wvrn_sweeps_equal_the_per_class_neighbor_sum_loop():
    """The sparse-product sweep is bit-identical to summing each class's
    neighbor mass with one bincount per class."""
    graph, truth = homophilous_graph(seed=4)
    g = sparsely_label(graph, truth, k=8)
    n, c = g.node_count, g.n_classes
    known, unknown = g.known_nodes, g.unknown_nodes
    labels = LabelState.from_graph(g).labels
    want = np.zeros((n, c))
    want[known, labels[known]] = 1.0
    want[unknown] = np.bincount(labels[known], minlength=c) / known.size
    src = np.repeat(np.arange(n), g.degrees)
    inv_degree = 1.0 / g.degrees
    for _ in range(7):
        mean = np.empty_like(want)
        for k in range(c):
            sums = np.bincount(src, weights=want[g.neighbor_ids, k], minlength=n)
            mean[:, k] = sums * inv_degree
        want[unknown] = mean[unknown]
    cfg = WvrnConfig(max_iterations=7, convergence_tol=1e-300)
    _, dist = wvrn_rl(g, config=cfg, return_distributions=True)
    assert np.array_equal(dist, want)


def test_wvrn_accepts_label_override_and_requires_knowns():
    edges = [(0, 1), (1, 2)]
    g = DataGraph.build(edges, np.zeros((3, 1)), ("a", "b"))
    with pytest.raises(ValueError, match="at least one known"):
        wvrn_rl(g)
    state = wvrn_rl(g, known_labels={0: 1})
    assert state.labels[0] == 1
    assert state.all_labeled


def test_wvrn_prior_init_matches_known_label_frequencies():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g = DataGraph.build(edges, np.zeros((4, 1)), ("a", "b"), known_labels={0: 0, 1: 0, 2: 1})
    cfg = WvrnConfig(max_iterations=0 + 1, convergence_tol=1e30)  # stop after one sweep
    _, dist = wvrn_rl(g, config=cfg, return_distributions=True)
    # node 3 neighbors 0 (known a) and 2 (known b): mean is (0.5, 0.5)
    assert np.allclose(dist[3], [0.5, 0.5])
