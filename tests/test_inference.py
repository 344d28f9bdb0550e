"""Collective inference: iterative classification and relational-only averaging."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcc.classifiers import lr_train
from hybridcc.graph import DataGraph, LabelState, compute_proportion_features
from hybridcc.inference import ICAConfig, WvrnConfig, ica, iterate, wvrn_rl
from hybridcc.learning import ClassifierSpec, ssl_learn, variant_from_name
from hybridcc.synthetic import synthetic_graph
from reference_loops import first_repeat_period


def test_ica_config_validation():
    with pytest.raises(ValueError):
        ICAConfig(iterations=0)


def test_wvrn_config_validation():
    with pytest.raises(ValueError):
        WvrnConfig(max_iterations=0)
    with pytest.raises(ValueError):
        WvrnConfig(convergence_tol=0.0)


def homophilous_graph(seed=0):
    return synthetic_graph(60, 2, 0.9, 0.5, seed=seed, avg_degree=6.0)


def sparsely_label(graph, truth, k=6, seed=1):
    rng = np.random.default_rng(seed)
    picks = rng.choice(graph.node_count, size=k, replace=False)
    return graph.with_known_labels({int(i): int(truth[i]) for i in picks})


class UniformNodeModel:
    """Ignores all features; used to pin down bootstrap behavior."""

    reads_counts = False

    def __init__(self, n_classes):
        self.n_classes = n_classes

    def given_attributes(self, attributes):
        return lambda relational: self.predict_proba(attributes, relational)

    def predict_proba(self, attributes, relational):
        return np.full((attributes.shape[0], self.n_classes), 1.0 / self.n_classes)


def test_ica_keeps_known_labels_fixed():
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    m_a = lr_train(tg.attributes[tg.known_nodes], [tg.known_labels[i] for i in tg.known_nodes], 1.0, n_classes=2)
    state = ica(tg, m_a, UniformNodeModel(2))
    for node, cls_idx in tg.known_labels.items():
        assert state.labels[node] == cls_idx
    assert np.all(state.labels >= 0)


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


@st.composite
def maps_with_tails_and_cycles(draw):
    """A map on a few points: cycles of length 1-4, then tail points that
    each feed an earlier point, relabeled by a random permutation."""
    succ = []
    for length in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        base = len(succ)
        succ += [base + (j + 1) % length for j in range(length)]
    for _ in range(draw(st.integers(0, 8))):
        succ.append(draw(st.integers(0, len(succ) - 1)))
    perm = draw(st.permutations(range(len(succ))))
    relabeled = [0] * len(succ)
    for point, target in enumerate(succ):
        relabeled[perm[point]] = perm[target]
    return relabeled


@settings(max_examples=300, deadline=None)
@given(succ=maps_with_tails_and_cycles(), data=st.data(), n=st.integers(1, 15))
def test_iterate_equals_the_plain_loop(succ, data, n):
    start = data.draw(st.integers(0, len(succ) - 1))
    calls = []

    def step(state):
        calls.append(state)
        return SimpleNamespace(labels=np.array([succ[state.labels[0]]]))

    want = start
    for _ in range(n):
        want = succ[want]
    got = iterate(step, SimpleNamespace(labels=np.array([start])), n)
    assert got.labels[0] == want
    assert len(calls) <= n


def test_ica_stops_early_with_the_full_budget_labeling(full_budget_runs):
    """Early exit with one feature kind per round and the attribute member
    evaluated once equals the full round budget computed the long way, on
    runs that reach fixed points and 2-cycles, for every node model kind,
    including no_ssl models trained on all-zero proportion rows."""
    periods = Counter()
    zero_rows = 0
    for graph, variant, spec, _, ica_runs in full_budget_runs:
        if variant is None and not spec.uses_nb:
            masked = compute_proportion_features(
                graph, LabelState.from_graph(graph), within=graph.known_mask()
            )
            zero_rows += int(np.sum(~masked.any(axis=1)))
        for m_a, node_model, history in ica_runs:
            state = ica(graph, m_a, node_model, ICAConfig(iterations=len(history) - 1))
            assert np.array_equal(state.labels, history[-1]), (spec.kind, variant)
            periods[first_repeat_period(history)] += 1
    assert periods[1] > 0 and periods[2] > 0, periods
    assert zero_rows > 0


def solve_clamped_average(graph):
    """Direct linear-system solution of the neighbor-averaging fixed point."""
    n, c = graph.node_count, graph.n_classes
    state = LabelState.from_graph(graph)
    known = graph.known_nodes
    unknown = graph.unknown_nodes
    P = graph.adjacency.toarray() / graph.degrees[:, None]
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


def test_wvrn_requires_knowns():
    edges = [(0, 1), (1, 2)]
    g = DataGraph.build(edges, np.zeros((3, 1)), ("a", "b"))
    with pytest.raises(ValueError, match="at least one known"):
        wvrn_rl(g)


def test_wvrn_prior_init_matches_known_label_frequencies():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g = DataGraph.build(edges, np.zeros((4, 1)), ("a", "b"), known_labels={0: 0, 1: 0, 2: 1})
    cfg = WvrnConfig(max_iterations=0 + 1, convergence_tol=1e30)  # stop after one sweep
    _, dist = wvrn_rl(g, config=cfg, return_distributions=True)
    # node 3 neighbors 0 (known a) and 2 (known b): mean is (0.5, 0.5)
    assert np.allclose(dist[3], [0.5, 0.5])
