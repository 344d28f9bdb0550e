"""Collective inference: iterative classification and relational-only averaging."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcc import inference
from hybridcc.graph import (
    DataGraph,
    LabelState,
    class_prior,
    compute_multiset_features,
    compute_proportion_features,
)
from hybridcc.inference import _counts_following, _wvrn_distributions, ica, iterate, wvrn_rl
from hybridcc.learning import (
    ClassifierSpec,
    _train_node_model,
    attr_only,
    fit_attribute_only,
    ssl_learn,
    variant_from_name,
)
from hybridcc.synthetic import synthetic_graph
from reference_loops import (
    SIGMA_SQ,
    attribute_model,
    first_repeat_period,
    full_budget_ica,
)


def homophilous_graph(seed=0):
    return synthetic_graph(60, 2, 0.9, 0.5, seed=seed, avg_degree=6.0)


def sparsely_label(graph, truth, k=6, seed=1):
    rng = np.random.default_rng(seed)
    picks = rng.choice(graph.node_count, size=k, replace=False)
    return graph.with_known_labels({int(i): int(truth[i]) for i in picks})


def attribute_only_start(graph):
    return attr_only(graph, fit_attribute_only(graph, 1.0))


class UniformNodeModel:
    """Ignores all features and gives every class ``value`` (by default
    ``1 / n_classes``); used to pin down tie-breaking."""

    reads_counts = False

    def __init__(self, n_classes, value=None):
        self.n_classes = n_classes
        self.value = 1.0 / n_classes if value is None else value

    def given_attributes(self, attributes):
        uniform = np.full((attributes.shape[0], self.n_classes), self.value)
        return lambda relational: uniform


def test_ica_config_validation():
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    with pytest.raises(ValueError, match="iterations"):
        ica(tg, attribute_only_start(tg), UniformNodeModel(2), iterations=0)


def test_ica_keeps_known_labels_fixed():
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    state = ica(tg, attribute_only_start(tg), UniformNodeModel(2))
    for node, cls_idx in tg.known_labels.items():
        assert state.labels[node] == cls_idx
    assert np.all(state.labels >= 0)


def test_ica_leaves_its_start_state_unchanged():
    """Every EM iteration of ssl_learn starts its ICA pass from the same
    attribute-only state, so ica must not write into it."""
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    start = attribute_only_start(tg)
    before = start.labels.copy()
    state = ica(tg, start, UniformNodeModel(2), iterations=3)
    assert not np.array_equal(state.labels, before)  # the rounds did relabel
    assert np.array_equal(start.labels, before)


def test_ica_rejects_nan_probabilities():
    """np.argmax would label every such node with its first NaN column."""
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    with pytest.raises(ValueError, match="NaN"):
        ica(tg, attribute_only_start(tg), UniformNodeModel(2, value=np.nan))


def test_ica_is_deterministic():
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    spec = ClassifierSpec("lr+lr")
    variant = variant_from_name("known-onepass")
    m_a = fit_attribute_only(tg, 1.0)
    a = ssl_learn(tg, variant, spec, m_a)
    b = ssl_learn(tg, variant, spec, m_a)
    assert np.array_equal(a.labels, b.labels)


def test_ica_ties_break_to_lowest_index():
    graph, truth = homophilous_graph()
    tg = sparsely_label(graph, truth)
    # a constant node model produces exact ties everywhere: all class 0
    state = ica(tg, attribute_only_start(tg), UniformNodeModel(2))
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
    including no_ssl models trained on all-zero proportion rows. The
    ``attr_only`` start state equals the reference's own bootstrap."""
    periods = Counter()
    zero_rows = 0
    for graph, variant, spec, _, ica_runs in full_budget_runs:
        if variant is None and not spec.uses_nb:
            masked = compute_proportion_features(
                graph, LabelState.from_graph(graph), within=graph.known_mask()
            )
            zero_rows += int(np.sum(~masked.any(axis=1)))
        start = attr_only(graph, fit_attribute_only(graph, SIGMA_SQ))
        for node_model, history in ica_runs:
            assert np.array_equal(start.labels, history[0])
            state = ica(graph, start, node_model, iterations=len(history) - 1)
            assert np.array_equal(state.labels, history[-1]), (spec.kind, variant)
            periods[first_repeat_period(history)] += 1
    assert periods[1] > 0 and periods[2] > 0, periods
    assert zero_rows > 0


@st.composite
def hub_graphs(draw):
    """A graph on 3-30 nodes whose node 0, always unknown, is adjacent to at
    least three quarters of the others, with 2-12 classes, some known
    nodes, and a complete start labeling."""
    n = draw(st.integers(3, 30))
    n_classes = draw(st.integers(2, 12))
    off_hub = draw(st.sets(st.integers(1, n - 1), max_size=(n - 1) // 4))
    edges = [(0, i) for i in range(1, n) if i not in off_hub]
    edges += [(i, i + 1 if i + 1 < n else i - 1) for i in off_hub]  # no isolated node
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2 * n))
    known = draw(st.sets(st.integers(1, n - 1), max_size=n - 2))
    label = st.integers(0, n_classes - 1)
    graph = DataGraph.build(edges, np.zeros((n, 1)), [str(c) for c in range(n_classes)])
    graph = graph.with_known_labels({i: draw(label) for i in known})
    start = LabelState.from_graph(graph)
    start.set_predicted(draw(st.lists(label, min_size=n - len(known), max_size=n - len(known))))
    return graph, start


@settings(max_examples=200, deadline=None)
@given(case=hub_graphs(), data=st.data())
def test_count_updates_equal_the_full_count_after_each_relabeling(case, data):
    """The hub collects repeated keys whenever two of its neighbors change
    to the same label in one step."""
    graph, state = case
    unknown = graph.unknown_nodes
    counts_of = _counts_following(graph, state)
    assert np.array_equal(counts_of(state), compute_multiset_features(graph, state)[unknown])
    for _ in range(data.draw(st.integers(1, 6))):
        state = state.copy()
        labels = state.labels[unknown]
        picks = data.draw(st.lists(st.integers(0, unknown.size - 1), unique=True))
        labels[picks] = data.draw(st.lists(
            st.integers(0, graph.n_classes - 1), min_size=len(picks), max_size=len(picks)
        ))
        state.set_predicted(labels)
        assert np.array_equal(counts_of(state), compute_multiset_features(graph, state)[unknown])


def seven_class_graph():
    graph, truth = synthetic_graph(150, 7, 0.75, 1.5, seed=0, avg_degree=4.0)
    return sparsely_label(graph, truth, k=12, seed=2), truth


def graph_with_a_hub():
    """A 2-class graph plus edges from its unknown node 0 to two thirds of
    the other nodes."""
    graph, truth = synthetic_graph(120, 2, 0.8, 2.0, seed=2, avg_degree=4.0)
    edges = np.column_stack(graph.adjacency.nonzero()).tolist()
    edges += [(0, i) for i in range(1, 120) if i % 3]
    graph = DataGraph.build(edges, graph.attributes, graph.label_domain)
    picks = np.random.default_rng(3).choice(np.arange(1, 120), size=12, replace=False)
    return graph.with_known_labels({int(i): int(truth[i]) for i in picks}), truth


def trained_node_model(graph, truth, kind):
    """A node model trained on every node's true label, so that its
    relational member is strong and ICA rounds keep relabeling nodes."""
    state = LabelState.from_graph(graph)
    state.set_predicted(truth[graph.unknown_nodes])
    return _train_node_model(
        graph, state, ClassifierSpec(kind), attribute_model(graph), True, class_prior(graph)
    )


@pytest.mark.parametrize("kind", ["lr+nb", "lr+lr"])
@pytest.mark.parametrize("make_graph", [seven_class_graph, graph_with_a_hub], ids=["7-class", "hub"])
def test_ica_equals_the_full_budget_loop(make_graph, kind):
    """Counts kept by per-change updates give the labeling of the loop that
    computes both feature kinds afresh every round, with more classes than
    the fixture's 2 and with a node adjacent to most others."""
    graph, truth = make_graph()
    node_model = trained_node_model(graph, truth, kind)
    assert node_model.reads_counts == (kind == "lr+nb")
    _, history = full_budget_ica(graph, node_model, 10)
    assert all(np.any(history[k] != history[k + 1]) for k in range(4))
    start = attr_only(graph, fit_attribute_only(graph, SIGMA_SQ))
    assert np.array_equal(ica(graph, start, node_model).labels, history[-1])


class RoundCounter:
    """Wraps a node model and counts the rounds that evaluate it."""

    def __init__(self, model):
        self.model = model
        self.reads_counts = model.reads_counts
        self.rounds = 0

    def given_attributes(self, attributes):
        predict = self.model.given_attributes(attributes)

        def counted(relational):
            self.rounds += 1
            return predict(relational)

        return counted


@pytest.mark.parametrize("kind", ["lr+nb", "lr+lr"])
@pytest.mark.parametrize("iterations", [1, 3, 6])
def test_ica_counts_neighbor_labels_once_per_call(monkeypatch, kind, iterations):
    """The counts are computed once, from the start labeling; no round
    recomputes either feature kind, however many rounds run."""
    graph, truth = seven_class_graph()
    node_model = RoundCounter(trained_node_model(graph, truth, kind))
    calls = Counter()

    def spy(name):
        real = getattr(inference, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(inference, name, counted)

    spy("compute_multiset_features")
    spy("compute_proportion_features")
    ica(graph, attr_only(graph, fit_attribute_only(graph, SIGMA_SQ)), node_model, iterations)
    assert node_model.rounds == iterations
    assert calls == {"compute_multiset_features": 1}

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
    return DataGraph.build(edges, attrs, ("a", "b")).with_known_labels({0: 0, 5: 1})


def sweep_to_convergence(monkeypatch):
    """Let wvRN sweep until its largest change is below 1e-13."""
    monkeypatch.setattr(inference, "WVRN_MAX_SWEEPS", 20000)
    monkeypatch.setattr(inference, "WVRN_TOL", 1e-13)


def test_wvrn_reaches_the_averaging_fixed_point(monkeypatch):
    g = six_node_two_seed_graph()
    want = solve_clamped_average(g)
    sweep_to_convergence(monkeypatch)
    dist = _wvrn_distributions(g)
    assert np.max(np.abs(dist - want)) < 1e-6
    assert np.array_equal(wvrn_rl(g).labels, np.argmax(want, axis=1))


def test_wvrn_path_graph_interpolates_linearly(monkeypatch):
    # 0(a) - 1 - 2 - 3 - 4 - 5(b): class-a mass decreases by 1/5 per hop
    edges = [(i, i + 1) for i in range(5)]
    g = DataGraph.build(edges, np.zeros((6, 1)), ("a", "b")).with_known_labels({0: 0, 5: 1})
    sweep_to_convergence(monkeypatch)
    dist = _wvrn_distributions(g)
    assert np.allclose(dist[:, 0], [1.0, 0.8, 0.6, 0.4, 0.2, 0.0], atol=1e-6)


def test_wvrn_sweeps_equal_the_per_class_neighbor_sum_loop(monkeypatch):
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
    monkeypatch.setattr(inference, "WVRN_MAX_SWEEPS", 7)
    monkeypatch.setattr(inference, "WVRN_TOL", 1e-300)
    assert np.array_equal(_wvrn_distributions(g), want)


def test_wvrn_requires_knowns():
    edges = [(0, 1), (1, 2)]
    g = DataGraph.build(edges, np.zeros((3, 1)), ("a", "b"))
    with pytest.raises(ValueError, match="at least one known"):
        wvrn_rl(g)


def test_wvrn_prior_init_matches_known_label_frequencies(monkeypatch):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g = DataGraph.build(edges, np.zeros((4, 1)), ("a", "b")).with_known_labels(
        {0: 0, 1: 0, 2: 1}
    )
    # the huge tolerance stops it after one sweep
    monkeypatch.setattr(inference, "WVRN_MAX_SWEEPS", 1)
    monkeypatch.setattr(inference, "WVRN_TOL", 1e30)
    dist = _wvrn_distributions(g)
    # node 3 neighbors 0 (known a) and 2 (known b): mean is (0.5, 0.5)
    assert np.allclose(dist[3], [0.5, 0.5])
