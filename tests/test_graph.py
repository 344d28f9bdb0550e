"""Graph container, label state, and relational feature extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcc.graph import (
    DataGraph,
    LabelState,
    class_prior,
    compute_multiset_features,
    compute_proportion_features,
)


def line_graph(n, known=None, n_classes=2, attr_dim=2):
    edges = [(i, i + 1) for i in range(n - 1)]
    attrs = np.arange(n * attr_dim, dtype=float).reshape(n, attr_dim)
    domain = tuple(f"c{k}" for k in range(n_classes))
    return DataGraph.build(edges, attrs, domain).with_known_labels(known or {})


def test_build_symmetrizes_and_deduplicates():
    g = DataGraph.build(
        [(0, 1), (1, 0), (0, 1), (1, 2), (2, 2)],
        np.zeros((3, 1)),
        ("a", "b"),
    )
    assert g.node_count == 3
    assert list(g.degrees) == [1, 2, 1]
    A = g.adjacency
    assert A.has_canonical_format
    assert np.all(A.data == 1)
    assert np.array_equal(A.toarray(), A.toarray().T)
    # the self loop on node 2 is dropped, not counted as degree
    assert A.toarray().tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_build_rejects_isolated_nodes():
    with pytest.raises(ValueError, match="node 2 is isolated"):
        DataGraph.build([(0, 1)], np.zeros((3, 1)), ("a", "b"))


# with_known_labels is the one way known labels enter a graph
@pytest.mark.parametrize("entry", ["with_known_labels"])
@pytest.mark.parametrize(
    "known, message",
    [({3: 0}, "out-of-range node 3"), ({-1: 0}, "out-of-range node -1"),
     ({0: 2}, "class index 2 outside"), ({0: -1}, "class index -1 outside")],
    ids=["node-past-end", "node-negative", "class-past-end", "class-negative"],
)
def test_known_labels_are_validated_by_every_entry_point(entry, known, message):
    with pytest.raises(ValueError, match=message):
        getattr(line_graph(3), entry)(known)


def test_known_label_bookkeeping():
    g = line_graph(4, known={1: 0, 3: 1})
    assert list(g.known_nodes) == [1, 3]
    assert list(g.unknown_nodes) == [0, 2]
    assert g.known_mask().sum() == 2
    st0 = LabelState.from_graph(g)
    assert st0.unknown_nodes is g.unknown_nodes
    assert st0.labels.tolist() == [-1, 0, -1, 1]
    assert st0.copy().unknown_nodes is g.unknown_nodes


def test_known_labels_are_immutable():
    """``set_predicted`` writes the unknown rows in node order and nothing
    else, so no predicted vector can change a known label."""
    g = line_graph(5, known={0: 1, 3: 0})
    st0 = LabelState.from_graph(g)
    for predicted in ([0, 0, 0], [1, 1, 1], [1, 0, 1]):
        st0.set_predicted(predicted)
        assert st0.labels[[0, 3]].tolist() == [1, 0]
        assert st0.labels[[1, 2, 4]].tolist() == predicted


def test_set_predicted_rejects_a_vector_not_matching_the_unknown_set():
    g = line_graph(4, known={1: 0})
    st0 = LabelState.from_graph(g)
    for bad in ([0, 1], [0, 1, 1, 0], [[0, 1, 1]]):
        with pytest.raises(ValueError, match="expected 3 predicted labels"):
            st0.set_predicted(bad)
    with pytest.raises(ValueError, match="outside class domain"):
        st0.set_predicted([0, 2, 1])
    assert st0.labels.tolist() == [-1, 0, -1, -1]


def test_with_known_labels_leaves_original_untouched():
    g = line_graph(4, known={0: 0})
    h = g.with_known_labels({1: 1, 2: 0})
    assert list(h.known_nodes) == [1, 2]
    assert list(g.known_nodes) == [0]
    assert h.adjacency is g.adjacency  # structure is shared, labels are not


def test_known_nodes_are_computed_once_read_only_and_per_graph():
    g = line_graph(4, known={2: 1, 0: 0})
    cached = g.known_nodes
    assert g.known_nodes is cached
    assert cached.tolist() == [0, 2]
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 3
    h = g.with_known_labels({3: 1})
    assert h.known_nodes is not cached
    assert h.known_nodes.tolist() == [3]
    assert g.known_nodes.tolist() == [0, 2]
    assert h.unknown_nodes.tolist() == [0, 1, 2]
    empty = g.with_known_labels({})
    assert empty.known_nodes.size == 0
    assert empty.unknown_nodes.tolist() == [0, 1, 2, 3]
    assert not empty.known_mask().any()
    unknown = h.unknown_nodes
    assert h.unknown_nodes is unknown
    with pytest.raises(ValueError, match="read-only"):
        unknown[0] = 3


def test_multiset_counts_on_a_path():
    # 0(c0) - 1 - 2(c1), node 1 predicted c1
    g = line_graph(3, known={0: 0, 2: 1})
    st0 = LabelState.from_graph(g)
    st0.set_predicted([1])
    counts = compute_multiset_features(g, st0)
    assert counts.tolist() == [[0, 1], [1, 1], [0, 1]]
    props = compute_proportion_features(g, st0)
    assert props.tolist() == [[0, 1], [0.5, 0.5], [0, 1]]


def test_multiset_requires_complete_labeling():
    g = line_graph(3, known={0: 0})
    with pytest.raises(ValueError):
        compute_multiset_features(g, LabelState.from_graph(g))


def test_within_mask_restricts_to_chosen_neighbors():
    # only known neighbors count; node 1 sees just node 0, node 2 sees nobody
    g = line_graph(3, known={0: 0})
    st0 = LabelState.from_graph(g)
    mask = g.known_mask()
    counts = compute_multiset_features(g, st0, within=mask)
    assert counts.tolist() == [[0, 0], [1, 0], [0, 0]]
    props = compute_proportion_features(g, st0, within=mask)
    assert props[1].tolist() == [1, 0]
    assert props[2].tolist() == [0, 0]  # zero row, not NaN


def test_class_prior_uses_laplace_smoothing():
    g = line_graph(5, known={0: 0, 1: 0, 2: 1})
    prior = class_prior(g, smoothing=1.0)
    assert np.allclose(prior, [0.6, 0.4])  # (2+1)/(3+2), (1+1)/(3+2)


def test_class_prior_unsmoothed():
    g = line_graph(4, known={0: 0, 1: 0, 2: 0})
    prior = class_prior(g, smoothing=0.0)
    assert prior.tolist() == [1.0, 0.0]


def neighbor_count_loop(g, labels, within):
    """Reference counts: one pass over each node's adjacency row."""
    indptr, indices = g.adjacency.indptr, g.adjacency.indices
    want = np.zeros((g.node_count, g.n_classes), dtype=np.int64)
    for u in range(g.node_count):
        for v in indices[indptr[u]:indptr[u + 1]]:
            if within[v]:
                want[u, labels[v]] += 1
    return want


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    extra=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=40
    ),
    seed=st.integers(0, 2**31 - 1),
)
def test_feature_rows_account_for_every_neighbor(n, extra, seed):
    """Multiset rows sum to the degree and match a per-node neighbor loop,
    with and without a ``within`` mask; proportions are the counts over
    their row sums, and rows with no contributing neighbor stay zero."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(a % n, b % n) for a, b in extra if a % n != b % n]
    g = DataGraph.build(edges, np.zeros((n, 1)), ("x", "y", "z"))
    rng = np.random.default_rng(seed)
    st0 = LabelState.from_graph(g)
    st0.set_predicted(rng.integers(0, 3, size=n))
    mask = rng.random(n) < 0.5
    for within in (None, mask):
        counts = compute_multiset_features(g, st0, within=within)
        assert counts.dtype.kind == "i"
        everyone = np.ones(n, dtype=bool) if within is None else within
        assert np.array_equal(counts, neighbor_count_loop(g, st0.labels, everyone))
        props = compute_proportion_features(g, st0, within=within)
        totals = counts.sum(axis=1)
        nz = totals > 0
        assert np.array_equal(props[nz], counts[nz] / totals[nz, None])
        assert np.all(props[~nz] == 0)
    counts = compute_multiset_features(g, st0)
    assert np.array_equal(counts.sum(axis=1), g.degrees)
    props = compute_proportion_features(g, st0)
    assert np.allclose(props.sum(axis=1), 1.0)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=60),
    c=st.integers(min_value=2, max_value=12),
    extra=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=80),
    hub=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_proportions_equal_the_masked_division(n, c, extra, hub, seed):
    """The column-loop row sums and ``np.divide(where=)`` give the bits of
    dividing the nonzero rows by their ``sum(axis=1)``, zero rows included."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(a % n, b % n) for a, b in extra]
    if hub:
        edges += [(0, i) for i in range(1, n)]
    g = DataGraph.build(edges, np.zeros((n, 1)), tuple(f"c{k}" for k in range(c)))
    rng = np.random.default_rng(seed)
    state = LabelState.from_graph(g)
    state.set_predicted(rng.integers(0, c, size=n))
    # node n-1 has no neighbor inside the mask, so its row is all zero
    mask = rng.random(n) < rng.random()
    mask[g.adjacency.indices[g.adjacency.indptr[n - 1]:]] = False
    for within in (None, mask):
        counts = compute_multiset_features(g, state, within=within)
        denom = counts.sum(axis=1)
        want = np.zeros(counts.shape)
        nz = denom > 0
        want[nz] = counts[nz] / denom[nz, None]
        got = compute_proportion_features(g, state, within=within)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
    assert not got[n - 1].any()
