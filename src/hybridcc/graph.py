"""Graph container, label bookkeeping, and neighbor-label features.

A single partially labeled network: every node carries an attribute vector,
a subset of nodes has a known class label, and the downstream task is to
infer the labels of the remaining nodes. The graph alone owns that
known/unknown split; a ``LabelState`` holds one labeling of the graph and
can only write the unknown rows. Relational features summarize the
labels currently assigned to a node's neighborhood, either as fractions of
the neighborhood (for vector-based classifiers) or as raw per-class counts
(for classifiers that treat each neighbor label as one observation).

The graph keeps its topology in one form, a sparse 0/1 adjacency matrix.
Neighbor aggregations over a whole labeling are products with it: per-class
neighbor counts are ``adjacency @ onehot(labels)``, and relational-only
propagation averages ``adjacency @ dist`` by degree. ``inference.ica``
counts once per call this way and then updates the counts by the nodes
whose label changed, reading their neighbors from the same CSR arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.sparse import coo_array, csr_array

from ._rows import each_row, row_sum

__all__ = [
    "DataGraph",
    "LabelState",
    "compute_proportion_features",
    "compute_multiset_features",
    "neighbor_proportions",
    "class_prior",
]


@dataclass(frozen=True)
class DataGraph:
    """Immutable undirected graph with node attributes and known labels.

    ``adjacency`` is an (n x n) ``scipy.sparse.csr_array`` of 0/1 integers:
    symmetric, with sorted and deduplicated column indices and no self
    loops, so the neighbors of node ``i`` are the column indices of row
    ``i``. ``degrees`` and ``neighbor_ids`` are views derived from it (row
    lengths and the concatenated column indices). Every node must have
    degree >= 1 (isolated nodes are removed during data preparation).

    ``known_labels`` maps node index to class index for the nodes whose label
    is given; all other nodes are the inference target. The graph object is
    never mutated after construction, so one instance can be shared freely
    across concurrently running trials.
    """

    adjacency: csr_array
    attributes: np.ndarray
    label_domain: tuple[str, ...]
    known_labels: dict[int, int]

    @classmethod
    def build(cls, edges, attributes, label_domain):
        """Construct a graph with no known labels from an edge list.

        ``edges`` is a sequence of (i, j) node-index pairs. Duplicates and
        reversed orientations collapse to a single undirected edge; self
        loops are discarded. Raises ``ValueError`` for out-of-range
        endpoints, isolated nodes, or fewer than two classes. Known labels
        are installed by ``with_known_labels``.
        """
        attributes = np.asarray(attributes, dtype=float)
        if attributes.ndim != 2:
            raise ValueError("attributes must be a 2-D (nodes x features) array")
        n = attributes.shape[0]
        label_domain = tuple(label_domain)
        if len(label_domain) < 2:
            raise ValueError("label domain must contain at least 2 classes")

        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("edge endpoint out of range")
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]  # no self loops
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        # Converting to CSR sorts the indices and sums repeated edges.
        adjacency = coo_array(
            (np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=(n, n)
        ).tocsr()
        adjacency.data[:] = 1
        isolated = np.flatnonzero(np.diff(adjacency.indptr) == 0)
        if isolated.size:
            raise ValueError(f"node {int(isolated[0])} is isolated (degree 0)")

        return cls(adjacency=adjacency, attributes=attributes,
                   label_domain=label_domain, known_labels={})

    @property
    def degrees(self) -> np.ndarray:
        """Number of distinct neighbors of each node."""
        return np.diff(self.adjacency.indptr)

    @property
    def neighbor_ids(self) -> np.ndarray:
        """Neighbor indices of every node, concatenated in node order."""
        return self.adjacency.indices

    @property
    def node_count(self) -> int:
        return self.attributes.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.label_domain)

    @cached_property
    def known_nodes(self) -> np.ndarray:
        """Sorted indices of nodes with a given label (computed once, read-only)."""
        nodes = np.array(sorted(self.known_labels), dtype=np.int64)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def unknown_nodes(self) -> np.ndarray:
        """Sorted indices of nodes to infer (computed once, read-only)."""
        nodes = np.flatnonzero(~self.known_mask())
        nodes.flags.writeable = False
        return nodes

    def known_mask(self) -> np.ndarray:
        mask = np.zeros(self.node_count, dtype=bool)
        mask[self.known_nodes] = True
        return mask

    def with_known_labels(self, known_labels) -> "DataGraph":
        """Same topology and attributes, different known-label partition."""
        known = dict(known_labels)
        for node, cls_idx in known.items():
            if not 0 <= node < self.node_count:
                raise ValueError(f"known label for out-of-range node {node}")
            if not 0 <= cls_idx < self.n_classes:
                raise ValueError(f"known class index {cls_idx} outside label domain")
        return replace(self, known_labels=known)


@dataclass
class LabelState:
    """Current hard label of every node of one graph, -1 until predicted.

    ``unknown_nodes`` is the graph's own read-only array, and
    ``set_predicted`` writes exactly those rows, so known labels cannot
    change. A state is mutable, so a run that starts from a shared state
    (as every ``ica`` pass of one ``ssl_learn`` call does) copies it first.
    """

    labels: np.ndarray
    unknown_nodes: np.ndarray
    n_classes: int

    @classmethod
    def from_graph(cls, graph: DataGraph) -> "LabelState":
        labels = np.full(graph.node_count, -1, dtype=np.int64)
        labels[graph.known_nodes] = [graph.known_labels[i] for i in graph.known_nodes]
        return cls(labels, graph.unknown_nodes, graph.n_classes)

    def copy(self) -> "LabelState":
        return LabelState(self.labels.copy(), self.unknown_nodes, self.n_classes)

    def set_predicted(self, labels) -> None:
        """Assign one predicted label per unknown node, in node order."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != self.unknown_nodes.shape:
            raise ValueError(
                f"expected {self.unknown_nodes.size} predicted labels, got shape {labels.shape}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("label index outside class domain")
        self.labels[self.unknown_nodes] = labels


def compute_multiset_features(graph: DataGraph, state: LabelState, within=None) -> np.ndarray:
    """Per-node count of neighbors carrying each class label.

    Returns an integer (nodes x classes) matrix. ``within`` optionally
    restricts the neighborhood to a boolean node mask (used when only a
    trusted subset of labels may contribute); masked-out neighbors are
    ignored entirely. Without ``within`` each row sums to the node's degree,
    with it to the node's number of unmasked neighbors.
    """
    n_classes = state.n_classes
    labels = state.labels
    if len(labels) != graph.node_count:
        raise ValueError("label state does not match graph size")
    table_rows = n_classes
    if within is not None:
        # Masked-out nodes look up the extra, all-zero last row of the table.
        labels = np.where(within, labels, n_classes)
        table_rows += 1
    if labels.size and labels.min() < 0:
        raise ValueError("relational features require labels on all contributing nodes")
    onehot = np.eye(table_rows, n_classes, dtype=np.int64).take(labels, axis=0)
    return graph.adjacency @ onehot


def compute_proportion_features(graph: DataGraph, state: LabelState, within=None) -> np.ndarray:
    """Per-node fraction of neighbors carrying each class label.

    Row i is the normalized label histogram of node i's neighborhood, so
    entries lie in [0, 1] and sum to 1. With a ``within`` mask the histogram
    is taken over the unmasked neighbors only, and a node with no unmasked
    neighbor gets an all-zero row.
    """
    return neighbor_proportions(compute_multiset_features(graph, state, within))


def neighbor_proportions(counts: np.ndarray) -> np.ndarray:
    """Integer neighbor-label counts, each row divided by its sum, as a new
    float (rows x classes) array; the rows need not be all the graph's."""
    # A row with no contributing neighbor holds only zeros, which stay 0.0
    # when divided by 1.
    return each_row(np.divide, counts, np.maximum(row_sum(counts), 1), np.empty(counts.shape))


def class_prior(graph: DataGraph, smoothing: float = 1.0) -> np.ndarray:
    """Smoothed class distribution of the graph's known labels.

    Returns ``(count_c + smoothing) / (N + n_classes * smoothing)`` over the
    ``N`` known nodes: the default 1.0 is Laplace smoothing, and 0.0 gives
    the plain known-label frequencies.
    """
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")
    if not graph.known_labels:
        raise ValueError("class prior requires at least one known label")
    picked = np.fromiter(graph.known_labels.values(), dtype=np.int64)
    counts = np.bincount(picked, minlength=graph.n_classes).astype(float)
    total = picked.size + graph.n_classes * smoothing
    return (counts + smoothing) / total
