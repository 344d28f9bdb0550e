"""Collective inference over a partially labeled graph.

Two procedures:

* ``ica``: iterative classification. Starting from a given labeling of
  the unknown nodes (the learner passes the attribute-only one), up to a
  fixed number of synchronous rounds re-predict the unknown nodes with
  the full node model from their neighbors' current labels. The
  neighbor-label counts are computed once per call and then updated by
  the nodes each round relabeled, so a round costs the degree sum of
  those nodes rather than every edge. Known labels are never touched.
* ``wvrn_rl``: a no-learning baseline. Each node holds a class
  distribution; known nodes are clamped one-hot and every sweep replaces
  each unknown node's distribution with the mean of its neighbors'.
"""

from __future__ import annotations

import numpy as np

from ._rows import each_row, row_argmax
from .classifiers import lr_predict_proba  # noqa: F401 -- perfbench/tracing.py patches this name here
from .graph import (
    DataGraph,
    LabelState,
    class_prior,
    compute_multiset_features,
    neighbor_proportions,
)
from .graph import compute_proportion_features  # noqa: F401 -- perfbench/tracing.py patches this name here

__all__ = ["ica", "iterate", "wvrn_rl"]

WVRN_MAX_SWEEPS = 100
WVRN_TOL = 1e-4


def iterate(step, state, n: int):
    """Return ``step`` applied ``n`` times to ``state``, stopping early.

    ``step`` must return a new state that depends only on ``state.labels``.
    The sequence of labelings is then periodic from its first repeat: once
    step ``k + 1`` reproduces the labeling of step ``i``, the states cycle
    with period ``k + 1 - i``, and the ``n``-th is read off the states seen
    so far. ``step`` runs at most ``n`` times, and only as often as it
    takes to reach a fixed point or a cycle.
    """
    seen = [state]
    first_step = {state.labels.tobytes(): 0}
    for k in range(n):
        state = step(state)
        i = first_step.setdefault(state.labels.tobytes(), k + 1)
        if i <= k:
            return seen[i + (n - i) % (k + 1 - i)]
        seen.append(state)
    return state


def ica(graph: DataGraph, start: LabelState, node_model, iterations: int = 10) -> LabelState:
    """Run iterative classification from ``start`` and return the final
    hard labeling; ``start`` itself is left unchanged.

    ``start`` labels every node: the known ones as in ``graph`` and the
    unknown ones by some first guess, normally ``learning.attr_only``'s.
    ``node_model`` must offer ``reads_counts`` (whether its relational
    input is neighbor-label counts or proportions) and
    ``given_attributes(attributes)``, its class probabilities as a function
    of the relational rows alone; ``ica`` calls it once, so a hybrid's
    attribute member is evaluated once per call, not once per round.
    Each of the ``iterations`` rounds gives the node model the feature
    kind it reads for the complete current labeling and reassigns every
    unknown node synchronously (all predictions use the round's incoming
    labels). The unknown nodes' neighbor-label counts are computed from
    ``start`` once and then updated by the nodes whose label changed (see
    ``_counts_following``); proportions are those counts divided per row
    (``graph.neighbor_proportions``). Counts are integers, so the features
    equal ``compute_multiset_features`` and ``compute_proportion_features``
    of each round's labeling exactly. Ties in the per-node argmax go to
    the lowest class index, and a node whose probabilities hold a NaN
    raises ``ValueError``. A round is a deterministic function of its
    incoming labeling, so the rounds stop at the first repeated labeling
    (a fixed point or a cycle) and return the labeling the full budget
    would reach. The per-class arithmetic of a round runs one class column
    at a time (see ``_rows``).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    unknown = graph.unknown_nodes
    if unknown.size == 0:
        return start
    counts_of = _counts_following(graph, start)
    predict = node_model.given_attributes(graph.attributes[unknown])

    def round_(state):
        counts = counts_of(state)
        proba = predict(counts if node_model.reads_counts else neighbor_proportions(counts))
        state = state.copy()
        state.set_predicted(row_argmax(proba))
        return state

    return iterate(round_, start, iterations)


def _counts_following(graph: DataGraph, start: LabelState):
    """Return ``counts_of(state)``, which gives
    ``compute_multiset_features(graph, state)[graph.unknown_nodes]`` for
    any labeling ``state`` of ``graph``, starting from ``start``'s.

    The counts are computed for ``start`` once, and each call adds only
    the contribution of the nodes whose label differs from the labeling
    counted last: -1 at (neighbor, old label) and +1 at (neighbor, new
    label) for every neighbor, as two ``np.bincount`` calls over flat
    ``row * n_classes + label`` keys, which sum repeated keys (a node with
    several changed neighbors). The neighbors are read from the changed
    nodes' slices of ``adjacency.indices``; known neighbors map to one
    extra spill row that nothing reads, so that every key is kept without
    a mask. A call costs the degree sum of the changed nodes, not every
    edge. The returned array is a view that the next call overwrites.
    """
    unknown = graph.unknown_nodes
    n_classes = graph.n_classes
    counts = np.zeros((unknown.size + 1, n_classes), dtype=np.int64)
    counts[:-1] = compute_multiset_features(graph, start)[unknown]
    flat = counts.reshape(-1)
    row_key = np.full(graph.node_count, unknown.size * n_classes)
    row_key[unknown] = np.arange(0, unknown.size * n_classes, n_classes)
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    degrees = graph.degrees
    counted = start.labels.copy()

    def counts_of(state):
        moved = np.flatnonzero(state.labels != counted)
        if moved.size:
            degree = degrees[moved]
            ends = np.cumsum(degree)
            # Positions indptr[v] .. indptr[v + 1] - 1 of each moved node v, in a row.
            entries = np.repeat(indptr[moved] - (ends - degree), degree)
            entries += np.arange(ends[-1])
            keys = row_key[indices[entries]]
            new, old = state.labels[moved], counted[moved]
            gained = np.bincount(keys + np.repeat(new, degree), minlength=flat.size)
            lost = np.bincount(keys + np.repeat(old, degree), minlength=flat.size)
            np.add(flat, gained, out=flat)
            np.subtract(flat, lost, out=flat)
            counted[moved] = new
        return counts[:-1]

    return counts_of


def wvrn_rl(graph: DataGraph) -> LabelState:
    """Relational-only inference by repeated neighbor averaging (Macskassy
    & Provost 2007).

    Known nodes hold fixed one-hot distributions. Unknown nodes start from
    the unsmoothed class distribution of the known labels and are updated
    simultaneously each sweep to the mean of their neighbors' current
    distributions. Sweeps stop when the largest single-entry change falls
    below ``WVRN_TOL`` or after ``WVRN_MAX_SWEEPS``, both read at call
    time. The returned labeling takes each unknown node's argmax, lowest
    index on ties.
    """
    state = LabelState.from_graph(graph)
    state.set_predicted(row_argmax(_wvrn_distributions(graph)[graph.unknown_nodes]))
    return state


def _wvrn_distributions(graph: DataGraph) -> np.ndarray:
    """The (nodes x classes) matrix ``wvrn_rl`` takes its argmax from,
    known rows one-hot.

    The 0/1 adjacency is converted to float once per call (the sparse
    product would otherwise recast its integer entries on every sweep), and
    each sweep scales the neighbor sums by the inverse degree one class
    column at a time (see ``_rows``)."""
    if not graph.known_labels:
        raise ValueError("relational-only inference needs at least one known label")
    unknown = graph.unknown_nodes
    known = graph.known_nodes
    dist = np.zeros((graph.node_count, graph.n_classes))
    dist[known, [graph.known_labels[i] for i in known]] = 1.0
    if unknown.size == 0:
        return dist
    dist[unknown] = class_prior(graph, smoothing=0.0)

    adjacency = graph.adjacency.astype(float)
    inv_degree = 1.0 / graph.degrees.astype(float)

    for _ in range(WVRN_MAX_SWEEPS):
        sums = adjacency @ dist
        updated = each_row(np.multiply, sums, inv_degree, sums)[unknown]
        delta = float(np.max(np.abs(updated - dist[unknown])))
        dist[unknown] = updated
        if delta < WVRN_TOL:
            break
    return dist
