"""Collective inference over a partially labeled graph.

Two procedures:

* ``ica``: iterative classification. Starting from a given labeling of
  the unknown nodes (the learner passes the attribute-only one), up to a
  fixed number of synchronous rounds recompute the relational feature
  kind the node model reads from the current labeling and re-predict the
  unknown nodes with the full node model. Known labels are never touched.
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
    compute_proportion_features,
)

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
    Each of the ``iterations`` rounds computes the feature kind the node
    model reads from the complete current labeling and reassigns every
    unknown node synchronously (all predictions use the round's incoming
    labels). Ties in the per-node argmax go to the lowest class index,
    and a node whose probabilities hold a NaN raises ``ValueError``. A
    round is a deterministic function of its incoming labeling, so the
    rounds stop at the first repeated labeling (a fixed point or a cycle)
    and return the labeling the full budget would reach. The per-class
    arithmetic of a round runs one class column at a time (see ``_rows``).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    unknown = graph.unknown_nodes
    if unknown.size == 0:
        return start
    compute_features = (
        compute_multiset_features if node_model.reads_counts else compute_proportion_features
    )
    predict = node_model.given_attributes(graph.attributes[unknown])

    def round_(state):
        state = state.copy()
        proba = predict(compute_features(graph, state)[unknown])
        state.set_predicted(row_argmax(proba))
        return state

    return iterate(round_, start, iterations)


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
