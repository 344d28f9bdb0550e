"""Collective inference over a partially labeled graph.

Two procedures:

* ``ica``: iterative classification. Unknown nodes are bootstrapped from
  an attribute-only model, then up to a fixed number of synchronous rounds
  recompute every node's relational features from the current labeling and
  re-predict the unknown nodes with the full node model. Known labels are
  never touched.
* ``wvrn_rl``: a no-learning baseline. Each node holds a class
  distribution; known nodes are clamped one-hot and every sweep replaces
  each unknown node's distribution with the mean of its neighbors'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import lr_predict_proba
from .graph import (
    DataGraph,
    LabelState,
    class_prior,
    compute_multiset_features,
    compute_proportion_features,
)

__all__ = ["ICAConfig", "WvrnConfig", "ica", "iterate", "wvrn_rl"]


@dataclass(frozen=True)
class ICAConfig:
    """Iteration budget for iterative classification.

    ``iterations`` is an upper bound: the result is always the labeling
    that exactly ``iterations`` rounds reach, but the loop stops as soon as
    a labeling repeats (see ``iterate``).
    """

    iterations: int = 10

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class WvrnConfig:
    """Stopping rule for relational-only propagation (Macskassy & Provost
    2007): sweeps run until the largest change falls below
    ``convergence_tol`` or ``max_iterations`` sweeps have run."""

    max_iterations: int = 100
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be > 0")


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


def ica(graph: DataGraph, bootstrap_model, node_model, config: ICAConfig | None = None) -> LabelState:
    """Run iterative classification and return the final hard labeling.

    ``bootstrap_model`` is an ``LRModel`` over attribute rows alone;
    ``node_model`` must offer ``predict_proba(attributes, proportions,
    counts)``. Every unknown node receives the argmax of its bootstrap
    distribution, then each of the ``config.iterations`` rounds recomputes
    both relational feature kinds from the complete current labeling and
    reassigns every unknown node synchronously (all predictions use the
    round's incoming labels). Ties in the per-node argmax go to the lowest
    class index. A round is a deterministic function of its incoming
    labeling, so the rounds stop at the first repeated labeling (a fixed
    point or a cycle) and return the labeling the full budget would reach.
    """
    if config is None:
        config = ICAConfig()
    state = LabelState.from_graph(graph)
    unknown = graph.unknown_nodes
    if unknown.size == 0:
        return state

    attrs = graph.attributes
    p0 = lr_predict_proba(bootstrap_model, attrs[unknown])
    state.set_predicted(np.argmax(p0, axis=1))

    def round_(state):
        state = state.copy()
        proportions = compute_proportion_features(graph, state)
        counts = compute_multiset_features(graph, state)
        proba = node_model.predict_proba(
            attrs[unknown], proportions[unknown], counts[unknown]
        )
        state.set_predicted(np.argmax(proba, axis=1))
        return state

    return iterate(round_, state, config.iterations)


def wvrn_rl(graph: DataGraph, config: WvrnConfig | None = None,
            return_distributions: bool = False):
    """Relational-only inference by repeated neighbor averaging.

    Known nodes hold fixed one-hot distributions. Unknown nodes start from
    the unsmoothed class distribution of the known labels and are updated
    simultaneously each sweep to the mean of their neighbors' current
    distributions. Sweeps stop when the largest single-entry change falls
    below ``convergence_tol`` or after ``max_iterations``. The returned
    labeling takes each unknown node's argmax, lowest index on ties.

    With ``return_distributions`` the result is ``(state, dist)`` where
    ``dist`` is the final (nodes x classes) matrix, known rows one-hot.
    """
    if config is None:
        config = WvrnConfig()
    if not graph.known_labels:
        raise ValueError("relational-only inference needs at least one known label")

    state = LabelState.from_graph(graph)
    unknown = graph.unknown_nodes
    known = graph.known_nodes
    dist = np.zeros((graph.node_count, graph.n_classes))
    dist[known, state.labels[known]] = 1.0
    if unknown.size == 0:
        return (state, dist) if return_distributions else state
    dist[unknown] = class_prior(graph, smoothing=0.0)

    inv_degree = 1.0 / graph.degrees.astype(float)

    for _ in range(config.max_iterations):
        updated = ((graph.adjacency @ dist) * inv_degree[:, None])[unknown]
        delta = float(np.max(np.abs(updated - dist[unknown])))
        dist[unknown] = updated
        if delta < config.convergence_tol:
            break

    state.set_predicted(np.argmax(dist[unknown], axis=1))
    return (state, dist) if return_distributions else state
