"""Collective inference over a partially labeled graph.

Two procedures:

* ``ica``: iterative classification. Unknown nodes are bootstrapped from
  an attribute-only model, then a fixed number of synchronous rounds
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
from scipy.sparse import csr_matrix

from .classifiers import lr_predict_proba
from .graph import (
    DataGraph,
    LabelState,
    compute_multiset_features,
    compute_proportion_features,
)

__all__ = ["ICAConfig", "WvrnConfig", "ica", "wvrn_rl"]


@dataclass(frozen=True)
class ICAConfig:
    """Iteration budget for iterative classification.

    The loop always runs exactly ``iterations`` rounds; there is no early
    convergence exit, so two runs from the same bootstrap are identical.
    """

    iterations: int = 10

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class WvrnConfig:
    """Stopping rule and initialization for relational-only propagation.

    ``init`` seeds unknown nodes with the class distribution of the known
    labels (``"class-prior"``, unsmoothed) or with ``"uniform"``. ``decay``
    blends each sweep's update with the previous distribution using weight
    ``decay ** sweep``; the default 1.0 disables the blend (full updates).
    """

    max_iterations: int = 100
    convergence_tol: float = 1e-4
    init: str = "class-prior"
    decay: float = 1.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be > 0")
        if self.init not in ("class-prior", "uniform"):
            raise ValueError("init must be 'class-prior' or 'uniform'")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")


def ica(graph: DataGraph, bootstrap_model, node_model, config: ICAConfig | None = None) -> LabelState:
    """Run iterative classification and return the final hard labeling.

    ``bootstrap_model`` is an ``LRModel`` over attribute rows alone;
    ``node_model`` must offer ``predict_proba(attributes, proportions,
    counts)``. Every unknown node receives the argmax of its bootstrap
    distribution, then each of the ``config.iterations`` rounds recomputes
    both relational feature kinds from the complete current labeling and
    reassigns every unknown node synchronously (all predictions use the
    round's incoming labels). Ties in the per-node argmax go to the lowest
    class index.
    """
    if config is None:
        config = ICAConfig()
    state = LabelState.from_graph(graph)
    unknown = graph.unknown_nodes
    if unknown.size == 0:
        return state

    attrs = graph.attributes
    p0 = lr_predict_proba(bootstrap_model, attrs[unknown])
    state.set_predicted(unknown, np.argmax(p0, axis=1))

    for _ in range(config.iterations):
        proportions = compute_proportion_features(graph, state)
        counts = compute_multiset_features(graph, state)
        proba = node_model.predict_proba(
            attrs[unknown], proportions[unknown], counts[unknown]
        )
        state.set_predicted(unknown, np.argmax(proba, axis=1))
    return state


def wvrn_rl(graph: DataGraph, known_labels=None, config: WvrnConfig | None = None,
            return_distributions: bool = False):
    """Relational-only inference by repeated neighbor averaging.

    Known nodes hold fixed one-hot distributions. Unknown nodes start from
    the configured init and are updated simultaneously each sweep to the
    mean of their neighbors' current distributions. Sweeps stop when the
    largest single-entry change falls below ``convergence_tol`` or after
    ``max_iterations``. The returned labeling takes each unknown node's
    argmax, lowest index on ties.

    ``known_labels`` may override the graph's own known set for this call.
    With ``return_distributions`` the result is ``(state, dist)`` where
    ``dist`` is the final (nodes x classes) matrix, known rows one-hot.
    """
    if config is None:
        config = WvrnConfig()
    if known_labels is not None:
        graph = graph.with_known_labels(known_labels)
    if not graph.known_labels:
        raise ValueError("relational-only inference needs at least one known label")

    n, c = graph.node_count, graph.n_classes
    state = LabelState.from_graph(graph)
    unknown = graph.unknown_nodes
    known = graph.known_nodes
    dist = np.zeros((n, c))
    dist[known, state.labels[known]] = 1.0
    if unknown.size == 0:
        return (state, dist) if return_distributions else state
    if config.init == "class-prior":
        counts = np.bincount(state.labels[known], minlength=c).astype(float)
        dist[unknown] = counts / counts.sum()
    else:
        dist[unknown] = 1.0 / c

    adjacency = csr_matrix(
        (np.ones(graph.neighbor_ids.size), graph.neighbor_ids, graph.indptr), shape=(n, n)
    )
    inv_degree = 1.0 / graph.degrees.astype(float)

    for sweep in range(config.max_iterations):
        neighbor_mean = (adjacency @ dist) * inv_degree[:, None]
        w = config.decay ** sweep
        updated = w * neighbor_mean[unknown] + (1.0 - w) * dist[unknown]
        delta = float(np.max(np.abs(updated - dist[unknown])))
        dist[unknown] = updated
        if delta < config.convergence_tol:
            break

    state.set_predicted(unknown, np.argmax(dist[unknown], axis=1))
    return (state, dist) if return_distributions else state
