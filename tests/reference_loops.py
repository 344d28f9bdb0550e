"""Reference loops for the early-exit tests: EM and ICA with every
iteration and every round run, however early the labeling repeats, and
each ICA round computed the long way (both feature kinds, the attribute
member re-evaluated)."""

import numpy as np

from hybridcc.classifiers import lr_predict_proba
from hybridcc.graph import (
    LabelState,
    class_prior,
    compute_multiset_features,
    compute_proportion_features,
)
from hybridcc.learning import _train_attribute_model, _train_node_model


def full_budget_ica(graph, bootstrap_model, node_model, iterations):
    """Reference ICA that always runs every round. Every round computes
    both feature kinds and evaluates the whole node model, attribute
    member included. Returns the final state and the labeling after the
    bootstrap and after each round."""
    state = LabelState.from_graph(graph)
    unknown = graph.unknown_nodes
    attrs = graph.attributes
    state.set_predicted(np.argmax(lr_predict_proba(bootstrap_model, attrs[unknown]), axis=1))
    history = [state.labels.copy()]
    for _ in range(iterations):
        proportions = compute_proportion_features(graph, state)
        counts = compute_multiset_features(graph, state)
        relational = counts if node_model.reads_counts else proportions
        proba = node_model.predict_proba(attrs[unknown], relational[unknown])
        state.set_predicted(np.argmax(proba, axis=1))
        history.append(state.labels.copy())
    return state, history


def full_budget_ssl_learn(graph, variant, spec, ica_iterations):
    """Reference EM loop that always runs every iteration, each with a
    full-budget ICA. Returns the labeling after the bootstrap and after each
    iteration, plus every (bootstrap model, node model, ICA history)."""
    state = LabelState.from_graph(graph)
    unknown = graph.unknown_nodes
    m_a = _train_attribute_model(graph, spec)
    prior = class_prior(graph)
    state.set_predicted(np.argmax(lr_predict_proba(m_a, graph.attributes[unknown]), axis=1))
    train_nodes = np.arange(graph.node_count) if variant.learn_from_all else graph.known_nodes
    history, ica_runs = [state.labels.copy()], []
    for _ in range(variant.n_iterations):
        node_model = _train_node_model(graph, state, spec, train_nodes, prior)
        state, ica_history = full_budget_ica(graph, m_a, node_model, ica_iterations)
        ica_runs.append((m_a, node_model, ica_history))
        history.append(state.labels.copy())
    return history, ica_runs


def full_budget_no_ssl(graph, spec, ica_iterations):
    """Reference ``no_ssl``: a node model trained on the known nodes with
    only known neighbors counted, then one full-budget ICA. Returns the
    final labeling as a one-entry history, plus the (bootstrap model, node
    model, ICA history)."""
    spec = spec.without_label_reg()
    m_a = _train_attribute_model(graph, spec)
    node_model = _train_node_model(
        graph, LabelState.from_graph(graph), spec, graph.known_nodes, class_prior(graph),
        neighbor_mask=graph.known_mask(),
    )
    state, ica_history = full_budget_ica(graph, m_a, node_model, ica_iterations)
    return [state.labels.copy()], [(m_a, node_model, ica_history)]


def first_repeat_period(history):
    """Period of the first labeling that repeats an earlier one, or None."""
    for k in range(1, len(history)):
        for i in range(k):
            if np.array_equal(history[k], history[i]):
                return k - i
    return None

