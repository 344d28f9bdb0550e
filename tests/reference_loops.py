"""Reference loops for the early-exit tests: EM and ICA with every
iteration and every round run, however early the labeling repeats, and
each ICA round computed the long way (both feature kinds, the whole node
model re-evaluated). Every ICA pass is bootstrapped from, and every node
model trained with, an attribute-only model fitted afresh at ``SIGMA_SQ``,
so the references do not depend on the learner sharing one."""

import numpy as np

from hybridcc.classifiers import lr_predict_proba, lr_train
from hybridcc.graph import (
    LabelState,
    class_prior,
    compute_multiset_features,
    compute_proportion_features,
)
from hybridcc.learning import _train_node_model

SIGMA_SQ = 1.0


def attribute_model(graph):
    """Logistic regression on the known nodes' attributes alone."""
    known = graph.known_nodes
    labels = [graph.known_labels[int(i)] for i in known]
    return lr_train(graph.attributes[known], labels, SIGMA_SQ, n_classes=graph.n_classes)


def attribute_only_state(graph):
    """The unknown nodes labeled by a fresh attribute-only model."""
    state = LabelState.from_graph(graph)
    proba = lr_predict_proba(attribute_model(graph), graph.attributes[graph.unknown_nodes])
    state.set_predicted(np.argmax(proba, axis=1))
    return state


def full_budget_ica(graph, node_model, iterations):
    """Reference ICA that always runs every round. Every round computes
    both feature kinds and evaluates the whole node model, attribute
    member included. Returns the final state and the labeling after the
    bootstrap and after each round."""
    state = attribute_only_state(graph)
    unknown = graph.unknown_nodes
    history = [state.labels.copy()]
    for _ in range(iterations):
        proportions = compute_proportion_features(graph, state)
        counts = compute_multiset_features(graph, state)
        relational = counts if node_model.reads_counts else proportions
        proba = node_model.given_attributes(graph.attributes[unknown])(relational[unknown])
        state.set_predicted(np.argmax(proba, axis=1))
        history.append(state.labels.copy())
    return state, history


def full_budget_ssl_learn(graph, variant, spec, ica_iterations):
    """Reference EM loop that always runs every iteration, each with a
    full-budget ICA. Returns the labeling after the bootstrap and after each
    iteration, plus every (node model, ICA history)."""
    state = attribute_only_state(graph)
    prior = class_prior(graph)
    history, ica_runs = [state.labels.copy()], []
    for _ in range(variant.n_iterations):
        node_model = _train_node_model(
            graph, state, spec, attribute_model(graph), variant.learn_from_all, prior
        )
        state, ica_history = full_budget_ica(graph, node_model, ica_iterations)
        ica_runs.append((node_model, ica_history))
        history.append(state.labels.copy())
    return history, ica_runs


def full_budget_no_ssl(graph, spec, ica_iterations):
    """Reference ``no_ssl``: a node model trained on the known nodes with
    only known neighbors counted, then one full-budget ICA. Returns the
    final labeling as a one-entry history, plus the (node model, ICA
    history)."""
    spec = spec.without_label_reg()
    node_model = _train_node_model(
        graph, LabelState.from_graph(graph), spec, attribute_model(graph), False,
        class_prior(graph), neighbor_mask=graph.known_mask(),
    )
    state, ica_history = full_budget_ica(graph, node_model, ica_iterations)
    return [state.labels.copy()], [(node_model, ica_history)]


def first_repeat_period(history):
    """Period of the first labeling that repeats an earlier one, or None."""
    for k in range(1, len(history)):
        for i in range(k):
            if np.array_equal(history[k], history[i]):
                return k - i
    return None
