"""Semi-supervised training loops over a partially labeled graph.

The main entry point ``ssl_learn`` follows one generic recipe with two
knobs: how many outer iterations to run (at most; the loop stops at the
first repeated labeling) and whether the per-iteration node classifier is
trained on every node (using predicted labels as if true) or on the
supervised nodes only. The four named settings are

* ``all-em``       (train on all nodes, 10 iterations),
* ``all-onepass``  (train on all nodes, 1 iteration),
* ``known-em``     (train on known nodes, 10 iterations),
* ``known-onepass``(train on known nodes, 1 iteration).

Even the known-only settings are semi-supervised: the relational features
of the supervised nodes are computed from the full current labeling, so
predicted labels still reach the classifier through its inputs.

Two baselines bracket the recipe: ``no_ssl`` never lets unlabeled nodes
into training (their links are excluded from the relational features), and
``attr_only`` skips relational information entirely.

The attribute-only model, a logistic regression on the known nodes'
attributes, depends only on the graph and the prior variance, so it is
per-trial data: ``fit_attribute_only`` fits it, and ``attr_only``,
``ssl_learn`` and ``no_ssl`` receive it. ``attr_only``'s labeling is the
start state of every ICA pass, and a hybrid trained on the known nodes
without label regularization uses the model itself as its attribute member.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._rows import row_argmax
from .classifiers import (
    ConcatLRModel,
    HybridModel,
    LabelRegConfig,
    LRModel,
    lr_predict_proba,
    lr_train,
    lr_train_label_reg,
    nb_relational_predict,  # noqa: F401 -- perfbench/tracing.py patches this name here
    nb_relational_train,
    relational_log_proba,
)
from .graph import (
    DataGraph,
    LabelState,
    class_prior,
    compute_multiset_features,
    compute_proportion_features,
)
from .inference import ica, iterate

__all__ = [
    "SslVariant",
    "ClassifierSpec",
    "SSL_VARIANT_NAMES",
    "CLASSIFIER_KINDS",
    "variant_from_name",
    "fit_attribute_only",
    "ssl_learn",
    "no_ssl",
    "attr_only",
]

# The multipliers exp(log p_rel - log prior) underflow to 0.0 on high-degree
# nodes. lr_train_label_reg takes them in probability space, because
# perfbench/tracing.py evaluates its objective from np.log(known_beta), so
# they are floored to stay strictly positive until it takes log multipliers.
BETA_FLOOR = 1e-300

SSL_VARIANT_NAMES = ("all-em", "all-onepass", "known-em", "known-onepass")

CLASSIFIER_KINDS = ("lr", "lr+lr", "lr+lr+reg", "lr+nb", "lr+nb+reg")


@dataclass(frozen=True)
class SslVariant:
    """Outer-loop shape: training population and iteration count."""

    learn_from_all: bool
    n_iterations: int = 1

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")


def variant_from_name(name: str, em_iterations: int = 10) -> SslVariant:
    """Resolve a variant name to its (training population, iterations) pair."""
    table = {
        "all-em": SslVariant(True, em_iterations),
        "all-onepass": SslVariant(True, 1),
        "known-em": SslVariant(False, em_iterations),
        "known-onepass": SslVariant(False, 1),
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown variant name {name!r}") from None


@dataclass(frozen=True)
class ClassifierSpec:
    """Node-classifier configuration.

    ``kind`` picks one of five shapes: a single logistic regression over
    the concatenated attribute and proportion features (``lr``), or a
    product-rule hybrid whose attribute member is a logistic regression and
    whose relational member is either a second logistic regression over
    proportions (``lr+lr``) or a Naive Bayes over counts (``lr+nb``), each
    optionally with label-regularized attribute training (``+reg``).
    ``nb_alpha`` is the Naive Bayes member's smoothing. The prior variance
    of every logistic regression is not a spec field: the learners read it
    from the attribute-only model they are given (``LRModel.sigma_sq``).
    """

    kind: str
    nb_alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if not 0 < self.nb_alpha < np.inf:
            raise ValueError("nb_alpha must be positive and finite")

    @property
    def regularized(self) -> bool:
        return self.kind.endswith("+reg")

    @property
    def uses_nb(self) -> bool:
        return "+nb" in self.kind

    @property
    def hybrid(self) -> bool:
        return self.kind != "lr"

    def without_label_reg(self) -> "ClassifierSpec":
        if not self.regularized:
            return self
        return replace(self, kind=self.kind[: -len("+reg")])


def _train_node_model(graph, state, spec, attr_model, learn_from_all, prior,
                      neighbor_mask=None):
    """Step-5 training: fit the node classifier on every node or on the
    known nodes, per ``learn_from_all``.

    Relational features come from the full current labeling, or from the
    ``neighbor_mask`` subset when given; only the kind the node model reads
    is computed (counts for Naive Bayes members, proportions otherwise).
    Every logistic regression is fitted under ``attr_model.sigma_sq``. For
    hybrid specs the relational member is fitted first. Trained on the
    known nodes without label regularization, the attribute member is
    ``attr_model`` itself; ``+reg`` specs instead freeze the relational
    member's predictions into the per-node multipliers for
    label-regularized attribute training, with penalty weight
    ``10 * |known nodes|`` towards the class prior.
    """
    train_nodes = np.arange(graph.node_count) if learn_from_all else graph.known_nodes
    labels = state.labels[train_nodes]
    if labels.size == 0 or labels.min() < 0:
        raise ValueError("training nodes must all carry labels")

    compute_features = compute_multiset_features if spec.uses_nb else compute_proportion_features
    features = compute_features(graph, state, within=neighbor_mask)
    attrs = graph.attributes
    c = graph.n_classes
    sigma_sq = attr_model.sigma_sq

    if not spec.hybrid:
        X = np.hstack([attrs[train_nodes], features[train_nodes]])
        return ConcatLRModel(lr_train(X, labels, sigma_sq, n_classes=c))

    if spec.uses_nb:
        rel_model = nb_relational_train(
            features[train_nodes], labels, spec.nb_alpha, n_classes=c
        )
    else:
        rel_model = lr_train(features[train_nodes], labels, sigma_sq, n_classes=c)

    if spec.regularized:
        unknown = graph.unknown_nodes

        def beta_for(rows):
            log_p_rel = relational_log_proba(rel_model, features[rows])
            return np.clip(np.exp(log_p_rel - np.log(prior)), BETA_FLOOR, None)

        config = LabelRegConfig(target_dist=prior, lam=10.0 * len(graph.known_labels))
        attr_model = lr_train_label_reg(
            attrs[train_nodes], labels, beta_for(train_nodes),
            attrs[unknown], beta_for(unknown),
            config, sigma_sq, n_classes=c,
        )
    elif learn_from_all:
        attr_model = lr_train(attrs[train_nodes], labels, sigma_sq, n_classes=c)
    return HybridModel(attribute_model=attr_model, relational_model=rel_model, prior=prior)


def fit_attribute_only(graph: DataGraph, sigma_sq: float) -> LRModel:
    """Fit the attribute-only model: a logistic regression on the known
    nodes' attributes alone, under prior variance ``sigma_sq``."""
    if not graph.known_labels:
        raise ValueError("learning requires at least one known label")
    known = graph.known_nodes
    labels = LabelState.from_graph(graph).labels[known]
    return lr_train(graph.attributes[known], labels, sigma_sq, n_classes=graph.n_classes)


def ssl_learn(graph: DataGraph, variant: SslVariant, spec: ClassifierSpec,
              attr_model: LRModel, *, ica_iterations: int = 10) -> LabelState:
    """Run the generic semi-supervised loop and return the final labeling.

    ``attr_model`` is ``fit_attribute_only(graph, sigma_sq)``, and every
    logistic regression the loop fits uses its ``sigma_sq``. ``attr_only``
    labels the unknown nodes with it once; that labeling is the first
    iteration's input and the start of every iteration's collective
    inference. Each iteration recomputes relational features from the
    current labeling, trains the node classifier on all nodes or on the
    supervised nodes per ``variant.learn_from_all``, and replaces the
    unknown labels with a fresh ``ica`` pass of at most ``ica_iterations``
    rounds. Every iteration is a deterministic function of the incoming
    labeling, so the loop stops at the first repeated labeling and returns
    the one ``variant.n_iterations`` iterations reach (see ``iterate``), so
    it may train fewer node classifiers than ``variant.n_iterations``.
    """
    start = attr_only(graph, attr_model)
    if graph.unknown_nodes.size == 0:
        return start
    prior = class_prior(graph)

    def em_step(state):
        node_model = _train_node_model(
            graph, state, spec, attr_model, variant.learn_from_all, prior
        )
        return ica(graph, start, node_model, ica_iterations)

    return iterate(em_step, start, variant.n_iterations)


def no_ssl(graph: DataGraph, spec: ClassifierSpec, attr_model: LRModel, *,
           ica_iterations: int = 10) -> LabelState:
    """Train without unlabeled data, then run collective inference once.

    The node classifier is fitted on the supervised nodes with relational
    features restricted to supervised neighbors (a node whose neighbors are
    all unlabeled contributes an all-zero proportion row and an empty count
    row); a hybrid's attribute member is ``attr_model``, and the other fits
    use its ``sigma_sq``, as in ``ssl_learn``. Label regularization is
    switched off here regardless of ``spec`` because the penalty is defined
    over unlabeled nodes. Inference still runs over the whole graph from
    the ``attr_only`` labeling, for at most ``ica_iterations`` rounds, so
    unlabeled nodes enter at prediction time only.
    """
    start = attr_only(graph, attr_model)
    if graph.unknown_nodes.size == 0:
        return start
    node_model = _train_node_model(
        graph, LabelState.from_graph(graph), spec.without_label_reg(), attr_model, False,
        class_prior(graph), neighbor_mask=graph.known_mask(),
    )
    return ica(graph, start, node_model, ica_iterations)


def attr_only(graph: DataGraph, attr_model: LRModel) -> LabelState:
    """Label every unknown node by the argmax of the attribute-only model
    ``attr_model`` (see ``fit_attribute_only``) on its attributes; no
    relational features, no loop."""
    state = LabelState.from_graph(graph)
    proba = lr_predict_proba(attr_model, graph.attributes[graph.unknown_nodes])
    state.set_predicted(row_argmax(proba))
    return state
