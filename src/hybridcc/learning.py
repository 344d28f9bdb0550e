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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classifiers import (
    ConcatLRModel,
    HybridModel,
    LabelRegConfig,
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
from .inference import ICAConfig, ica, iterate

__all__ = [
    "SslVariant",
    "ClassifierSpec",
    "LabelRegSettings",
    "SSL_VARIANT_NAMES",
    "CLASSIFIER_KINDS",
    "variant_from_name",
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
class LabelRegSettings:
    """How to build the label-regularization penalty inside the loop.

    The penalty weight is ``lambda_scale`` times the number of supervised
    nodes. ``beta_weighted_likelihood`` selects whether the supervised
    likelihood term uses the same relational-evidence-weighted prediction
    as the penalty (the default) or the plain softmax.
    """

    lambda_scale: float = 10.0
    epsilon_floor: float = 1e-10
    beta_weighted_likelihood: bool = True

    def __post_init__(self):
        if self.lambda_scale < 0:
            raise ValueError("lambda_scale must be >= 0")
        if self.epsilon_floor <= 0:
            raise ValueError("epsilon_floor must be > 0")


@dataclass(frozen=True)
class ClassifierSpec:
    """Node-classifier configuration.

    ``kind`` picks one of five shapes: a single logistic regression over
    the concatenated attribute and proportion features (``lr``), or a
    product-rule hybrid whose attribute member is a logistic regression and
    whose relational member is either a second logistic regression over
    proportions (``lr+lr``) or a Naive Bayes over counts (``lr+nb``), each
    optionally with label-regularized attribute training (``+reg``).
    ``label_reg`` must be set exactly for the ``+reg`` kinds; it is filled
    with defaults when omitted.
    """

    kind: str
    sigma_sq: float = 1.0
    nb_alpha: float = 1.0
    label_reg: LabelRegSettings | None = None

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if self.sigma_sq <= 0:
            raise ValueError("sigma_sq must be > 0")
        if self.nb_alpha <= 0:
            raise ValueError("nb_alpha must be > 0")
        if self.regularized and self.label_reg is None:
            object.__setattr__(self, "label_reg", LabelRegSettings())
        if not self.regularized and self.label_reg is not None:
            raise ValueError(f"label_reg settings are only valid for +reg kinds, not {self.kind!r}")

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
        return replace(self, kind=self.kind[: -len("+reg")], label_reg=None)

    def with_hyperparams(self, sigma_sq=None, nb_alpha=None) -> "ClassifierSpec":
        kwargs = {}
        if sigma_sq is not None:
            kwargs["sigma_sq"] = float(sigma_sq)
        if nb_alpha is not None:
            kwargs["nb_alpha"] = float(nb_alpha)
        return replace(self, **kwargs) if kwargs else self


def _require_known(graph: DataGraph):
    if not graph.known_labels:
        raise ValueError("learning requires at least one known label")


def _train_attribute_model(graph: DataGraph, spec: ClassifierSpec):
    known = graph.known_nodes
    labels = np.array([graph.known_labels[int(i)] for i in known], dtype=np.int64)
    return lr_train(
        graph.attributes[known], labels, spec.sigma_sq, n_classes=graph.n_classes
    )


def _train_node_model(graph, state, spec, train_nodes, prior,
                      neighbor_mask=None, diagnostics=None):
    """Step-5 training: fit the node classifier on ``train_nodes``.

    Relational features come from the full current labeling, or from the
    ``neighbor_mask`` subset when given; only the kind the node model reads
    is computed (counts for Naive Bayes members, proportions otherwise).
    For hybrid specs the relational member is fitted first; ``+reg`` specs
    then freeze its predictions into the per-node multipliers for
    label-regularized attribute training.
    """
    train_nodes = np.asarray(train_nodes, dtype=np.int64)
    labels = state.labels[train_nodes]
    if labels.size == 0 or labels.min() < 0:
        raise ValueError("training nodes must all carry labels")
    if diagnostics is not None:
        diagnostics.setdefault("train_sizes", []).append(int(train_nodes.size))

    compute_features = compute_multiset_features if spec.uses_nb else compute_proportion_features
    features = compute_features(graph, state, within=neighbor_mask)
    attrs = graph.attributes
    c = graph.n_classes

    if not spec.hybrid:
        X = np.hstack([attrs[train_nodes], features[train_nodes]])
        return ConcatLRModel(lr_train(X, labels, spec.sigma_sq, n_classes=c))

    if spec.uses_nb:
        rel_model = nb_relational_train(
            features[train_nodes], labels, spec.nb_alpha, n_classes=c
        )
        if rel_model.missing_classes and diagnostics is not None:
            diagnostics.setdefault("nb_missing_classes", []).append(rel_model.missing_classes)
    else:
        rel_model = lr_train(
            features[train_nodes], labels, spec.sigma_sq, n_classes=c
        )

    if spec.label_reg is None:
        attr_model = lr_train(attrs[train_nodes], labels, spec.sigma_sq, n_classes=c)
    else:
        settings = spec.label_reg
        unknown = graph.unknown_nodes

        def beta_for(rows):
            log_p_rel = relational_log_proba(rel_model, features[rows])
            return np.clip(np.exp(log_p_rel - np.log(prior)), BETA_FLOOR, None)

        config = LabelRegConfig(
            target_dist=prior,
            lam=settings.lambda_scale * len(graph.known_labels),
            epsilon_floor=settings.epsilon_floor,
        )
        attr_model = lr_train_label_reg(
            attrs[train_nodes], labels, beta_for(train_nodes),
            attrs[unknown], beta_for(unknown),
            config, spec.sigma_sq, n_classes=c,
            beta_weighted_likelihood=settings.beta_weighted_likelihood,
        )
    return HybridModel(attribute_model=attr_model, relational_model=rel_model, prior=prior)


def ssl_learn(graph: DataGraph, variant: SslVariant, spec: ClassifierSpec, *,
              ica_config: ICAConfig | None = None,
              diagnostics: dict | None = None) -> LabelState:
    """Run the generic semi-supervised loop and return the final labeling.

    The attribute-only model is trained once on the supervised nodes and
    reused as the collective-inference bootstrap for every iteration. Each
    iteration recomputes relational features from the current labeling,
    trains the node classifier on all nodes or on the supervised nodes per
    ``variant.learn_from_all``, and replaces the unknown labels with a
    fresh collective-inference pass. Every iteration is a deterministic
    function of the incoming labeling, so the loop stops at the first
    repeated labeling and returns the one ``variant.n_iterations``
    iterations reach (see ``iterate``). ``diagnostics["train_sizes"]``
    gets one entry per fit actually run.
    """
    _require_known(graph)
    if ica_config is None:
        ica_config = ICAConfig()
    state = LabelState.from_graph(graph)
    unknown = graph.unknown_nodes
    m_a = _train_attribute_model(graph, spec)
    if unknown.size == 0:
        return state
    prior = class_prior(graph)

    p0 = lr_predict_proba(m_a, graph.attributes[unknown])
    state.set_predicted(np.argmax(p0, axis=1))

    train_nodes = (
        np.arange(graph.node_count) if variant.learn_from_all else graph.known_nodes
    )

    def em_step(state):
        node_model = _train_node_model(
            graph, state, spec, train_nodes, prior, diagnostics=diagnostics
        )
        return ica(graph, m_a, node_model, ica_config)

    return iterate(em_step, state, variant.n_iterations)


def no_ssl(graph: DataGraph, spec: ClassifierSpec, *,
           ica_config: ICAConfig | None = None,
           diagnostics: dict | None = None) -> LabelState:
    """Train without unlabeled data, then run collective inference once.

    The node classifier is fitted on the supervised nodes with relational
    features restricted to supervised neighbors (a node whose neighbors are
    all unlabeled contributes an all-zero proportion row and an empty count
    row). Label regularization is switched off here regardless of ``spec``
    because the penalty is defined over unlabeled nodes. Inference still
    runs over the whole graph, so unlabeled nodes enter at prediction time
    only.
    """
    _require_known(graph)
    if ica_config is None:
        ica_config = ICAConfig()
    spec = spec.without_label_reg()
    state = LabelState.from_graph(graph)
    if graph.unknown_nodes.size == 0:
        return state
    m_a = _train_attribute_model(graph, spec)
    prior = class_prior(graph)
    node_model = _train_node_model(
        graph, state, spec, graph.known_nodes, prior,
        neighbor_mask=graph.known_mask(), diagnostics=diagnostics,
    )
    return ica(graph, m_a, node_model, ica_config)


def attr_only(graph: DataGraph, spec: ClassifierSpec) -> LabelState:
    """One-shot attribute-only prediction; no relational features, no loop."""
    _require_known(graph)
    state = LabelState.from_graph(graph)
    m_a = _train_attribute_model(graph, spec)
    proba = lr_predict_proba(m_a, graph.attributes[graph.unknown_nodes])
    state.set_predicted(np.argmax(proba, axis=1))
    return state
