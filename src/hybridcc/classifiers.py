"""Probabilistic node classifiers and their combination rules.

Three building blocks:

* multinomial logistic regression over attribute vectors, trained with
  L-BFGS under a Gaussian prior, optionally with a label-regularization
  penalty that pulls the model's average predicted class distribution on
  unlabeled nodes toward a target distribution;
* a Naive Bayes model over neighbor-label count vectors, where each
  neighbor label is one categorical observation drawn from a per-class
  conditional distribution with Dirichlet smoothing;
* a product-of-experts combiner that merges an attribute-based posterior
  and a relational posterior that were trained separately,
  ``p(y|x) ∝ p(y|x_attr) * p(y|x_rel) / p(y)``.

The members hand the combiner log posteriors, which it sums under one
log-softmax; probabilities are exponentiated once, on the way out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.optimize import minimize

from ._rows import each_column, each_row, row_max, row_sum

__all__ = [
    "ConvergenceWarning",
    "LRModel",
    "NBRelationalModel",
    "HybridModel",
    "ConcatLRModel",
    "LabelRegConfig",
    "lr_train",
    "lr_predict_proba",
    "nb_relational_train",
    "nb_relational_predict",
    "hybrid_combine",
    "relational_log_proba",
    "kl_penalty",
    "lr_train_label_reg",
]

MAX_ITER = 500
EPSILON_FLOOR = 1e-10


class ConvergenceWarning(UserWarning):
    """Optimizer hit its iteration cap before the objective stalled."""


@dataclass(frozen=True)
class LRModel:
    """Multinomial logistic regression parameters.

    ``weights`` has one row per class and one column per feature plus a
    trailing bias column. ``sigma_sq`` is the variance of the Gaussian
    prior the weights were trained under (the bias is unpenalized).
    """

    weights: np.ndarray
    sigma_sq: float
    converged: bool = True
    n_iter: int = 0

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1] - 1


@dataclass(frozen=True)
class NBRelationalModel:
    """Naive Bayes over neighbor-label counts.

    ``neighbor_table[y, c]`` is the smoothed probability that a neighbor of
    a class-``y`` node carries label ``c``; every row is a proper, strictly
    positive distribution. ``missing_classes`` records classes that had no
    training row and therefore fell back to the uniform (smoothing-only)
    row.
    """

    class_prior: np.ndarray
    neighbor_table: np.ndarray
    missing_classes: tuple[int, ...] = ()

    @property
    def n_classes(self) -> int:
        return self.neighbor_table.shape[0]


@dataclass(frozen=True)
class LabelRegConfig:
    """Settings for the label-regularization penalty.

    ``target_dist`` is the class distribution the trained model's average
    prediction over unlabeled nodes should resemble; it must be proper with
    strictly positive entries. ``lam`` weighs the penalty against the data
    likelihood and must be finite and >= 0 (the classic choice is 10x the
    number of supervised nodes).
    ``epsilon_floor``, the constant ``EPSILON_FLOOR`` rather than a field,
    guards the divisions by the model's average predicted probability
    early in training.
    """

    target_dist: np.ndarray
    lam: float
    epsilon_floor: ClassVar[float] = EPSILON_FLOOR

    def __post_init__(self):
        target = np.asarray(self.target_dist, dtype=float)
        if target.ndim != 1 or target.size < 2:
            raise ValueError("target_dist must be a 1-D distribution over >= 2 classes")
        if not np.all(target > 0) or abs(target.sum() - 1.0) > 1e-8:
            raise ValueError("target_dist must be strictly positive and sum to 1")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and >= 0")
        object.__setattr__(self, "target_dist", target)


def _check_features(X, name="features"):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contain non-finite values")
    return X


def _with_bias(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _log_softmax(logits):
    """Row-wise log-softmax of a C-ordered (rows x classes) array.

    Gives the bits of ``shifted - log(exp(shifted).sum(axis=1,
    keepdims=True))`` with ``shifted = logits - logits.max(axis=1,
    keepdims=True)``, one class column at a time (see ``_rows``).
    """
    shifted = each_row(np.subtract, logits, row_max(logits), np.empty(logits.shape))
    return each_row(np.subtract, shifted, np.log(row_sum(np.exp(shifted))), shifted)


def _log_proba(weights, Xb, log_beta=None):
    logits = Xb @ weights.T
    if log_beta is not None:
        logits = logits + log_beta
    return _log_softmax(logits)


def _log_beta_of(beta, n, n_classes, name):
    if beta is None:
        return None
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (n, n_classes):
        raise ValueError(f"{name} must have shape (n_rows, n_classes)")
    if np.any(beta <= 0) or not np.all(np.isfinite(beta)):
        raise ValueError(f"{name} entries must be strictly positive and finite")
    return np.log(beta)


def _fit(Xb, labels, n_classes, sigma_sq, name, log_beta=None, penalty=None):
    """Maximize the penalized log likelihood with L-BFGS from zero weights.

    The objective is ``sum_i log p(y_i | x_i) - ||w||^2 / (2 sigma_sq)``
    with the bias column unpenalized and ``log_beta``, when given, added to
    the likelihood's logits. ``penalty = (Xb_unl, log_beta_unl, config)``
    further subtracts ``config.lam`` times the label-regularization
    penalty over the unlabeled rows. The fit counts as converged unless
    the iteration cap ``MAX_ITER`` stopped it, in which case a
    ``ConvergenceWarning`` naming ``name`` is emitted; a line search that
    finds no better point means the objective has stalled, which counts as
    converged.
    """
    rows = np.arange(labels.size)
    onehot = np.zeros((labels.size, n_classes))
    onehot[rows, labels] = 1.0
    shape = (n_classes, Xb.shape[1])

    def negated(flat):
        theta = flat.reshape(shape)
        logp = _log_proba(theta, Xb, log_beta)
        value = logp[rows, labels].sum()
        value -= float(np.sum(theta[:, :-1] ** 2)) / (2.0 * sigma_sq)
        grad = (onehot - np.exp(logp)).T @ Xb
        grad[:, :-1] -= theta[:, :-1] / sigma_sq
        if penalty is not None:
            Xb_unl, log_beta_unl, config = penalty
            kl, kl_grad = _label_reg_value_grad(theta, Xb_unl, log_beta_unl, config.target_dist)
            value -= config.lam * kl
            grad -= config.lam * kl_grad
        return -value, -grad.ravel()

    # Stops on a relative objective change below 1e-12 or a largest
    # gradient entry below 1e-6; test_objective_reaches_previous_optimum
    # holds these to the optima the earlier gradient ascent reached.
    result = minimize(
        negated, np.zeros(shape).ravel(), jac=True, method="L-BFGS-B",
        options={"maxiter": MAX_ITER, "ftol": 1e-12, "gtol": 1e-6},
    )
    converged = result.status != 1
    if not converged:
        warnings.warn(
            f"{name} stopped after {result.nit} iterations without converging",
            ConvergenceWarning,
            stacklevel=3,
        )
    return LRModel(weights=result.x.reshape(shape), sigma_sq=float(sigma_sq),
                   converged=converged, n_iter=int(result.nit))


def _check_labels(labels, n_classes):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D array")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative class indices")
    if labels.max() >= n_classes:
        raise ValueError("label index outside the declared class domain")
    return labels


def lr_train(features, labels, sigma_sq, n_classes) -> LRModel:
    """Fit multinomial logistic regression under a Gaussian prior.

    Maximizes ``sum_i log p(y_i | x_i) - ||w||^2 / (2 sigma_sq)`` where the
    bias column is excluded from the penalty. The model has one weight row
    per class of the ``n_classes``-class domain, including classes no
    training label carries. Training is deterministic: weights start at
    zero and L-BFGS has no random component. If the iteration cap
    ``MAX_ITER`` is reached a ``ConvergenceWarning`` is emitted and the
    last iterate is returned.
    """
    X = _check_features(features)
    labels = _check_labels(labels, n_classes)
    if X.shape[0] != labels.size:
        raise ValueError("features and labels disagree on the number of rows")
    if not 0 < sigma_sq < np.inf:
        raise ValueError("sigma_sq must be positive and finite")
    return _fit(_with_bias(X), labels, n_classes, sigma_sq, "logistic regression")


def _lr_log_proba(model: LRModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(f"expected {model.feature_dim} feature columns, got shape {X.shape}")
    return _log_proba(model.weights, _with_bias(X))


def lr_predict_proba(model: LRModel, X) -> np.ndarray:
    """Class distributions for a matrix of feature rows.

    Stabilized softmax of the linear scores; rows sum to 1.
    """
    return np.exp(_lr_log_proba(model, X))


def nb_relational_train(counts, labels, alpha, n_classes) -> NBRelationalModel:
    """Fit the neighbor-label Naive Bayes table with Dirichlet smoothing.

    Row ``y`` of the table pools the neighbor-label counts of all training
    nodes of class ``y``: ``(pooled_c + alpha) / (pooled_total + C*alpha)``
    with ``C = n_classes``, the size of the class domain. A class of the
    domain with no training node keeps the uniform smoothing-only row and
    is reported in ``missing_classes``. The class prior is smoothed the same
    way from the training label counts.
    """
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    counts = np.asarray(counts, dtype=float)
    labels = _check_labels(labels, n_classes)
    if counts.ndim != 2 or counts.shape[0] != labels.size:
        raise ValueError("counts must be one row per training label")
    if counts.shape[1] != n_classes:
        raise ValueError("counts must have one column per class")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")

    pooled = np.zeros((n_classes, n_classes))
    np.add.at(pooled, labels, counts)
    table = (pooled + alpha) / (pooled.sum(axis=1, keepdims=True) + n_classes * alpha)

    label_counts = np.bincount(labels, minlength=n_classes).astype(float)
    prior = (label_counts + alpha) / (labels.size + n_classes * alpha)
    missing = tuple(int(c) for c in np.flatnonzero(label_counts == 0))
    return NBRelationalModel(class_prior=prior, neighbor_table=table, missing_classes=missing)


def _nb_log_posterior(model: NBRelationalModel, counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1] != model.n_classes:
        raise ValueError("counts must be a matrix with one column per class")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    scores = counts @ np.log(model.neighbor_table).T
    return _log_softmax(each_column(np.add, scores, np.log(model.class_prior)))


def nb_relational_predict(model: NBRelationalModel, counts) -> np.ndarray:
    """Posterior over classes for each row of neighbor-label counts.

    Each of the ``counts[c]`` neighbors labeled ``c`` contributes one factor
    ``neighbor_table[y, c]`` to class ``y``'s score; the products are
    accumulated in log space and normalized. All-zero counts return the
    class prior exactly.
    """
    return np.exp(_nb_log_posterior(model, counts))


def relational_log_proba(model, features) -> np.ndarray:
    """Log posterior of a relational member on its own input.

    ``features`` holds neighbor-label counts for a Naive Bayes member and
    neighbor-label proportions for a logistic regression member.
    """
    if isinstance(model, NBRelationalModel):
        return _nb_log_posterior(model, features)
    return _lr_log_proba(model, features)


def hybrid_combine(log_p_attr, log_p_rel, prior) -> np.ndarray:
    """Merge two posteriors trained on disjoint feature views.

    Implements the product rule ``p(y|x) ∝ p(y|x_attr) p(y|x_rel) / p(y)``,
    which is exact when the two feature views are conditionally independent
    given the class. Takes row-aligned (rows x classes) log posteriors and
    returns probabilities, normalized by one log-softmax.
    """
    log_p_attr = np.asarray(log_p_attr, dtype=float)
    log_p_rel = np.asarray(log_p_rel, dtype=float)
    prior = _check_prior(prior, "prior")
    shape = log_p_attr.shape
    if len(shape) != 2 or log_p_rel.shape != shape or shape[1] != prior.size:
        raise ValueError("distribution shapes disagree")
    scores = log_p_attr + log_p_rel
    return np.exp(_log_softmax(each_column(np.subtract, scores, np.log(prior))))


def _check_prior(prior, name):
    prior = np.asarray(prior, dtype=float)
    if not np.all((prior > 0) & (prior < np.inf)):
        raise ValueError(f"{name} entries must be finite and strictly positive")
    return prior


@dataclass(frozen=True)
class HybridModel:
    """An attribute posterior and a relational posterior combined per node.

    ``relational_model`` is either an ``LRModel`` over proportion features
    or an ``NBRelationalModel`` over multiset counts, and ``reads_counts``
    says which of the two the relational rows must be. ``prior`` is the
    class distribution divided out by the product rule; its entries must
    be finite and strictly positive.
    """

    attribute_model: LRModel
    relational_model: "LRModel | NBRelationalModel"
    prior: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prior", _check_prior(self.prior, "hybrid prior"))

    @property
    def reads_counts(self) -> bool:
        return isinstance(self.relational_model, NBRelationalModel)

    def given_attributes(self, attributes):
        """Class probabilities as a function of the relational rows alone,
        for fixed attribute rows: the attribute member is evaluated once,
        here, and the returned function evaluates only the rest."""
        log_p_attr = _lr_log_proba(self.attribute_model, attributes)

        def predict(relational):
            return hybrid_combine(
                log_p_attr, relational_log_proba(self.relational_model, relational), self.prior
            )

        return predict


@dataclass(frozen=True)
class ConcatLRModel:
    """Single logistic regression over attributes and proportion features.

    Its relational input is the proportion rows (``reads_counts`` is
    false). ``given_attributes`` keeps one ``hstack`` per call, because
    splitting the logits into an attribute part and a proportion part
    would change their summation order.
    """

    model: LRModel
    reads_counts = False

    def given_attributes(self, attributes):
        return lambda relational: lr_predict_proba(
            self.model, np.hstack([attributes, relational])
        )


def kl_penalty(target, empirical) -> float:
    """KL divergence of the floored empirical distribution from the target.

    ``sum_y target_y log(target_y / max(empirical_y, EPSILON_FLOOR))``;
    non-negative, and zero exactly when the two distributions agree.
    """
    target = np.asarray(target, dtype=float)
    empirical = np.asarray(empirical, dtype=float)
    if target.shape != empirical.shape:
        raise ValueError("distribution shapes disagree")
    floored = np.maximum(empirical, EPSILON_FLOOR)
    pos = target > 0
    return float(np.sum(target[pos] * np.log(target[pos] / floored[pos])))


def _label_reg_value_grad(weights, Xb_unl, log_beta_unl, target):
    """Penalty value and its gradient with respect to every weight.

    With ``r_y = target_y / mean-prediction_y`` (floored), the gradient of
    the KL penalty for class ``y`` and feature ``k`` is

        sum_rows  x_k p(y|x) / n_rows * ( sum_y' r_y' p(y'|x) - r_y )

    where ``p`` is the beta-weighted softmax of the current weights. The
    value is ``kl_penalty(target, mean-prediction)``, computed from the
    same ratios: ``target`` is strictly positive (``LabelRegConfig``
    checks it), so ``kl_penalty`` keeps every entry.
    """
    P = np.exp(_log_proba(weights, Xb_unl, log_beta_unl))
    ratios = target / np.maximum(P.mean(axis=0), EPSILON_FLOOR)
    value = float(np.sum(target * np.log(ratios)))
    row_mix = P @ ratios
    weighted = P * (row_mix[:, None] - ratios[None, :])
    grad = (weighted.T @ Xb_unl) / Xb_unl.shape[0]
    return value, grad


def lr_train_label_reg(known_features, known_labels, known_beta,
                       unlabeled_features, unlabeled_beta,
                       config: LabelRegConfig, sigma_sq, n_classes,
                       beta_weighted_likelihood=True) -> LRModel:
    """Fit label-regularized logistic regression.

    Maximizes the supervised log likelihood minus the Gaussian penalty
    minus ``config.lam`` times the KL penalty between ``config.target_dist``
    and the model's average prediction over the unlabeled rows. The
    per-row ``beta`` multipliers come from an already-trained relational
    model and stay frozen for the whole optimization. By default the
    supervised term uses the same beta-weighted prediction as the penalty
    term; ``beta_weighted_likelihood=False`` switches the supervised term
    to the plain softmax. Like ``lr_train``, it fits one weight row per
    class of the ``n_classes``-class domain and stops at the iteration cap
    ``MAX_ITER``.
    """
    Xk = _check_features(known_features, "known features")
    Xu = _check_features(unlabeled_features, "unlabeled features")
    if Xu.shape[0] == 0:
        raise ValueError("unlabeled set must be non-empty")
    if Xk.shape[1] != Xu.shape[1]:
        raise ValueError("known and unlabeled feature dimensions disagree")
    labels = _check_labels(known_labels, n_classes)
    if Xk.shape[0] != labels.size:
        raise ValueError("features and labels disagree on the number of rows")
    if not 0 < sigma_sq < np.inf:
        raise ValueError("sigma_sq must be positive and finite")
    if config.target_dist.size != n_classes:
        raise ValueError("target distribution size must match the class count")

    log_beta_k = _log_beta_of(known_beta, Xk.shape[0], n_classes, "known beta")
    log_beta_u = _log_beta_of(unlabeled_beta, Xu.shape[0], n_classes, "unlabeled beta")
    penalty = (_with_bias(Xu), log_beta_u, config) if config.lam > 0 else None
    return _fit(
        _with_bias(Xk), labels, n_classes, sigma_sq, "label-regularized training",
        log_beta=log_beta_k if beta_weighted_likelihood else None, penalty=penalty,
    )
