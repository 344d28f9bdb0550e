"""Layer spans around hybridcc's public functions, installed from outside.

``Tracer.install`` replaces each traced function in the module namespace it
is called through (its import site), so hybridcc's own source stays as it
is. Every call becomes a span with a name, start, end and parent, kept in
memory and written out once the run ends. Span names are
``<module>.<function>``; the module is the layer.

Counts are taken where the work happens:

* optimizer iterations and convergence from each returned ``LRModel``;
* the penalized log-likelihood at each returned weight matrix, evaluated
  after the run by this module's own NumPy formulas (``lr_objective`` and
  ``label_reg_objective``), so optimizer changes can be judged against a
  fixed reference;
* ICA rounds and label flips, from the ``LabelState`` handed to each
  feature computation inside an ``ica`` span plus the state ``ica``
  returns;
* neighbor entries scanned by each feature computation.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

import hybridcc.classifiers
import hybridcc.data
import hybridcc.harness
import hybridcc.inference
import hybridcc.learning

FEATURES = "graph.features"
LR_TRAIN = "classifiers.lr_train"
LR_TRAIN_REG = "classifiers.lr_train_label_reg"
PREDICT = "classifiers.predict"
ICA = "inference.ica"
REPORTS = "harness.reports"
RUN = "harness.run_experiment"

# (module the call goes through, attribute, span name). A function imported
# into several modules is patched in each, because each holds its own
# reference; calls inside its defining module are not re-patched.
TRACED = (
    (hybridcc.harness, "prepare_dataset", "data.prepare_dataset"),
    (hybridcc.data, "load_dataset", "data.load_dataset"),
    (hybridcc.learning, "compute_proportion_features", FEATURES),
    (hybridcc.learning, "compute_multiset_features", FEATURES),
    (hybridcc.inference, "compute_proportion_features", FEATURES),
    (hybridcc.inference, "compute_multiset_features", FEATURES),
    (hybridcc.harness, "lr_train", LR_TRAIN),
    (hybridcc.learning, "lr_train", LR_TRAIN),
    (hybridcc.learning, "lr_train_label_reg", LR_TRAIN_REG),
    (hybridcc.learning, "nb_relational_train", "classifiers.nb_relational_train"),
    (hybridcc.harness, "lr_predict_proba", PREDICT),
    (hybridcc.learning, "lr_predict_proba", PREDICT),
    (hybridcc.learning, "nb_relational_predict", PREDICT),
    (hybridcc.inference, "lr_predict_proba", PREDICT),
    (hybridcc.classifiers, "lr_predict_proba", PREDICT),
    (hybridcc.classifiers, "nb_relational_predict", PREDICT),
    (hybridcc.classifiers, "hybrid_combine", PREDICT),
    (hybridcc.learning, "ica", ICA),
    (hybridcc.harness, "wvrn_rl", "inference.wvrn_rl"),
    (hybridcc.harness, "ssl_learn", "learning.ssl_learn"),
    (hybridcc.harness, "no_ssl", "learning.no_ssl"),
    (hybridcc.harness, "attr_only", "learning.attr_only"),
    (hybridcc.harness, "cross_validate_hyperparams", "harness.cross_validate_hyperparams"),
    (hybridcc.harness, "write_trials_csv", REPORTS),
    (hybridcc.harness, "summarize", REPORTS),
    (hybridcc.harness, "write_summary_csv", REPORTS),
)


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _with_bias(X):
    X = np.asarray(X, dtype=float)
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _log_likelihood(W, X, labels, log_beta=None):
    logits = _with_bias(X) @ W.T
    if log_beta is not None:
        logits = logits + log_beta
    labels = np.asarray(labels, dtype=np.int64)
    return float(_log_softmax(logits)[np.arange(labels.size), labels].sum())


def _gaussian(W, sigma_sq):
    return float(np.sum(W[:, :-1] ** 2)) / (2.0 * sigma_sq)


def lr_objective(W, features, labels, sigma_sq):
    """``sum_i log p(y_i|x_i) - ||W without bias||^2 / (2 sigma_sq)``."""
    return _log_likelihood(W, features, labels) - _gaussian(W, sigma_sq)


def label_reg_objective(W, known_features, known_labels, known_beta,
                        unlabeled_features, unlabeled_beta, config, sigma_sq,
                        beta_weighted_likelihood=True):
    """The ``lr_objective`` terms, beta-weighted when asked, minus ``lam``
    times ``KL(target || max(mean beta-weighted prediction, floor))``."""
    log_beta_k = np.log(known_beta) if beta_weighted_likelihood else None
    value = _log_likelihood(W, known_features, known_labels, log_beta_k)
    value -= _gaussian(W, sigma_sq)
    logits = _with_bias(unlabeled_features) @ W.T + np.log(unlabeled_beta)
    mean_pred = np.exp(_log_softmax(logits)).mean(axis=0)
    target = np.asarray(config.target_dist, dtype=float)
    floored = np.maximum(mean_pred, config.epsilon_floor)
    pos = target > 0
    kl = float(np.sum(target[pos] * np.log(target[pos] / floored[pos])))
    return value - config.lam * kl


class Tracer:
    """Records spans for the ``run_experiment`` calls of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._fits: list[tuple] = []
        self._round_inputs: dict[int, list] = defaultdict(list)

    def install(self):
        """Patch every import site in ``TRACED``; return a traced
        ``run_experiment`` for the caller to use."""
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original))
        return self._wrap(RUN, hybridcc.harness.run_experiment)

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        per_round = fn.__name__ == "compute_proportion_features"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = {"id": len(self.spans), "name": name,
                    "parent": None if parent is None else parent["id"]}
            self.spans.append(span)
            if name == FEATURES:
                self._before_features(span, parent, per_round,
                                      signature.bind(*args, **kwargs))
            self._open.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if name in (LR_TRAIN, LR_TRAIN_REG):
                span["n_iter"] = int(result.n_iter)
                span["converged"] = bool(result.converged)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._fits.append((span, result.weights, bound.arguments))
            elif name == ICA:
                self._after_ica(span, result)
            return result

        return traced

    def _before_features(self, span, parent, per_round, bound):
        graph = bound.arguments["graph"]
        span["entries"] = int(graph.neighbor_ids.size)
        # ica computes proportions once per round from the round's input
        # labeling; the state is mutated in place, so keep a copy.
        if per_round and parent is not None and parent["name"] == ICA:
            self._round_inputs[parent["id"]].append(
                bound.arguments["state"].labels.copy()
            )

    def _after_ica(self, span, state):
        inputs = self._round_inputs.pop(span["id"], [])
        outputs = inputs[1:] + [state.labels]
        span["flips"] = [int(np.sum(a != b)) for a, b in zip(inputs, outputs)]

    def _objectives(self):
        for span, weights, args in self._fits:
            if span["name"] == LR_TRAIN:
                span["objective"] = lr_objective(
                    weights, args["features"], args["labels"], args["sigma_sq"]
                )
            else:
                span["objective"] = label_reg_objective(
                    weights, args["known_features"], args["known_labels"],
                    args["known_beta"], args["unlabeled_features"],
                    args["unlabeled_beta"], args["config"], args["sigma_sq"],
                    args["beta_weighted_likelihood"],
                )
        self._fits.clear()

    def _durations(self):
        """Per span: (duration, self time = duration minus child spans)."""
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: (s["end"] - s["start"], s["end"] - s["start"] - covered[s["id"]])
                for s in self.spans}

    def layer_metrics(self) -> dict:
        """Per-layer counts and times over every traced call (see BENCHMARK.json)."""
        self._objectives()
        times = self._durations()
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s["name"]].append(s)

        def total(name, part=0):
            return float(sum(times[s["id"]][part] for s in by_name[name]))

        def mean(values):
            return float(np.mean(values)) if values else 0.0

        m = {}
        m["data.prepare_dataset.s"] = total("data.prepare_dataset")
        m["data.load_dataset.s"] = total("data.load_dataset")
        feats = by_name[FEATURES]
        m["graph.features.calls"] = len(feats)
        m["graph.features.s"] = total(FEATURES)
        m["graph.features.edges_per_s"] = (
            sum(s["entries"] for s in feats) / m["graph.features.s"] if feats else 0.0
        )
        for key, name in (("lr_train_label_reg", LR_TRAIN_REG), ("lr_train", LR_TRAIN)):
            fits = by_name[name]
            prefix = f"classifiers.{key}"
            m[f"{prefix}.calls"] = len(fits)
            m[f"{prefix}.s"] = total(name)
            m[f"{prefix}.n_iter_mean"] = mean([s["n_iter"] for s in fits])
            m[f"{prefix}.converged_ratio"] = mean([s["converged"] for s in fits])
            m[f"{prefix}.objective_mean"] = mean([s["objective"] for s in fits])
        m["classifiers.nb_relational_train.calls"] = len(by_name["classifiers.nb_relational_train"])
        m["classifiers.nb_relational_train.s"] = total("classifiers.nb_relational_train")
        m["classifiers.predict.calls"] = len(by_name[PREDICT])
        m["classifiers.predict.s"] = total(PREDICT)
        icas = by_name[ICA]
        flips = [f for s in icas for f in s["flips"]]
        m["inference.ica.calls"] = len(icas)
        m["inference.ica.s"] = total(ICA)
        m["inference.ica.self_s"] = total(ICA, 1)
        m["inference.ica.rounds"] = len(flips)
        m["inference.ica.useful_round_ratio"] = mean([f > 0 for f in flips])
        m["inference.wvrn_rl.calls"] = len(by_name["inference.wvrn_rl"])
        m["inference.wvrn_rl.s"] = total("inference.wvrn_rl")
        m["learning.ssl_learn.calls"] = len(by_name["learning.ssl_learn"])
        m["learning.ssl_learn.s"] = total("learning.ssl_learn")
        m["learning.ssl_learn.self_s"] = total("learning.ssl_learn", 1)
        m["learning.no_ssl.s"] = total("learning.no_ssl")
        m["learning.attr_only.s"] = total("learning.attr_only")
        cv = "harness.cross_validate_hyperparams"
        m[f"{cv}.calls"] = len(by_name[cv])
        m[f"{cv}.s"] = total(cv)
        m["harness.cv_share"] = m[f"{cv}.s"] / total(RUN)
        m["harness.reports.s"] = total(REPORTS)
        m["harness.run_experiment.self_s"] = total(RUN, 1)
        return m

    def layer_self_times(self) -> dict:
        """Self time summed per layer (the span name's module part)."""
        times = self._durations()
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"].split(".")[0]] += times[s["id"]][1]
        return dict(out)

    def write(self, path):
        """Write every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)

