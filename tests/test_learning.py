"""Semi-supervised training loops, classifier specs, and baselines."""

import inspect
from collections import Counter

import numpy as np
import pytest

from hybridcc import inference, learning
from hybridcc.graph import DataGraph, class_prior
from hybridcc.learning import (
    CLASSIFIER_KINDS,
    SSL_VARIANT_NAMES,
    ClassifierSpec,
    SslVariant,
    attr_only,
    fit_attribute_only,
    no_ssl,
    ssl_learn,
    variant_from_name,
)
from hybridcc.synthetic import synthetic_graph
from reference_loops import SIGMA_SQ, first_repeat_period


def labeled_graph(n=80, k=8, seed=0, homophily=0.85, noise=0.8):
    graph, truth = synthetic_graph(n, 2, homophily, noise, seed=seed, avg_degree=6.0)
    rng = np.random.default_rng(seed + 1)
    picks = rng.choice(n, size=k, replace=False)
    tg = graph.with_known_labels({int(i): int(truth[i]) for i in picks})
    return tg, truth


# ------------------------------------------------------------------- specs


def test_variant_names_cover_both_axes():
    assert variant_from_name("all-em") == SslVariant(learn_from_all=True, n_iterations=10)
    assert variant_from_name("all-onepass") == SslVariant(learn_from_all=True, n_iterations=1)
    assert variant_from_name("known-em") == SslVariant(learn_from_all=False, n_iterations=10)
    assert variant_from_name("known-onepass") == SslVariant(learn_from_all=False, n_iterations=1)
    assert variant_from_name("all-em", em_iterations=3).n_iterations == 3
    with pytest.raises(ValueError):
        variant_from_name("self-training")


def test_spec_autofills_reg_settings_only_for_reg_kinds(monkeypatch):
    # the settings are no longer a spec field: they follow from the graph
    with pytest.raises(TypeError):
        ClassifierSpec("lr+nb+reg", label_reg=None)
    tg, _ = labeled_graph(n=60, k=6, seed=4)
    configs = []
    real = learning.lr_train_label_reg

    def spy(*args, **kwargs):
        configs.append(args[5])
        return real(*args, **kwargs)

    monkeypatch.setattr(learning, "lr_train_label_reg", spy)
    m_a = fit_attribute_only(tg, 1.0)
    for kind in CLASSIFIER_KINDS:
        configs.clear()
        ssl_learn(tg, variant_from_name("known-onepass"), ClassifierSpec(kind), m_a)
        if not ClassifierSpec(kind).regularized:
            assert configs == [], kind
            continue
        (config,) = configs
        assert config.lam == 10.0 * len(tg.known_labels)
        assert np.array_equal(config.target_dist, class_prior(tg))


def test_spec_predicates_and_stripping():
    spec = ClassifierSpec("lr+nb+reg", nb_alpha=0.5)
    assert spec.regularized and spec.uses_nb and spec.hybrid
    bare = spec.without_label_reg()
    assert bare.kind == "lr+nb" and not bare.regularized
    assert bare.nb_alpha == 0.5
    assert not ClassifierSpec("lr").hybrid
    with pytest.raises(ValueError):
        ClassifierSpec("gbm")


# -------------------------------------------------------------- ssl_learn


def test_every_kind_runs_under_every_variant():
    tg, truth = labeled_graph(n=50, k=6)
    m_a = fit_attribute_only(tg, 1.0)
    for name in SSL_VARIANT_NAMES:
        variant = variant_from_name(name, em_iterations=2)
        for kind in CLASSIFIER_KINDS:
            state = ssl_learn(tg, variant, ClassifierSpec(kind), m_a)
            assert np.all(state.labels >= 0)
            for node, cls_idx in tg.known_labels.items():
                assert state.labels[node] == cls_idx


def test_onepass_equals_single_iteration_em():
    tg, _ = labeled_graph(n=60, k=6, seed=4)
    m_a = fit_attribute_only(tg, 1.0)
    for kind in CLASSIFIER_KINDS:
        spec = ClassifierSpec(kind)
        for family in ("all", "known"):
            one = ssl_learn(tg, variant_from_name(f"{family}-onepass"), spec, m_a)
            em1 = ssl_learn(tg, variant_from_name(f"{family}-em", em_iterations=1), spec, m_a)
            assert np.array_equal(one.labels, em1.labels), (kind, family)


def record_fits(monkeypatch):
    """Record the training-row count of every fit the learners run."""
    rows = []
    for name in ("lr_train", "lr_train_label_reg", "nb_relational_train"):
        def spy(features, *args, _real=getattr(learning, name), **kwargs):
            rows.append(len(features))
            return _real(features, *args, **kwargs)

        monkeypatch.setattr(learning, name, spy)
    return rows


def test_learn_from_all_trains_on_every_node(monkeypatch):
    tg, _ = labeled_graph(n=60, k=6, seed=2)
    m_a = fit_attribute_only(tg, 1.0)
    rows = record_fits(monkeypatch)
    ssl_learn(tg, variant_from_name("all-em", em_iterations=3), ClassifierSpec("lr+lr"), m_a)
    rows_all = rows.copy()
    rows.clear()
    ssl_learn(tg, variant_from_name("known-em", em_iterations=3), ClassifierSpec("lr+lr"), m_a)
    # EM stops at the first repeated labeling, so 1 to 3 node models are
    # trained; all-em fits both members of each, known-em only the relational
    # one (the attribute member is m_a)
    assert len(rows_all) in (2, 4, 6)
    assert 1 <= len(rows) <= 3
    assert all(size == 60 for size in rows_all)
    assert all(size == 6 for size in rows)


def test_em_stops_early_with_the_full_budget_labeling(full_budget_runs):
    """Early exit equals the full EM and ICA budgets, on runs that reach
    fixed points and 2-cycles."""
    periods = Counter()
    for graph, variant, spec, history, _ in full_budget_runs:
        m_a = fit_attribute_only(graph, SIGMA_SQ)
        if variant is None:
            state = no_ssl(graph, spec, m_a, ica_iterations=10)
        else:
            state = ssl_learn(graph, variant, spec, m_a, ica_iterations=10)
        assert np.array_equal(state.labels, history[-1]), (spec.kind, variant)
        periods[first_repeat_period(history)] += 1
    assert periods[1] > 0 and periods[2] > 0, periods


def test_iterations_refresh_the_labeling():
    """EM must be able to move labels after the first pass."""
    tg, _ = labeled_graph(n=80, k=5, seed=6, noise=1.2)
    spec = ClassifierSpec("lr+lr")
    m_a = fit_attribute_only(tg, 1.0)
    one = ssl_learn(tg, variant_from_name("all-onepass"), spec, m_a)
    em = ssl_learn(tg, variant_from_name("all-em"), spec, m_a)
    # not an invariant for every instance, but for this fixed one the
    # refit moves at least one unknown node
    assert not np.array_equal(one.labels, em.labels)


def test_ssl_learn_with_no_unknowns_returns_known_state():
    edges = [(0, 1), (1, 2)]
    g = DataGraph.build(edges, np.zeros((3, 2)), ("a", "b")).with_known_labels({0: 0, 1: 1, 2: 0})
    state = ssl_learn(g, variant_from_name("all-em"), ClassifierSpec("lr"),
                      fit_attribute_only(g, 1.0))
    assert state.labels.tolist() == [0, 1, 0]


def test_ssl_learn_requires_a_known_node():
    """The attribute-only model every learner needs cannot be fitted."""
    edges = [(0, 1)]
    g = DataGraph.build(edges, np.zeros((2, 2)), ("a", "b"))
    with pytest.raises(ValueError, match="at least one known label"):
        ssl_learn(g, variant_from_name("all-em"), ClassifierSpec("lr"),
                  fit_attribute_only(g, 1.0))


def test_ica_iteration_count_is_configurable():
    tg, _ = labeled_graph(n=60, k=6, seed=8, noise=1.2)
    spec = ClassifierSpec("lr+nb")
    variant = variant_from_name("known-onepass")
    m_a = fit_attribute_only(tg, 1.0)
    a = ssl_learn(tg, variant, spec, m_a, ica_iterations=1)
    b = ssl_learn(tg, variant, spec, m_a, ica_iterations=10)
    # fixed instance chosen so the extra inference rounds matter
    assert not np.array_equal(a.labels, b.labels)


def count_attribute_only_predictions(monkeypatch):
    """Count the learner's attribute-only predictions; any prediction made
    through ``inference``'s name for ``lr_predict_proba`` fails the test."""
    calls = []
    real = learning.lr_predict_proba

    def counted(model, features):
        calls.append(features.shape)
        return real(model, features)

    def forbidden(model, features):
        raise AssertionError("ica evaluated an attribute-only model")

    monkeypatch.setattr(learning, "lr_predict_proba", counted)
    monkeypatch.setattr(inference, "lr_predict_proba", forbidden)
    return calls


@pytest.mark.parametrize("kind", ["lr+nb+reg", "lr+lr"])
def test_one_attribute_only_prediction_per_learner_call(monkeypatch, kind):
    tg, _ = labeled_graph(n=60, k=6, seed=2)
    calls = count_attribute_only_predictions(monkeypatch)
    m_a = fit_attribute_only(tg, 1.0)
    rows = record_fits(monkeypatch)
    ssl_learn(tg, variant_from_name("all-em", em_iterations=5), ClassifierSpec(kind), m_a)
    # several EM iterations, each fitting two members and ending in an ICA pass
    assert len(rows) >= 4
    assert len(calls) == 1
    calls.clear()
    no_ssl(tg, ClassifierSpec(kind), m_a)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["lr+lr", "lr+nb", "lr+lr+reg", "lr+nb+reg"])
def test_known_trained_unregularized_hybrids_share_the_attribute_model(monkeypatch, kind):
    """The passed attribute-only model is the attribute member of every
    hybrid trained on the known nodes without label regularization
    (known-* and no_ssl, which strips +reg); all-* and +reg hybrids fit
    their own attribute member every iteration."""
    tg, _ = labeled_graph(n=60, k=6, seed=2)
    m_a = fit_attribute_only(tg, 1.0)
    members = []
    real = learning.ica

    def spy(graph, start, node_model, iterations):
        members.append(node_model.attribute_model)
        return real(graph, start, node_model, iterations)

    monkeypatch.setattr(learning, "ica", spy)
    spec = ClassifierSpec(kind)
    for name in SSL_VARIANT_NAMES:
        members.clear()
        ssl_learn(tg, variant_from_name(name, em_iterations=3), spec, m_a)
        shared = name.startswith("known") and not spec.regularized
        assert members and all((m is m_a) == shared for m in members), name
    members.clear()
    no_ssl(tg, spec, m_a)
    assert len(members) == 1 and members[0] is m_a


@pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
def test_every_fit_uses_the_attribute_models_sigma_sq(monkeypatch, kind):
    """The prior variance reaches the learners only through the
    attribute-only model: every logistic regression fitted inside
    ``ssl_learn`` and ``no_ssl`` uses its ``sigma_sq``."""
    tg, _ = labeled_graph(n=60, k=6, seed=2)
    m_a = fit_attribute_only(tg, 3.0)
    used = []
    for name in ("lr_train", "lr_train_label_reg"):
        def spy(*args, _real=getattr(learning, name), **kwargs):
            used.append(inspect.signature(_real).bind(*args, **kwargs).arguments["sigma_sq"])
            return _real(*args, **kwargs)

        monkeypatch.setattr(learning, name, spy)
    spec = ClassifierSpec(kind)
    for name in SSL_VARIANT_NAMES:
        ssl_learn(tg, variant_from_name(name, em_iterations=2), spec, m_a)
    no_ssl(tg, spec, m_a)
    assert used and set(used) == {3.0}


# -------------------------------------------------------------- baselines


def test_no_ssl_strips_label_regularization():
    tg, _ = labeled_graph(n=50, k=6, seed=3)
    m_a = fit_attribute_only(tg, 1.0)
    reg = no_ssl(tg, ClassifierSpec("lr+nb+reg"), m_a)
    bare = no_ssl(tg, ClassifierSpec("lr+nb"), m_a)
    assert np.array_equal(reg.labels, bare.labels)


def test_no_ssl_trains_on_known_with_restricted_neighbors(monkeypatch):
    tg, _ = labeled_graph(n=50, k=6, seed=3)
    m_a = fit_attribute_only(tg, 1.0)
    rows = record_fits(monkeypatch)
    no_ssl(tg, ClassifierSpec("lr+lr"), m_a)
    assert rows == [6]


def test_attr_only_ignores_edges():
    """Rewiring the graph cannot change attribute-only output."""
    tg, _ = labeled_graph(n=40, k=8, seed=5)
    state = attr_only(tg, fit_attribute_only(tg, 1.0))
    rng = np.random.default_rng(0)
    perm = rng.permutation(40)
    rewired = [(int(perm[i]), int(perm[(i + 1) % 40])) for i in range(40)]
    g2 = DataGraph.build(rewired, tg.attributes, tg.label_domain).with_known_labels(tg.known_labels)
    state2 = attr_only(g2, fit_attribute_only(g2, 1.0))
    assert np.array_equal(state.labels, state2.labels)


def test_attr_only_is_deterministic():
    tg, _ = labeled_graph(n=40, k=8, seed=7)
    a = attr_only(tg, fit_attribute_only(tg, 1.0))
    b = attr_only(tg, fit_attribute_only(tg, 1.0))
    assert np.array_equal(a.labels, b.labels)


def test_collective_methods_beat_attributes_on_strong_homophily():
    """Sanity direction check on one easy instance, not a theorem."""
    tg, truth = labeled_graph(n=100, k=10, seed=9, homophily=0.95, noise=1.5)
    unknown = tg.unknown_nodes
    m_a = fit_attribute_only(tg, 1.0)
    em = ssl_learn(tg, variant_from_name("all-em"), ClassifierSpec("lr+nb"), m_a)
    base = attr_only(tg, m_a)
    acc = lambda s: float(np.mean(s.labels[unknown] == truth[unknown]))
    assert acc(em) >= acc(base)


def test_prior_uses_known_nodes_only():
    tg, _ = labeled_graph(n=40, k=5, seed=11)
    prior = class_prior(tg, smoothing=1.0)
    counts = np.bincount(
        [tg.known_labels[i] for i in tg.known_nodes], minlength=2
    ).astype(float)
    assert np.allclose(prior, (counts + 1.0) / (5 + 2))
