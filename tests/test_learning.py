"""Semi-supervised training loops, classifier specs, and baselines."""

from collections import Counter

import numpy as np
import pytest

from hybridcc.graph import DataGraph, class_prior
from hybridcc.inference import ICAConfig
from hybridcc.learning import (
    CLASSIFIER_KINDS,
    SSL_VARIANT_NAMES,
    ClassifierSpec,
    LabelRegSettings,
    SslVariant,
    attr_only,
    no_ssl,
    ssl_learn,
    variant_from_name,
)
from hybridcc.synthetic import synthetic_graph
from reference_loops import first_repeat_period


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


def test_spec_autofills_reg_settings_only_for_reg_kinds():
    assert ClassifierSpec("lr+nb+reg").label_reg == LabelRegSettings()
    assert ClassifierSpec("lr+lr").label_reg is None
    with pytest.raises(ValueError):
        ClassifierSpec("lr+lr", label_reg=LabelRegSettings())
    with pytest.raises(ValueError):
        ClassifierSpec("gbm")


def test_spec_predicates_and_stripping():
    spec = ClassifierSpec("lr+nb+reg", sigma_sq=2.0, nb_alpha=0.5)
    assert spec.regularized and spec.uses_nb and spec.hybrid
    bare = spec.without_label_reg()
    assert bare.kind == "lr+nb" and not bare.regularized
    assert bare.sigma_sq == 2.0 and bare.nb_alpha == 0.5
    tuned = spec.with_hyperparams(sigma_sq=9.0)
    assert tuned.sigma_sq == 9.0 and tuned.nb_alpha == 0.5 and tuned.regularized
    assert not ClassifierSpec("lr").hybrid


# -------------------------------------------------------------- ssl_learn


def test_every_kind_runs_under_every_variant():
    tg, truth = labeled_graph(n=50, k=6)
    for name in SSL_VARIANT_NAMES:
        variant = variant_from_name(name, em_iterations=2)
        for kind in CLASSIFIER_KINDS:
            state = ssl_learn(tg, variant, ClassifierSpec(kind))
            assert np.all(state.labels >= 0)
            for node, cls_idx in tg.known_labels.items():
                assert state.labels[node] == cls_idx


def test_onepass_equals_single_iteration_em():
    tg, _ = labeled_graph(n=60, k=6, seed=4)
    for kind in CLASSIFIER_KINDS:
        spec = ClassifierSpec(kind)
        for family in ("all", "known"):
            one = ssl_learn(tg, variant_from_name(f"{family}-onepass"), spec)
            em1 = ssl_learn(tg, variant_from_name(f"{family}-em", em_iterations=1), spec)
            assert np.array_equal(one.labels, em1.labels), (kind, family)


def test_learn_from_all_trains_on_every_node():
    tg, _ = labeled_graph(n=60, k=6, seed=2)
    diag_all, diag_known = {}, {}
    ssl_learn(tg, variant_from_name("all-em", em_iterations=3), ClassifierSpec("lr+lr"),
              diagnostics=diag_all)
    ssl_learn(tg, variant_from_name("known-em", em_iterations=3), ClassifierSpec("lr+lr"),
              diagnostics=diag_known)
    # one entry per fit actually run: EM stops at the first repeated labeling
    assert 1 <= len(diag_all["train_sizes"]) <= 3
    assert 1 <= len(diag_known["train_sizes"]) <= 3
    assert all(size == 60 for size in diag_all["train_sizes"])
    assert all(size == 6 for size in diag_known["train_sizes"])


def test_em_stops_early_with_the_full_budget_labeling(full_budget_runs):
    """Early exit equals the full EM and ICA budgets, on runs that reach
    fixed points and 2-cycles."""
    periods = Counter()
    for graph, variant, spec, history, _ in full_budget_runs:
        state = ssl_learn(graph, variant, spec, ica_config=ICAConfig(iterations=10))
        assert np.array_equal(state.labels, history[-1]), (spec.kind, variant)
        periods[first_repeat_period(history)] += 1
    assert periods[1] > 0 and periods[2] > 0, periods


def test_iterations_refresh_the_labeling():
    """EM must be able to move labels after the first pass."""
    tg, _ = labeled_graph(n=80, k=5, seed=6, noise=1.2)
    spec = ClassifierSpec("lr+lr")
    one = ssl_learn(tg, variant_from_name("all-onepass"), spec)
    em = ssl_learn(tg, variant_from_name("all-em"), spec)
    # not an invariant for every instance, but for this fixed one the
    # refit moves at least one unknown node
    assert not np.array_equal(one.labels, em.labels)


def test_ssl_learn_with_no_unknowns_returns_known_state():
    edges = [(0, 1), (1, 2)]
    g = DataGraph.build(edges, np.zeros((3, 2)), ("a", "b"),
                        known_labels={0: 0, 1: 1, 2: 0})
    state = ssl_learn(g, variant_from_name("all-em"), ClassifierSpec("lr"))
    assert state.labels.tolist() == [0, 1, 0]


def test_ssl_learn_requires_a_known_node():
    edges = [(0, 1)]
    g = DataGraph.build(edges, np.zeros((2, 2)), ("a", "b"))
    with pytest.raises(ValueError):
        ssl_learn(g, variant_from_name("all-em"), ClassifierSpec("lr"))


def test_ica_iteration_count_is_configurable():
    tg, _ = labeled_graph(n=60, k=6, seed=8, noise=1.2)
    spec = ClassifierSpec("lr+nb")
    variant = variant_from_name("known-onepass")
    a = ssl_learn(tg, variant, spec, ica_config=ICAConfig(iterations=1))
    b = ssl_learn(tg, variant, spec, ica_config=ICAConfig(iterations=10))
    # fixed instance chosen so the extra inference rounds matter
    assert not np.array_equal(a.labels, b.labels)


# -------------------------------------------------------------- baselines


def test_no_ssl_strips_label_regularization():
    tg, _ = labeled_graph(n=50, k=6, seed=3)
    reg = no_ssl(tg, ClassifierSpec("lr+nb+reg"))
    bare = no_ssl(tg, ClassifierSpec("lr+nb"))
    assert np.array_equal(reg.labels, bare.labels)


def test_no_ssl_trains_on_known_with_restricted_neighbors():
    tg, _ = labeled_graph(n=50, k=6, seed=3)
    diag = {}
    no_ssl(tg, ClassifierSpec("lr+lr"), diagnostics=diag)
    assert diag["train_sizes"] == [6]


def test_attr_only_ignores_edges():
    """Rewiring the graph cannot change attribute-only output."""
    tg, _ = labeled_graph(n=40, k=8, seed=5)
    state = attr_only(tg, ClassifierSpec("lr"))
    rng = np.random.default_rng(0)
    perm = rng.permutation(40)
    rewired = [(int(perm[i]), int(perm[(i + 1) % 40])) for i in range(40)]
    g2 = DataGraph.build(rewired, tg.attributes, tg.label_domain, dict(tg.known_labels))
    state2 = attr_only(g2, ClassifierSpec("lr"))
    assert np.array_equal(state.labels, state2.labels)


def test_attr_only_is_deterministic():
    tg, _ = labeled_graph(n=40, k=8, seed=7)
    a = attr_only(tg, ClassifierSpec("lr"))
    b = attr_only(tg, ClassifierSpec("lr"))
    assert np.array_equal(a.labels, b.labels)


def test_collective_methods_beat_attributes_on_strong_homophily():
    """Sanity direction check on one easy instance, not a theorem."""
    tg, truth = labeled_graph(n=100, k=10, seed=9, homophily=0.95, noise=1.5)
    unknown = tg.unknown_nodes
    em = ssl_learn(tg, variant_from_name("all-em"), ClassifierSpec("lr+nb"))
    base = attr_only(tg, ClassifierSpec("lr"))
    acc = lambda s: float(np.mean(s.labels[unknown] == truth[unknown]))
    assert acc(em) >= acc(base)


def test_prior_uses_known_nodes_only():
    tg, _ = labeled_graph(n=40, k=5, seed=11)
    prior = class_prior(tg, smoothing=1.0)
    counts = np.bincount(
        [tg.known_labels[i] for i in tg.known_nodes], minlength=2
    ).astype(float)
    assert np.allclose(prior, (counts + 1.0) / (5 + 2))
