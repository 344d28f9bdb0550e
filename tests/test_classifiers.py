"""Probabilistic classifiers: LR, relational NB, hybrid combination, label reg."""

import numpy as np
import pytest
from scipy.special import logsumexp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hybridcc import classifiers
from hybridcc.classifiers import (
    ConcatLRModel,
    ConvergenceWarning,
    HybridModel,
    LabelRegConfig,
    LRModel,
    hybrid_combine,
    kl_penalty,
    lr_predict_proba,
    lr_train,
    lr_train_label_reg,
    nb_relational_predict,
    nb_relational_train,
    _label_reg_value_grad,
    _log_softmax,
)


def make_lr(weights):
    weights = np.asarray(weights, dtype=float)
    return LRModel(weights=weights, sigma_sq=1.0, converged=True, n_iter=0)


def with_bias(X):
    return np.hstack([X, np.ones((len(X), 1))])


def mean_prediction(weights, X, beta=None):
    """Reference mean over the rows of X of the beta-weighted softmax
    ``beta_y exp(x.w_y) / sum_y' beta_y' exp(x.w_y')``."""
    logits = with_bias(X) @ np.asarray(weights).T
    if beta is not None:
        logits = logits + np.log(beta)
    return np.exp(logits - logsumexp(logits, axis=1, keepdims=True)).mean(axis=0)


def penalty_value_grad(weights, X, beta, target):
    """``_label_reg_value_grad`` on feature rows and positive multipliers."""
    log_beta = None if beta is None else np.log(beta)
    return _label_reg_value_grad(np.asarray(weights), with_bias(X), log_beta, target)


# ---------------------------------------------------------------- logistic


def test_lr_predict_recovers_softmax():
    # logits (ln 3, 0) for x = (1,) with zero bias
    model = make_lr([[np.log(3.0), 0.0], [0.0, 0.0]])
    p = lr_predict_proba(model, np.array([[1.0]]))
    assert np.allclose(p, [[0.75, 0.25]], atol=1e-12)


def test_lr_learns_separable_points():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = lr_train(X, y, sigma_sq=10.0, n_classes=2)
    p = lr_predict_proba(model, X)
    assert model.converged
    assert p[0, 0] > 0.9 and p[1, 1] > 0.9


def test_lr_regularization_shrinks_weights():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    loose = lr_train(X, y, sigma_sq=100.0, n_classes=2)
    tight = lr_train(X, y, sigma_sq=0.01, n_classes=2)
    assert np.linalg.norm(tight.weights[:, :-1]) < np.linalg.norm(loose.weights[:, :-1])


def _label_reg_on_same_rows(X, y, sigma_sq, n_classes):
    """Fit through ``lr_train_label_reg``, reusing the rows as the unlabeled set."""
    cfg = LabelRegConfig(target_dist=np.full(n_classes, 1 / n_classes), lam=1.0)
    return lr_train_label_reg(X, y, None, X, None, cfg, sigma_sq, n_classes)


@pytest.mark.parametrize(
    "train", [lr_train, _label_reg_on_same_rows], ids=["lr_train", "label_reg"]
)
def test_lr_train_warns_when_iteration_cap_hits(monkeypatch, train):
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    monkeypatch.setattr(classifiers, "MAX_ITER", 3)
    with pytest.warns(ConvergenceWarning):
        model = train(X, y, sigma_sq=1e6, n_classes=2)
    assert model.converged is False
    assert model.n_iter <= 3


def test_lr_handles_class_absent_from_training():
    # three-way domain, only two classes observed
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = lr_train(X, np.array([0, 1]), sigma_sq=1.0, n_classes=3)
    p = lr_predict_proba(model, X)
    assert p.shape == (2, 3)
    assert np.allclose(p.sum(axis=1), 1.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 30),
    d=st.integers(1, 5),
    c=st.integers(2, 4),
)
def test_lr_predictions_normalize(seed, n, d, c):
    rng = np.random.default_rng(seed)
    model = make_lr(rng.normal(size=(c, d + 1)))
    p = lr_predict_proba(model, rng.normal(size=(n, d)))
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------------ relational NB


def test_nb_tables_match_hand_computation():
    counts = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 3.0]])
    labels = np.array([0, 0, 1])
    model = nb_relational_train(counts, labels, alpha=1.0, n_classes=2)
    # class 0 pools (3,1) over 4: ((3+1)/6, (1+1)/6); class 1 pools (0,3): (1/5, 4/5)
    assert np.allclose(model.neighbor_table[0], [4 / 6, 2 / 6])
    assert np.allclose(model.neighbor_table[1], [1 / 5, 4 / 5])
    assert np.allclose(model.class_prior, [0.6, 0.4])


def test_nb_zero_counts_fall_back_to_prior():
    counts = np.array([[2.0, 0.0], [0.0, 3.0]])
    labels = np.array([0, 1])
    model = nb_relational_train(counts, labels, alpha=1.0, n_classes=2)
    p = nb_relational_predict(model, np.zeros((1, 2)))
    assert np.allclose(p[0], model.class_prior)


def test_nb_unseen_class_gets_uniform_row():
    counts = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0]])
    model = nb_relational_train(counts, np.array([0, 0]), alpha=1.0, n_classes=3)
    assert model.missing_classes == (1, 2)
    assert np.allclose(model.neighbor_table[1], 1 / 3)
    assert np.allclose(model.neighbor_table[2], 1 / 3)


def test_nb_rejects_non_positive_alpha():
    counts = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="alpha"):
        nb_relational_train(counts, np.array([0, 1]), alpha=0.0, n_classes=2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 25), c=st.integers(2, 4))
def test_nb_predictions_normalize(seed, n, c):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 5, size=(n, c)).astype(float)
    labels = rng.integers(0, c, size=n)
    model = nb_relational_train(counts, labels, alpha=1.0, n_classes=c)
    p = nb_relational_predict(model, counts)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


# -------------------------------------------------------------- hybrid rule


def test_hybrid_combine_hand_example():
    p = hybrid_combine(
        np.log([[0.8, 0.2]]), np.log([[0.6, 0.4]]), np.array([0.5, 0.5])
    )
    assert np.allclose(p, [[6 / 7, 1 / 7]], atol=1e-12)


def test_hybrid_combine_uniform_prior_is_plain_product():
    pa = np.array([[0.3, 0.7]])
    pr = np.array([[0.9, 0.1]])
    got = hybrid_combine(np.log(pa), np.log(pr), np.array([0.5, 0.5]))
    want = pa * pr / (pa * pr).sum()
    assert np.allclose(got, want, atol=1e-12)


def test_hybrid_combine_rejects_zero_prior():
    with pytest.raises(ValueError):
        hybrid_combine(np.log([[0.5, 0.5]]), np.log([[0.5, 0.5]]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_priors_must_be_finite_and_positive(bad):
    """A NaN prior would turn every posterior into NaN rows."""
    prior = np.array([bad, 0.5])
    with pytest.raises(ValueError, match="finite and strictly positive"):
        hybrid_combine(np.log([[0.5, 0.5]]), np.log([[0.5, 0.5]]), prior)
    with pytest.raises(ValueError, match="finite and strictly positive"):
        HybridModel(make_lr(np.zeros((2, 2))), make_lr(np.zeros((2, 3))), prior)


def test_hybrid_model_dispatches_on_member_type():
    rng = np.random.default_rng(3)
    attrs = rng.normal(size=(6, 2))
    labels = np.array([0, 0, 0, 1, 1, 1])
    counts = rng.integers(0, 4, size=(6, 2)).astype(float)
    props = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
    prior = np.array([0.5, 0.5])
    m_attr = lr_train(attrs, labels, sigma_sq=1.0, n_classes=2)

    nb = HybridModel(
        attribute_model=m_attr,
        relational_model=nb_relational_train(counts, labels, alpha=1.0, n_classes=2),
        prior=prior,
    )
    lr = HybridModel(
        attribute_model=m_attr,
        relational_model=lr_train(props, labels, sigma_sq=1.0, n_classes=2),
        prior=prior,
    )
    # NB member reads counts, LR member reads proportions
    assert nb.reads_counts and not lr.reads_counts
    assert not ConcatLRModel(m_attr).reads_counts
    predict_nb = nb.given_attributes(attrs)
    p_nb = predict_nb(counts)
    p_lr = lr.given_attributes(attrs)(props)
    assert np.allclose(p_nb.sum(axis=1), 1.0)
    assert np.allclose(p_lr.sum(axis=1), 1.0)
    # NB member must consume counts: scaling counts changes its output
    p_nb2 = predict_nb(counts * 3.0)
    assert not np.allclose(p_nb, p_nb2)
    # one attribute evaluation serves every call with the same bits
    assert np.array_equal(nb.given_attributes(attrs)(counts * 3.0), p_nb2)


def test_hybrid_combine_survives_disjoint_underflowed_support():
    # exp of either member is (1, 0) against (0, 1): no common support
    p = hybrid_combine(
        np.array([[0.0, -800.0]]), np.array([[-900.0, 0.0]]), np.array([0.5, 0.5])
    )
    assert np.all(np.isfinite(p))
    assert np.allclose(p, [[0.0, 1.0]])


def test_hybrid_model_is_exact_when_both_members_underflow():
    # alpha=0.1 on one-sided training counts gives a peaked table: 600
    # class-0 neighbors score class 1 about 2770 nats lower, far past exp's
    # range, while the attribute member favors class 1 by 3000 nats.
    nb = nb_relational_train(
        np.array([[10.0, 0.0], [0.0, 10.0]]), np.array([0, 1]), alpha=0.1, n_classes=2
    )
    attr = make_lr([[0.0, 0.0], [-10.0, 0.0]])
    attrs = np.array([[-300.0]])
    counts = np.array([[600.0, 0.0]])
    model = HybridModel(attribute_model=attr, relational_model=nb, prior=nb.class_prior)
    p = model.given_attributes(attrs)(counts)

    attr_logits = attrs @ attr.weights[:, :-1].T
    exact = np.argmax(attr_logits + counts @ np.log(nb.neighbor_table).T, axis=1)
    assert exact.tolist() == [1]
    assert np.all(np.isfinite(p))
    assert np.array_equal(np.argmax(p, axis=1), exact)


def test_single_vector_inputs_are_rejected():
    lr = make_lr([[1.0, 0.0], [0.0, 0.0]])
    nb = nb_relational_train(
        np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([0, 1]), alpha=1.0, n_classes=2
    )
    concat = ConcatLRModel(make_lr(np.zeros((2, 3))))
    vec = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        lr_predict_proba(lr, np.array([1.0]))
    with pytest.raises(ValueError):
        nb_relational_predict(nb, vec)
    with pytest.raises(ValueError):
        hybrid_combine(np.log(vec), np.log(vec), vec)
    with pytest.raises(ValueError):
        concat.given_attributes(np.array([1.0]))(vec)


# A few shared values make tied row maxima common; the wide floats reach
# magnitudes where a difference of two logits is still finite.
LOGITS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 700.0, -745.0, 1e300, -1e300]),
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(-50.0, 50.0, allow_nan=False),
)


def broadcast_log_softmax(logits):
    """The row-wise log-softmax as NumPy broadcasts and reductions."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@settings(max_examples=300, deadline=None)
@given(logits=arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(2, 12)), elements=LOGITS))
def test_log_softmax_equals_the_row_max_form(logits):
    """The class-column log-softmax gives the values of the broadcast form."""
    assert np.array_equal(_log_softmax(logits), broadcast_log_softmax(logits))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), c=st.integers(2, 12))
def test_class_column_paths_equal_their_broadcast_forms(seed, n, c):
    """The Naive Bayes posterior, the product rule and the label-regularization
    penalty give the bits of their broadcast (and ``kl_penalty``) forms."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, size=(n, c))
    nb = nb_relational_train(counts, rng.integers(0, c, size=n), alpha=0.5, n_classes=c)
    want = broadcast_log_softmax(
        counts @ np.log(nb.neighbor_table).T + np.log(nb.class_prior)
    )
    assert np.array_equal(classifiers._nb_log_posterior(nb, counts), want)

    log_a = np.log(rng.dirichlet(np.ones(c), size=n))
    log_r = np.log(rng.dirichlet(np.ones(c), size=n))
    prior = rng.dirichlet(np.ones(c))
    want = np.exp(broadcast_log_softmax(log_a + log_r - np.log(prior)))
    assert np.array_equal(hybrid_combine(log_a, log_r, prior), want)

    weights = rng.normal(scale=2.0, size=(c, 4))
    Xb = with_bias(rng.normal(size=(n, 3)))
    log_beta = np.log(rng.uniform(0.1, 3.0, size=(n, c)))
    target = rng.dirichlet(np.ones(c))
    P = np.exp(broadcast_log_softmax(Xb @ weights.T + log_beta))
    mean_pred = P.mean(axis=0)
    ratios = target / np.maximum(mean_pred, classifiers.EPSILON_FLOOR)
    weighted = P * ((P @ ratios)[:, None] - ratios[None, :])
    value, grad = _label_reg_value_grad(weights, Xb, log_beta, target)
    assert value == kl_penalty(target, mean_pred)
    assert np.array_equal(grad, (weighted.T @ Xb) / n)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 20), c=st.integers(2, 4))
def test_hybrid_combine_normalizes(seed, n, c):
    rng = np.random.default_rng(seed)
    pa = rng.dirichlet(np.ones(c), size=n)
    pr = rng.dirichlet(np.ones(c), size=n)
    prior = rng.dirichlet(np.ones(c))
    p = hybrid_combine(np.log(pa), np.log(pr), prior)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


# -------------------------------------------------------- label regularizer


def test_kl_penalty_hand_value():
    got = kl_penalty(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    assert got == pytest.approx(0.14384103622589042, abs=1e-15)


def test_kl_penalty_zero_iff_equal():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_penalty(p, p) == pytest.approx(0.0, abs=1e-15)
    assert kl_penalty(p, np.array([0.5, 0.3, 0.2])) > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), c=st.integers(2, 5))
def test_kl_penalty_nonnegative(seed, c):
    rng = np.random.default_rng(seed)
    assert kl_penalty(rng.dirichlet(np.ones(c)), rng.dirichlet(np.ones(c))) >= 0.0


def test_empirical_distribution_is_mean_prediction():
    """Without multipliers the penalty compares the target with the mean
    of the model's predictions over the unlabeled rows."""
    rng = np.random.default_rng(5)
    model = make_lr(rng.normal(size=(3, 4)))
    X = rng.normal(size=(10, 3))
    target = rng.dirichlet(np.ones(3))
    value, _ = penalty_value_grad(model.weights, X, None, target)
    want = kl_penalty(target, lr_predict_proba(model, X).mean(axis=0))
    assert value == pytest.approx(want, abs=1e-12)


def test_beta_shifts_empirical_distribution():
    """Multipliers (9, 1) on zero weights make the mean prediction (0.9, 0.1)."""
    X = np.zeros((4, 2))
    beta = np.tile([9.0, 1.0], (4, 1))
    at_target, _ = penalty_value_grad(np.zeros((2, 3)), X, beta, np.array([0.9, 0.1]))
    assert at_target == pytest.approx(0.0, abs=1e-12)
    uniform, _ = penalty_value_grad(np.zeros((2, 3)), X, beta, np.array([0.5, 0.5]))
    want = kl_penalty(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
    assert uniform == pytest.approx(want, abs=1e-12)


def test_beta_row_scaling_is_irrelevant():
    """Multiplying a row's multipliers by a constant changes nothing."""
    rng = np.random.default_rng(11)
    weights = rng.normal(size=(3, 5))
    X = rng.normal(size=(8, 4))
    beta = rng.uniform(0.5, 2.0, size=(8, 3))
    scaled = beta * rng.uniform(0.1, 10.0, size=(8, 1))
    target = rng.dirichlet(np.ones(3))
    value_a, grad_a = penalty_value_grad(weights, X, beta, target)
    value_b, grad_b = penalty_value_grad(weights, X, scaled, target)
    assert value_a == pytest.approx(value_b, abs=1e-12)
    assert np.allclose(grad_a, grad_b, atol=1e-12)


def _fd_gradient(weights, X, beta, target, h=1e-6):
    """Central finite differences of the penalty value in every coordinate."""
    fd = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            for sign in (+1, -1):
                w = weights.copy()
                w[i, j] += sign * h
                fd[i, j] += sign * penalty_value_grad(w, X, beta, target)[0]
    return fd / (2 * h)


def test_label_reg_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(5):
        weights = rng.normal(scale=0.5, size=(3, 6))
        X = rng.normal(size=(20, 5))
        beta = rng.uniform(0.5, 2.0, size=(20, 3))
        target = rng.dirichlet(np.ones(3) * 5.0)
        _, analytic = penalty_value_grad(weights, X, beta, target)
        fd = _fd_gradient(weights, X, beta, target)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5


def test_label_reg_config_validation():
    with pytest.raises(ValueError):
        LabelRegConfig(target_dist=np.array([0.7, 0.2]), lam=1.0)  # not a distribution
    with pytest.raises(ValueError):
        LabelRegConfig(target_dist=np.array([1.0, 0.0]), lam=1.0)  # zero entry
    with pytest.raises(ValueError):
        LabelRegConfig(target_dist=np.array([0.5, 0.5]), lam=-1.0)
    with pytest.raises(ValueError, match="target_dist"):
        LabelRegConfig(target_dist=np.array([np.nan, 1.0]), lam=1.0)  # abs(nan - 1) > 1e-8 is False
    for lam in (np.nan, np.inf):  # a NaN lam would silently drop the penalty
        with pytest.raises(ValueError, match="lam"):
            LabelRegConfig(target_dist=np.array([0.5, 0.5]), lam=lam)


def _reg_instance(seed=7, n_known=12, n_unl=40, d=3, c=3):
    rng = np.random.default_rng(seed)
    Xk = rng.normal(size=(n_known, d)) + 0.5 * np.eye(c)[rng.integers(0, c, n_known), :d]
    yk = rng.integers(0, c, size=n_known)
    Xu = rng.normal(size=(n_unl, d))
    beta_k = rng.uniform(0.5, 2.0, size=(n_known, c))
    beta_u = rng.uniform(0.5, 2.0, size=(n_unl, c))
    return Xk, yk, Xu, beta_k, beta_u


def test_lambda_zero_equals_plain_training():
    """With no penalty and no multipliers the reg path is ordinary LR."""
    Xk, yk, Xu, _, _ = _reg_instance()
    cfg = LabelRegConfig(target_dist=np.full(3, 1 / 3), lam=0.0)
    reg = lr_train_label_reg(Xk, yk, None, Xu, None, cfg, sigma_sq=1.0, n_classes=3)
    plain = lr_train(Xk, yk, sigma_sq=1.0, n_classes=3)
    assert np.array_equal(reg.weights, plain.weights)


def test_penalty_weight_pulls_mean_prediction_toward_target():
    """Heavier penalties leave the empirical distribution closer to target."""
    Xk, yk, Xu, beta_k, beta_u = _reg_instance()
    target = np.array([0.6, 0.3, 0.1])
    gaps = []
    for lam in (0.0, 5.0, 500.0):
        cfg = LabelRegConfig(target_dist=target, lam=lam)
        model = lr_train_label_reg(Xk, yk, beta_k, Xu, beta_u, cfg, sigma_sq=1.0, n_classes=3)
        emp = mean_prediction(model.weights, Xu, beta_u)
        gaps.append(kl_penalty(target, emp))
    assert gaps[2] <= gaps[1] + 1e-9
    assert gaps[1] <= gaps[0] + 1e-9
    assert gaps[2] < 1e-3  # large weight pins the mean to the target


def test_beta_weighted_likelihood_switch_changes_fit():
    Xk, yk, Xu, beta_k, beta_u = _reg_instance(seed=9)
    cfg = LabelRegConfig(target_dist=np.full(3, 1 / 3), lam=2.0)
    a = lr_train_label_reg(Xk, yk, beta_k, Xu, beta_u, cfg, sigma_sq=1.0, n_classes=3)
    b = lr_train_label_reg(
        Xk, yk, beta_k, Xu, beta_u, cfg, sigma_sq=1.0, n_classes=3,
        beta_weighted_likelihood=False,
    )
    assert not np.allclose(a.weights, b.weights)


def test_reg_training_is_deterministic():
    Xk, yk, Xu, beta_k, beta_u = _reg_instance(seed=13)
    cfg = LabelRegConfig(target_dist=np.full(3, 1 / 3), lam=3.0)
    a = lr_train_label_reg(Xk, yk, beta_k, Xu, beta_u, cfg, sigma_sq=1.0, n_classes=3)
    b = lr_train_label_reg(Xk, yk, beta_k, Xu, beta_u, cfg, sigma_sq=1.0, n_classes=3)
    assert np.array_equal(a.weights, b.weights)


# ---------------------------------------------------- optimizer quality gate

# Acceptance test 6 (all-em, 1% density): the attribute member's five known
# rows all carry class 1, so the unpenalized bias has no finite optimum.
ACC6_KNOWN_ROWS = np.array([
    [-2.073418469051521, 1.0326536086942986],
    [0.6256057647570874, 0.4326642945453096],
    [-0.6417702807011042, 0.6145704962008918],
    [0.343203523005081, 0.913515988315609],
    [-0.6036427001135478, 1.1849809626486598],
])

# The relational member of the same run over all 500 nodes, as
# (k, degree, label, rows): ``rows`` nodes of that degree and label with k
# class-0 neighbors, whose features are (k/degree, (degree-k)/degree). The
# two features always sum to 1, which leaves the fit badly conditioned.
ACC6_PROPORTIONS = (
    (0, 1, 0, 9), (0, 1, 1, 115), (1, 2, 1, 5), (1, 3, 0, 2), (1, 3, 1, 10),
    (1, 4, 0, 4), (1, 4, 1, 21), (1, 5, 0, 7), (1, 5, 1, 14), (2, 5, 0, 1),
    (2, 5, 1, 1), (1, 6, 0, 3), (1, 6, 1, 19), (1, 7, 0, 1), (1, 7, 1, 16),
    (2, 7, 0, 2), (2, 7, 1, 12), (3, 7, 0, 1), (3, 7, 1, 1), (4, 7, 0, 1),
    (4, 7, 1, 1), (1, 8, 0, 3), (1, 8, 1, 15), (3, 8, 1, 3), (1, 9, 0, 3),
    (1, 9, 1, 12), (2, 9, 0, 4), (2, 9, 1, 7), (4, 9, 1, 1), (1, 10, 0, 4),
    (1, 10, 1, 10), (3, 10, 0, 1), (3, 10, 1, 2), (1, 11, 1, 14), (2, 11, 0, 3),
    (2, 11, 1, 15), (3, 11, 0, 1), (3, 11, 1, 6), (4, 11, 0, 1), (4, 11, 1, 3),
    (5, 11, 1, 1), (6, 11, 1, 1), (7, 11, 1, 1), (1, 12, 1, 12), (5, 12, 1, 2),
    (1, 13, 0, 1), (1, 13, 1, 13), (2, 13, 0, 2), (2, 13, 1, 10), (3, 13, 1, 5),
    (4, 13, 0, 3), (4, 13, 1, 6), (5, 13, 0, 2), (5, 13, 1, 1), (6, 13, 1, 1),
    (7, 13, 1, 1), (1, 14, 1, 10), (3, 14, 0, 3), (3, 14, 1, 3), (5, 14, 1, 2),
    (1, 15, 0, 1), (1, 15, 1, 8), (2, 15, 0, 2), (2, 15, 1, 4), (4, 15, 0, 2),
    (4, 15, 1, 4), (7, 15, 1, 1), (1, 16, 0, 2), (1, 16, 1, 8), (3, 16, 0, 1),
    (3, 16, 1, 3), (5, 16, 1, 2), (1, 17, 1, 2), (2, 17, 0, 1), (2, 17, 1, 3),
    (4, 17, 1, 2), (5, 17, 1, 1), (6, 17, 1, 1), (8, 17, 1, 1), (1, 18, 0, 1),
    (1, 18, 1, 5), (5, 18, 1, 1), (7, 18, 0, 1), (1, 19, 1, 2), (2, 19, 1, 2),
    (3, 19, 1, 2), (7, 20, 1, 1), (5, 21, 0, 1), (6, 25, 1, 1),
)


def _noisy_linear_labels(rng, X, c):
    return np.argmax(X @ rng.normal(size=(X.shape[1], c)) + rng.gumbel(size=(len(X), c)), axis=1)


def _gate_lr_small():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(int)
    return lr_train, dict(features=X, labels=y, sigma_sq=1.0, n_classes=2)


def _gate_lr_sigma100():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 5))
    return lr_train, dict(
        features=X, labels=_noisy_linear_labels(rng, X, 3), sigma_sq=100.0, n_classes=3,
    )


def _gate_acc6_known_rows():
    y = np.ones(5, dtype=int)
    return lr_train, dict(features=ACC6_KNOWN_ROWS, labels=y, sigma_sq=1.0, n_classes=2)


def _gate_acc6_proportions():
    X, y = [], []
    for k, degree, label, rows in ACC6_PROPORTIONS:
        X += [[k / degree, (degree - k) / degree]] * rows
        y += [label] * rows
    return lr_train, dict(features=np.array(X), labels=np.array(y), sigma_sq=1.0, n_classes=2)


def _gate_reg_em_shaped():
    """All-em at 20 known of 300 nodes: every node trains, 280 are unlabeled."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 20))
    y = _noisy_linear_labels(rng, X, 3)
    beta = rng.uniform(0.2, 5.0, size=(300, 3))
    cfg = LabelRegConfig(target_dist=np.array([0.5, 0.3, 0.2]), lam=200.0)
    return lr_train_label_reg, dict(
        known_features=X, known_labels=y, known_beta=beta,
        unlabeled_features=X[20:], unlabeled_beta=beta[20:], config=cfg, sigma_sq=1.0,
        n_classes=3,
    )


def _gate_reg_plain_likelihood():
    Xk, yk, Xu, beta_k, beta_u = _reg_instance(seed=9)
    cfg = LabelRegConfig(target_dist=np.array([0.6, 0.3, 0.1]), lam=5.0)
    return lr_train_label_reg, dict(
        known_features=Xk, known_labels=yk, known_beta=beta_k,
        unlabeled_features=Xu, unlabeled_beta=beta_u, config=cfg, sigma_sq=1.0,
        n_classes=3, beta_weighted_likelihood=False,
    )


def _gate_reg_sigma100():
    Xk, yk, Xu, beta_k, beta_u = _reg_instance(seed=21, n_known=30, n_unl=80)
    cfg = LabelRegConfig(target_dist=np.full(3, 1 / 3), lam=2.0)
    return lr_train_label_reg, dict(
        known_features=Xk, known_labels=yk, known_beta=beta_k,
        unlabeled_features=Xu, unlabeled_beta=beta_u, config=cfg, sigma_sq=100.0,
        n_classes=3,
    )


GATE_PROBLEMS = {
    "lr-small": _gate_lr_small,
    "lr-sigma100": _gate_lr_sigma100,
    "lr-acc6-known-rows": _gate_acc6_known_rows,
    "lr-acc6-proportions": _gate_acc6_proportions,
    "reg-em-shaped": _gate_reg_em_shaped,
    "reg-plain-likelihood": _gate_reg_plain_likelihood,
    "reg-sigma100": _gate_reg_sigma100,
}

# The objective each problem reached under the previous optimizer
# (backtracking gradient ascent, 500-step cap), evaluated by
# ``_penalized_objective``.
PREVIOUS_OBJECTIVE = {
    "lr-small": -11.603445034138275,
    "lr-sigma100": -43.19033823357628,
    "lr-acc6-known-rows": -0.0006169384631444921,  # stopped at the step cap
    "lr-acc6-proportions": -206.20188182211322,  # stopped at the step cap
    "reg-em-shaped": -99.59921853682533,
    "reg-plain-likelihood": -9.344057778995499,
    "reg-sigma100": -25.419343539605826,
}


def _penalized_objective(weights, train, kwargs):
    """Reference objective: log likelihood - Gaussian penalty - lam * KL."""
    sigma_sq = kwargs["sigma_sq"]
    gaussian = float(np.sum(weights[:, :-1] ** 2)) / (2.0 * sigma_sq)

    def log_likelihood(X, y, log_beta=None):
        logits = np.hstack([X, np.ones((len(X), 1))]) @ weights.T
        if log_beta is not None:
            logits = logits + log_beta
        logp = logits - logsumexp(logits, axis=1, keepdims=True)
        return float(logp[np.arange(len(y)), y].sum())

    if train is lr_train:
        return log_likelihood(kwargs["features"], kwargs["labels"]) - gaussian
    cfg = kwargs["config"]
    log_beta = None
    if kwargs.get("beta_weighted_likelihood", True):
        log_beta = np.log(kwargs["known_beta"])
    mean_pred = mean_prediction(weights, kwargs["unlabeled_features"], kwargs["unlabeled_beta"])
    kl = kl_penalty(cfg.target_dist, mean_pred)
    return (log_likelihood(kwargs["known_features"], kwargs["known_labels"], log_beta)
            - gaussian - cfg.lam * kl)


@pytest.mark.parametrize("name", list(GATE_PROBLEMS))
def test_objective_reaches_previous_optimum(name):
    train, kwargs = GATE_PROBLEMS[name]()
    model = train(**kwargs)
    old = PREVIOUS_OBJECTIVE[name]
    new = _penalized_objective(model.weights, train, kwargs)
    assert model.converged
    assert new >= old - 1e-6 * max(1.0, abs(old))
