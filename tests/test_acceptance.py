"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <n> ...: PASS/FAIL`` line (shown in the
``-rA`` summary) and enforces both its tolerance and its runtime budget.
The real-dataset check is skipped when no dataset is present; everything
else runs on generated data.
"""

import os
import time

import numpy as np
import pytest

from hybridcc import inference
from hybridcc.classifiers import (
    _label_reg_value_grad,
    hybrid_combine,
    nb_relational_predict,
    nb_relational_train,
)
from hybridcc.graph import DataGraph, LabelState, class_prior
from hybridcc.harness import ExperimentConfig, run_experiment, sample_known
from hybridcc.inference import _wvrn_distributions
from hybridcc.learning import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    fit_attribute_only,
    ssl_learn,
    variant_from_name,
)
from hybridcc.synthetic import generate_dataset, synthetic_graph, write_dataset


def report(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def budget(label, elapsed, limit):
    report(f"{label} runtime", elapsed < limit, f"{elapsed:.2f}s of {limit:.0f}s budget")


# -------------------------------------------------------------- criterion 1


def test_acceptance_1_regularizer_gradient_matches_finite_differences():
    """Analytic penalty gradient vs central differences of the penalty
    value, both from the training objective's own ``_label_reg_value_grad``,
    20 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240901)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        weights = rng.normal(scale=0.5, size=(3, 6))  # 3 classes, 5 features + bias
        X = rng.normal(size=(20, 5))
        beta = rng.uniform(0.5, 2.0, size=(20, 3))
        target = rng.dirichlet(np.ones(3) * 5.0)
        Xb = np.hstack([X, np.ones((20, 1))])

        def penalty_at(w):
            return _label_reg_value_grad(w, Xb, np.log(beta), target)[0]

        _, analytic = _label_reg_value_grad(weights, Xb, np.log(beta), target)
        fd = np.zeros_like(weights)
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                up, down = weights.copy(), weights.copy()
                up[i, j] += h
                down[i, j] -= h
                fd[i, j] = (penalty_at(up) - penalty_at(down)) / (2 * h)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report("1 gradient oracle", worst < 1e-5, f"worst relative error {worst:.2e} < 1e-5")
    budget("1", elapsed, 5.0)


# -------------------------------------------------------------- criterion 2


def test_acceptance_2_product_rule_equals_joint_nb():
    """Two conditionally independent count blocks: member product == joint fit."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n, c, alpha = 150, 3, 1.0
    y = rng.integers(0, c, size=n)
    theta_a = rng.dirichlet(np.ones(c) * 2.0, size=c)
    theta_r = rng.dirichlet(np.ones(c) * 2.0, size=c)
    CA = np.array([rng.multinomial(6, theta_a[k]) for k in y], dtype=float)
    CR = np.array([rng.multinomial(9, theta_r[k]) for k in y], dtype=float)

    m_a = nb_relational_train(CA, y, alpha=alpha, n_classes=c)
    m_r = nb_relational_train(CR, y, alpha=alpha, n_classes=c)
    combined = hybrid_combine(
        np.log(nb_relational_predict(m_a, CA)), np.log(nb_relational_predict(m_r, CR)),
        m_a.class_prior,
    )

    # joint model, estimated from scratch: per-block smoothed tables share
    # one prior, and the posterior multiplies all factors together
    prior = (np.bincount(y, minlength=c) + alpha) / (n + c * alpha)
    TA = np.vstack([
        (CA[y == k].sum(axis=0) + alpha) / (CA[y == k].sum() + c * alpha)
        for k in range(c)
    ])
    TR = np.vstack([
        (CR[y == k].sum(axis=0) + alpha) / (CR[y == k].sum() + c * alpha)
        for k in range(c)
    ])
    log_joint = np.log(prior) + CA @ np.log(TA).T + CR @ np.log(TR).T
    joint = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
    joint /= joint.sum(axis=1, keepdims=True)

    gap = float(np.max(np.abs(combined - joint)))
    elapsed = time.perf_counter() - start
    report("2 product-rule oracle", gap < 1e-10, f"max per-node gap {gap:.2e} < 1e-10")
    budget("2", elapsed, 1.0)


# -------------------------------------------------------------- criterion 3


def test_acceptance_3_neighbor_averaging_reaches_solved_fixed_point(monkeypatch):
    """Iterated clamped averaging vs the directly solved linear system."""
    start = time.perf_counter()
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 4)]
    g = DataGraph.build(edges, np.zeros((6, 1)), ("a", "b")).with_known_labels({0: 0, 5: 1})

    n, c = g.node_count, g.n_classes
    state = LabelState.from_graph(g)
    known, unknown = g.known_nodes, g.unknown_nodes
    P = g.adjacency.toarray() / g.degrees[:, None]
    clamp = np.zeros((n, c))
    clamp[known, state.labels[known]] = 1.0
    solved = clamp.copy()
    solved[unknown] = np.linalg.solve(
        np.eye(unknown.size) - P[np.ix_(unknown, unknown)],
        P[np.ix_(unknown, known)] @ clamp[known],
    )

    monkeypatch.setattr(inference, "WVRN_MAX_SWEEPS", 20000)
    monkeypatch.setattr(inference, "WVRN_TOL", 1e-13)
    dist = _wvrn_distributions(g)
    gap = float(np.max(np.abs(dist - solved)))
    elapsed = time.perf_counter() - start
    report("3 averaging fixed point", gap < 1e-6, f"max gap {gap:.2e} < 1e-6")
    budget("3", elapsed, 1.0)


# -------------------------------------------------------------- criterion 4


def test_acceptance_4_one_pass_equals_single_iteration_refit():
    """Both loop families: 1 refit iteration is exactly the one-pass setting."""
    start = time.perf_counter()
    graph, truth = synthetic_graph(200, 2, 0.8, 1.0, seed=55, avg_degree=6.0)
    mismatches = []
    for seed in range(5):
        picks = sample_known(graph, 0.05, seed=np.random.SeedSequence((55, 0, seed, 0)))
        tg = graph.with_known_labels({int(i): int(truth[i]) for i in picks})
        unknown = tg.unknown_nodes
        m_a = fit_attribute_only(tg, 1.0)
        for kind in CLASSIFIER_KINDS:
            spec = ClassifierSpec(kind)
            for family in ("all", "known"):
                one = ssl_learn(tg, variant_from_name(f"{family}-onepass"), spec, m_a)
                em1 = ssl_learn(tg, variant_from_name(f"{family}-em", em_iterations=1), spec, m_a)
                acc_one = float(np.mean(one.labels[unknown] == truth[unknown]))
                acc_em1 = float(np.mean(em1.labels[unknown] == truth[unknown]))
                if acc_one != acc_em1:
                    mismatches.append((seed, kind, family))
    elapsed = time.perf_counter() - start
    report(
        "4 variant collapse", not mismatches,
        f"{5 * len(CLASSIFIER_KINDS) * 2} comparisons, mismatches: {mismatches or 'none'}",
    )
    budget("4", elapsed, 30.0)


# -------------------------------------------------------------- criterion 5


def test_acceptance_5_synthetic_accuracy_trends(tmp_path):
    """Collective + unlabeled data beats attributes; hybrid beats plain LR."""
    start = time.perf_counter()
    data = generate_dataset(500, 2, 0.8, 0.9, seed=101, avg_degree=12.0, attr_dim=4)
    nodes, edges = write_dataset(str(tmp_path), data)
    cfg = ExperimentConfig(
        nodes_path=nodes, edges_path=edges,
        densities=(0.05,), trials=10,
        variants=("all-em", "known-onepass", "attr-only"),
        classifiers=("lr+nb+reg", "lr+lr", "lr"),
        master_seed=7, sigma_grid=(1.0,), alpha_grid=(1.0,),
        output_dir=str(tmp_path / "reports"),
    )
    results = run_experiment(cfg)
    cell = {}
    for r in results:
        assert r.status == "ok", r.note
        cell.setdefault((r.variant, r.classifier), []).append(r.accuracy)
    means = {k: float(np.mean(v)) for k, v in cell.items()}

    gap_ssl = means[("all-em", "lr+nb+reg")] - means[("attr-only", "lr")]
    gap_hybrid = means[("known-onepass", "lr+lr")] - means[("known-onepass", "lr")]
    elapsed = time.perf_counter() - start
    report(
        "5 trend: regularized EM over attribute baseline", gap_ssl >= 0.05,
        f"mean {means[('all-em', 'lr+nb+reg')]:.4f} vs {means[('attr-only', 'lr')]:.4f}, "
        f"gap {gap_ssl:+.4f} >= +0.05",
    )
    report(
        "5 trend: hybrid over plain logistic", gap_hybrid >= 0.0,
        f"mean {means[('known-onepass', 'lr+lr')]:.4f} vs {means[('known-onepass', 'lr')]:.4f}, "
        f"gap {gap_hybrid:+.4f} >= 0",
    )
    budget("5", elapsed, 300.0)


# -------------------------------------------------------------- criterion 6


def test_acceptance_6_regularization_suppresses_one_class_collapse(tmp_path):
    """At 1% density the penalty strictly reduces degenerate-trial frequency."""
    start = time.perf_counter()
    data = generate_dataset(500, 2, 0.8, 1.2, seed=303, avg_degree=12.0, attr_dim=2)
    nodes, edges = write_dataset(str(tmp_path), data)
    cfg = ExperimentConfig(
        nodes_path=nodes, edges_path=edges,
        densities=(0.01,), trials=20,
        variants=("all-em",), classifiers=("lr+lr", "lr+lr+reg"),
        master_seed=5, sigma_grid=(1.0,), alpha_grid=(1.0,),
        output_dir=str(tmp_path / "reports"),
    )
    results = run_experiment(cfg)
    flagged = {"lr+lr": 0, "lr+lr+reg": 0}
    for r in results:
        assert r.status == "ok", r.note
        flagged[r.classifier] += int(r.degenerate)
    elapsed = time.perf_counter() - start
    report(
        "6 degenerate suppression",
        flagged["lr+lr+reg"] < flagged["lr+lr"],
        f"flagged fraction with penalty {flagged['lr+lr+reg']}/20 "
        f"< without {flagged['lr+lr']}/20",
    )
    budget("6", elapsed, 300.0)


# -------------------------------------------------------------- criterion 7


CORA_DIR = os.environ.get(
    "HYBRIDCC_CORA_DIR",
    os.path.join(os.path.dirname(__file__), os.pardir, "data", "cora"),
)


@pytest.mark.skipif(
    not (os.path.exists(os.path.join(CORA_DIR, "nodes.tsv"))
         and os.path.exists(os.path.join(CORA_DIR, "edges.tsv"))),
    reason="citation dataset not supplied (set HYBRIDCC_CORA_DIR)",
)
def test_acceptance_7_citation_benchmark_accuracy(tmp_path):
    """Mean accuracies on the citation graph against published reference bands."""
    start = time.perf_counter()
    densities = (0.01, 0.03, 0.05, 0.09)
    cfg = ExperimentConfig(
        nodes_path=os.path.join(CORA_DIR, "nodes.tsv"),
        edges_path=os.path.join(CORA_DIR, "edges.tsv"),
        densities=densities, trials=15,
        variants=("all-em", "known-onepass"),
        classifiers=("lr+nb+reg", "lr"),
        master_seed=0, pca_components=100,
        output_dir=str(tmp_path / "reports"),
    )
    results = run_experiment(cfg)
    cell = {}
    for r in results:
        if r.status == "ok":
            cell.setdefault((r.variant, r.classifier, r.density), []).append(r.accuracy)

    # reference means, in accuracy points; 1% cells are informational only
    bands = {
        ("all-em", "lr+nb+reg"): dict(zip(densities, (67.7, 78.9, 80.2, 81.8))),
        ("known-onepass", "lr"): dict(zip(densities, (43.6, 64.5, 71.4, 77.5))),
    }
    failures = []
    for (variant, kind), per_density in bands.items():
        for density, ref in per_density.items():
            got = 100.0 * float(np.mean(cell[(variant, kind, density)]))
            binding = density > 0.01
            tag = "" if binding else " [not binding at 1%]"
            print(f"  {variant}/{kind} @ {density:g}: {got:.1f} vs {ref:.1f}{tag}")
            if binding and abs(got - ref) > 3.0:
                failures.append((variant, kind, density, got, ref))
    elapsed = time.perf_counter() - start
    report("7 citation benchmark", not failures, f"out-of-band cells: {failures or 'none'}")
    budget("7", elapsed, 1800.0)


# -------------------------------------------------------------- criterion 8


def test_acceptance_8_reports_are_byte_identical_across_runs(tmp_path):
    start = time.perf_counter()
    data = generate_dataset(300, 2, 0.8, 1.0, seed=77, avg_degree=8.0, attr_dim=3)
    nodes, edges = write_dataset(str(tmp_path), data)

    def run(tag):
        cfg = ExperimentConfig(
            nodes_path=nodes, edges_path=edges,
            densities=(0.03, 0.08), trials=3,
            variants=("all-em", "no-ssl", "attr-only"),
            classifiers=("lr+nb+reg",),
            master_seed=13, cv_folds=3,
            sigma_grid=(0.1, 1.0), alpha_grid=(1.0, 10.0),
            em_iterations=3,
            output_dir=str(tmp_path / tag),
        )
        run_experiment(cfg)
        return {
            name: open(os.path.join(cfg.output_dir, name), "rb").read()
            for name in ("trials.csv", "summary.csv")
        }

    first, second = run("first"), run("second")
    same = all(first[name] == second[name] for name in first)
    sizes = ", ".join(f"{name} {len(first[name])}B" for name in first)
    elapsed = time.perf_counter() - start
    report("8 byte-identical reports", same, sizes)
    budget("8", elapsed, 600.0)
