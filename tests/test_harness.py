"""Experiment harness: config, sampling, tuning, statistics, and reports."""

import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hybridcc.harness as harness
import hybridcc.learning as learning
from hybridcc.classifiers import LabelRegConfig, lr_train, lr_train_label_reg, nb_relational_train
from hybridcc.data import prepare_dataset
from hybridcc.graph import DataGraph, LabelState
from hybridcc.harness import (
    ConfigError,
    ExperimentConfig,
    TrialResult,
    accuracy,
    cross_validate_hyperparams,
    degenerate_flag,
    paired_t_test,
    parse_config_file,
    run_experiment,
    sample_known,
    summarize,
)
from hybridcc.learning import ClassifierSpec


def chain_graph(n, known=None):
    edges = [(i, i + 1) for i in range(n - 1)]
    return DataGraph.build(edges, np.zeros((n, 1)), ("a", "b")).with_known_labels(known or {})


def tiny_config(small_dataset, tmp_path, **overrides):
    nodes, edges = small_dataset
    defaults = dict(
        nodes_path=nodes,
        edges_path=edges,
        densities=(0.1,),
        trials=3,
        variants=("known-onepass", "attr-only"),
        classifiers=("lr",),
        master_seed=1,
        cv_folds=3,
        sigma_grid=(1.0,),
        alpha_grid=(1.0,),
        ica_iterations=3,
        em_iterations=2,
        output_dir=str(tmp_path / "reports"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ------------------------------------------------------------------ config


def test_config_validation_messages():
    base = dict(nodes_path="n", edges_path="e")
    with pytest.raises(ConfigError, match="density"):
        ExperimentConfig(densities=(1.5,), **base)
    with pytest.raises(ConfigError, match="duplicates"):
        ExperimentConfig(densities=(0.1, 0.1), **base)
    # both print as 0.1, the form the report columns and rows use
    with pytest.raises(ConfigError, match="duplicates"):
        ExperimentConfig(densities=(0.1, 0.1000001), **base)
    with pytest.raises(ConfigError, match="unknown variant"):
        ExperimentConfig(variants=("em",), **base)
    with pytest.raises(ConfigError, match="duplicates"):
        ExperimentConfig(variants=("all-em", "all-em"), **base)
    with pytest.raises(ConfigError, match="unknown classifier"):
        ExperimentConfig(classifiers=("svm",), **base)
    with pytest.raises(ConfigError, match="positive"):
        ExperimentConfig(sigma_grid=(0.0, 1.0), **base)
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(trials=0, **base)
    with pytest.raises(ConfigError, match="normalization"):
        ExperimentConfig(normalization="scale", **base)
    # one fold has no training side, so it could never tune
    with pytest.raises(ConfigError, match="cv_folds must be >= 2"):
        ExperimentConfig(cv_folds=1, **base)


def test_parse_config_round_trip(tmp_path):
    text = (
        "# experiment\n"
        "nodes_path = data/nodes.tsv\n"
        "edges_path = data/edges.tsv\n"
        "densities = 0.01, 0.05\n"
        "trials = 4\n"
        "variants = all-em, attr-only\n"
        "classifiers = lr+nb+reg, lr\n"
        "master_seed = 9\n"
        "sigma_grid = 0.1, 1\n"
        "alpha_grid = 1\n"
        "normalization = minmax\n"
    )
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    cfg = parse_config_file(str(path))
    assert cfg.densities == (0.01, 0.05)
    assert cfg.trials == 4
    assert cfg.variants == ("all-em", "attr-only")
    assert cfg.classifiers == ("lr+nb+reg", "lr")
    assert cfg.sigma_grid == (0.1, 1.0)
    assert cfg.normalization == "minmax"
    assert cfg.output_dir == "reports"  # default untouched
    # a UTF-8 byte-order mark before the first key is not part of the key
    path.write_text("\ufeff" + text.removeprefix("# experiment\n"), encoding="utf-8")
    assert parse_config_file(str(path)) == cfg


@pytest.mark.parametrize(
    "line,match",
    [
        ("budget = 3", "unknown config key"),
        ("trials = many", "cannot parse"),
        ("no equals sign here", "expected 'key = value'"),
    ],
)
def test_parse_config_errors_name_the_line(tmp_path, line, match):
    path = tmp_path / "exp.cfg"
    path.write_text(f"nodes_path = n\nedges_path = e\n{line}\n")
    with pytest.raises(ConfigError, match=f"line 3.*{match}|{match}"):
        parse_config_file(str(path))


def test_parse_config_rejects_repeated_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("nodes_path = n\nedges_path = e\ntrials = 2\ntrials = 3\n")
    with pytest.raises(ConfigError, match="repeated"):
        parse_config_file(str(path))


def test_parse_config_requires_paths(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("trials = 2\n")
    with pytest.raises(ConfigError, match="required"):
        parse_config_file(str(path))


def test_example_config_sets_every_field_to_its_written_value():
    """The documented example, the dataclass and the parser derived from it
    agree: the example sets every field, and each parses to the typed value
    written there (``repr`` tells 15 from 15.0)."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "example.cfg"
    keys = {
        line.partition("=")[0].strip()
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    }
    assert keys == {f.name for f in fields(ExperimentConfig)}
    expected = ExperimentConfig(
        nodes_path="runs/sweep/nodes.tsv",
        edges_path="runs/sweep/edges.tsv",
        densities=(0.01, 0.03, 0.05, 0.09),
        trials=15,
        variants=("all-em", "known-onepass", "attr-only", "relat-only"),
        classifiers=("lr+nb+reg", "lr"),
        master_seed=0,
        cv_folds=5,
        sigma_grid=(0.01, 0.1, 1.0, 10.0, 100.0),
        alpha_grid=(0.1, 1.0, 10.0),
        pca_components=0,
        normalization="zscore",
        ica_iterations=10,
        em_iterations=10,
        output_dir="reports",
        significance_level=0.05,
    )
    assert repr(parse_config_file(str(path))) == repr(expected)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("entry", [
    "sigma_grid", "alpha_grid", "spec_nb_alpha",
    "lr_train", "lr_train_label_reg", "nb_relational_train",
])
def test_hyperparameters_must_be_positive_and_finite(entry, value):
    """A NaN variance used to fit all-zero weights that reported converged,
    and a NaN smoothing an all-NaN table; every entry point now refuses."""
    X, y, ones = np.zeros((2, 1)), np.array([0, 1]), np.ones((2, 2))
    calls = {
        "sigma_grid": lambda: ExperimentConfig(nodes_path="n", edges_path="e", sigma_grid=(1.0, value)),
        "alpha_grid": lambda: ExperimentConfig(nodes_path="n", edges_path="e", alpha_grid=(value,)),
        "spec_nb_alpha": lambda: ClassifierSpec("lr+nb", nb_alpha=value),
        "lr_train": lambda: lr_train(X, y, value, 2),
        "lr_train_label_reg": lambda: lr_train_label_reg(
            X, y, ones, X, ones, LabelRegConfig(np.array([0.5, 0.5]), 1.0), value, 2,
        ),
        "nb_relational_train": lambda: nb_relational_train(ones, y, value, 2),
    }
    with pytest.raises(ValueError, match="positive"):
        calls[entry]()


# ---------------------------------------------------------------- sampling


def test_sample_known_size_follows_rounding():
    g = chain_graph(2708)
    picks = sample_known(g, 0.01, seed=0)
    assert picks.size == 27  # round(27.08)
    assert picks.size == np.unique(picks).size
    assert np.all(np.diff(picks) > 0)  # sorted, no repeats


def test_sample_known_clamps_to_one_with_warning():
    """Clamped to one known node when the density rounds to none, and to
    all but one when it rounds to every node, so a test set remains."""
    for n, density, want in ((20, 0.01, 1), (3, 0.9, 2), (2, 0.8, 1)):
        with pytest.warns(UserWarning, match=f"clamping to {want}"):
            picks = sample_known(chain_graph(n), density, seed=0)
        assert picks.size == want


def test_sample_known_seeded_determinism():
    g = chain_graph(100)
    a = sample_known(g, 0.1, seed=np.random.SeedSequence((3, 0, 1, 0)))
    b = sample_known(g, 0.1, seed=np.random.SeedSequence((3, 0, 1, 0)))
    c = sample_known(g, 0.1, seed=np.random.SeedSequence((3, 0, 2, 0)))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_known_rejects_degenerate_density():
    g = chain_graph(10)
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            sample_known(g, bad, seed=0)


def test_stratified_folds_partition_the_known_set():
    rng = np.random.default_rng(0)
    known = np.arange(23)
    labels = np.array([0] * 13 + [1] * 10)
    folds = harness._stratified_folds(known, labels, 5, rng)
    merged = np.concatenate(folds)
    assert np.array_equal(np.sort(merged), known)
    sizes = sorted(f.size for f in folds)
    assert sizes[-1] - sizes[0] <= 1  # balanced


# ----------------------------------------------------------------- tuning


def test_cv_singleton_grids_short_circuit(monkeypatch):
    g = chain_graph(30, known={0: 0, 5: 1, 10: 0, 15: 1, 20: 0, 25: 1})

    def boom(*a, **k):
        raise AssertionError("no training should happen for singleton grids")

    monkeypatch.setattr(harness, "lr_train", boom)
    monkeypatch.setattr(harness, "ssl_learn", boom)
    sigma, alpha = cross_validate_hyperparams(g, (7.0,), (0.3,), folds=3, seed=0)
    assert (sigma, alpha) == (7.0, 0.3)


def test_cv_alpha_skipped_without_nb(monkeypatch):
    g = chain_graph(30, known={0: 0, 5: 1, 10: 0, 15: 1, 20: 0, 25: 1})

    def boom(*a, **k):
        raise AssertionError("no alpha probe without an alpha grid")

    monkeypatch.setattr(harness, "ssl_learn", boom)
    sigma, alpha = cross_validate_hyperparams(g, (1.0,), None, folds=3, seed=0)
    assert sigma == 1.0 and alpha is None


def test_cv_returns_values_from_the_grids(small_dataset):
    nodes, edges = small_dataset
    prepared = prepare_dataset(nodes, edges)
    g, truth = prepared.graph, prepared.truth
    picks = sample_known(g, 0.3, seed=1)
    tg = g.with_known_labels({int(i): int(truth[i]) for i in picks})
    sigma_grid, alpha_grid = (0.1, 1.0, 10.0), (0.5, 2.0)
    sigma, alpha = cross_validate_hyperparams(tg, sigma_grid, alpha_grid, folds=4, seed=2)
    assert sigma in sigma_grid
    assert alpha in alpha_grid


def test_cv_degenerate_folds_fall_back_to_midpoints():
    g = chain_graph(10, known={0: 0})  # one known node: every fold unusable
    with pytest.warns(UserWarning, match="midpoint"):
        sigma, alpha = cross_validate_hyperparams(
            g, (0.1, 1.0, 10.0), (0.5, 1.0), folds=3, seed=0
        )
    assert sigma == 1.0  # middle of the sorted grid
    assert alpha == 1.0
    with pytest.warns(UserWarning, match="midpoint"):
        assert cross_validate_hyperparams(g, (0.1, 1.0, 10.0), None, folds=3, seed=0) == (1.0, None)


@pytest.mark.parametrize("kinds", [("lr", "lr+nb"), ("lr+nb", "lr")], ids=["lr-first", "nb-first"])
def test_sigma_search_runs_once_per_trial(small_dataset, tmp_path, monkeypatch, kinds):
    """A grid that mixes NB and non-NB kinds shares one sigma^2 search per
    trial: one attribute-only fit per fold and grid value."""
    fits = []
    real = harness.lr_train

    def spy(features, labels, sigma_sq, **kwargs):
        fits.append(sigma_sq)
        return real(features, labels, sigma_sq, **kwargs)

    monkeypatch.setattr(harness, "lr_train", spy)
    config = tiny_config(
        small_dataset, tmp_path, trials=2, classifiers=kinds,
        sigma_grid=(0.1, 1.0), alpha_grid=(0.5, 2.0),
    )
    results = run_experiment(config)
    per_value = config.trials * config.cv_folds
    assert sorted(fits) == sorted(config.sigma_grid * per_value)
    for trial in range(config.trials):
        picked = {r.classifier: r for r in results if r.trial == trial}
        assert picked["lr"].sigma_sq == picked["lr+nb"].sigma_sq
        assert picked["lr"].nb_alpha is None and picked["lr+nb"].nb_alpha in (0.5, 2.0)


@pytest.mark.parametrize(
    "variants,kinds,calls,alpha_grid",
    [
        (("known-onepass", "attr-only"), ("lr", "lr+nb"), 2, (0.5, 2.0)),
        (("known-onepass", "attr-only"), ("lr+nb+reg", "lr"), 2, (0.5, 2.0)),
        (("known-onepass", "attr-only"), ("lr", "lr+lr+reg"), 2, None),
        (("relat-only",), ("lr", "lr+nb"), 0, None),
    ],
    ids=["lr-first", "nb-first", "nb-free", "relat-only-only"],
)
def test_one_tuning_call_per_trial(small_dataset, tmp_path, monkeypatch,
                                   variants, kinds, calls, alpha_grid):
    """Tuning depends on the kinds only through "does one have an NB
    member", so each trial makes one call, with an alpha grid only when it
    does, and none when no cell has a classifier."""
    seen = []
    real = harness.cross_validate_hyperparams

    def spy(graph, sigma_grid, alpha_grid, folds, seed, **kwargs):
        seen.append(alpha_grid)
        return real(graph, sigma_grid, alpha_grid, folds, seed, **kwargs)

    monkeypatch.setattr(harness, "cross_validate_hyperparams", spy)
    config = tiny_config(
        small_dataset, tmp_path, trials=2, variants=variants, classifiers=kinds,
        sigma_grid=(0.1, 1.0), alpha_grid=(0.5, 2.0),
    )
    results = run_experiment(config)
    assert seen == [alpha_grid] * calls
    assert all(r.status == "ok" for r in results)


def test_tuning_error_fails_every_classifier_cell_of_the_trial(small_dataset, tmp_path, monkeypatch):
    """One tuning call serves every kind, so an error in the alpha probe
    also fails the trial's cells whose kind has no NB member."""

    def broken(*a, **k):
        raise RuntimeError("alpha probe failed")

    monkeypatch.setattr(harness, "ssl_learn", broken)
    config = tiny_config(
        small_dataset, tmp_path, trials=2, variants=("attr-only", "relat-only"),
        classifiers=("lr", "lr+nb"), alpha_grid=(0.5, 2.0),
    )
    results = run_experiment(config)
    tuned = [r for r in results if r.variant != "relat-only"]
    assert len(tuned) == 4
    for r in tuned:
        assert (r.status, r.note, r.accuracy) == ("error", "RuntimeError: alpha probe failed", None)
        assert r.sigma_sq is None and r.nb_alpha is None
    relat = [r for r in results if r.variant == "relat-only"]
    assert len(relat) == 2 and all(r.status == "ok" and r.accuracy is not None for r in relat)


@pytest.mark.parametrize("stage", ["cross_validate_hyperparams", "fit_attribute_only"])
def test_failing_trial_setup_runs_once_per_trial(small_dataset, tmp_path, monkeypatch, stage):
    """Tuning and the attribute-only fit run once per trial, before its
    cells; an error in either fails every classifier cell of the trial with
    its note and is not retried, and relat-only cells still score."""
    calls = []

    def broken(*a, **k):
        calls.append(a)
        raise RuntimeError(f"{stage} failed")

    monkeypatch.setattr(harness, stage, broken)
    config = tiny_config(
        small_dataset, tmp_path, trials=2,
        variants=("known-onepass", "no-ssl", "attr-only", "relat-only"),
        classifiers=("lr", "lr+nb"),
    )
    results = run_experiment(config)
    assert len(calls) == config.trials
    classifier_cells = [r for r in results if r.variant != "relat-only"]
    assert len(classifier_cells) == 12
    for r in classifier_cells:
        assert (r.status, r.note, r.accuracy) == ("error", f"RuntimeError: {stage} failed", None)
    relat = [r for r in results if r.variant == "relat-only"]
    assert len(relat) == 2 and all(r.status == "ok" and r.accuracy is not None for r in relat)


def test_one_attribute_only_fit_per_trial(small_dataset, tmp_path, monkeypatch):
    """Every cell of a trial receives one attribute-only model fitted on the
    trial's known rows: attr-only, the no-ssl and known-* hybrids, and the
    start state of every learner. The alpha probe fits its own per fold,
    on fewer rows."""
    nodes, edges = small_dataset
    graph = prepare_dataset(nodes, edges).graph
    known_rows = (sample_known(graph, 0.1, 0).size, graph.attributes.shape[1])
    shapes = []
    real = learning.lr_train

    def spy(features, labels, sigma_sq, **kwargs):
        shapes.append(np.shape(features))
        return real(features, labels, sigma_sq, **kwargs)

    monkeypatch.setattr(learning, "lr_train", spy)
    config = tiny_config(
        small_dataset, tmp_path, trials=2,
        variants=("known-em", "no-ssl", "attr-only", "all-em"),
        classifiers=("lr+nb", "lr+lr", "lr", "lr+nb+reg"),
        sigma_grid=(0.1, 1.0), alpha_grid=(0.5, 2.0),
    )
    results = run_experiment(config)
    assert all(r.status == "ok" for r in results)
    assert shapes.count(known_rows) == config.trials


def test_pick_best_breaks_ties_toward_smaller_values():
    assert harness._pick_best((10.0, 0.1, 1.0), {0.1: 0.8, 1.0: 0.8, 10.0: 0.7}) == 0.1
    assert harness._grid_midpoint((10.0, 0.1, 1.0)) == 1.0


# -------------------------------------------------------------- statistics


def test_accuracy_counts_matches_only():
    state = LabelState.from_graph(chain_graph(4, known={0: 0, 1: 1, 2: 1}))
    truth = np.array([0, 0, 1, 1])
    assert accuracy(state, truth, np.array([0, 1, 2])) == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="empty"):
        accuracy(state, truth, np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="without an assigned label"):
        accuracy(state, truth, np.array([3]))


def test_paired_t_test_hand_oracle():
    b = np.zeros(5)
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    t, p, sig = paired_t_test(a, b)
    assert t == pytest.approx(4.242640687119285, abs=1e-12)
    assert p == pytest.approx(0.013235599563682695, abs=1e-12)
    assert sig


def test_paired_t_test_zero_variance_rules():
    same = np.array([0.5, 0.5, 0.5])
    t, p, sig = paired_t_test(same, same)
    assert (t, p, sig) == (0.0, 1.0, False)
    t, p, sig = paired_t_test(same + 0.1, same)
    assert t == math.inf and p == 0.0 and sig
    t, p, sig = paired_t_test(same - 0.1, same)
    assert t == -math.inf and sig


def test_t_test_p_value_is_scipy_stats_bit_for_bit():
    from scipy import stats

    ts = [0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 1.96, 2.5, 10.0, 1e3, 1e15, 1e300, math.inf]
    ts += np.random.default_rng(0).standard_normal(50).tolist()
    for t in ts:
        for df in range(1, 60):
            want = float(2.0 * stats.t.sf(abs(t), df))
            assert harness._two_sided_p(t, df) == want, (t, df)
            assert harness._two_sided_p(-t, df) == want, (-t, df)

    rng = np.random.default_rng(1)
    for n in (2, 3, 5, 15, 40):
        a, b = rng.random(n), rng.random(n)
        t, p, _ = paired_t_test(a, b)
        assert p == float(2.0 * stats.t.sf(abs(t), n - 1))


def test_paired_t_test_input_validation():
    with pytest.raises(ValueError):
        paired_t_test(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        paired_t_test(np.array([1.0, 2.0]), np.array([1.0]))


def test_degenerate_flag_requires_both_conditions():
    n = 20
    labels = np.zeros(n, dtype=np.int64)
    state = LabelState.from_graph(chain_graph(n))
    state.set_predicted(labels)
    nodes = np.arange(n)
    # piled onto class 0 while the target calls class 0 a minority
    assert degenerate_flag(state, nodes, np.array([0.3, 0.7]))
    # same pile but the target agrees class 0 dominates: not degenerate
    assert not degenerate_flag(state, nodes, np.array([0.8, 0.2]))
    mixed = labels.copy()
    mixed[: n // 2] = 1
    state2 = LabelState.from_graph(chain_graph(n))
    state2.set_predicted(mixed)
    assert not degenerate_flag(state2, nodes, np.array([0.3, 0.7]))
    # both bounds are strict: a target of exactly 0.5 is not a minority,
    # and a share of exactly 0.9 is not a pile
    assert not degenerate_flag(state, nodes, np.array([0.5, 0.5]))
    for top, flagged in ((900, False), (901, True)):
        piled = LabelState.from_graph(chain_graph(1000))
        piled.set_predicted(np.repeat([0, 1], [top, 1000 - top]))
        assert degenerate_flag(piled, np.arange(1000), np.array([0.3, 0.7])) is flagged


# ------------------------------------------------------------- experiment


def test_run_experiment_produces_full_grid(small_dataset, tmp_path):
    cfg = tiny_config(small_dataset, tmp_path)
    results = run_experiment(cfg)
    assert len(results) == 1 * 3 * 2  # densities x trials x combos
    assert all(r.status == "ok" for r in results)
    assert os.path.exists(os.path.join(cfg.output_dir, "trials.csv"))
    assert os.path.exists(os.path.join(cfg.output_dir, "summary.csv"))
    # report order: combo-major, trial-minor
    assert [(r.variant, r.trial) for r in results] == [
        ("known-onepass", 0), ("known-onepass", 1), ("known-onepass", 2),
        ("attr-only", 0), ("attr-only", 1), ("attr-only", 2),
    ]


def test_run_experiment_pairs_the_known_sample(small_dataset, tmp_path, monkeypatch):
    """Every cell of a trial runs on the known set its trial drew, and each
    trial draws a different one."""
    samples, cells = [], []
    real_sample, real_cell = harness.sample_known, harness._run_cell

    def sample(*args, **kwargs):
        samples.append(real_sample(*args, **kwargs))
        return samples[-1]

    def cell(variant, spec, attr_model, trial_graph, *args):
        cells.append((len(samples) - 1, trial_graph.known_nodes))
        return real_cell(variant, spec, attr_model, trial_graph, *args)

    monkeypatch.setattr(harness, "sample_known", sample)
    monkeypatch.setattr(harness, "_run_cell", cell)
    cfg = tiny_config(small_dataset, tmp_path)
    results = run_experiment(cfg)
    assert len(cells) == len(results) == 6
    for trial, known in cells:
        assert np.array_equal(known, samples[trial])  # the trial's own sample
    assert sorted(trial for trial, _ in cells) == [0, 0, 1, 1, 2, 2]
    assert len({s.tobytes() for s in samples}) == 3  # and trials drew different ones


def test_run_experiment_is_byte_deterministic(small_dataset, tmp_path):
    cfg_a = tiny_config(small_dataset, tmp_path, output_dir=str(tmp_path / "a"))
    cfg_b = tiny_config(small_dataset, tmp_path, output_dir=str(tmp_path / "b"))
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    for name in ("trials.csv", "summary.csv"):
        a = open(os.path.join(cfg_a.output_dir, name), "rb").read()
        b = open(os.path.join(cfg_b.output_dir, name), "rb").read()
        assert a == b


def test_run_experiment_records_tuned_hyperparams(small_dataset, tmp_path):
    cfg = tiny_config(
        small_dataset, tmp_path,
        variants=("known-onepass",), classifiers=("lr+nb",),
        sigma_grid=(0.1, 1.0), alpha_grid=(0.5, 2.0), trials=2,
    )
    results = run_experiment(cfg)
    for r in results:
        assert r.sigma_sq in cfg.sigma_grid
        assert r.nb_alpha in cfg.alpha_grid


def test_run_experiment_isolates_cell_failures(small_dataset, tmp_path, monkeypatch):
    real = harness._run_cell

    def flaky(variant, *args):
        if variant == "known-onepass":
            raise RuntimeError("injected\nfailure")
        return real(variant, *args)

    monkeypatch.setattr(harness, "_run_cell", flaky)
    cfg = tiny_config(small_dataset, tmp_path)
    results = run_experiment(cfg)
    broken = [r for r in results if r.variant == "known-onepass"]
    fine = [r for r in results if r.variant == "attr-only"]
    assert all(r.status == "error" and r.accuracy is None for r in broken)
    assert all(r.note == "RuntimeError: injected failure" for r in broken)  # sanitized
    assert all(r.status == "ok" for r in fine)


def test_relational_only_ignores_classifier_grid(small_dataset, tmp_path):
    cfg = tiny_config(
        small_dataset, tmp_path,
        variants=("relat-only", "attr-only"), classifiers=("lr", "lr+nb"),
        trials=2,
    )
    results = run_experiment(cfg)
    relat = [r for r in results if r.variant == "relat-only"]
    assert len(relat) == 2  # one per trial, not one per classifier
    assert all(r.classifier == "wvrn" for r in relat)
    assert all(r.sigma_sq is None and r.nb_alpha is None for r in relat)


def test_summary_means_are_arithmetic_means(small_dataset, tmp_path):
    cfg = tiny_config(small_dataset, tmp_path)
    results = run_experiment(cfg)
    rows = summarize(results, cfg)
    for row in rows:
        cell = [
            r.accuracy for r in results
            if (r.variant, r.classifier) == (row.variant, row.classifier)
            and r.status == "ok"
        ]
        assert row.means[0.1] == pytest.approx(float(np.mean(cell)), abs=1e-15)


def test_summary_marks_reference_and_differences():
    """Constant nonzero differences from the reference are significant by
    construction in ``paired_t_test`` (signed inf, p = 0), so they mark
    ``+`` above it and ``*`` below it; no difference leaves the mark blank.
    Accuracies are dyadic so every difference is exactly 0.125 or 0."""
    cfg = ExperimentConfig(
        nodes_path="n", edges_path="e", densities=(0.1,), trials=3,
        variants=("all-em", "attr-only", "no-ssl", "known-em"), classifiers=("lr",),
    )
    shift = {"all-em": 0.0, "attr-only": 0.125, "no-ssl": -0.125, "known-em": 0.0}
    results = [
        TrialResult(density=0.1, trial=t, variant=v, classifier="lr",
                    accuracy=base + shift[v], sigma_sq=1.0, nb_alpha=None, degenerate=False)
        for v in cfg.variants
        for t, base in enumerate((0.5, 0.625, 0.75))
    ]
    rows = summarize(results, cfg)
    assert [row.marks[0.1] for row in rows] == ["ref", "+", "*", ""]
    assert rows[1].means[0.1] == 0.75 and rows[2].means[0.1] == 0.5


def test_trials_csv_layout(small_dataset, tmp_path):
    cfg = tiny_config(small_dataset, tmp_path, trials=1)
    run_experiment(cfg)
    lines = open(os.path.join(cfg.output_dir, "trials.csv")).read().splitlines()
    assert lines[0] == "density,trial,variant,classifier,accuracy,sigma_sq,nb_alpha,degenerate,status,note"
    first = lines[1].split(",")
    assert first[0] == "0.1"
    assert first[2] == "known-onepass"
    assert len(first[4].split(".")[1]) == 4  # accuracy printed to 4 decimals
    assert first[8] == "ok"


def test_summary_csv_notes_significance_caveats(small_dataset, tmp_path):
    cfg = tiny_config(small_dataset, tmp_path)
    run_experiment(cfg)
    text = open(os.path.join(cfg.output_dir, "summary.csv")).read()
    assert text.splitlines()[0] == "variant,classifier,mean_0.1,sig_0.1"
    assert "# significance: paired t-test" in text
    assert "no correction for network dependence" in text


def test_summary_csv_single_trial_skips_significance(small_dataset, tmp_path):
    cfg = tiny_config(small_dataset, tmp_path, trials=1)
    run_experiment(cfg)
    text = open(os.path.join(cfg.output_dir, "summary.csv")).read()
    assert "insufficient trials" in text
    assert "paired t-test against" not in text
