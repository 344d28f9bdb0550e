"""Experiment orchestration: trials, tuning, significance, reports.

One experiment fixes a dataset and a list of (variant, classifier) cells,
then repeats per label density: each trial samples the known-node set once
and reuses it for every cell, so per-trial accuracies are paired across
cells and paired t-tests apply. Hyperparameters are chosen once per trial
by cross-validation over the known nodes only, and shared by every
classifier kind; held-out fold nodes join the unlabeled pool during
tuning, never the training side.

Reports are two CSV files. ``trials.csv`` has one row per (density, trial,
variant, classifier) with the measured accuracy and diagnostics.
``summary.csv`` has one row per (variant, classifier) with mean accuracy
per density and a significance mark against the first row. Both are
byte-deterministic for a fixed config and master seed.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from scipy import special

from ._rows import row_argmax
from .graph import DataGraph, LabelState, class_prior
from .inference import wvrn_rl
from .classifiers import lr_predict_proba, lr_train
from .data import prepare_dataset
from .learning import (
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

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialResult",
    "SummaryRow",
    "parse_config_file",
    "sample_known",
    "cross_validate_hyperparams",
    "accuracy",
    "paired_t_test",
    "degenerate_flag",
    "run_experiment",
    "summarize",
    "write_trials_csv",
    "write_summary_csv",
]

BASELINE_NAMES = ("no-ssl", "attr-only", "relat-only")
VALID_VARIANTS = SSL_VARIANT_NAMES + BASELINE_NAMES

TRIALS_HEADER = (
    "density", "trial", "variant", "classifier", "accuracy",
    "sigma_sq", "nb_alpha", "degenerate", "status", "note",
)


class ConfigError(ValueError):
    """Experiment configuration is invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    ``variants`` mixes the four semi-supervised settings with the baseline
    names ``no-ssl``, ``attr-only``, and ``relat-only``; ``classifiers``
    lists node-classifier kinds, crossed with every variant except
    ``relat-only`` (which has no classifier to configure). Row and column
    order in the reports follows the order given here, and the first
    (variant, classifier) cell is the reference for significance marks.
    """

    nodes_path: str
    edges_path: str
    densities: tuple[float, ...] = (0.01, 0.03, 0.05, 0.09)
    trials: int = 15
    variants: tuple[str, ...] = ("all-em", "attr-only")
    classifiers: tuple[str, ...] = ("lr+nb+reg",)
    master_seed: int = 0
    cv_folds: int = 5
    sigma_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    alpha_grid: tuple[float, ...] = (0.1, 1.0, 10.0)
    pca_components: int = 0
    normalization: str = "zscore"
    ica_iterations: int = 10
    em_iterations: int = 10
    output_dir: str = "reports"
    significance_level: float = 0.05

    def __post_init__(self):
        if not self.nodes_path or not self.edges_path:
            raise ConfigError("nodes_path and edges_path are required")
        if not self.densities:
            raise ConfigError("densities must be non-empty")
        for d in self.densities:
            if not 0.0 < d < 1.0:
                raise ConfigError(f"density {d} outside (0, 1)")
        # the reports print densities with :g, so compare them as written
        if len({f"{d:g}" for d in self.densities}) != len(self.densities):
            raise ConfigError("densities contains duplicates as the reports write them (:g)")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.variants:
            raise ConfigError("variants must be non-empty")
        for v in self.variants:
            if v not in VALID_VARIANTS:
                raise ConfigError(
                    f"unknown variant {v!r}; valid: {', '.join(VALID_VARIANTS)}"
                )
        if len(set(self.variants)) != len(self.variants):
            raise ConfigError("variants contains duplicates")
        if not self.classifiers:
            raise ConfigError("classifiers must be non-empty")
        for kind in self.classifiers:
            if kind not in CLASSIFIER_KINDS:
                raise ConfigError(
                    f"unknown classifier {kind!r}; valid: {', '.join(CLASSIFIER_KINDS)}"
                )
        if len(set(self.classifiers)) != len(self.classifiers):
            raise ConfigError("classifiers contains duplicates")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be >= 2")
        for name, grid in (("sigma_grid", self.sigma_grid), ("alpha_grid", self.alpha_grid)):
            if not grid or not all(0 < g < math.inf for g in grid):
                raise ConfigError(f"{name} must be non-empty with positive finite entries")
        if self.pca_components < 0:
            raise ConfigError("pca_components must be >= 0")
        if self.normalization not in ("zscore", "minmax", "none"):
            raise ConfigError("normalization must be zscore, minmax, or none")
        if self.ica_iterations < 1 or self.em_iterations < 1:
            raise ConfigError("iteration counts must be >= 1")
        if not 0.0 < self.significance_level < 1.0:
            raise ConfigError("significance_level must be in (0, 1)")


def _value_parser(f):
    """How a config file value is read for field ``f``: as its default's
    type, as a comma list of its element type when that is a tuple, and as a
    string for the required paths, which have no default."""
    if f.default is MISSING:
        return str
    if isinstance(f.default, tuple):
        element = type(f.default[0])
        return lambda raw: tuple(element(p.strip()) for p in raw.split(",") if p.strip())
    return type(f.default)


def parse_config_file(path) -> ExperimentConfig:
    """Read a ``key = value`` text file into an ExperimentConfig.

    Keys are exactly the config field names, and each value is parsed by
    the type of its field's default (see ``_value_parser``). List values
    are comma-separated. Blank lines, ``#`` comment lines and a leading
    UTF-8 byte-order mark are ignored.
    Unknown or repeated keys, unparsable values, and missing required paths
    raise ``ConfigError`` naming the line.
    """
    parsers = {f.name: _value_parser(f) for f in fields(ExperimentConfig)}
    values = {}
    try:
        handle = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    with handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in parsers:
                raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"{path}: line {lineno}: repeated config key {key!r}")
            try:
                values[key] = parsers[key](raw)
            except ValueError:
                raise ConfigError(
                    f"{path}: line {lineno}: cannot parse value for {key!r}: {raw!r}"
                ) from None
    if "nodes_path" not in values or "edges_path" not in values:
        raise ConfigError(f"{path}: nodes_path and edges_path are required")
    return ExperimentConfig(**values)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one (density, trial, variant, classifier) cell."""

    density: float
    trial: int
    variant: str
    classifier: str
    accuracy: float | None
    sigma_sq: float | None
    nb_alpha: float | None
    degenerate: bool
    status: str = "ok"
    note: str = ""


@dataclass(frozen=True)
class SummaryRow:
    """One aggregated report row: per-density means and significance marks."""

    variant: str
    classifier: str
    means: dict[float, float | None] = field(default_factory=dict)
    marks: dict[float, str] = field(default_factory=dict)


def sample_known(graph: DataGraph, density: float, seed) -> np.ndarray:
    """Draw round(density * nodes) known nodes uniformly, sorted.

    Deterministic for a fixed seed. A density that rounds to zero nodes is
    clamped to one, and one that rounds to every node is clamped to all
    but one, so that the test set is never empty; both warn.
    """
    if not 0.0 < density < 1.0:
        raise ValueError("density must be strictly between 0 and 1")
    n = graph.node_count
    rounded = int(round(density * n))
    size = min(max(rounded, 1), n - 1)
    if size != rounded:
        warnings.warn(
            f"density {density} rounds to {rounded} known nodes on {n}; clamping to {size}",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=size, replace=False)).astype(np.int64)


def _stratified_folds(known_nodes, known_labels, folds, rng):
    """Deal known nodes into folds round-robin, class by class.

    Within each class the members are shuffled, then dealt in order; the
    dealing position carries across classes so fold sizes stay balanced.
    Classes with fewer members than folds are spread as far as they go.
    """
    assignments: list[list[int]] = [[] for _ in range(folds)]
    pos = 0
    for c in np.unique(known_labels):
        members = rng.permutation(known_nodes[known_labels == c])
        for m in members:
            assignments[pos % folds].append(int(m))
            pos += 1
    return [np.array(sorted(a), dtype=np.int64) for a in assignments]


def _grid_midpoint(grid):
    ordered = sorted(grid)
    return ordered[len(ordered) // 2]


def _pick_best(grid, scores):
    """Smallest grid value achieving the top score."""
    best_value, best_score = None, -1.0
    for value in sorted(grid):
        if scores[value] > best_score:
            best_value, best_score = value, scores[value]
    return best_value


def cross_validate_hyperparams(graph: DataGraph, sigma_grid, alpha_grid, folds, seed,
                               ica_iterations: int = 10):
    """Pick a trial's (sigma_sq, nb_alpha) by stratified CV over the known nodes.

    A trial has one tuning problem whatever its classifier kinds. The prior
    variance is scored first with an attribute-only model (relational
    features and smoothing play no part), so every kind shares it. Then,
    unless ``alpha_grid`` is None (no configured kind has a Naive Bayes
    member), the smoothing is scored with that variance fixed, by running
    ``lr+nb`` known-onepass on each fold and scoring the held-out nodes;
    each fold's attribute-only model is fitted once and shared by every
    alpha. The probe has no label regularization, so ``lr+nb+reg`` shares
    the answer too. Held-out nodes are unlabeled during tuning, so tuning
    sees exactly the information a trial would. A one-value grid is
    returned without a search. Ties go to the smaller grid value; if no fold is
    usable both answers fall back to the grid midpoint with a warning.
    Returns (sigma_sq, nb_alpha), the latter None when ``alpha_grid`` is.
    """
    known = graph.known_nodes
    if known.size == 0:
        raise ValueError("cross-validation requires known labels")
    labels = LabelState.from_graph(graph).labels
    rng = np.random.default_rng(seed)
    fold_sets = _stratified_folds(known, labels[known], folds, rng)

    usable = []
    for held_out in fold_sets:
        train = np.setdiff1d(known, held_out)
        if held_out.size and train.size:
            usable.append((train, held_out))
    if not usable:
        warnings.warn(
            "no usable cross-validation fold; falling back to grid midpoints",
            stacklevel=2,
        )
        sigma = _grid_midpoint(sigma_grid)
        return sigma, (None if alpha_grid is None else _grid_midpoint(alpha_grid))

    attrs = graph.attributes
    if len(set(sigma_grid)) == 1:
        sigma = sigma_grid[0]
    else:
        hits = dict.fromkeys(sigma_grid, 0)
        for train, held_out in usable:
            for s in sigma_grid:
                model = lr_train(attrs[train], labels[train], s, n_classes=graph.n_classes)
                pred = row_argmax(lr_predict_proba(model, attrs[held_out]))
                hits[s] += int(np.sum(pred == labels[held_out]))
        sigma = _pick_best(sigma_grid, hits)

    if alpha_grid is None:
        return sigma, None
    if len(set(alpha_grid)) == 1:
        return sigma, alpha_grid[0]

    probe = SslVariant(learn_from_all=False, n_iterations=1)
    hits = dict.fromkeys(alpha_grid, 0)
    for train, held_out in usable:
        fold_graph = graph.with_known_labels(zip(train.tolist(), labels[train].tolist()))
        attr_model = fit_attribute_only(fold_graph, sigma)
        for a in alpha_grid:
            state = ssl_learn(
                fold_graph, probe, ClassifierSpec("lr+nb", nb_alpha=a), attr_model,
                ica_iterations=ica_iterations,
            )
            hits[a] += int(np.sum(state.labels[held_out] == labels[held_out]))
    return sigma, _pick_best(alpha_grid, hits)


def accuracy(state: LabelState, truth, test_nodes) -> float:
    """Fraction of test nodes whose assigned label matches the truth."""
    test_nodes = np.asarray(test_nodes, dtype=np.int64)
    if test_nodes.size == 0:
        raise ValueError("test set is empty")
    predicted = state.labels[test_nodes]
    if predicted.min() < 0:
        raise ValueError("test node without an assigned label")
    truth = np.asarray(truth, dtype=np.int64)
    return float(np.mean(predicted == truth[test_nodes]))


def paired_t_test(a, b, level=0.05):
    """Two-sided paired t-test; returns (t, p, significant).

    ``p`` is ``2 * scipy.stats.t.sf(|t|, n - 1)`` bit for bit, computed
    through ``scipy.special`` (see ``_two_sided_p``) so that importing this
    module does not load ``scipy.stats``. Edge rules for zero-variance
    differences: all-zero differences give (0.0, 1.0, False); constant
    nonzero differences are reported significant by construction as
    (signed inf, 0.0, True), since every pair moved the same direction by
    the same amount.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-D of equal length")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0, False
        return math.copysign(math.inf, mean), 0.0, True
    t = mean / (sd / math.sqrt(n))
    p = _two_sided_p(t, n - 1)
    return t, p, p < level


def _two_sided_p(t, df) -> float:
    """``2 * P(T > |t|)`` for Student's t with ``df`` degrees of freedom.

    This is the expression ``scipy.stats.t.sf`` evaluates, taken from
    ``scipy.special``, which ``scipy.optimize`` already loads: importing
    ``scipy.stats`` would add about 0.5 s to every process's start-up.
    """
    return float(2.0 * special.stdtr(df, -abs(t)))


def degenerate_flag(state: LabelState, test_nodes, target) -> bool:
    """Did predictions pile onto one class the target says is a minority?

    True when a single class takes more than 0.9 of the test-node
    predictions while ``target`` gives it less than 0.5. Both bounds are
    strict: a share of exactly 0.9, or a target of exactly 0.5, is not
    flagged.
    """
    test_nodes = np.asarray(test_nodes, dtype=np.int64)
    if test_nodes.size == 0:
        return False
    target = np.asarray(target, dtype=float)
    counts = np.bincount(state.labels[test_nodes], minlength=state.n_classes)
    top = int(np.argmax(counts))
    share = counts[top] / test_nodes.size
    return bool(share > 0.9 and target[top] < 0.5)


def _combos(config: ExperimentConfig):
    out = []
    for variant in config.variants:
        if variant == "relat-only":
            out.append((variant, "wvrn"))
        else:
            for kind in config.classifiers:
                out.append((variant, kind))
    return out


def _sanitize_note(text: str) -> str:
    return " ".join(str(text).split())


def _run_cell(variant, spec, attr_model, trial_graph, ica_iterations, em_iterations):
    if variant == "attr-only":
        return attr_only(trial_graph, attr_model)
    if variant == "no-ssl":
        return no_ssl(trial_graph, spec, attr_model, ica_iterations=ica_iterations)
    return ssl_learn(
        trial_graph, variant_from_name(variant, em_iterations), spec, attr_model,
        ica_iterations=ica_iterations,
    )


def run_experiment(config: ExperimentConfig, progress=None) -> list[TrialResult]:
    """Execute the full trial grid and write both CSV reports.

    Within each (density, trial) cell the known set is sampled once and
    shared by every (variant, classifier) pair. Before its cells, a trial
    with any classifier cell is tuned by one ``cross_validate_hyperparams``
    call, and its attribute-only model is fitted once at the tuned prior
    variance (``fit_attribute_only``): every kind gets that variance and
    that model, and kinds with an NB member also get the smoothing, which
    is searched only when some configured kind has one (the others report
    a blank ``nb_alpha``). A failing cell records an error row; the run
    continues. An error in tuning or in the attribute-only fit fails every
    classifier cell of its trial with that note. ``config.output_dir`` is
    created before the first trial, and ``ConfigError`` is raised if it
    cannot be. Returns the results in report order after writing
    ``trials.csv`` and ``summary.csv`` there.
    """
    dataset = prepare_dataset(
        config.nodes_path, config.edges_path,
        pca_components=config.pca_components,
        normalization=config.normalization,
    )
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {config.output_dir}: {exc}") from None
    graph, truth = dataset.graph, dataset.truth
    combos = _combos(config)
    nb_kinds = {kind for kind in config.classifiers if ClassifierSpec(kind).uses_nb}
    any_classifier = any(variant != "relat-only" for variant in config.variants)

    results: list[TrialResult] = []
    for d_idx, density in enumerate(config.densities):
        for trial in range(config.trials):
            sample_seed = np.random.SeedSequence((config.master_seed, d_idx, trial, 0))
            known_nodes = sample_known(graph, density, sample_seed)
            trial_graph = graph.with_known_labels(
                {int(i): int(truth[i]) for i in known_nodes}
            )
            unknown = trial_graph.unknown_nodes
            target = class_prior(trial_graph)

            cv_seed = np.random.SeedSequence((config.master_seed, d_idx, trial, 1))
            tuned = failure = None
            if any_classifier:
                try:
                    sigma, alpha = cross_validate_hyperparams(
                        trial_graph, config.sigma_grid,
                        config.alpha_grid if nb_kinds else None,
                        config.cv_folds, cv_seed, ica_iterations=config.ica_iterations,
                    )
                    tuned = sigma, alpha, fit_attribute_only(trial_graph, sigma)
                except Exception as exc:  # noqa: BLE001 - trial isolation
                    failure = exc
            for variant, kind in combos:
                sigma = alpha = None
                try:
                    if variant == "relat-only":
                        state = wvrn_rl(trial_graph)
                    else:
                        if failure is not None:
                            raise failure
                        sigma, alpha, attr_model = tuned
                        if kind in nb_kinds:
                            spec = ClassifierSpec(kind, nb_alpha=alpha)
                        else:
                            spec, alpha = ClassifierSpec(kind), None
                        state = _run_cell(
                            variant, spec, attr_model, trial_graph, config.ica_iterations,
                            config.em_iterations,
                        )
                    acc = accuracy(state, truth, unknown)
                    degenerate = degenerate_flag(state, unknown, target)
                    status, note = "ok", ""
                except Exception as exc:  # noqa: BLE001 - trial isolation
                    acc, degenerate = None, False
                    status = "error"
                    note = _sanitize_note(f"{type(exc).__name__}: {exc}")
                results.append(TrialResult(
                    density=density, trial=trial, variant=variant,
                    classifier=kind, accuracy=acc, sigma_sq=sigma,
                    nb_alpha=alpha, degenerate=degenerate, status=status,
                    note=note,
                ))
                if progress is not None:
                    shown = "error" if acc is None else f"{acc:.4f}"
                    progress(
                        f"density {density:g} trial {trial} "
                        f"{variant}/{kind}: {shown}"
                    )

    order = {combo: i for i, combo in enumerate(combos)}
    results.sort(key=lambda r: (
        config.densities.index(r.density), order[(r.variant, r.classifier)], r.trial,
    ))

    write_trials_csv(results, os.path.join(config.output_dir, "trials.csv"))
    rows = summarize(results, config)
    write_summary_csv(
        rows, config, os.path.join(config.output_dir, "summary.csv"),
    )
    return results


def summarize(results, config: ExperimentConfig) -> list[SummaryRow]:
    """Aggregate per-trial results into mean accuracy and marks per density.

    The first (variant, classifier) cell is the reference: every other
    row's accuracies are paired against it per density, and its own mark
    cell reads ``ref``. ``+`` flags significantly better than the
    reference, ``*`` significantly worse; blank means no significant
    difference or no usable test (fewer than 2 common successful trials).
    """
    combos = _combos(config)
    by_cell: dict[tuple, dict[int, float]] = {}
    for r in results:
        if r.status == "ok":
            by_cell.setdefault((r.density, r.variant, r.classifier), {})[r.trial] = r.accuracy

    reference = combos[0]
    rows = []
    for variant, kind in combos:
        means: dict[float, float | None] = {}
        marks: dict[float, str] = {}
        for density in config.densities:
            cell = by_cell.get((density, variant, kind), {})
            means[density] = (
                float(np.mean(list(cell.values()))) if cell else None
            )
            if (variant, kind) == reference:
                marks[density] = "ref" if config.trials >= 2 else ""
                continue
            ref_cell = by_cell.get((density, *reference), {})
            common = sorted(set(cell) & set(ref_cell))
            if len(common) < 2:
                marks[density] = ""
                continue
            mine = np.array([cell[t] for t in common])
            theirs = np.array([ref_cell[t] for t in common])
            _, _, significant = paired_t_test(mine, theirs, config.significance_level)
            if not significant:
                marks[density] = ""
            else:
                marks[density] = "+" if mine.mean() > theirs.mean() else "*"
        rows.append(SummaryRow(variant=variant, classifier=kind, means=means, marks=marks))
    return rows


def _fmt(value):
    return "" if value is None else "%.4f" % value


def write_trials_csv(results, path) -> None:
    """One row per trial result, fixed header, 4-decimal accuracy."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRIALS_HEADER)
        for r in results:
            writer.writerow([
                f"{r.density:g}",
                r.trial,
                r.variant,
                r.classifier,
                _fmt(r.accuracy),
                "" if r.sigma_sq is None else f"{r.sigma_sq:g}",
                "" if r.nb_alpha is None else f"{r.nb_alpha:g}",
                int(r.degenerate),
                r.status,
                r.note,
            ])


def write_summary_csv(rows, config: ExperimentConfig, path) -> None:
    """Aggregated variant x density table with significance marks.

    Trailing ``#`` comment lines document the marks; when fewer than 2
    trials ran, they note that significance testing was skipped.
    """
    header = ["variant", "classifier"]
    for density in config.densities:
        header += [f"mean_{density:g}", f"sig_{density:g}"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            record = [row.variant, row.classifier]
            for density in config.densities:
                record += [_fmt(row.means[density]), row.marks[density]]
            writer.writerow(record)
        if config.trials < 2:
            handle.write("# significance: skipped, insufficient trials (need >= 2)\n")
        else:
            handle.write(
                "# significance: paired t-test against the first row at level "
                f"{config.significance_level:g}; '+' better, '*' worse\n"
            )
            handle.write(
                "# no correction for network dependence between trials; "
                "marks may overstate significance\n"
            )
