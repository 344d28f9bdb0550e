"""Semi-supervised collective classification on a partially labeled graph.

The package splits into layers: ``graph`` holds the data model and
relational features; ``classifiers`` the probabilistic models (logistic
regression, plain and label-regularized; Naive Bayes over neighbor
labels; the product-rule hybrid); ``inference`` the collective inference
loops; ``learning`` the semi-supervised training variants and baselines;
``data`` file loading and preprocessing; ``synthetic`` graph generation;
``harness`` the multi-trial experiment runner behind the ``hybridcc``
command-line tool in ``cli``.
"""

import os

# One BLAS thread unless the caller set a count: on this package's small
# matrices the thread pools of numpy's and scipy's bundled OpenBLAS only
# contend. Takes effect only if numpy is not imported yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .graph import (
    DataGraph,
    LabelState,
    class_prior,
    compute_multiset_features,
    compute_proportion_features,
)
from .classifiers import (
    ConcatLRModel,
    ConvergenceWarning,
    HybridModel,
    LabelRegConfig,
    LRModel,
    NBRelationalModel,
    hybrid_combine,
    kl_penalty,
    lr_predict_proba,
    lr_train,
    lr_train_label_reg,
    nb_relational_predict,
    nb_relational_train,
)
from .inference import ica, wvrn_rl
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
from .data import (
    DataError,
    PreparedDataset,
    RawDataset,
    assemble_dataset,
    binarize_categorical,
    load_dataset,
    normalize_features,
    pca_fit_transform,
    prepare_dataset,
    remove_isolated,
)
from .synthetic import SyntheticDataset, generate_dataset, synthetic_graph, write_dataset
from .harness import (
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

__version__ = "0.1.0"

__all__ = [
    "DataGraph", "LabelState", "class_prior", "compute_multiset_features",
    "compute_proportion_features",
    "LRModel", "NBRelationalModel", "HybridModel", "ConcatLRModel",
    "LabelRegConfig", "ConvergenceWarning", "lr_train", "lr_predict_proba",
    "nb_relational_train", "nb_relational_predict", "hybrid_combine",
    "kl_penalty", "lr_train_label_reg",
    "ica", "wvrn_rl",
    "SslVariant", "ClassifierSpec", "SSL_VARIANT_NAMES",
    "CLASSIFIER_KINDS", "variant_from_name", "fit_attribute_only", "ssl_learn",
    "no_ssl", "attr_only",
    "DataError", "RawDataset", "PreparedDataset",
    "load_dataset", "remove_isolated", "binarize_categorical",
    "pca_fit_transform", "normalize_features", "prepare_dataset",
    "SyntheticDataset", "generate_dataset", "synthetic_graph", "write_dataset",
    "ConfigError", "ExperimentConfig", "TrialResult", "parse_config_file",
    "sample_known", "cross_validate_hyperparams", "accuracy", "paired_t_test",
    "degenerate_flag", "run_experiment", "summarize",
    "__version__",
]
