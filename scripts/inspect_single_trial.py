#!/usr/bin/env python3
"""Dissect one trial: per-variant accuracy, training sizes, and collapse flags.

Loads a dataset, reveals one seeded known-label sample at the requested
density, then runs every learning variant with one classifier kind and
prints what the harness would record, plus the training-set size of each
refit actually run (EM stops at the first repeated labeling, so a variant
may list fewer sizes than its iteration budget). Handy when a summary
number looks off and you want to see the moving parts of a single cell.

    python3 scripts/inspect_single_trial.py \
        --nodes runs/sweep/nodes.tsv --edges runs/sweep/edges.tsv \
        --density 0.03 --classifier lr+nb+reg
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from hybridcc import (
    ClassifierSpec,
    accuracy,
    attr_only,
    class_prior,
    degenerate_flag,
    fit_attribute_only,
    no_ssl,
    prepare_dataset,
    sample_known,
    ssl_learn,
    variant_from_name,
    wvrn_rl,
)
from hybridcc.learning import CLASSIFIER_KINDS, SSL_VARIANT_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", required=True)
    parser.add_argument("--edges", required=True)
    parser.add_argument("--density", type=float, default=0.03)
    parser.add_argument("--classifier", default="lr+nb+reg", choices=CLASSIFIER_KINDS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pca-components", type=int, default=0)
    args = parser.parse_args()

    prepared = prepare_dataset(
        args.nodes, args.edges, pca_components=args.pca_components
    )
    graph, truth = prepared.graph, prepared.truth
    known = sample_known(
        graph, args.density, np.random.SeedSequence((args.seed, 0, 0, 0))
    )
    tg = graph.with_known_labels({int(i): int(truth[i]) for i in known})
    unknown = tg.unknown_nodes
    target = class_prior(tg)

    print(f"{graph.node_count} nodes, {known.size} known ({args.density:g}), "
          f"{len(prepared.label_domain)} classes, classifier {args.classifier}")
    print(f"smoothed known-label distribution: "
          f"{np.array2string(target, precision=3)}\n")

    spec = ClassifierSpec(args.classifier)
    attr_model = fit_attribute_only(tg, spec.sigma_sq)
    header = f"{'variant':<16}{'accuracy':>9}  {'collapse':<9}train size per fit run"
    print(header)
    for name in SSL_VARIANT_NAMES:
        diag = {}
        state = ssl_learn(tg, variant_from_name(name), spec, attr_model, diagnostics=diag)
        flag = degenerate_flag(state, unknown, target)
        sizes = diag.get("train_sizes", [])
        print(f"{name:<16}{accuracy(state, truth, unknown):>9.4f}  "
              f"{'yes' if flag else 'no':<9}{sizes}")

    diag = {}
    state = no_ssl(tg, spec, attr_model, diagnostics=diag)
    print(f"{'no-ssl':<16}{accuracy(state, truth, unknown):>9.4f}  "
          f"{'yes' if degenerate_flag(state, unknown, target) else 'no':<9}"
          f"{diag.get('train_sizes', [])}")
    state = attr_only(tg, attr_model)
    print(f"{'attr-only':<16}{accuracy(state, truth, unknown):>9.4f}  "
          f"{'yes' if degenerate_flag(state, unknown, target) else 'no':<9}[]")
    state = wvrn_rl(tg)
    print(f"{'relat-only':<16}{accuracy(state, truth, unknown):>9.4f}  "
          f"{'yes' if degenerate_flag(state, unknown, target) else 'no':<9}[]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
