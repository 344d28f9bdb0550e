"""Command-line front end.

Three subcommands: ``run`` executes a configured experiment and writes the
CSV reports, ``validate`` prepares a dataset pair as ``run`` does and
reports its size without running anything, and ``gen-synthetic`` writes a
generated dataset in the loader's format.

Exit codes: 0 success, 1 bad configuration (including outputs that
cannot be written), 2 bad data, 3 every trial failed at runtime.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .data import DataError, assemble_dataset, load_dataset
from .harness import ConfigError, parse_config_file, run_experiment
from .synthetic import generate_dataset, write_dataset

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_ALL_TRIALS_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridcc",
        description="Collective classification experiments on a partially labeled graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", required=True, help="key = value config file")
    run.add_argument("--output-dir", default=None,
                     help="override the config's output_dir")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-trial progress lines")

    val = sub.add_parser("validate", help="check a dataset without running")
    val.add_argument("--nodes", required=True, help="node file (TSV)")
    val.add_argument("--edges", required=True, help="edge file (TSV)")

    gen = sub.add_parser("gen-synthetic", help="write a generated dataset")
    gen.add_argument("--nodes", type=int, required=True, help="node count")
    gen.add_argument("--classes", type=int, required=True, help="class count")
    gen.add_argument("--homophily", type=float, required=True,
                     help="same-class edge probability in [0, 1]")
    gen.add_argument("--attr-noise", type=float, required=True,
                     help="attribute noise scale (>= 0)")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--avg-degree", type=float, default=4.0)
    gen.add_argument("--attr-dim", type=int, default=None,
                     help="attribute dimension (default: one per class)")
    return parser


def _cmd_run(args) -> int:
    try:
        config = parse_config_file(args.config)
        if args.output_dir is not None:
            config = replace(config, output_dir=args.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    try:
        results = run_experiment(config, progress=progress)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"config error: cannot write reports: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    failed = sum(1 for r in results if r.status == "error")
    print(
        f"{len(results)} trial cells, {failed} failed; reports in {config.output_dir}",
        file=sys.stderr,
    )
    if failed == len(results):
        print("every trial failed; see trials.csv notes", file=sys.stderr)
        return EXIT_ALL_TRIALS_FAILED
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        raw = load_dataset(args.nodes, args.edges)
        graph = assemble_dataset(raw).graph
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"nodes: {graph.node_count} ({raw.node_count - graph.node_count} isolated dropped)")
    print(f"edges: {graph.adjacency.nnz // 2}")
    print(f"classes: {graph.n_classes}")
    print(f"attributes: {graph.attributes.shape[1]} after one-hot encoding")
    return EXIT_OK


def _cmd_gen_synthetic(args) -> int:
    try:
        data = generate_dataset(
            args.nodes, args.classes, args.homophily, args.attr_noise,
            args.seed, avg_degree=args.avg_degree, attr_dim=args.attr_dim,
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        node_path, edge_path = write_dataset(args.out, data)
    except OSError as exc:
        print(f"config error: cannot write dataset: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {node_path} and {edge_path} "
          f"({data.node_count} nodes, {data.edges.shape[0]} edges)")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_gen_synthetic(args)


def entrypoint() -> None:
    sys.exit(main())
