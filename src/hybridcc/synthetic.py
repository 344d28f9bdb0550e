"""Synthetic homophilous graphs with tunable attribute quality.

Nodes get (near-)balanced class labels. Edges are sampled one at a time:
pick a random endpoint, then with probability ``homophily`` a same-class
partner, otherwise a different-class one, so ``homophily`` is roughly the
fraction of same-class edges. Attributes are the node's one-hot class
vector plus Gaussian noise of scale ``attr_noise``, which tunes how
informative the attributes are on their own; an ``attr_dim`` above the
class count pads with pure-noise dimensions (below it, truncates).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import DataGraph

__all__ = ["SyntheticDataset", "generate_dataset", "synthetic_graph", "write_dataset"]


@dataclass(frozen=True)
class SyntheticDataset:
    """Generated labels, edges, and attributes; indexes are node ids."""

    labels: np.ndarray
    edges: np.ndarray
    attributes: np.ndarray
    label_domain: tuple[str, ...]

    @property
    def node_count(self) -> int:
        return self.labels.size


def _pick_partner(rng, u, y, by_class, same):
    """A partner for u: same class or not, never u itself; -1 if impossible."""
    if same:
        pool = by_class[y[u]]
        if pool.size < 2:
            return -1
        while True:
            v = int(pool[rng.integers(pool.size)])
            if v != u:
                return v
    n = y.size
    if by_class[y[u]].size == n:
        return -1
    while True:
        v = int(rng.integers(n))
        if y[v] != y[u]:
            return v


def generate_dataset(n_nodes, n_classes, homophily, attr_noise, seed,
                     avg_degree=4.0, attr_dim=None) -> SyntheticDataset:
    """Sample one graph; deterministic given the full argument tuple.

    Every random draw, and the order of the draws, fixes the output: the
    benchmark's inputs and the tests' golden file digests depend on it.
    ``edges`` holds each (min, max) pair once, sorted.
    """
    if n_nodes < 2 or n_classes < 2:
        raise ValueError("need at least 2 nodes and 2 classes")
    if n_classes > n_nodes:
        raise ValueError("more classes than nodes")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must be in [0, 1]")
    if attr_noise < 0:
        raise ValueError("attr_noise must be >= 0")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be > 0")
    if attr_dim is None:
        attr_dim = n_classes
    if attr_dim < 1:
        raise ValueError("attr_dim must be >= 1")

    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n_nodes, dtype=np.int64) % n_classes)
    by_class = [np.flatnonzero(labels == c) for c in range(n_classes)]

    target = max(n_nodes // 2, int(round(avg_degree * n_nodes / 2.0)))
    chosen: set[tuple[int, int]] = set()
    attempts = 0
    while len(chosen) < target and attempts < 50 * target:
        attempts += 1
        u = int(rng.integers(n_nodes))
        v = _pick_partner(rng, u, labels, by_class, rng.random() < homophily)
        if v >= 0:
            chosen.add((min(u, v), max(u, v)))

    # Wire up any node the sampler left isolated so the graph is usable.
    ends = np.fromiter(chain.from_iterable(chosen), dtype=np.int64, count=2 * len(chosen))
    for u in np.flatnonzero(np.bincount(ends, minlength=n_nodes) == 0):
        u = int(u)
        v = _pick_partner(rng, u, labels, by_class, rng.random() < homophily)
        if v < 0:
            v = _pick_partner(rng, u, labels, by_class, True)
        if v < 0:
            v = (u + 1) % n_nodes
        chosen.add((min(u, v), max(u, v)))

    # Sorting the int64 keys min*n + max sorts the (min, max) pairs.
    keys = np.sort(np.fromiter(
        (a * n_nodes + b for a, b in chosen), dtype=np.int64, count=len(chosen)
    ))
    edges = np.stack([keys // n_nodes, keys % n_nodes], axis=1)

    centers = np.zeros((n_classes, attr_dim))
    span = min(n_classes, attr_dim)
    centers[:span, :span] = np.eye(span)
    attributes = centers[labels] + attr_noise * rng.standard_normal(
        (n_nodes, attr_dim)
    )

    width = len(str(n_classes - 1))
    domain = tuple(f"c{c:0{width}d}" for c in range(n_classes))
    return SyntheticDataset(
        labels=labels, edges=edges, attributes=attributes, label_domain=domain
    )


def synthetic_graph(n_nodes, n_classes, homophily, attr_noise, seed,
                    avg_degree=4.0, attr_dim=None) -> tuple[DataGraph, np.ndarray]:
    """Generate and assemble directly into a (graph, true labels) pair."""
    data = generate_dataset(
        n_nodes, n_classes, homophily, attr_noise, seed,
        avg_degree=avg_degree, attr_dim=attr_dim,
    )
    graph = DataGraph.build(data.edges, data.attributes, data.label_domain)
    return graph, data.labels


def write_dataset(out_dir, data: SyntheticDataset) -> tuple[str, str]:
    """Write nodes.tsv and edges.tsv in the loader's file format.

    Attribute values are written with ``repr``, which round-trips every
    float exactly. Each file is built in memory and written in one call.
    """
    os.makedirs(out_dir, exist_ok=True)
    node_path = os.path.join(out_dir, "nodes.tsv")
    edge_path = os.path.join(out_dir, "edges.tsv")
    lines = ["id\tlabel" + "\treal" * data.attributes.shape[1]]
    lines += [
        "\t".join([f"n{i}", data.label_domain[y], *map(repr, values)])
        for i, (y, values) in enumerate(zip(data.labels.tolist(), data.attributes.tolist()))
    ]
    with open(node_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(edge_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(f"n{a}\tn{b}\n" for a, b in data.edges.tolist()))
    return node_path, edge_path
