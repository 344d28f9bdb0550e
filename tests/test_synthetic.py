"""Synthetic dataset generator."""

import hashlib

import numpy as np
import pytest

from hybridcc.data import prepare_dataset
from hybridcc.synthetic import generate_dataset, synthetic_graph, write_dataset


def test_labels_are_balanced():
    data = generate_dataset(90, 3, 0.8, 1.0, seed=0)
    counts = np.bincount(data.labels, minlength=3)
    assert counts.tolist() == [30, 30, 30]


def test_generation_is_seed_deterministic():
    a = generate_dataset(60, 2, 0.7, 1.0, seed=5)
    b = generate_dataset(60, 2, 0.7, 1.0, seed=5)
    c = generate_dataset(60, 2, 0.7, 1.0, seed=6)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.attributes, b.attributes)
    assert not np.array_equal(a.edges, c.edges)


def test_homophily_controls_same_class_edges():
    lo = generate_dataset(300, 2, 0.1, 1.0, seed=2, avg_degree=8.0)
    hi = generate_dataset(300, 2, 0.9, 1.0, seed=2, avg_degree=8.0)

    def same_class_rate(data):
        labels = data.labels
        return float(np.mean(labels[data.edges[:, 0]] == labels[data.edges[:, 1]]))

    assert same_class_rate(hi) > 0.8
    assert same_class_rate(lo) < 0.3


def test_no_isolated_nodes_and_canonical_edges():
    data = generate_dataset(100, 4, 0.6, 1.0, seed=3, avg_degree=2.0)
    deg = np.zeros(100, dtype=int)
    np.add.at(deg, data.edges[:, 0], 1)
    np.add.at(deg, data.edges[:, 1], 1)
    assert deg.min() >= 1
    assert np.all(data.edges[:, 0] < data.edges[:, 1])
    assert len({tuple(e) for e in data.edges.tolist()}) == data.edges.shape[0]


def test_attr_dim_pads_or_truncates_class_centers():
    wide = generate_dataset(40, 2, 0.8, 0.1, seed=4, attr_dim=5)
    narrow = generate_dataset(40, 4, 0.8, 0.1, seed=4, attr_dim=2)
    assert wide.attributes.shape == (40, 5)
    assert narrow.attributes.shape == (40, 2)


def test_parameter_validation(monkeypatch):
    # every argument is checked before the first draw
    def no_draws(seed):
        raise AssertionError("generate_dataset created an RNG before checking its arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError):
        generate_dataset(10, 2, 1.5, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_dataset(10, 1, 0.5, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_dataset(3, 4, 0.5, 1.0, seed=0)  # more classes than nodes
    with pytest.raises(ValueError, match="attr_dim"):
        generate_dataset(10, 2, 0.5, 1.0, seed=0, attr_dim=0)


def test_written_files_load_back_identically(tmp_path):
    data = generate_dataset(50, 3, 0.8, 0.7, seed=9)
    nodes, edges = write_dataset(str(tmp_path), data)
    prepared = prepare_dataset(nodes, edges, normalization="none")
    assert prepared.graph.node_count == 50
    assert prepared.graph.label_domain == data.label_domain
    assert np.array_equal(prepared.truth, data.labels)
    assert np.allclose(prepared.graph.attributes, data.attributes)


def test_synthetic_graph_matches_generate_dataset():
    graph, truth = synthetic_graph(50, 2, 0.8, 0.7, seed=9)
    data = generate_dataset(50, 2, 0.8, 0.7, seed=9)
    assert np.array_equal(truth, data.labels)
    assert np.allclose(graph.attributes, data.attributes)
    assert graph.node_count == 50


# sha256 of nodes.tsv followed by edges.tsv, captured before the edge
# bookkeeping and the file writing were vectorized. Benchmark inputs are
# these files, so any change to their bytes must be deliberate.
EM_REG_SHAPE = dict(n_nodes=300, n_classes=3, homophily=0.8, attr_noise=1.0,
                    attr_dim=20, avg_degree=4.0)
ICA_SHAPE = dict(n_nodes=2000, n_classes=2, homophily=0.75, attr_noise=1.5,
                 attr_dim=2, avg_degree=20.0)


@pytest.mark.parametrize("shape, seed, digest", [
    (EM_REG_SHAPE, 0, "f36f40e68f7b6d56d20ea687cdd9891a66419df2f80f32701c14e18c789629ce"),
    (EM_REG_SHAPE, 1, "d34c7d2c535d848055f788c431f7c23e8bc7a44bfd6cbeae8a3c51c23c200a35"),
    (EM_REG_SHAPE, 9002000000, "244bb30de7ea834a7b6c2f7188d6cfe21fe6515f84c59287e1dba47ba2559579"),
    (ICA_SHAPE, 0, "7dfdd83f489402ebdd6a6b7d7f4bf2856defbb1da0c86ab30ac4f81eb073964d"),
    (ICA_SHAPE, 1, "7a818a4fc5f492c395cc54886236df50907255039524c7f8a26ddbc17ed03851"),
    (ICA_SHAPE, 9002000000, "be35e54923122526a435cf220b8fbe14f92bdc166d6b48395d5d31dcc255be53"),
], ids=["em_reg-0", "em_reg-1", "em_reg-9002000000", "ica-0", "ica-1", "ica-9002000000"])
def test_written_files_match_golden_digests(tmp_path, shape, seed, digest):
    paths = write_dataset(str(tmp_path), generate_dataset(seed=seed, **shape))
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    assert h.hexdigest() == digest
