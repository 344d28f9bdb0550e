"""Dataset parsing, cleanup, PCA, and normalization."""

import numpy as np
import pytest

from hybridcc.data import (
    DataError,
    binarize_categorical,
    load_dataset,
    normalize_features,
    pca_fit_transform,
    prepare_dataset,
    remove_isolated,
)


def write(path, text):
    path.write_text(text)
    return str(path)


def small_files(tmp_path, nodes=None, edges=None):
    nodes = nodes if nodes is not None else (
        "id\tlabel\treal\tcat\n"
        "n1\tspam\t0.5\tred\n"
        "n2\tham\t1.5\tblue\n"
        "n3\tspam\t2.5\tred\n"
    )
    edges = edges if edges is not None else "n1\tn2\nn2\tn3\n"
    return write(tmp_path / "nodes.tsv", nodes), write(tmp_path / "edges.tsv", edges)


def test_load_dataset_happy_path(tmp_path):
    np_, ep = small_files(tmp_path)
    raw = load_dataset(np_, ep)
    assert list(raw.ids) == ["n1", "n2", "n3"]
    assert list(raw.labels) == ["spam", "ham", "spam"]
    assert raw.schema == ("real", "cat")
    assert raw.edges.tolist() == [[0, 1], [1, 2]]
    # a UTF-8 byte-order mark at the start of either file is not data
    for path in (tmp_path / "nodes.tsv", tmp_path / "edges.tsv"):
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    bom = load_dataset(np_, ep)
    assert (bom.ids, bom.labels, bom.schema) == (raw.ids, raw.labels, raw.schema)
    assert bom.edges.tolist() == raw.edges.tolist()


def test_loader_skips_blanks_and_comments(tmp_path):
    np_, ep = small_files(
        tmp_path,
        nodes=(
            "# generated\n\n"
            "id\tlabel\treal\n"
            "n1\ta\t1.0\n\n"
            "# trailing note\n"
            "n2\tb\t2.0\n"
        ),
        edges="# comment\nn1\tn2\n",
    )
    raw = load_dataset(np_, ep)
    assert raw.node_count == 2


def test_duplicate_node_id_reports_line(tmp_path):
    np_, ep = small_files(
        tmp_path,
        nodes="id\tlabel\treal\nn1\ta\t1.0\nn1\tb\t2.0\n",
        edges="",
    )
    with pytest.raises(DataError, match="line 3"):
        load_dataset(np_, ep)


@pytest.mark.parametrize("cell", ["oops", "nan", "inf", "-inf"])
def test_bad_float_reports_line(tmp_path, cell):
    np_, ep = small_files(
        tmp_path,
        nodes=f"id\tlabel\treal\nn1\ta\t{cell}\n",
        edges="",
    )
    with pytest.raises(DataError, match=r"nodes\.tsv: line 2: column 1"):
        load_dataset(np_, ep)


def test_wrong_cell_count_reports_line(tmp_path):
    np_, ep = small_files(
        tmp_path,
        nodes="id\tlabel\treal\nn1\ta\t1.0\nn2\tb\n",
        edges="",
    )
    with pytest.raises(DataError, match="line 3"):
        load_dataset(np_, ep)


def test_unknown_edge_endpoint_reports_line(tmp_path):
    np_, ep = small_files(tmp_path, edges="n1\tn2\nn9\tn1\n")
    with pytest.raises(DataError, match="unknown node id at line 2: 'n9'"):
        load_dataset(np_, ep)


def test_bad_schema_kind_rejected(tmp_path):
    np_, ep = small_files(
        tmp_path, nodes="id\tlabel\ttext\nn1\ta\thello\n", edges=""
    )
    with pytest.raises(DataError):
        load_dataset(np_, ep)


def test_edges_deduplicate_and_drop_self_loops(tmp_path):
    np_, ep = small_files(tmp_path, edges="n1\tn2\nn2\tn1\nn1\tn2\nn3\tn3\nn2\tn3\n")
    raw = load_dataset(np_, ep)
    assert raw.edges.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edges_equal_the_unique_sorted_pairs(tmp_path, seed):
    """The per-edge keys give the rows, order, dtype and shape of
    ``np.unique`` over the (min, max) pairs; no edge left gives (0, 2)."""
    rng = np.random.default_rng(seed)
    n = 30
    ends = rng.integers(0, n, size=(200, 2))
    nodes = "id\tlabel\treal\n" + "".join(f"v{i}\ta\t1.0\n" for i in range(n))
    edges = "".join(f"v{a}\tv{b}\n" for a, b in ends)
    raw = load_dataset(*small_files(tmp_path, nodes=nodes, edges=edges))
    pairs = np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1).astype(np.int64)
    want = np.unique(pairs, axis=0)
    assert raw.edges.dtype == np.int64 and raw.edges.shape == want.shape
    assert np.array_equal(raw.edges, want)

    raw = load_dataset(*small_files(tmp_path, nodes=nodes, edges="v3\tv3\n"))
    assert raw.edges.dtype == np.int64 and raw.edges.shape == (0, 2)


def test_remove_isolated_remaps_edges(tmp_path):
    np_, ep = small_files(
        tmp_path,
        nodes=(
            "id\tlabel\treal\n"
            "n1\ta\t1.0\n"
            "lonely\tb\t5.0\n"
            "n2\tb\t2.0\n"
        ),
        edges="n1\tn2\n",
    )
    kept = remove_isolated(load_dataset(np_, ep))
    assert list(kept.ids) == ["n1", "n2"]
    assert kept.edges.tolist() == [[0, 1]]


def test_remove_isolated_rejects_empty_result(tmp_path):
    np_, ep = small_files(
        tmp_path, nodes="id\tlabel\treal\nn1\ta\t1.0\n", edges=""
    )
    with pytest.raises(DataError):
        remove_isolated(load_dataset(np_, ep))


def test_binarize_expands_sorted_categories(tmp_path):
    np_, ep = small_files(tmp_path)
    flat = binarize_categorical(load_dataset(np_, ep))
    X = flat.attribute_matrix()
    # columns: real, then one indicator per sorted category (blue, red)
    assert X.shape == (3, 3)
    assert X[:, 0].tolist() == [0.5, 1.5, 2.5]
    assert X[:, 1].tolist() == [0.0, 1.0, 0.0]  # blue
    assert X[:, 2].tolist() == [1.0, 0.0, 1.0]  # red


# ----------------------------------------------------------------- pca


def test_pca_matches_svd_oracle():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 6)) @ np.diag([5, 3, 2, 1, 0.5, 0.1])
    Z = pca_fit_transform(X, 3)
    centered = X - X.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    for j in range(3):
        v = vt[j]
        if np.abs(v).max() != v[np.abs(v).argmax()]:  # apply the sign rule
            v = -v
        assert np.allclose(Z[:, j], centered @ v, atol=1e-8)


def test_pca_projection_variance_equals_eigenvalues():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 4))
    Z = pca_fit_transform(X, 4)
    s = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
    variances = np.var(Z, axis=0, ddof=1)
    assert np.allclose(variances, s**2 / (X.shape[0] - 1), atol=1e-10)
    assert np.all(np.diff(variances) <= 1e-12)  # descending


def test_pca_rejects_bad_component_counts():
    X = np.zeros((5, 3))
    with pytest.raises(ValueError):
        pca_fit_transform(X, 0)
    with pytest.raises(ValueError):
        pca_fit_transform(X, 4)
    with pytest.raises(ValueError):
        pca_fit_transform(X[:1], 1)


# -------------------------------------------------------- normalization


def test_zscore_hand_values():
    X = np.array([[1.0], [2.0], [3.0]])
    got = normalize_features(X, "zscore")
    assert np.allclose(got[:, 0], [-1.22474487, 0.0, 1.22474487])


def test_zscore_zero_variance_column_becomes_zeros():
    X = np.array([[2.0, 1.0], [2.0, 3.0]])
    got = normalize_features(X, "zscore")
    assert got[:, 0].tolist() == [0.0, 0.0]


def test_minmax_and_none_modes():
    X = np.array([[0.0], [5.0], [10.0]])
    assert normalize_features(X, "minmax")[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert normalize_features(X, "none").tolist() == X.tolist()
    with pytest.raises(ValueError):
        normalize_features(X, "robust")


def test_zscore_is_idempotent():
    rng = np.random.default_rng(3)
    X = rng.normal(loc=5.0, scale=3.0, size=(20, 4))
    once = normalize_features(X, "zscore")
    twice = normalize_features(once, "zscore")
    assert np.allclose(once, twice, atol=1e-12)


# ------------------------------------------------------- prepare_dataset


def test_prepare_dataset_end_to_end(tmp_path):
    np_, ep = small_files(tmp_path)
    prepared = prepare_dataset(np_, ep)
    assert prepared.graph.node_count == 3
    assert prepared.graph.label_domain == ("ham", "spam")  # sorted
    assert prepared.truth.tolist() == [1, 0, 1]
    assert prepared.graph.attributes.shape == (3, 3)


def test_prepare_dataset_pca_bound_is_a_data_error(tmp_path):
    np_, ep = small_files(tmp_path)
    with pytest.raises(DataError):
        prepare_dataset(np_, ep, pca_components=10)


def test_prepare_dataset_drops_isolated_nodes(tmp_path):
    np_, ep = small_files(
        tmp_path,
        nodes=(
            "id\tlabel\treal\n"
            "n1\ta\t1.0\n"
            "lonely\tc\t9.0\n"
            "n2\tb\t2.0\n"
        ),
        edges="n1\tn2\n",
    )
    prepared = prepare_dataset(np_, ep)
    assert prepared.graph.node_count == 2
    assert list(prepared.ids) == ["n1", "n2"]
    assert prepared.graph.label_domain == ("a", "b")  # dropped node's class gone
