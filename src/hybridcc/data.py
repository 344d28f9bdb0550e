"""Dataset files, preprocessing, and assembly into a ready-to-use graph.

File formats (UTF-8 with or without a byte-order mark, LF, ``#`` comment
lines ignored):

* node file: tab-separated, one row per node, ``id<TAB>label<TAB>v1...``.
  The first non-comment row is a header whose attribute cells declare each
  column's type, ``real`` or ``cat``.
* edge file: ``src_id<TAB>dst_id`` per row. Direction and duplicates are
  collapsed; self loops are dropped.

The preparation pipeline is load -> drop isolated nodes -> one-hot encode
categorical columns -> optional PCA -> per-column normalization -> graph.
True labels ride along untouched; nothing here reads them except to carry
them through, so preprocessing cannot leak label information beyond the
(deliberate) transductive fit of PCA and normalization over all nodes.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass

import numpy as np

from .graph import DataGraph

__all__ = [
    "DataError",
    "RawDataset",
    "PreparedDataset",
    "load_dataset",
    "remove_isolated",
    "binarize_categorical",
    "pca_fit_transform",
    "normalize_features",
    "prepare_dataset",
    "assemble_dataset",
]

COLUMN_KINDS = ("real", "cat")


class DataError(ValueError):
    """Dataset file failed to load or validate."""


@dataclass(frozen=True)
class RawDataset:
    """Parsed node and edge records, pre-preprocessing.

    ``columns[j]`` holds column ``j`` for every node: a float array when
    ``schema[j] == "real"``, an object array of strings when ``"cat"``.
    ``edges`` is an (m, 2) int64 array of node-index pairs, deduplicated
    and stored with the smaller index first.
    """

    ids: tuple[str, ...]
    labels: tuple[str, ...]
    schema: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    edges: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.ids)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count, dtype=np.int64)
        if self.edges.size:
            deg += np.bincount(self.edges[:, 0], minlength=self.node_count)
            deg += np.bincount(self.edges[:, 1], minlength=self.node_count)
        return deg

    def attribute_matrix(self) -> np.ndarray:
        """Stack the columns into a (nodes x features) float matrix.

        Valid only once every column is real-valued (after one-hot
        encoding).
        """
        if any(kind != "real" for kind in self.schema):
            raise DataError("categorical columns must be one-hot encoded first")
        if not self.columns:
            return np.zeros((self.node_count, 0))
        return np.column_stack([np.asarray(col, dtype=float) for col in self.columns])


def _data_rows(path):
    """Yield (line_number, stripped_line) skipping blanks and comments."""
    try:
        handle = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.rstrip("\n").rstrip("\r")
            if not stripped.strip() or stripped.lstrip().startswith("#"):
                continue
            yield lineno, stripped


def load_dataset(node_path, edge_path) -> RawDataset:
    """Parse and validate the two dataset files.

    The header row's attribute cells declare the column schema. Raises
    ``DataError`` naming the offending file line for malformed rows,
    duplicate ids, and edges that reference unknown ids.
    """
    rows = _data_rows(node_path)
    try:
        header_lineno, header = next(rows)
    except StopIteration:
        raise DataError(f"{node_path}: no header row found") from None
    cells = header.split("\t")
    if len(cells) < 2:
        raise DataError(f"{node_path}: line {header_lineno}: header needs at least id and label columns")
    parsed_schema = tuple(cells[2:])
    for j, kind in enumerate(parsed_schema):
        if kind not in COLUMN_KINDS:
            raise DataError(
                f"{node_path}: line {header_lineno}: attribute column {j + 1} "
                f"must be declared 'real' or 'cat', got {kind!r}"
            )

    ids: list[str] = []
    labels: list[str] = []
    raw_columns: list[list] = [[] for _ in parsed_schema]
    index: dict[str, int] = {}
    for lineno, line in rows:
        cells = line.split("\t")
        if len(cells) != 2 + len(parsed_schema):
            raise DataError(
                f"{node_path}: line {lineno}: expected {2 + len(parsed_schema)} "
                f"tab-separated cells, got {len(cells)}"
            )
        node_id, label = cells[0], cells[1]
        if node_id in index:
            raise DataError(f"{node_path}: line {lineno}: duplicate node id {node_id!r}")
        if not label:
            raise DataError(f"{node_path}: line {lineno}: empty label")
        index[node_id] = len(ids)
        ids.append(node_id)
        labels.append(label)
        for j, (kind, value) in enumerate(zip(parsed_schema, cells[2:])):
            if kind == "real":
                try:
                    number = float(value)
                except ValueError:
                    number = math.nan
                if not math.isfinite(number):
                    raise DataError(
                        f"{node_path}: line {lineno}: column {j + 1}: "
                        f"invalid real value {value!r} (must be a finite number)"
                    )
                raw_columns[j].append(number)
            else:
                raw_columns[j].append(value)
    if not ids:
        raise DataError(f"{node_path}: no node rows found")

    # One int64 key min*n + max per edge: sorting the keys sorts the
    # (min, max) pairs, and dropping each key equal to its predecessor
    # deduplicates them (np.unique would take a much slower hash path).
    # Keys are >= 0, so the -1 prepended keeps the first one.
    n = len(ids)
    keys = array.array("q")
    for lineno, line in _data_rows(edge_path):
        cells = line.split("\t")
        if len(cells) != 2:
            raise DataError(f"{edge_path}: line {lineno}: expected 2 tab-separated ids")
        try:
            a, b = index[cells[0]], index[cells[1]]
        except KeyError as exc:
            raise DataError(
                f"{edge_path}: unknown node id at line {lineno}: {exc.args[0]!r}"
            ) from None
        if a == b:
            continue
        keys.append(a * n + b if a < b else b * n + a)
    keys = np.sort(np.frombuffer(keys, dtype=np.int64))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    edges = np.stack([keys // n, keys % n], axis=1)

    columns = tuple(
        np.asarray(col, dtype=float if kind == "real" else object)
        for kind, col in zip(parsed_schema, raw_columns)
    )
    return RawDataset(
        ids=tuple(ids), labels=tuple(labels), schema=parsed_schema,
        columns=columns, edges=edges,
    )


def remove_isolated(raw: RawDataset) -> RawDataset:
    """Drop nodes with no edges, reindexing the edge list to match."""
    keep = raw.degrees() > 0
    if not keep.any():
        raise DataError("every node is isolated; nothing remains after filtering")
    if keep.all():
        return raw
    remap = np.cumsum(keep) - 1
    kept = np.flatnonzero(keep)
    return RawDataset(
        ids=tuple(raw.ids[i] for i in kept),
        labels=tuple(raw.labels[i] for i in kept),
        schema=raw.schema,
        columns=tuple(col[kept] for col in raw.columns),
        edges=remap[raw.edges],
    )


def binarize_categorical(raw: RawDataset) -> RawDataset:
    """One-hot encode every categorical column, categories in sorted order.

    Real columns pass through unchanged and column order is preserved, each
    categorical column expanding in place into one 0/1 column per category.
    """
    out_schema: list[str] = []
    out_columns: list[np.ndarray] = []
    for kind, col in zip(raw.schema, raw.columns):
        if kind == "real":
            out_schema.append("real")
            out_columns.append(col)
            continue
        for category in sorted(set(col.tolist())):
            out_schema.append("real")
            out_columns.append((col == category).astype(float))
    return RawDataset(
        ids=raw.ids, labels=raw.labels, schema=tuple(out_schema),
        columns=tuple(out_columns), edges=raw.edges,
    )


def pca_fit_transform(X, k) -> np.ndarray:
    """Fit PCA on all rows and return their projection onto the top-k
    components.

    Eigen-decomposition of the sample covariance (rows are observations).
    Deterministic: eigenvalues sorted descending, each component's sign
    fixed so its largest-magnitude entry is positive.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n, d = X.shape
    if n < 2:
        raise ValueError("PCA needs at least 2 rows")
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k must be in [1, {min(n, d)}], got {k}")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    components = eigvecs[:, order].copy()
    for j in range(k):
        col = components[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            components[:, j] = -col
    return centered @ components


def normalize_features(X, mode="zscore") -> np.ndarray:
    """Per-column rescaling over all rows.

    ``zscore`` maps each column to mean 0, variance 1 (population
    variance); ``minmax`` maps to [0, 1]; ``none`` is the identity. A
    constant column becomes all zeros under either rescaling mode.
    """
    X = np.asarray(X, dtype=float)
    if mode == "none":
        return X.copy()
    if X.size == 0:
        return X.copy()
    if mode == "zscore":
        center = X.mean(axis=0)
        scale = X.std(axis=0)
    elif mode == "minmax":
        center = X.min(axis=0)
        scale = X.max(axis=0) - center
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    out = np.zeros_like(X)
    nz = scale > 0
    out[:, nz] = (X[:, nz] - center[nz]) / scale[nz]
    return out


@dataclass(frozen=True)
class PreparedDataset:
    """A graph ready for experiments plus the held-back true labels."""

    graph: DataGraph
    truth: np.ndarray
    ids: tuple[str, ...]


def prepare_dataset(node_path, edge_path, pca_components=0,
                    normalization="zscore") -> PreparedDataset:
    """Run the full pipeline from files to a ready graph: ``load_dataset``
    (the column schema comes from the node file's header), then
    ``assemble_dataset``."""
    return assemble_dataset(load_dataset(node_path, edge_path), pca_components, normalization)


def assemble_dataset(raw: RawDataset, pca_components=0,
                     normalization="zscore") -> PreparedDataset:
    """Run the pipeline from parsed files to a ready graph.

    ``pca_components = 0`` skips the projection. The class domain is the
    sorted set of observed label strings; ``truth[i]`` is node i's index
    into it. The returned graph has an empty known-label set; trials
    install their own sampled subsets.
    """
    raw = remove_isolated(raw)
    raw = binarize_categorical(raw)
    X = raw.attribute_matrix()
    if pca_components:
        if pca_components > min(X.shape):
            raise DataError(
                f"pca_components={pca_components} exceeds the data's "
                f"min(rows, columns)={min(X.shape)}"
            )
        X = pca_fit_transform(X, pca_components)
    X = normalize_features(X, normalization)
    domain = tuple(sorted(set(raw.labels)))
    if len(domain) < 2:
        raise DataError("dataset carries fewer than 2 distinct labels")
    lookup = {name: i for i, name in enumerate(domain)}
    truth = np.array([lookup[lab] for lab in raw.labels], dtype=np.int64)
    graph = DataGraph.build(raw.edges, X, domain)
    return PreparedDataset(graph=graph, truth=truth, ids=raw.ids)
