"""Per-row reductions and broadcasts over (rows x classes) arrays, one class
column at a time, each giving the bits of the NumPy expression it replaces.

Layout: every per-node class quantity (logits, log posteriors, neighbor
counts, wvRN distributions) is a C-ordered (rows x classes) array with a
few class columns and thousands of rows. NumPy runs the inner loop of
``a.sum(axis=1)``, ``np.argmax(a, axis=1)`` or ``a - v[:, None]`` along a
row, that is over the few classes, once per row, so most of the time goes
to loop set-up. The kernels here make every inner loop run down a class
column over all rows instead: the broadcasts (``each_row``,
``each_column``) are one ufunc call in Fortran iteration order
(``order="F"``) writing into a C-ordered ``out``, and the reductions loop
over the class columns in Python, one ufunc call per column. Outputs stay
C-ordered, so matrix products downstream see the same layout as before.

Elementwise work and comparisons do not depend on the order of the loops,
and maxima only in the sign of a zero. A floating-point row sum does: for
a C-contiguous array NumPy adds each row with its pairwise summation,
starting from the reduction's identity 0. Below 8 columns that is one
running sum over the columns in turn, which ``row_sum`` repeats column by
column and then adds to 0, turning ``-0.0`` into ``0.0``. (NumPy starts
the running sum at 0; starting it at the first column changes only the
sign of a zero sum, which that last add settles.) From 8 columns on,
where NumPy's order has several accumulators, ``row_sum`` is
``a.sum(axis=1)`` itself. The datasets and benchmarks here have 2 to 7
classes. Property tests in ``tests/test_rows.py`` hold each kernel to its
NumPy expression, the row sum bit for bit at every width.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_max", "row_sum", "row_argmax", "each_row", "each_column"]

# Below this many columns NumPy sums a row in one running sum.
_UNROLL = 8


def row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)``; a NaN in a row makes its maximum NaN. Above 8
    columns a zero maximum may carry the other sign than NumPy's, which
    compares equal to it."""
    peak = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(peak, a[:, j], out=peak)
    return peak


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a C-contiguous array, bit for bit: below 8
    columns one running sum down the class columns, then added to the
    reduction's identity 0; from 8 columns on, ``a.sum(axis=1)`` itself."""
    if a.shape[1] >= _UNROLL:
        return a.sum(axis=1)
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    total += 0
    return total


def row_argmax(a: np.ndarray) -> np.ndarray:
    """``np.argmax(a, axis=1)`` for rows without NaN: the lowest index of
    each row's maximum. Raises ``ValueError`` if a row holds a NaN, where
    ``np.argmax`` would silently pick the first NaN."""
    best = a[:, 0].copy()
    index = np.zeros(a.shape[0], dtype=np.intp)
    for j in range(1, a.shape[1]):
        column = a[:, j]
        # j exceeds every index taken so far, so a maximum instead of a
        # masked write moves the rows whose best value is in column j.
        np.maximum(index, (column > best) * j, out=index)
        np.maximum(best, column, out=best)
    if np.isnan(best).any():
        raise ValueError("cannot take the argmax of a row that holds NaN")
    return index


def each_row(ufunc, a: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ufunc(a, v[:, None])`` written into ``out``, which may be ``a``:
    row ``i`` of ``a`` combined with ``v[i]``."""
    return ufunc(a, v[:, None], out=out, order="F")


def each_column(ufunc, a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``ufunc(a, r[None, :])`` written into ``a``: column ``j`` of ``a``
    combined with ``r[j]``."""
    return ufunc(a, r[None, :], out=a, order="F")
