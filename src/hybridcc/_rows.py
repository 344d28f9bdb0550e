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
starting from the reduction's identity 0. ``row_sum`` copies that order
column by column:

* below 8 columns, one running sum over the columns in turn;
* from 8 to 128 columns, eight running sums ``r0..r7``, where ``rj`` takes
  columns ``j, j+8, j+16, ...`` up to the last whole block of eight,
  combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover
  columns added in turn;
* above 128 columns, the first ``n2`` and the other columns summed
  separately and added, with ``n2`` half the columns rounded down to a
  multiple of 8;

and finally the sum is added to 0, which turns ``-0.0`` into ``0.0``.
(NumPy starts a running sum of fewer than 8 columns at 0; starting it at
the first column changes only the sign of a zero sum, which that last add
settles.) The datasets and benchmarks here have 2 to 7 classes, so only
the first branch runs in them; the others keep wider class domains exact.
Property tests in ``tests/test_rows.py`` hold each kernel to its NumPy
expression, the row sum bit for bit in every branch above.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_max", "row_sum", "row_argmax", "each_row", "each_column"]

# NumPy's pairwise summation: unroll width and largest unsplit block.
_UNROLL = 8
_BLOCK = 128


def row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)``; a NaN in a row makes its maximum NaN. Above 8
    columns a zero maximum may carry the other sign than NumPy's, which
    compares equal to it."""
    peak = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(peak, a[:, j], out=peak)
    return peak


def _pairwise_sum(a, lo, n):
    """Sum of columns ``lo .. lo + n - 1`` of every row, in NumPy's order."""
    if n < _UNROLL:
        total = a[:, lo].copy()
        for j in range(lo + 1, lo + n):
            total += a[:, j]
        return total
    if n <= _BLOCK:
        r = [a[:, lo + j].copy() for j in range(_UNROLL)]
        whole = n - n % _UNROLL
        for i in range(_UNROLL, whole, _UNROLL):
            for j in range(_UNROLL):
                r[j] += a[:, lo + i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for j in range(lo + whole, lo + n):
            total += a[:, j]
        return total
    n2 = n // 2
    n2 -= n2 % _UNROLL
    return _pairwise_sum(a, lo, n2) + _pairwise_sum(a, lo + n2, n - n2)


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a C-contiguous array, bit for bit (see the
    module docstring for the order)."""
    total = _pairwise_sum(a, 0, a.shape[1])
    total += 0  # the reduction's identity
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
