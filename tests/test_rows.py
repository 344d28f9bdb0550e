"""The class-column kernels give the bits of the NumPy expressions they
replace; each oracle is written out here, not taken from ``_rows``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcc._rows import each_column, each_row, row_argmax, row_max, row_sum

# Column counts at and around the 8 where row_sum leaves its own running
# sum for ``a.sum(axis=1)``, and at and around the other branches of
# NumPy's pairwise summation (eight accumulators up to 128, halves above).
EDGE_COLUMNS = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 256, 257, 300]


def mixed_floats(rng, shape):
    """Finite values of mixed sign and magnitude, with signed zeros and
    repeats, whose row sums cannot overflow at 300 columns."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    pick = rng.random(shape)
    values[pick < 0.05] = 0.0
    values[(pick >= 0.05) & (pick < 0.1)] = -0.0
    values[(pick >= 0.1) & (pick < 0.15)] = 1e300
    values[(pick >= 0.15) & (pick < 0.2)] = -1e300
    return values


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 30),
       columns=st.one_of(st.sampled_from(EDGE_COLUMNS), st.integers(1, 300)),
       seed=st.integers(0, 2**32 - 1))
def test_row_sum_gives_the_bits_of_sum_axis_1(rows, columns, seed):
    a = mixed_floats(np.random.default_rng(seed), (rows, columns))
    assert same_bits(row_sum(a), a.sum(axis=1))


def test_row_sum_keeps_integers_exact():
    for columns in EDGE_COLUMNS:
        a = np.random.default_rng(columns).integers(-(2**40), 2**40, size=(5, columns))
        assert same_bits(row_sum(a), a.sum(axis=1))


def test_row_sum_turns_negative_zero_rows_into_zero():
    """NumPy adds each row's sum to the identity 0."""
    for columns in (3, 8, 200):
        got = row_sum(np.full((2, columns), -0.0))
        assert same_bits(got, np.zeros(2))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 30), columns=st.integers(1, 12),
       levels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_row_argmax_and_max_equal_numpy_with_ties(rows, columns, levels, seed):
    """Drawn from a few values, most rows tie for their maximum."""
    rng = np.random.default_rng(seed)
    choices = np.array([-np.inf, -1e300, -2.5, -0.0, 0.0, 1.0, 1e300, np.inf])
    a = rng.choice(choices[rng.permutation(choices.size)[:levels]], size=(rows, columns))
    assert same_bits(row_argmax(a), np.argmax(a, axis=1))
    assert np.array_equal(row_max(a), a.max(axis=1))


def test_row_argmax_rejects_a_nan_row():
    a = np.array([[0.2, 0.8], [np.nan, 0.5]])
    assert np.argmax(a, axis=1).tolist() == [1, 0]  # NumPy picks the NaN
    with pytest.raises(ValueError, match="NaN"):
        row_argmax(a)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(0, 30), columns=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_each_row_and_each_column_equal_the_broadcasts(rows, columns, seed):
    rng = np.random.default_rng(seed)
    a = mixed_floats(rng, (rows, columns))
    v = mixed_floats(rng, rows)
    r = mixed_floats(rng, columns)
    with np.errstate(all="ignore"):
        assert same_bits(each_row(np.subtract, a, v, np.empty(a.shape)), a - v[:, None])
        assert same_bits(each_row(np.multiply, a, v, np.empty(a.shape)), a * v[:, None])
        for ufunc in (np.add, np.subtract):
            in_place = a.copy()
            assert each_column(ufunc, in_place, r) is in_place
            assert same_bits(in_place, ufunc(a, r[None, :]))
        in_place = a.copy()
        assert same_bits(each_row(np.subtract, in_place, v, in_place), a - v[:, None])
        assert in_place.flags.c_contiguous
    counts = rng.integers(0, 5, size=(rows, columns))
    denom = np.maximum(counts.sum(axis=1), 1)
    got = each_row(np.divide, counts, denom, np.empty(counts.shape))
    assert same_bits(got, counts / denom[:, None])
