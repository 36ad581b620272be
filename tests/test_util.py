import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ncerm import util
from ncerm.util import blocks, ceil_big_product, lq_norm


@settings(max_examples=300, deadline=None)
@given(
    st.floats(1e-3, 1e3),
    st.floats(1e-2, 1e2),
    st.integers(0, 1500),
    st.floats(1e-3, 20.0),
)
@example(5.0, 8.0, 40, 1.0)
@example(5.0, 8.0, 442, 1.0)
def test_ceil_big_product_exact_below_digit_limit_and_bounds_above(coef, base, exponent, log_term):
    """Up to 399 digits the result is the exact ceiling of the product of
    the three floats' binary values, taken with Fractions; beyond 400
    digits it may be a round-up, but never below that ceiling."""
    exact = math.ceil(Fraction(coef) * Fraction(base) ** exponent * Fraction(log_term))
    got = ceil_big_product(coef, base, exponent, log_term)
    assert isinstance(got, int)
    if exact < 10**399:
        assert got == exact
    else:
        assert got >= exact


def test_ceil_big_product_rejects_bad_inputs():
    for args in ((0.0, 2.0, 1, 1.0), (1.0, -2.0, 1, 1.0), (1.0, 2.0, 1, 0.0), (1.0, 2.0, -1, 1.0)):
        with pytest.raises(ValueError):
            ceil_big_product(*args)


@st.composite
def _stacks(draw):
    """A (b, m, d) stack of magnitudes 1e-300..1e300 with random signs, some
    entries and some whole rows zero."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 20)))
    exponents = draw(hnp.arrays(float, shape, elements=st.floats(-300.0, 300.0)))
    signs = draw(hnp.arrays(float, shape, elements=st.sampled_from((-1.0, 0.0, 1.0, 1.0))))
    zero_rows = draw(hnp.arrays(bool, shape[:2]))
    return np.where(zero_rows[..., None], 0.0, signs * 10.0**exponents)


@settings(max_examples=300, deadline=None)
@given(_stacks(), st.sampled_from((1.0, 1.2, 1.5, 1.9, 2.0, math.inf)))
def test_lq_norm_of_a_row_same_alone_and_in_stacks(X, q):
    """A row's l_q norm has the same bits alone, in its matrix and in the 3-D
    stack, C- or Fortran-ordered, and no sum overflows for magnitudes up
    to 1e300."""
    norms = lq_norm(X, q)
    assert norms.shape == X.shape[:2] and np.all(np.isfinite(norms))
    for i, M in enumerate(X):
        assert np.array_equal(lq_norm(M, q), norms[i])
        assert np.array_equal(lq_norm(np.asfortranarray(M), q), norms[i])
        for j, row in enumerate(M):
            assert lq_norm(row, q) == norms[i, j]
    assert np.all((norms == 0.0) == ~X.any(axis=-1))


@pytest.mark.parametrize("total,row_floats,size", [
    (0, 1, 256), (1, 1, 256), (600, 1, 256), (600, 2 * 200, 256),
    (600, 2 * 100_000, 5), (3, 2 * 700_000, 1), (600, util.BLOCK_FLOATS + 1, 1),
])
def test_blocks_cover_the_rows_in_order(total, row_floats, size):
    """blocks gives step-1 ranges of `size` rows, the last one short, that
    cover 0..total-1 in order: at most BLOCK_ROWS rows, BLOCK_FLOATS floats
    over all, and one row at least."""
    parts = list(blocks(total, row_floats))
    assert [t for ts in parts for t in ts] == list(range(total))
    assert all(ts.step == 1 and len(ts) == size for ts in parts[:-1])
    assert all(0 < len(ts) <= size for ts in parts)
