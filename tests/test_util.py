import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncerm.util import ceil_big_product


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
