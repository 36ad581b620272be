"""Shared plumbing: seed derivation and exact ceilings of huge products."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Exact big-integer arithmetic is used as long as the result stays below
# this many decimal digits; past it a conservative round-up is returned.
_EXACT_DIGIT_LIMIT = 400

# Slack allowed on every norm budget and on the unit-ball data condition.
NORM_TOL = 1e-9


def round_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-round generator derived from a master seed.

    Round ``index`` of a run always sees the same stream regardless of
    whether other rounds ran before it, so rounds can be replayed or
    executed in parallel without changing results.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def child_seed(seed: int, index: int) -> int:
    """Integer sub-seed for a nested component (same derivation as round_rng)."""
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def ceil_big_product(coef: float, base: float, exponent: int, log_term: float) -> int:
    """ceil(coef * base**exponent * log_term) as an exact integer.

    All three float inputs are taken at face value (their exact binary
    values) and combined with rational arithmetic, so results such as
    ceil(5 * 8**40 * 1.0) come out exact even far beyond 2**53.  When the
    result would exceed _EXACT_DIGIT_LIMIT decimal digits, a power of ten
    that upper-bounds it is returned instead.
    """
    if coef <= 0 or base <= 0 or log_term <= 0:
        raise ValueError("coef, base and log_term must be positive")
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    digits = exponent * math.log10(base) + math.log10(coef) + math.log10(log_term)
    if digits > _EXACT_DIGIT_LIMIT:
        return 10 ** (int(math.ceil(digits)) + 1)
    value = Fraction(coef) * Fraction(base) ** exponent * Fraction(log_term)
    return -((-value.numerator) // value.denominator)


def dual_exponent(p: float) -> float:
    """Holder conjugate: 1/p + 1/q = 1, with p=1 mapping to inf."""
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def lq_norm(x: np.ndarray, q: float) -> np.ndarray | float:
    """l_q norm along the last axis; q may be inf."""
    x = np.asarray(x, dtype=float)
    if math.isinf(q):
        return np.max(np.abs(x), axis=-1)
    return np.sum(np.abs(x) ** q, axis=-1) ** (1.0 / q)


def check_unit_ball(features, q: float) -> None:
    """Raise ValueError unless every row x of features has ||x||_q <= 1."""
    top = float(np.max(lq_norm(features, q)))
    if top > 1.0 + NORM_TOL:
        raise ValueError(f"data must satisfy ||x||_{q} <= 1 (max {top!r})")
