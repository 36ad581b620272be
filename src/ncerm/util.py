"""Shared plumbing: seed derivation, per-round uniforms, the one block size
and exact ceilings of huge products."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Exact big-integer arithmetic is used as long as the result stays below
# this many decimal digits; past it a conservative round-up is returned.
_EXACT_DIGIT_LIMIT = 400

# Slack allowed on every norm budget and on the unit-ball data condition.
NORM_TOL = 1e-9

# The one block size of every batched loop (restart rounds, Monte Carlo trials,
# stacked networks), to bound memory: at most BLOCK_ROWS rows and BLOCK_FLOATS
# floats (8 MB) of their working arrays per block.  Each row gets its own draws
# and sums, so the size changes no result but the last bits of a Rademacher
# supremum, whose F @ eps.T BLAS may round differently for another block shape.
BLOCK_ROWS = 256
BLOCK_FLOATS = 1 << 20


def blocks(total: int, row_floats: int):
    """Step-1 ranges that cover 0..total-1 in order, each of at most
    max(1, min(BLOCK_ROWS, BLOCK_FLOATS // row_floats)) rows."""
    size = max(1, min(BLOCK_ROWS, BLOCK_FLOATS // row_floats))
    for start in range(0, total, size):
        yield range(start, min(total, start + size))


def round_uniforms(seed: int, ts: range, m: int) -> np.ndarray:
    """Uniforms (len(ts), m) in [0, 1) of rounds ts, one row per round.

    Round t owns a fixed block of m4 = 4 ceil(m/4) doubles of the Philox
    stream keyed by SeedSequence(seed), starting at counter t m4/4 (one
    counter step gives 4 doubles), and takes its first m.  A chunk of
    rounds is one draw, and every round sees the numbers it would see
    alone, so rounds can be replayed or drawn in any chunking.
    """
    if not isinstance(ts, range) or ts.step != 1 or ts.start < 0:
        raise ValueError("rounds must be a step-1 range of indices >= 0")
    steps = -(-m // 4)
    bits = np.random.Philox(np.random.SeedSequence(seed)).advance(ts.start * steps)
    return np.random.Generator(bits).random((len(ts), 4 * steps))[:, :m]


def child_seed(seed: int, index: int) -> int:
    """Integer sub-seed for a nested component: SeedSequence(seed) spawned at index."""
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


def lq_scaled(a: np.ndarray, q: float):
    """(top, a / top, ||a / top||_q) along the last axis of magnitudes a, C-ordered
    and at least 2-D so a row is summed and powered alike alone or in a stack;
    top = max keeping its axis, and a zero row gives 0s."""
    top = a.max(axis=-1, keepdims=True)
    alpha = a / np.where(top > 0.0, top, 1.0)
    return top, alpha, (alpha**q).sum(axis=-1) ** (1.0 / q)


def lq_norm(x: np.ndarray, q: float) -> np.ndarray | float:
    """l_q norm along the last axis; q may be inf.  Alone or in a stack, a row has one norm."""
    x = np.asarray(x, dtype=float)
    if math.isinf(q):
        return np.max(np.abs(x), axis=-1)
    a = np.abs(np.atleast_2d(x), order="C")
    if q == 1.0:
        norm = a.sum(axis=-1)
    else:
        top, _, norm = lq_scaled(a, q)
        norm *= top[..., 0]
    return norm if x.ndim > 1 else norm[0]


def check_unit_ball(features, q: float, top: float | None = None) -> None:
    """Raise ValueError unless every row x of features has ||x||_q <= 1;
    top, when given, is the largest of those norms, computed before."""
    if top is None:
        top = float(np.max(lq_norm(features, q)))
    if not top <= 1.0 + NORM_TOL:
        raise ValueError(f"data must satisfy ||x||_{q} <= 1 (max {top!r})")
