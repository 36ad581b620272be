"""MAX-2-SAT conjunction counting encoded as halfspace risk minimization.

An instance over n sign variables has d clauses, each the conjunction of
two literals on distinct variables.  The instance maps to unit vectors
x_0..x_n in R^d whose signed incidence structure ties the squared column
sums of any +/-1 combination to the number of simultaneously satisfied
clauses; minimizing the paired negative-part loss over the unit ball is
therefore as hard as maximizing satisfied conjunctions.  A lifted variant
with one extra coordinate makes the same statement for the bounded
piecewise-linear loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import piecewise_linear
from .util import check_unit_ball

Literal = tuple[int, int]  # (variable index 1..n, sign +1/-1)
Clause = tuple[Literal, Literal]

_H1 = piecewise_linear(1.0)


@dataclass(frozen=True)
class Max2SatInstance:
    """Conjunctive clauses ((i, s_i), (j, s_j)) with i != j, 1-based."""

    n_literals: int
    clauses: tuple

    def __post_init__(self):
        if self.n_literals < 1:
            raise ValueError("n_literals must be >= 1")
        clauses = tuple(
            ((int(a), int(sa)), (int(b), int(sb)))
            for (a, sa), (b, sb) in self.clauses
        )
        if len(clauses) < 1:
            raise ValueError("instance needs at least one clause")
        for (a, sa), (b, sb) in clauses:
            if not (1 <= a <= self.n_literals and 1 <= b <= self.n_literals):
                raise ValueError("literal index out of range")
            if sa not in (-1, 1) or sb not in (-1, 1):
                raise ValueError("literal signs must be -1 or +1")
            if a == b:
                raise ValueError("clause must use two distinct variables")
        object.__setattr__(self, "clauses", clauses)

    @property
    def d(self) -> int:
        return len(self.clauses)


def random_instance(n: int, d: int, seed: int) -> Max2SatInstance:
    """Uniform random clauses over distinct variable pairs (test fixture)."""
    if n < 2:
        raise ValueError("need at least two variables")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    clauses = []
    for _ in range(d):
        a, b = rng.choice(n, size=2, replace=False) + 1
        sa, sb = rng.choice((-1, 1), size=2)
        clauses.append(((int(a), int(sa)), (int(b), int(sb))))
    return Max2SatInstance(n, tuple(clauses))


def instance_to_vectors(inst: Max2SatInstance) -> np.ndarray:
    """Rows x_0..x_n in R^d: x_0 = 1/sqrt(d), x_i holds the sign of each
    occurrence of variable i, scaled by 1/sqrt(d).  Every row has unit
    l2 norm or less.
    """
    d = inst.d
    X = np.zeros((inst.n_literals + 1, d))
    X[0] = 1.0
    for j, ((a, sa), (b, sb)) in enumerate(inst.clauses):
        X[a, j] = sa
        X[b, j] = sb
    return X / math.sqrt(d)


def satisfied_count(inst: Max2SatInstance, assignment) -> int:
    """Clauses whose both literals hold under the boolean assignment."""
    z = np.asarray(assignment, dtype=bool)
    if z.shape != (inst.n_literals,):
        raise ValueError("assignment must have one truth value per variable")
    count = 0
    for (a, sa), (b, sb) in inst.clauses:
        if (z[a - 1] == (sa > 0)) and (z[b - 1] == (sb > 0)):
            count += 1
    return count


def verify_identity(inst: Max2SatInstance, alpha) -> tuple[float, float, bool]:
    """Check sum_j (sum_i alpha_i x_ij)^2 = 1 + 8*S/d for a sign vector.

    alpha has n+1 entries in {-1, +1}; S counts clauses satisfied by the
    assignment z_i = (alpha_i == alpha_0).  Returns (lhs, rhs, equal
    within 1e-9).
    """
    alpha = np.asarray(alpha, dtype=float)
    X = instance_to_vectors(inst)
    if alpha.shape != (X.shape[0],) or not np.all(np.isin(alpha, (-1.0, 1.0))):
        raise ValueError("alpha must be n+1 signs")
    col = alpha @ X
    lhs = float(col @ col)
    z = alpha[1:] == alpha[0]
    rhs = 1.0 + 8.0 * satisfied_count(inst, z) / inst.d
    return lhs, rhs, bool(abs(lhs - rhs) <= 1e-9)


def enumerate_assignments(n: int) -> np.ndarray:
    """All 2^n boolean assignments as a (2^n, n) array."""
    if n > 25:
        raise ValueError("too many variables to enumerate")
    bits = np.arange(2**n, dtype=np.int64)
    return ((bits[:, None] >> np.arange(n)) & 1).astype(bool)


@dataclass(frozen=True)
class LiftedInstance:
    """Bounded-loss lift of a negative-part instance.

    Base vectors x_1..x_n (unit l2 ball, rows) gain a constant coordinate:
    x~_i = (x_i/sqrt2, 1/sqrt2), plus anchors u = -e/sqrt2, v = e/(2 sqrt2)
    on the new axis.  The lifted risk at w~ in the unit ball is
      (1/(13n)) * (6n h(<w~,u>) + 6n h(<w~,v>) + sum_i h(<w~,x~_i>))
    with h the 1-Lipschitz piecewise-linear loss.  Writing
    w~ = (a/sqrt2, tau/sqrt2), the three dot products are -tau/2, tau/4,
    and (<a, x_i> + tau)/2, which loss_alpha_tau evaluates directly.
    """

    base_vectors: np.ndarray
    lifted_vectors: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return self.base_vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.base_vectors.shape[1]

    def loss_alpha_tau(self, alpha, tau: float) -> float:
        alpha = np.asarray(alpha, dtype=float)
        n = self.n
        dots = 0.5 * (self.base_vectors @ alpha) + 0.5 * tau
        total = (
            6.0 * n * _H1.value(-0.5 * tau)
            + 6.0 * n * _H1.value(0.25 * tau)
            + np.sum(_H1.value(dots))
        )
        return float(total / (13.0 * n))

    def loss(self, w_tilde) -> float:
        w_tilde = np.asarray(w_tilde, dtype=float)
        alpha, tau = self.decompose(w_tilde)
        return self.loss_alpha_tau(alpha, tau)

    def decompose(self, w_tilde) -> tuple[np.ndarray, float]:
        w_tilde = np.asarray(w_tilde, dtype=float)
        if w_tilde.shape != (self.dim + 1,):
            raise ValueError("lifted weight vector has one extra coordinate")
        s = math.sqrt(2.0)
        return s * w_tilde[:-1], float(s * w_tilde[-1])

    def compose(self, alpha, tau: float) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float)
        s = math.sqrt(2.0)
        return np.concatenate([alpha / s, [tau / s]])


def lifted_instance(vectors: np.ndarray) -> LiftedInstance:
    """Lift a collection of unit-ball vectors (rows) by one coordinate."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValueError("vectors must be a nonempty (n, d) matrix")
    check_unit_ball(vectors, 2.0)
    n, d = vectors.shape
    s = math.sqrt(2.0)
    lifted = np.hstack([vectors / s, np.full((n, 1), 1.0 / s)])
    u = np.zeros(d + 1)
    u[-1] = -1.0 / s
    v = np.zeros(d + 1)
    v[-1] = 1.0 / (2.0 * s)
    return LiftedInstance(vectors, lifted, u, v)


def reduction_pair_vectors(inst: Max2SatInstance) -> np.ndarray:
    """The 2n+2 signed vectors (+/-x_i) whose negative-part instance equals
    the paired reduction loss; input for the lifted construction.
    """
    X = instance_to_vectors(inst)
    return np.vstack([X, -X])
