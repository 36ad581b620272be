"""Brute-force oracles for the MAX-2-SAT reduction in ncerm.hardness.

They back the hardness tests and acceptance criteria 2-3: the paired
negative-part loss of the instance vectors, its exact minimum over the
unit ball by enumeration, and the negative-part loss of a lift.
"""

import math

import numpy as np

from ncerm.hardness import LiftedInstance, Max2SatInstance, enumerate_assignments, satisfied_count


def reduction_loss(w: np.ndarray, vectors: np.ndarray) -> float:
    """(1/(2n+2)) sum_i [min(0, <w, x_i>) + min(0, <w, -x_i>)] over the
    n+1 instance vectors; equals -(sum of |<w, x_i>|)/(2n+2).
    """
    w = np.asarray(w, dtype=float)
    dots = vectors @ w
    n_plus_1 = vectors.shape[0]
    return float(
        (np.minimum(0.0, dots).sum() + np.minimum(0.0, -dots).sum())
        / (2.0 * n_plus_1)
    )


def max_satisfied(inst: Max2SatInstance) -> int:
    """Brute-force optimum of satisfied_count over all assignments."""
    return max(
        satisfied_count(inst, z) for z in enumerate_assignments(inst.n_literals)
    )


def min_reduction_loss(inst: Max2SatInstance) -> float:
    """Exact minimum of the paired loss over the unit l2 ball:
    -sqrt(1 + 8*S_max/d) / (2n+2), by the counting identity.
    """
    return -math.sqrt(1.0 + 8.0 * max_satisfied(inst) / inst.d) / (
        2.0 * inst.n_literals + 2.0
    )


def negative_part_loss(lift: LiftedInstance, w) -> float:
    """g(w) = (1/n) sum_i min(0, <w, x_i>) on the lift's base vectors."""
    dots = lift.base_vectors @ np.asarray(w, dtype=float)
    return float(np.minimum(0.0, dots).sum() / lift.n)
