"""Random-restart training of norm-bounded halfspaces.

Two initialization schemes share the same outer loop, best_round, which
Algorithm 3 also runs: draw a candidate per round from an independent
block of a counter-based stream, optionally refine it locally, and keep
the earliest round with the lowest weighted surrogate risk.  Rounds are
drawn, fitted, refined and scored a chunk at a time, its size from
util.blocks; a chunk is one draw in which every round still gets its own
block, so the chunk size changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import draw_batch
from .solvers import constrained_least_squares, lockstep_descent, row_kernels
from .util import NORM_TOL, blocks, ceil_big_product, dual_exponent, lq_norm, round_uniforms


@dataclass(frozen=True)
class LinearModel:
    """Halfspace x -> <w, x> with ||w||_p <= radius."""

    w: np.ndarray
    p_exponent: float
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "w", np.ascontiguousarray(self.w, dtype=float))

    def predict(self, X):
        return np.asarray(X, dtype=float) @ self.w

    def norm(self) -> float:
        return float(lq_norm(self.w, self.p_exponent))

    def check_feasible(self) -> None:
        if not self.norm() <= self.radius + NORM_TOL:
            raise ValueError(
                f"||w||_{self.p_exponent} = {self.norm()} exceeds radius {self.radius}"
            )


def check_eps_delta(epsilon: float, delta: float, eps_hi: float = math.inf) -> None:
    """The one check of every learner's epsilon in (0, eps_hi) and delta in (0, 1)."""
    if not (0.0 < epsilon < eps_hi):
        raise ValueError(f"epsilon must be in (0, {eps_hi})")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")


def config_alg1(n: int, d: int, epsilon: float, delta: float):
    """Sphere scheme as (s, r, T_theory): s = min(d, ceil(12 ln(n+2)/eps^2)),
    r = sqrt(d/s), T_theory = ceil((2n+4) (pi/eps)^(s-1) ln(1/delta)), natural logs.
    """
    check_eps_delta(epsilon, delta, 0.5)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    s = min(d, math.ceil(12.0 * math.log(n + 2) / epsilon**2))
    T_theory = ceil_big_product(
        2.0 * n + 4.0, math.pi / epsilon, s - 1, math.log(1.0 / delta)
    )
    return s, math.sqrt(d / s), T_theory


def config_alg2(n: int, d: int, p: float, epsilon: float, delta: float):
    """Least-squares scheme as (k, T_theory): k = ceil(2 ln d / eps^2) for p = 1,
    else k = ceil((q-1)/eps^2) with q dual to p; T_theory = ceil(5 (4/eps)^k ln(1/delta)).
    """
    check_eps_delta(epsilon, delta)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if not (1.0 <= p <= 2.0):
        raise ValueError("p must be in [1, 2]")
    if p == 1.0:
        k = max(1, math.ceil(2.0 * math.log(d) / epsilon**2))
    else:
        q = dual_exponent(p)
        k = max(1, math.ceil((q - 1.0) / epsilon**2))
    return k, ceil_big_product(5.0, 4.0 / epsilon, k, math.log(1.0 / delta))


def best_round(T: int, candidates, kernels, refine_budget: int,
               row_floats: int) -> np.ndarray:
    """Parameter row of the earliest best round among rounds 0..T-1.

    candidates(ts) returns the feasible starts of rounds ts as the rows of
    a (len(ts), dim) matrix, each row the one its round gives alone;
    kernels are the row functions (risk and state, gradient, projection)
    of its model class, whose scratch holds row_floats floats per row.
    Starts are drawn, refined by lockstep_descent and scored in the chunks
    of util.blocks(T, row_floats) by the same row-wise risk, which computes
    each row on its own, so the chunk size changes no result.
    """
    if T < 1:
        raise ValueError("T_budget must be >= 1")
    best_w, best_risk = None, math.inf
    for ts in blocks(T, row_floats):
        W, risks = lockstep_descent(candidates(ts), *kernels, refine_budget)
        j = int(np.argmin(risks))
        if risks[j] < best_risk:
            best_w, best_risk = W[j].copy(), risks[j]
    return best_w


def sphere_starts(seed: int, ts, dim: int, r: float) -> np.ndarray:
    """Starts (c, dim) of rounds ts, each r times a uniform unit vector.

    Round t's Gaussian direction comes by Box-Muller from its block of
    2 ceil(dim/2) uniforms u: radii sqrt(-2 log(1 - u)) from the first
    half, angles 2 pi u from the second, cosines then sines.
    """
    h = -(-dim // 2)
    u = round_uniforms(seed, ts, 2 * h)
    radius, angle = np.sqrt(-2.0 * np.log(1.0 - u[:, :h])), 2.0 * np.pi * u[:, h:]
    G = np.hstack([radius * np.cos(angle), radius * np.sin(angle)])[:, :dim]
    return G * (r / np.linalg.norm(G, axis=1, keepdims=True))


def algorithm1(data, loss, epsilon: float, delta: float, T_budget: int,
               refine_budget: int, seed: int) -> LinearModel:
    """Uniform-sphere restarts: round t starts from r*u, u uniform on the
    unit sphere (sphere_starts), for min(T_budget, T_theory) rounds with
    r and T_theory from config_alg1; output norm stays within r.
    """
    data.check_unit_ball(2.0)
    _, r, T_theory = config_alg1(data.n, data.dim, epsilon, delta)
    w = best_round(min(T_budget, T_theory), lambda ts: sphere_starts(seed, ts, data.dim, r),
                   row_kernels(data, loss, [(1, data.dim)], 2.0, r), refine_budget, 2 * data.n)
    return LinearModel(w, 2.0, r)


def draw_rounds(data, seed: int, ts, k: int, targets: int, bound: float):
    """Batches X (c, k, d) and targets U (c, targets, k) of rounds ts.

    Rounds ts, a step-1 range, are one draw of round_uniforms with a block
    of k + targets k uniforms per round: the first k pick the round's
    batch by importance weight, the rest give its targets bound (2u - 1)
    in [-bound, bound].
    """
    u = round_uniforms(seed, ts, k * (1 + targets))
    return draw_batch(data, u[:, :k]), bound * (2.0 * u[:, k:] - 1.0).reshape(-1, targets, k)


def algorithm2(data, loss, p: float, epsilon: float, delta: float, T_budget: int,
               refine_budget: int, seed: int, k: int | None = None) -> LinearModel:
    """Least-squares restarts: round t importance-samples k points, draws
    targets u uniform in [-1, 1]^k, and fits the batch exactly under
    ||w||_p <= 1.  A chunk's rounds are drawn in one call, each from its
    own block, and fitted in one stacked solve.  k and T_theory come from
    config_alg2; a given k replaces the derived one but not its T_theory.
    """
    data.check_unit_ball(dual_exponent(p))
    k_cfg, T_theory = config_alg2(data.n, data.dim, p, epsilon, delta)
    k = k_cfg if k is None else int(k)
    if k < 1:
        raise ValueError("k must be >= 1")

    def candidates(ts):
        X, U = draw_rounds(data, seed, ts, k, 1, 1.0)
        return constrained_least_squares(X, U[:, 0], p, 1.0)

    w = best_round(min(T_budget, T_theory), candidates,
                   row_kernels(data, loss, [(1, data.dim)], p, 1.0), refine_budget, 2 * data.n)
    return LinearModel(w, p, 1.0)
