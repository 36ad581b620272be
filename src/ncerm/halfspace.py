"""Random-restart training of norm-bounded halfspaces.

Two initialization schemes share the same outer loop, best_round, which
Algorithm 3 also runs: draw a candidate per round from an independent
seed stream, optionally refine it locally, and keep the earliest round
with the lowest weighted surrogate risk.  Rounds are refined and scored
CHUNK_ROUNDS at a time in lockstep; every round still draws from its own
stream, so the chunk size changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import draw_batch
from .solvers import constrained_least_squares, linear_kernels, lockstep_descent
from .util import NORM_TOL, ceil_big_product, check_unit_ball, dual_exponent, lq_norm, round_rng

DEFAULT_T_BUDGET = 1000
CHUNK_ROUNDS = 256


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
        if self.norm() > self.radius + NORM_TOL:
            raise ValueError(
                f"||w||_{self.p_exponent} = {self.norm()} exceeds radius {self.radius}"
            )


@dataclass(frozen=True)
class HalfspaceRunConfig:
    """Round budget and geometry for one training run.

    Scheme 1 (sphere): s is the effective dimension, r = sqrt(d/s) the
    sphere radius.  Scheme 2 (least squares): k is the per-round batch
    size and candidates live in the unit l_p ball (r = 1).
    """

    algorithm: int
    epsilon: float
    delta: float
    p_exponent: float
    s: int
    r: float
    k: int
    T_theory: int
    T_budget: int
    seed: int

    def with_budget(self, T_budget: int) -> "HalfspaceRunConfig":
        return replace(self, T_budget=int(T_budget))

    def with_seed(self, seed: int) -> "HalfspaceRunConfig":
        return replace(self, seed=int(seed))


def _check_eps_delta(epsilon: float, delta: float, eps_hi: float) -> None:
    if not (0.0 < epsilon < eps_hi):
        raise ValueError(f"epsilon must be in (0, {eps_hi})")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")


def config_alg1(
    n: int, d: int, epsilon: float, delta: float,
    seed: int = 0, T_budget: int = DEFAULT_T_BUDGET,
) -> HalfspaceRunConfig:
    """Sphere scheme: s = min(d, ceil(12 ln(n+2)/eps^2)), r = sqrt(d/s),
    T = ceil((2n+4) (pi/eps)^(s-1) ln(1/delta)).  Natural logs throughout.
    """
    _check_eps_delta(epsilon, delta, 0.5)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    s = min(d, math.ceil(12.0 * math.log(n + 2) / epsilon**2))
    r = math.sqrt(d / s)
    T_theory = ceil_big_product(
        2.0 * n + 4.0, math.pi / epsilon, s - 1, math.log(1.0 / delta)
    )
    return HalfspaceRunConfig(
        algorithm=1, epsilon=float(epsilon), delta=float(delta), p_exponent=2.0,
        s=s, r=r, k=0, T_theory=T_theory, T_budget=min(T_budget, T_theory), seed=seed,
    )


def config_alg2(
    n: int, d: int, p: float, epsilon: float, delta: float,
    seed: int = 0, T_budget: int = DEFAULT_T_BUDGET,
) -> HalfspaceRunConfig:
    """Least-squares scheme: k = ceil(2 ln d / eps^2) for p = 1, else
    k = ceil((q-1)/eps^2) with q dual to p; T = ceil(5 (4/eps)^k ln(1/delta)).
    """
    _check_eps_delta(epsilon, delta, math.inf)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if not (1.0 <= p <= 2.0):
        raise ValueError("p must be in [1, 2]")
    if p == 1.0:
        k = max(1, math.ceil(2.0 * math.log(d) / epsilon**2))
    else:
        q = dual_exponent(p)
        k = max(1, math.ceil((q - 1.0) / epsilon**2))
    T_theory = ceil_big_product(5.0, 4.0 / epsilon, k, math.log(1.0 / delta))
    return HalfspaceRunConfig(
        algorithm=2, epsilon=float(epsilon), delta=float(delta), p_exponent=float(p),
        s=0, r=1.0, k=k, T_theory=T_theory, T_budget=min(T_budget, T_theory), seed=seed,
    )


def best_round(T: int, candidate, kernels, refine_budget: int) -> np.ndarray:
    """Parameter row of the earliest best round among rounds 0..T-1.

    candidate(t) returns round t's feasible start as a flat row; kernels
    are the row functions (risk, gradient, projection) of its model class.
    Starts are refined CHUNK_ROUNDS at a time by lockstep_descent and
    scored by the same row-wise risk, which computes each row on its own,
    so the chunk size changes no result.
    """
    if T < 1:
        raise ValueError("T_budget must be >= 1")
    best_w, best_risk = None, math.inf
    for start in range(0, T, CHUNK_ROUNDS):
        W0 = [candidate(t) for t in range(start, min(T, start + CHUNK_ROUNDS))]
        W, risks = lockstep_descent(W0, *kernels, refine_budget)
        j = int(np.argmin(risks))
        if risks[j] < best_risk:
            best_w, best_risk = W[j].copy(), risks[j]
    return best_w


def algorithm1(data, loss, config: HalfspaceRunConfig, refine_budget: int = 0) -> LinearModel:
    """Uniform-sphere restarts: round t draws u uniform on the unit sphere
    and starts from r*u; output norm stays within r.
    """
    if config.algorithm != 1:
        raise ValueError("config was not built for the sphere scheme")
    check_unit_ball(data.features, 2.0)

    def candidate(t):
        g = round_rng(config.seed, t).standard_normal(data.dim)
        return config.r * (g / np.linalg.norm(g))

    w = best_round(config.T_budget, candidate,
                   linear_kernels(data, loss, 2.0, config.r), refine_budget)
    return LinearModel(w, 2.0, config.r)


def algorithm2(
    data, loss, config: HalfspaceRunConfig, refine_budget: int = 0, u_override=None
) -> LinearModel:
    """Least-squares restarts: round t importance-samples k points, draws
    targets u uniform in [-1, 1]^k (u_override(batch) replaces the draw,
    for testing), and fits the batch exactly under ||w||_p <= 1.
    """
    if config.algorithm != 2:
        raise ValueError("config was not built for the least-squares scheme")
    check_unit_ball(data.features, dual_exponent(config.p_exponent))

    def candidate(t):
        rng = round_rng(config.seed, t)
        batch = draw_batch(rng, data, config.k)
        if u_override is None:
            u = rng.uniform(-1.0, 1.0, size=config.k)
        else:
            u = np.asarray(u_override(batch), dtype=float)
        return constrained_least_squares(batch.features, u, config.p_exponent, 1.0)

    w = best_round(config.T_budget, candidate,
                   linear_kernels(data, loss, config.p_exponent, 1.0), refine_budget)
    return LinearModel(w, config.p_exponent, 1.0)
