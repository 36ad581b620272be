"""Boosting weak network learners into a deeper norm-bounded network.

Round t reweights points by exp(-y_i f_{t-1}(x_i)) where f_{t-1} is the
running combination sum_tau c_tau * sigma(g_tau(x)), trains a weak
network on the reweighted sample to minimize the activated weighted loss
G_t(g) = sum_i a_i sigma(-y_i g(x_i)), and adds it with weight
c_t = (1/2) ln((1-mu_t)/(1+mu_t)), mu_t = max(-1/2, G_t).  The output is
the combination rescaled so its l1 weight equals the class budget B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import empirical_risk
from .networks import (
    Leaf,
    NetworkClassSpec,
    algorithm3,
    evaluate,
    Node,
    predictor,
)
from .util import NORM_TOL, check_unit_ball, child_seed

_MU_HI = 1.0 - 1e-15


class NoProgressError(RuntimeError):
    """Every round had a zero coefficient, so the output scale is undefined."""


@dataclass(frozen=True)
class ActivationLoss:
    """A bounded odd activation used as the weak learner's surrogate."""

    act: object
    lipschitz: float = 1.0

    def value(self, t):
        return self.act.value(t)

    def grad(self, t):
        return self.act.deriv(t)

    def __call__(self, t):
        return self.value(t)


@dataclass(frozen=True)
class WeakLearnerConfig:
    """Which subroutine trains the weak networks, and its budgets.

    epsilon = None uses the theory value gamma / ((4m+10) L B^m); k and s
    override the derived per-round sample size and width.
    """

    kind: str = "algorithm3"
    epsilon: float | None = None
    k: int | None = None
    s: int | None = None
    T_budget: int = 1
    refine_budget: int = 0
    delta: float = 0.05

    def __post_init__(self):
        if self.kind not in ("algorithm3", "algorithm2", "algorithm1"):
            raise ValueError(f"unknown weak learner kind {self.kind!r}")


@dataclass(frozen=True)
class BoostConfig:
    class_spec: NetworkClassSpec
    gamma: float
    T: int | None = None
    weak: WeakLearnerConfig = field(default_factory=WeakLearnerConfig)
    seed: int = 0

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if self.class_spec.depth < 2:
            raise ValueError("boosting needs class depth >= 2")


@dataclass(frozen=True)
class RoundRecord:
    t: int
    mu: float
    coefficient: float
    train_zero_one: float
    min_margin: float
    clamped: bool


@dataclass(frozen=True)
class BoostResult:
    network: Node
    weak_nets: tuple
    coefficients: np.ndarray
    b_T: float
    rounds: tuple
    any_clamped: bool
    potential_value: float
    potential_bound: float
    T: int


def default_rounds(n: int, budget: float, gamma: float) -> int:
    """ceil(16 B^2 ln(n+1) / gamma^2)."""
    return math.ceil(16.0 * budget * budget * math.log(n + 1) / (gamma * gamma))


def weak_epsilon(gamma: float, m: int, budget: float, lipschitz: float = 1.0) -> float:
    """Suboptimality target passed to the weak learner by the theory."""
    return gamma / ((4.0 * m + 10.0) * lipschitz * budget**m)


def boost_weights(f_values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Normalized exp(-y_i f_i); the max is subtracted before exponentiation
    so extreme margins cannot overflow.  f = 0 gives the uniform weights.
    """
    a = -np.asarray(labels, dtype=float) * np.asarray(f_values, dtype=float)
    a -= np.max(a)
    w = np.exp(a)
    return w / w.sum()


def weak_learn(data, config: BoostConfig, round_seed: int):
    """Train one weak network of depth m-1 on the reweighted sample.

    Dispatches to the configured subroutine; halfspace schemes are only
    valid when m - 1 = 1, and their output is wrapped as a leaf.
    """
    spec = config.class_spec
    m = spec.depth
    weak_spec = NetworkClassSpec(
        m - 1, spec.budget, spec.leaf_p, spec.input_q, spec.activation
    )
    act_loss = ActivationLoss(spec.act)
    wc = config.weak
    eps = wc.epsilon if wc.epsilon is not None else weak_epsilon(
        config.gamma, m, spec.budget, act_loss.lipschitz
    )
    if wc.kind == "algorithm3":
        return algorithm3(
            data, act_loss, weak_spec, eps, wc.delta,
            wc.T_budget, wc.refine_budget, round_seed, k=wc.k, s=wc.s,
        )
    if m - 1 != 1:
        raise ValueError("halfspace weak learners require class depth 2")
    from .halfspace import algorithm1, algorithm2, config_alg1, config_alg2

    if wc.kind == "algorithm2":
        cfg = config_alg2(
            data.n, data.dim, spec.leaf_p, eps, wc.delta,
            seed=round_seed, T_budget=wc.T_budget,
        )
        model = algorithm2(data, act_loss, cfg, wc.refine_budget)
        return Leaf(model.w)
    if spec.input_q != 2.0:
        raise ValueError("the sphere scheme needs l2-bounded data")
    cfg = config_alg1(
        data.n, data.dim, eps, wc.delta, seed=round_seed, T_budget=wc.T_budget
    )
    if cfg.r > spec.budget + NORM_TOL:
        raise ValueError(
            f"sphere radius {cfg.r} exceeds the leaf budget {spec.budget}"
        )
    model = algorithm1(data, act_loss, cfg, wc.refine_budget)
    return Leaf(model.w)


def boostnet_train(data, config: BoostConfig) -> BoostResult:
    """Run T boosting rounds and return the budget-normalized network.

    Per-round records hold mu_t, the coefficient, the training zero-one
    error, and the minimum margin of the rescaled combination (B/b_t) f_t.
    """
    spec = config.class_spec
    check_unit_ball(data.features, spec.input_q)
    X, y = data.features, data.labels
    n = data.n
    B = spec.budget
    act = spec.act
    weak_spec = NetworkClassSpec(
        spec.depth - 1, B, spec.leaf_p, spec.input_q, spec.activation
    )
    T = config.T if config.T is not None else default_rounds(n, B, config.gamma)
    if T < 1:
        raise ValueError("T must be >= 1")
    act_loss = ActivationLoss(act)
    M = np.zeros(n)
    b = 0.0
    children: list = []
    coeffs: list = []
    mus: list = []
    rounds: list = []
    any_clamped = False
    for t in range(T):
        alpha = boost_weights(M, y)
        data_t = data.with_weights(alpha)
        net_t = weak_learn(data_t, config, child_seed(config.seed, t))
        g_val = empirical_risk(predictor(net_t, weak_spec), act_loss, data_t)
        clamped = g_val < -0.5 or g_val >= _MU_HI
        mu = min(max(-0.5, g_val), _MU_HI)
        c = 0.5 * math.log((1.0 - mu) / (1.0 + mu))
        b += abs(c)
        M = M + c * act.value(evaluate(net_t, weak_spec, X))
        margins = y * M
        zero_one = float(np.dot(data.weights, (margins <= 0.0).astype(float)))
        min_margin = float((B / b) * np.min(margins)) if b > 0 else 0.0
        children.append(net_t)
        coeffs.append(c)
        mus.append(mu)
        any_clamped = any_clamped or clamped
        rounds.append(RoundRecord(t + 1, mu, c, zero_one, min_margin, clamped))
    if b == 0.0:
        raise NoProgressError("all boosting coefficients were zero")
    coeffs_arr = np.asarray(coeffs)
    network = Node(tuple(children), coeffs_arr * (B / b))
    mus_arr = np.asarray(mus)
    potential_value = float(np.mean(np.exp(-y * M)))
    potential_bound = float(np.exp(-0.5 * np.sum(mus_arr**2)))
    return BoostResult(
        network=network,
        weak_nets=tuple(children),
        coefficients=coeffs_arr,
        b_T=b,
        rounds=tuple(rounds),
        any_clamped=any_clamped,
        potential_value=potential_value,
        potential_bound=potential_bound,
        T=T,
    )


@dataclass(frozen=True)
class MarginCertificate:
    min_margin: float
    fraction_at_threshold: float


def margin_certificate(net, spec: NetworkClassSpec, data, threshold: float) -> MarginCertificate:
    """Minimum margin of y*f(x) and the weighted fraction at the threshold."""
    margins = data.labels * evaluate(net, spec, data.features)
    frac = float(np.dot(data.weights, (margins >= threshold).astype(float)))
    frac = min(max(frac, 0.0), 1.0)  # weight roundoff can overshoot by an ulp
    return MarginCertificate(float(np.min(margins)), frac)
