"""Boosting weak network learners into a deeper norm-bounded network.

Round t reweights points by exp(-y_i f_{t-1}(x_i)) where f_{t-1} is the
running combination sum_tau c_tau * sigma(g_tau(x)), trains a weak
network on the reweighted sample to minimize the activated weighted loss
G_t(g) = sum_i a_i sigma(-y_i g(x_i)), and adds it with weight
c_t = (1/2) ln((1-mu_t)/(1+mu_t)), mu_t = max(-1/2, G_t).  The output is
the combination rescaled so its l1 weight equals the class budget B.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .halfspace import algorithm1, algorithm2, config_alg1
from .losses import apply_into, empirical_risk
from .networks import Network, NetworkClassSpec, algorithm3, combine, evaluate
from .util import NORM_TOL, check_unit_ball, child_seed

_MU_HI = 1.0 - 1e-15
WEAK_DELTA = 0.05  # failure probability of a weak learner's theory round count
WEAK_KINDS = ("algorithm1", "algorithm2", "algorithm3")


class NoProgressError(ValueError):
    """Every round had a zero coefficient, so the output scale is undefined."""


@dataclass(frozen=True)
class ActivationLoss:
    """A bounded odd activation used as the weak learner's surrogate.

    value(t, out=None) and grad(t, out=None) follow LossFunction's; they
    are the activation's own functions bound once, since the refiner calls
    them at every step.
    """

    act: object

    def __post_init__(self):
        for name, fn in zip(("value", "grad"), self.act.functions):
            object.__setattr__(self, name, functools.partial(apply_into, fn))


@dataclass(frozen=True)
class WeakLearnerConfig:
    """Which subroutine trains the weak networks, and its budgets.

    epsilon = None uses the theory value gamma / ((4m+10) B^m) at L = 1; k
    overrides the derived per-round sample size of Algorithms 2 and 3 (the
    sphere scheme draws no batch) and s the width of Algorithm 3.
    """

    kind: str = "algorithm3"
    epsilon: float | None = None
    k: int | None = None
    s: int | None = None
    T_budget: int = 1
    refine_budget: int = 0

    def __post_init__(self):
        if self.kind not in WEAK_KINDS:
            raise ValueError(f"unknown weak learner kind {self.kind!r}")
        if (self.k is not None and self.k < 1) or (self.s is not None and self.s < 1):
            raise ValueError("k and s must be >= 1")


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

    @property
    def weak_spec(self) -> NetworkClassSpec:
        """The class of the weak networks: one level shallower."""
        return replace(self.class_spec, depth=self.class_spec.depth - 1)


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
    network: Network
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
    valid when m - 1 = 1, and their output is wrapped as a depth-1 network.
    """
    spec = config.class_spec
    m = spec.depth
    act_loss = ActivationLoss(spec.act)
    wc = config.weak
    eps = wc.epsilon if wc.epsilon is not None else weak_epsilon(config.gamma, m, spec.budget)
    if wc.kind == "algorithm3":
        return algorithm3(
            data, act_loss, config.weak_spec, eps, WEAK_DELTA,
            wc.T_budget, wc.refine_budget, round_seed, k=wc.k, s=wc.s,
        )
    if m - 1 != 1:
        raise ValueError("halfspace weak learners require class depth 2")
    if wc.kind == "algorithm2":
        model = algorithm2(data, act_loss, spec.leaf_p, eps, WEAK_DELTA, wc.T_budget,
                           wc.refine_budget, round_seed, k=wc.k)
        return Network([model.w[None]])
    if spec.input_q != 2.0:
        raise ValueError("the sphere scheme needs l2-bounded data")
    _, r, _ = config_alg1(data.n, data.dim, eps, WEAK_DELTA)
    if r > spec.budget + NORM_TOL:
        raise ValueError(f"sphere radius {r} exceeds the leaf budget {spec.budget}")
    model = algorithm1(data, act_loss, eps, WEAK_DELTA, wc.T_budget, wc.refine_budget,
                       round_seed)
    return Network([model.w[None]])


def boostnet_train(data, config: BoostConfig) -> BoostResult:
    """Run T boosting rounds and return the budget-normalized network.

    Per-round records hold mu_t, the coefficient, the training zero-one
    error, and the minimum margin of the rescaled combination (B/b_t) f_t.
    """
    spec, weak_spec = config.class_spec, config.weak_spec
    check_unit_ball(data.features, spec.input_q)
    X, y, B, act = data.features, data.labels, spec.budget, spec.act
    T = config.T if config.T is not None else default_rounds(data.n, B, config.gamma)
    if T < 1:
        raise ValueError("T must be >= 1")
    act_loss = ActivationLoss(act)
    M, b, children, rounds = np.zeros(data.n), 0.0, [], []
    for t in range(T):
        data_t = data.with_weights(boost_weights(M, y))
        net_t = weak_learn(data_t, config, child_seed(config.seed, t))
        F = evaluate(net_t, weak_spec, X)
        g_val = empirical_risk(lambda _: F, act_loss, data_t)
        clamped = g_val < -0.5 or g_val >= _MU_HI
        mu = min(max(-0.5, g_val), _MU_HI)
        c = 0.5 * math.log((1.0 - mu) / (1.0 + mu))
        b += abs(c)
        M += c * act.value(F)
        margins = y * M
        zero_one = float(np.dot(data.weights, (margins <= 0.0).astype(float)))
        min_margin = float((B / b) * np.min(margins)) if b > 0 else 0.0
        children.append(net_t)
        rounds.append(RoundRecord(t + 1, mu, c, zero_one, min_margin, clamped))
    if b == 0.0:
        raise NoProgressError("all boosting coefficients were zero")
    coeffs = np.array([r.coefficient for r in rounds])
    mus = np.array([r.mu for r in rounds])
    return BoostResult(
        network=combine(children, coeffs * (B / b)), coefficients=coeffs, b_T=b,
        rounds=tuple(rounds), any_clamped=any(r.clamped for r in rounds),
        potential_value=float(np.mean(np.exp(-y * M))),
        potential_bound=float(np.exp(-0.5 * np.sum(mus**2))), T=T,
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
