"""Every learner's output lies in its norm ball, for any exponent, budget,
sample shape and round count: Algorithms 1-3, BoostNet, and the linear
and network refiners, checked by LinearModel.check_feasible or validate."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncerm.boosting import (
    BoostConfig,
    NoProgressError,
    WeakLearnerConfig,
    boost_weights,
    boostnet_train,
    weak_learn,
)
from ncerm.data import WeightedDataset
from ncerm.halfspace import LinearModel, algorithm1, algorithm2, config_alg1
from ncerm.losses import empirical_risk, piecewise_linear
from ncerm.networks import (
    algorithm3,
    evaluate,
    network_spec,
    random_network,
    refine_network,
    validate,
)
from ncerm.solvers import refine
from ncerm.util import child_seed, dual_exponent, lq_norm

LOSS = piecewise_linear(1.0)
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(1, 30)
DIMS = st.integers(1, 5)
ROUNDS = st.integers(1, 3)
STEPS = st.integers(0, 4)
# p near 1 makes the dual exponent, and with it Algorithm 2's batch size
# (q - 1) / eps^2, huge; p = 1 itself has a batch size of order ln d.
P = st.one_of(st.just(1.0), st.floats(1.25, 2.0))
LEAF_P = st.floats(1.05, 2.0)
BUDGETS = st.floats(1.0, 4.0)


def _sample(seed: int, n: int, d: int, q: float) -> WeightedDataset:
    """n points in the unit l_q ball, some on its boundary, with random
    labels and importance weights."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X *= (rng.choice([rng.uniform(), 1.0], size=n) / lq_norm(X, q))[:, None]
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    w = rng.dirichlet(np.ones(n))
    return WeightedDataset(X, y, w / w.sum())


@settings(max_examples=25, deadline=None)
@given(SEEDS, SIZES, DIMS, st.floats(0.1, 0.49), ROUNDS, STEPS)
def test_algorithm1_in_sphere_ball(seed, n, d, epsilon, T, steps):
    model = algorithm1(_sample(seed, n, d, 2.0), LOSS, epsilon, 0.1, T, steps, seed)
    assert model.radius == config_alg1(n, d, epsilon, 0.1)[1]
    model.check_feasible()


@settings(max_examples=15, deadline=None)
@given(SEEDS, SIZES, DIMS, P, st.floats(0.5, 2.0), ROUNDS, STEPS)
def test_algorithm2_in_unit_lp_ball(seed, n, d, p, epsilon, T, steps):
    model = algorithm2(_sample(seed, n, d, dual_exponent(p)), LOSS, p, epsilon, 0.1, T,
                       steps, seed)
    assert model.radius == 1.0
    model.check_feasible()


@settings(max_examples=25, deadline=None)
@given(SEEDS, SIZES, DIMS, P, st.floats(0.1, 10.0), STEPS)
def test_refine_stays_in_its_ball(seed, n, d, p, radius, steps):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    start = LinearModel(w * (radius / lq_norm(w, p)), p, radius)
    model = refine(start, _sample(seed, n, d, dual_exponent(p)), LOSS, steps)
    assert (model.p_exponent, model.radius) == (p, radius)
    model.check_feasible()


@settings(max_examples=15, deadline=None)
@given(SEEDS, SIZES, DIMS, st.integers(1, 3), LEAF_P, BUDGETS,
       st.integers(1, 6), st.integers(1, 2), ROUNDS, STEPS)
def test_network_learners_in_class(seed, n, d, depth, leaf_p, budget, k, s, T, steps):
    spec = network_spec(depth, budget, leaf_p)
    data = _sample(seed, n, d, spec.input_q)
    validate(algorithm3(data, LOSS, spec, 0.5, 0.1, T, steps, seed, k=k, s=s), spec)
    validate(refine_network(random_network(spec, d, 2, seed), spec, data, LOSS, steps), spec)


@settings(max_examples=10, deadline=None)
@given(SEEDS, SIZES, DIMS, st.integers(2, 3), LEAF_P, BUDGETS, st.integers(1, 2), STEPS)
@example(seed=0, n=2, d=1, depth=2, leaf_p=2.0, budget=1.0, T=1, steps=0)
def test_boostnet_in_class(seed, n, d, depth, leaf_p, budget, T, steps):
    """BoostNet's output is in its class, or it raises NoProgressError
    because every coefficient was zero.  Then every round saw the uniform
    weights boost_weights(0, y), and each round's weak net has activated
    risk G_t zero to within rounding, so that its coefficient
    c_t = (1/2) ln((1 - G_t) / (1 + G_t)) is exactly 0.  (Labels that
    cancel per point magnitude, as for x and -x at d = 1, make every odd
    weak net's G_t vanish; summing the cancelling terms can leave an
    ulp-sized residue.)"""
    spec = network_spec(depth, budget, leaf_p)
    weak = WeakLearnerConfig(epsilon=0.5, k=4, s=2, T_budget=1, refine_budget=steps)
    data = _sample(seed, n, d, spec.input_q)
    config = BoostConfig(spec, gamma=0.3, T=T, weak=weak, seed=seed)
    try:
        result = boostnet_train(data, config)
    except NoProgressError:
        uniform = data.with_weights(boost_weights(np.zeros(n), data.labels))
        for t in range(T):
            F = evaluate(weak_learn(uniform, config, child_seed(seed, t)), config.weak_spec,
                         data.features)
            G = empirical_risk(lambda _: F, spec.act, uniform)
            assert abs(G) < 1e-15 and math.log((1.0 - G) / (1.0 + G)) == 0.0
    else:
        validate(result.network, spec)
