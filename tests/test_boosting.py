import math
import re

import numpy as np
import pytest

from ncerm.boosting import (
    BoostConfig,
    NoProgressError,
    WeakLearnerConfig,
    boost_weights,
    boostnet_train,
    default_rounds,
    margin_certificate,
    weak_epsilon,
    weak_learn,
)
from ncerm.data import WeightedDataset, flip_labels, planted_network
from ncerm.networks import evaluate, network_spec, validate

FAST_WEAK = WeakLearnerConfig(
    kind="algorithm3", epsilon=0.5, k=8, T_budget=3, refine_budget=40
)


def test_boost_weights_uniform_at_zero():
    y = np.array([1.0, -1.0, 1.0, 1.0])
    w = boost_weights(np.zeros(4), y)
    assert np.allclose(w, 0.25, atol=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_boost_weights_overflow_safe():
    y = np.ones(3)
    f = np.array([-2000.0, 0.0, 2000.0])
    w = boost_weights(f, y)
    assert np.all(np.isfinite(w))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    # the most-wrong point carries essentially all the weight
    assert w[0] > 0.999
    assert w[2] < 1e-300 or w[2] == 0.0


def test_boost_weights_orders_by_margin():
    y = np.array([1.0, 1.0, -1.0])
    f = np.array([0.5, -0.5, 0.2])
    w = boost_weights(f, y)
    # margins 0.5, -0.5, -0.2: smaller margin -> larger weight
    assert w[1] > w[2] > w[0]


def test_default_rounds_frozen():
    assert default_rounds(99, 1.0, 0.5) == 295
    assert default_rounds(1, 1.0, 1.0) == math.ceil(16.0 * math.log(2.0))


def test_weak_epsilon_frozen():
    assert weak_epsilon(0.5, 1, 1.0) == pytest.approx(0.5 / 14.0, rel=1e-15)
    assert weak_epsilon(0.3, 2, 2.0) == pytest.approx(0.3 / 72.0, rel=1e-15)
    assert weak_epsilon(0.3, 2, 2.0, lipschitz=2.0) == pytest.approx(
        0.3 / 144.0, rel=1e-15
    )


def test_config_validation():
    spec = network_spec(2, 2.0)
    with pytest.raises(ValueError):
        BoostConfig(spec, gamma=0.0)
    with pytest.raises(ValueError):
        BoostConfig(network_spec(1, 2.0), gamma=0.3)
    with pytest.raises(ValueError):
        WeakLearnerConfig(kind="gradient_descent")
    with pytest.raises(ValueError, match="k and s must be >= 1"):
        WeakLearnerConfig(kind="algorithm2", k=-1)


def _planted(seed=0, n=100, d=4, margin=0.3, budget=2.0):
    spec = network_spec(2, budget, 2.0, "tanh")
    data, _ = planted_network(n, d, margin, spec, 2, seed)
    return spec, data


def test_boostnet_clamped_coefficient_exact():
    """On cleanly separable data a strong weak learner drives the round
    loss below -1/2; the coefficient is then exactly (1/2) ln 3."""
    spec, data = _planted(seed=1)
    weak = WeakLearnerConfig(kind="algorithm3", epsilon=0.5, k=8,
                             T_budget=4, refine_budget=80)
    res = boostnet_train(data, BoostConfig(spec, gamma=0.3, T=3, weak=weak, seed=5))
    assert res.rounds[0].clamped
    assert res.rounds[0].mu == -0.5
    assert res.rounds[0].coefficient == 0.5 * math.log(3.0)
    assert res.any_clamped


def test_boostnet_output_shape_and_budget():
    spec, data = _planted(seed=2)
    res = boostnet_train(data, BoostConfig(spec, gamma=0.3, T=4, weak=FAST_WEAK, seed=3))
    net = res.network
    validate(net, spec)
    assert len(net.children) == 4
    assert np.sum(np.abs(net.comb_weights)) == pytest.approx(spec.budget, rel=1e-12)
    assert res.b_T == pytest.approx(np.sum(np.abs(res.coefficients)), rel=1e-15)
    assert res.T == 4
    assert len(res.rounds) == 4


def test_boostnet_deterministic():
    spec, data = _planted(seed=4)
    cfg = BoostConfig(spec, gamma=0.3, T=3, weak=FAST_WEAK, seed=9)
    r1 = boostnet_train(data, cfg)
    r2 = boostnet_train(data, cfg)
    assert np.array_equal(r1.coefficients, r2.coefficients)
    assert np.array_equal(r1.network.comb_weights, r2.network.comb_weights)


def test_boostnet_weak_algorithm2_dispatch():
    spec, data = _planted(seed=6)
    weak = WeakLearnerConfig(kind="algorithm2", epsilon=0.5,
                             T_budget=4, refine_budget=40)
    res = boostnet_train(data, BoostConfig(spec, gamma=0.3, T=3, weak=weak, seed=7))
    assert len(res.network.levels) == 2
    validate(res.network, spec)


def test_boostnet_weak_algorithm2_honours_k():
    """The weak batch size k reaches Algorithm 2: two sizes give different
    weak leaves, and k = None keeps config_alg2's size (4 at eps 0.5, p 2)."""
    spec, data = _planted(seed=6)

    def leaves(k):
        weak = WeakLearnerConfig(kind="algorithm2", epsilon=0.5, k=k, T_budget=2)
        res = boostnet_train(data, BoostConfig(spec, gamma=0.3, T=2, weak=weak, seed=7))
        return np.array([c.w for c in res.network.children])

    assert not np.array_equal(leaves(3), leaves(50))
    assert np.array_equal(leaves(None), leaves(4))


def test_boostnet_weak_algorithm1_dispatch():
    spec, data = _planted(seed=8)
    weak = WeakLearnerConfig(kind="algorithm1", epsilon=0.4,
                             T_budget=4, refine_budget=40)
    res = boostnet_train(data, BoostConfig(spec, gamma=0.3, T=2, weak=weak, seed=1))
    assert len(res.network.levels) == 2
    validate(res.network, spec)


def test_boostnet_halfspace_weak_needs_depth_two():
    spec = network_spec(3, 2.0)
    data, _ = planted_network(60, 4, 0.2, spec, 2, seed=3)
    weak = WeakLearnerConfig(kind="algorithm2", epsilon=0.5, T_budget=2)
    with pytest.raises(ValueError):
        boostnet_train(data, BoostConfig(spec, gamma=0.3, T=2, weak=weak, seed=0))


def test_boostnet_no_progress_on_zero_features():
    spec = network_spec(2, 2.0)
    X = np.zeros((10, 3))
    y = np.ones(10)
    data = WeightedDataset.uniform(X, y, feature_norm_q=2.0)
    with pytest.raises(NoProgressError):
        boostnet_train(data, BoostConfig(spec, gamma=0.3, T=2, weak=FAST_WEAK, seed=0))


def test_boostnet_unclamped_potential_bound():
    """Label noise keeps every round's edge strictly inside (-1/2, 1);
    the exponential potential bound must then hold."""
    spec, clean = _planted(seed=10, n=120, margin=0.25)
    data = flip_labels(clean, 0.35, seed=11)
    weak = WeakLearnerConfig(kind="algorithm3", epsilon=0.5, k=8,
                             T_budget=2, refine_budget=15)
    res = boostnet_train(data, BoostConfig(spec, gamma=0.1, T=6, weak=weak, seed=12))
    assert not res.any_clamped
    mus = np.array([r.mu for r in res.rounds])
    assert np.all(mus > -0.5) and np.all(mus < 1.0)
    assert res.potential_bound == pytest.approx(
        math.exp(-0.5 * float(np.sum(mus**2))), rel=1e-15
    )
    assert res.potential_value <= res.potential_bound + 1e-9


def test_boostnet_separable_run_reaches_zero_error():
    spec, data = _planted(seed=13, n=150, d=5, margin=0.3)
    weak = WeakLearnerConfig(kind="algorithm3", epsilon=0.5, k=8,
                             T_budget=4, refine_budget=80)
    res = boostnet_train(data, BoostConfig(spec, gamma=0.3, T=12, weak=weak, seed=14))
    assert res.rounds[-1].train_zero_one == 0.0
    assert res.rounds[-1].min_margin > 0.0


def test_margin_certificate_consistency():
    spec, data = _planted(seed=15)
    res = boostnet_train(data, BoostConfig(spec, gamma=0.3, T=5, weak=FAST_WEAK, seed=16))
    margins = data.labels * evaluate(res.network, spec, data.features)
    cert = margin_certificate(res.network, spec, data, threshold=0.3 / 16.0)
    assert cert.min_margin == pytest.approx(float(np.min(margins)), rel=1e-12)
    assert 0.0 <= cert.fraction_at_threshold <= 1.0
    if cert.min_margin >= 0.3 / 16.0:
        assert cert.fraction_at_threshold == 1.0
    # final round's recorded margin matches the rescaled network's
    assert res.rounds[-1].min_margin == pytest.approx(cert.min_margin, abs=1e-12)


@pytest.mark.parametrize("kind, depth, leaf_p, budget, d, match", [
    ("algorithm1", 3, 2.0, 2.0, 4, "class depth 2"),
    ("algorithm2", 3, 2.0, 2.0, 4, "class depth 2"),
    ("algorithm1", 2, 1.5, 2.0, 4, "l2-bounded"),
    # n = 2, d = 300, eps = 0.4: s = ceil(12 ln 4 / 0.16) = 104, r = sqrt(300/104) > 1
    ("algorithm1", 2, 2.0, 1.0, 300, f"sphere radius {math.sqrt(300 / 104)} exceeds"),
])
def test_weak_learn_refusals(kind, depth, leaf_p, budget, d, match):
    """weak_learn refuses a halfspace weak learner below a class of depth
    other than 2, the sphere scheme on data not bounded in l2, and a sphere
    radius above the leaf budget."""
    spec = network_spec(depth, budget, leaf_p)
    data = WeightedDataset.uniform(0.5 * np.eye(2, d), np.array([1.0, -1.0]),
                                   feature_norm_q=spec.input_q)
    weak = WeakLearnerConfig(kind=kind, epsilon=0.4, T_budget=1)
    with pytest.raises(ValueError, match=re.escape(match)):
        weak_learn(data, BoostConfig(spec, gamma=0.3, weak=weak), 0)
