import math

import numpy as np
import pytest

from ncerm import halfspace
from ncerm.data import planted_halfspace
from ncerm.halfspace import (
    LinearModel,
    algorithm1,
    algorithm2,
    config_alg1,
    config_alg2,
)
from ncerm.losses import empirical_risk, piecewise_linear, zero_one_risk
from ncerm.util import lq_norm, round_rng


def test_config_alg1_frozen_example():
    # n=8, d=2: s = min(2, ceil(12 ln 10 / 0.16)) = 2, r = 1,
    # T = ceil(20 * (pi/0.4)^1 * 1) = ceil(157.08) = 158
    cfg = config_alg1(8, 2, 0.4, math.exp(-1.0))
    assert cfg.s == 2
    assert cfg.r == 1.0
    assert cfg.T_theory == 158
    assert cfg.T_budget == 158  # capped by T_theory below the default


def test_config_alg1_s_capped_by_dimension():
    cfg = config_alg1(98, 300, 0.4, 0.05)
    # ceil(12 ln 100 / 0.16) = ceil(345.4) = 346 > d, so s = d and r = 1
    assert cfg.s == 300
    assert cfg.r == 1.0
    cfg2 = config_alg1(8, 500, 0.4, 0.05)
    s_expect = math.ceil(12.0 * math.log(10.0) / 0.16)
    assert cfg2.s == s_expect
    assert cfg2.r == pytest.approx(math.sqrt(500.0 / s_expect), rel=1e-12)


def test_config_alg1_validation():
    with pytest.raises(ValueError):
        config_alg1(8, 2, 0.5, 0.05)  # eps must be < 1/2
    with pytest.raises(ValueError):
        config_alg1(8, 2, 0.4, 1.0)
    with pytest.raises(ValueError):
        config_alg1(0, 2, 0.4, 0.05)


def test_config_alg2_frozen_batch_sizes():
    # p=1: k = ceil(2 ln d / eps^2) = ceil(2 ln 100 / 0.0625) = 148
    assert config_alg2(50, 100, 1.0, 0.25, 0.05).k == 148
    # p=2 -> q=2: k = ceil(1/eps^2)
    assert config_alg2(50, 100, 2.0, 0.2, 0.05).k == 25
    assert config_alg2(50, 100, 2.0, 1.0, 0.05).k == 1
    # p=1.5 -> q=3: k = ceil(2/eps^2) = 8 at eps=1/2
    assert config_alg2(50, 100, 1.5, 0.5, 0.05).k == 8


def test_config_alg2_t_theory():
    cfg = config_alg2(10, 4, 2.0, 1.0, math.exp(-1.0))
    # k=1: T = ceil(5 * 4 * 1) = 20
    assert cfg.T_theory == 20
    with pytest.raises(ValueError):
        config_alg2(10, 4, 2.5, 0.5, 0.05)
    with pytest.raises(ValueError):
        config_alg2(10, 4, 2.0, 0.5, 0.0)


def test_config_helpers():
    cfg = config_alg2(10, 4, 2.0, 0.5, 0.05, seed=1, T_budget=50)
    assert cfg.with_budget(7).T_budget == 7
    assert cfg.with_seed(9).seed == 9
    assert cfg.with_seed(9).T_budget == cfg.T_budget


def test_linear_model_feasibility():
    m = LinearModel(np.array([0.6, 0.8]), 2.0, 1.0)
    m.check_feasible()
    assert m.norm() == pytest.approx(1.0, rel=1e-12)
    bad = LinearModel(np.array([1.0, 1.0]), 2.0, 1.0)
    with pytest.raises(ValueError):
        bad.check_feasible()
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(m.predict(X), [0.6, 0.8])


def test_algorithm1_single_round_reproduces_stream():
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(40, 3, 0.2, 2.0, seed=2)
    cfg = config_alg1(40, 3, 0.4, 0.05, seed=21, T_budget=1)
    model = algorithm1(data, loss, cfg, refine_budget=0)
    g = round_rng(21, 0).standard_normal(3)
    expect = cfg.r * g / np.linalg.norm(g)
    assert np.array_equal(model.w, expect)
    model.check_feasible()


def test_algorithm1_wrong_config_rejected():
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(20, 3, 0.2, 2.0, seed=2)
    cfg2 = config_alg2(20, 3, 2.0, 0.5, 0.05, T_budget=5)
    with pytest.raises(ValueError):
        algorithm1(data, loss, cfg2)
    cfg1 = config_alg1(20, 3, 0.4, 0.05, T_budget=5)
    with pytest.raises(ValueError):
        algorithm2(data, loss, cfg1)


def test_algorithm2_u_override_injects_targets():
    """Injecting the planted margins as targets makes round 1 fit the
    planted direction (up to the ball), so the risk is near-optimal."""
    loss = piecewise_linear(1.0)
    data, teacher = planted_halfspace(100, 4, 0.3, 2.0, seed=5)
    cfg = config_alg2(100, 4, 2.0, 0.5, 0.05, seed=3, T_budget=1)
    # k is small; give the exact teacher values on the batch
    model = algorithm2(
        data, loss, cfg, u_override=lambda b: b.features @ teacher.w
    )
    r_teacher = empirical_risk(teacher.predict, loss, data)
    r_model = empirical_risk(model.predict, loss, data)
    assert r_model <= r_teacher + 0.25


def test_algorithm2_deterministic_and_feasible():
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(60, 4, 0.2, 1.5, seed=7)
    cfg = config_alg2(60, 4, 1.5, 0.5, 0.05, seed=11, T_budget=8)
    m1 = algorithm2(data, loss, cfg, refine_budget=10)
    m2 = algorithm2(data, loss, cfg, refine_budget=10)
    assert np.array_equal(m1.w, m2.w)
    assert lq_norm(m1.w, 1.5) <= 1.0 + 1e-9


def test_algorithm2_rejects_oversized_data():
    from ncerm.data import WeightedDataset

    loss = piecewise_linear(1.0)
    data = WeightedDataset.uniform(np.eye(3) * 1.5, np.ones(3))
    cfg = config_alg2(3, 3, 2.0, 0.5, 0.05, T_budget=2)
    with pytest.raises(ValueError):
        algorithm2(data, loss, cfg)


def test_sphere_scheme_hits_frozen_success_floor():
    """At s = d the sphere draw is uniform; the chance that one round
    lands within eps of optimal is at least (eps/4)^... small but the
    planted margin makes near-zero risk reachable, so over many seeds
    the best-round risk concentrates well below the zero predictor."""
    loss = piecewise_linear(1.0)
    data, teacher = planted_halfspace(50, 3, 0.4, 2.0, seed=13)
    cfg = config_alg1(50, 3, 0.4, 0.05, seed=17, T_budget=200)
    model = algorithm1(data, loss, cfg, refine_budget=0)
    # h(0) = 1/2 is the zero predictor's risk; random restarts must beat it
    assert empirical_risk(model.predict, loss, data) < 0.5


def test_refined_runs_reach_planted_risk():
    loss = piecewise_linear(1.0)
    data, teacher = planted_halfspace(80, 4, 0.3, 2.0, seed=19)
    r_star = empirical_risk(teacher.predict, loss, data)
    cfg = config_alg2(80, 4, 2.0, 0.5, 0.05, seed=23, T_budget=30)
    model = algorithm2(data, loss, cfg, refine_budget=60)
    assert empirical_risk(model.predict, loss, data) <= r_star + 0.1
    assert zero_one_risk(model.predict, data) <= 0.05


@pytest.mark.parametrize("p", [2.0, 1.0])
def test_algorithm2_chunk_size_changes_nothing(p, monkeypatch):
    """Rounds refined one at a time or CHUNK_ROUNDS at a time in lockstep
    give the same weights, bit for bit, on criterion-5-shaped data."""
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(200, 5, 0.3, p, seed=41)
    cfg = config_alg2(200, 5, p, 0.5, 0.05, seed=43, T_budget=300)
    chunked = algorithm2(data, loss, cfg, refine_budget=200)
    monkeypatch.setattr(halfspace, "CHUNK_ROUNDS", 1)
    single = algorithm2(data, loss, cfg, refine_budget=200)
    assert np.array_equal(chunked.w, single.w)
    chunked.check_feasible()


def test_algorithm2_chunk_size_changes_nothing_lp(monkeypatch):
    """The same at p = 1.5, where every refinement step projects the
    chunk's rows onto the l_1.5 ball in one batched solve; T is smaller
    because least squares there runs projected gradient."""
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(200, 5, 0.3, 1.5, seed=41)
    cfg = config_alg2(200, 5, 1.5, 0.5, 0.05, seed=43, T_budget=30)
    chunked = algorithm2(data, loss, cfg, refine_budget=200)
    monkeypatch.setattr(halfspace, "CHUNK_ROUNDS", 1)
    single = algorithm2(data, loss, cfg, refine_budget=200)
    assert np.array_equal(chunked.w, single.w)
    chunked.check_feasible()


def test_zero_round_budget_is_an_error():
    """An empty round range has no best round to return."""
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(20, 3, 0.2, 2.0, seed=2)
    with pytest.raises(ValueError, match="T_budget"):
        algorithm2(data, loss, config_alg2(20, 3, 2.0, 0.5, 0.05, T_budget=0))
    with pytest.raises(ValueError, match="T_budget"):
        algorithm1(data, loss, config_alg1(20, 3, 0.4, 0.05, T_budget=0))
