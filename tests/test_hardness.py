import itertools
import math

import numpy as np
import pytest

from ncerm.hardness import (
    LiftedInstance,
    Max2SatInstance,
    enumerate_assignments,
    instance_to_vectors,
    lifted_instance,
    random_instance,
    reduction_pair_vectors,
    satisfied_count,
    verify_identity,
)

from hardness_oracles import max_satisfied, min_reduction_loss, negative_part_loss, reduction_loss


def test_instance_validation():
    Max2SatInstance(2, ((((1), 1), ((2), -1)),))
    with pytest.raises(ValueError):
        Max2SatInstance(2, (((1, 1), (1, -1)),))  # same variable twice
    with pytest.raises(ValueError):
        Max2SatInstance(2, (((1, 1), (3, 1)),))  # index out of range
    with pytest.raises(ValueError):
        Max2SatInstance(2, (((1, 2), (2, 1)),))  # bad sign
    with pytest.raises(ValueError):
        Max2SatInstance(2, ())


def test_satisfied_count_hand_case():
    inst = Max2SatInstance(3, (((1, 1), (2, 1)), ((2, -1), (3, 1))))
    assert satisfied_count(inst, [True, True, True]) == 1
    assert satisfied_count(inst, [True, True, False]) == 1
    assert satisfied_count(inst, [True, False, True]) == 1
    assert satisfied_count(inst, [False, False, True]) == 1
    # the clauses need opposite values of variable 2, so at most one holds
    assert max_satisfied(inst) == 1
    with pytest.raises(ValueError):
        satisfied_count(inst, [True, True])


def test_vectors_single_clause():
    inst = Max2SatInstance(2, (((1, 1), (2, -1)),))
    X = instance_to_vectors(inst)
    assert X.shape == (3, 1)
    assert X[0, 0] == 1.0
    assert X[1, 0] == 1.0
    assert X[2, 0] == -1.0
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0)


def test_vectors_unit_norms():
    inst = random_instance(6, 9, seed=2)
    X = instance_to_vectors(inst)
    norms = np.linalg.norm(X, axis=1)
    assert np.max(norms) <= 1.0 + 1e-12
    assert norms[0] == pytest.approx(1.0, rel=1e-12)


def test_identity_random_sweep():
    for seed in range(10):
        inst = random_instance(4, 5, seed=seed)
        for z_bits in enumerate_assignments(inst.n_literals + 1):
            alpha = 2.0 * z_bits.astype(float) - 1.0
            lhs, rhs, ok = verify_identity(inst, alpha)
            assert ok, (seed, alpha, lhs, rhs)


def test_reduction_loss_sign_symmetric():
    inst = random_instance(5, 6, seed=3)
    X = reduction_pair_vectors(inst)
    assert X.shape == (12, 6)
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.standard_normal(6)
        w /= np.linalg.norm(w)
        a = reduction_loss(w, instance_to_vectors(inst))
        b = reduction_loss(-w, instance_to_vectors(inst))
        assert a == pytest.approx(b, abs=1e-15)
        assert -3.0 / (2.0 * 5 + 2.0) <= a <= 0.0


def test_min_reduction_loss_oracle():
    """The optimal sign vector scaled to the unit ball attains the
    closed-form minimum; random unit vectors never beat it."""
    inst = random_instance(4, 6, seed=5)
    X = instance_to_vectors(inst)
    target = min_reduction_loss(inst)
    n1 = inst.n_literals + 1
    best = 0.0
    for z_bits in enumerate_assignments(n1):
        alpha = 2.0 * z_bits.astype(float) - 1.0
        w = (alpha @ X)
        norm = np.linalg.norm(w)
        if norm > 0:
            best = min(best, reduction_loss(w / norm, X))
    assert best == pytest.approx(target, abs=1e-12)
    rng = np.random.default_rng(6)
    for _ in range(200):
        w = rng.standard_normal(6)
        w /= np.linalg.norm(w)
        assert reduction_loss(w, X) >= target - 1e-12


def test_lifted_value_at_origin_exact():
    for seed in range(5):
        inst = random_instance(4, 5, seed=seed)
        lift = lifted_instance(reduction_pair_vectors(inst))
        assert lift.loss_alpha_tau(np.zeros(inst.d), 1.0) == 11.0 / 26.0


def test_lifted_compose_decompose_roundtrip():
    inst = random_instance(3, 4, seed=7)
    lift = lifted_instance(reduction_pair_vectors(inst))
    alpha = np.array([0.3, -0.2, 0.1, 0.05])
    tau = 0.8
    w = lift.compose(alpha, tau)
    a2, t2 = lift.decompose(w)
    assert np.allclose(a2, alpha, atol=1e-15)
    assert t2 == pytest.approx(tau, rel=1e-15)
    assert lift.loss(w) == lift.loss_alpha_tau(a2, t2)
    with pytest.raises(ValueError):
        lift.decompose(np.zeros(lift.dim + 2))


def test_lifted_geometry():
    inst = random_instance(3, 4, seed=8)
    V = reduction_pair_vectors(inst)
    lift = lifted_instance(V)
    assert lift.n == 8  # paired vectors: 2 * (n_literals + 1) rows
    assert np.allclose(np.linalg.norm(lift.lifted_vectors, axis=1) ** 2,
                       0.5 * np.linalg.norm(V, axis=1) ** 2 + 0.5)
    assert np.linalg.norm(lift.u) == pytest.approx(1.0 / math.sqrt(2.0))
    assert np.linalg.norm(lift.v) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    with pytest.raises(ValueError):
        lifted_instance(2.0 * V)


def test_lifted_loss_matches_direct_formula():
    """Evaluating through the lifted vectors with the bounded loss agrees
    with the branch evaluation up to float roundoff."""
    from ncerm.losses import piecewise_linear

    h = piecewise_linear(1.0)
    inst = random_instance(3, 4, seed=9)
    lift = lifted_instance(reduction_pair_vectors(inst))
    rng = np.random.default_rng(10)
    for _ in range(20):
        alpha = rng.uniform(-0.5, 0.5, size=4)
        tau = rng.uniform(-1.0, 1.0)
        w = lift.compose(alpha, tau)
        n = lift.n
        direct = (
            6.0 * n * h.value(float(w @ lift.u))
            + 6.0 * n * h.value(float(w @ lift.v))
            + sum(h.value(float(w @ x)) for x in lift.lifted_vectors)
        ) / (13.0 * n)
        assert lift.loss(w) == pytest.approx(direct, abs=1e-12)


def test_negative_part_loss():
    inst = random_instance(3, 4, seed=11)
    lift = lifted_instance(reduction_pair_vectors(inst))
    w = np.zeros(4)
    assert negative_part_loss(lift, w) == 0.0
    rng = np.random.default_rng(12)
    w = rng.standard_normal(4)
    w /= np.linalg.norm(w)
    dots = lift.base_vectors @ w
    expect = float(np.minimum(0.0, dots).mean())
    assert negative_part_loss(lift, w) == pytest.approx(expect, rel=1e-15)
    # on the paired vectors this is exactly the reduction loss
    assert negative_part_loss(lift, w) == pytest.approx(
        reduction_loss(w, instance_to_vectors(inst)), abs=1e-15
    )


def test_lifted_minimizer_recovers_negative_part_quality():
    """Small grid minimization of the lifted loss: the best (alpha, tau)
    rescaled to the unit sphere is near-optimal for the negative-part
    objective, with the gap controlled by 26x the grid suboptimality."""
    inst = random_instance(3, 3, seed=13)
    lift = lifted_instance(reduction_pair_vectors(inst))
    d = inst.d
    grid = np.linspace(-1.0, 1.0, 9)
    best_val, best_alpha = math.inf, None
    for alpha in itertools.product(grid, repeat=d):
        alpha = np.array(alpha)
        na = np.linalg.norm(alpha)
        if na > 1.0 or na == 0.0:
            continue
        val = lift.loss_alpha_tau(alpha, 1.0)
        if val < best_val:
            best_val, best_alpha = val, alpha
    g_star = min_reduction_loss(inst)
    base_value = 11.0 / 26.0
    # observed eps-optimality of the grid point in the lifted objective
    lifted_opt = base_value + g_star / 26.0
    eps_obs = best_val - lifted_opt
    assert eps_obs >= -1e-12
    g_grid = negative_part_loss(lift, best_alpha / np.linalg.norm(best_alpha))
    assert g_grid <= g_star + 26.0 * eps_obs + 1e-9
