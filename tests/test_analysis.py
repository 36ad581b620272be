import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncerm import analysis
from ncerm.analysis import (
    generalization_gap_check,
    jl_distortion_check,
    maurey_sparsify,
    rademacher_estimate,
)
from ncerm.data import planted_halfspace
from ncerm.losses import piecewise_linear
from ncerm.networks import network_spec, predictor, random_network, zero_network
from ncerm.util import child_seed


def test_rademacher_zero_candidate_only():
    batch = np.random.default_rng(0).standard_normal((20, 3))
    zero = [lambda X: np.zeros(X.shape[0])]
    est = rademacher_estimate(zero, batch, trials=50, seed=1)
    assert est.value == 0.0
    assert est.stderr == 0.0
    assert est.trials == 50


def test_rademacher_single_linear_direction():
    """One candidate f(x) = <w, x>: the supremum is just its empirical
    correlation, whose mean over signs is 0 by symmetry."""
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 4))
    w = np.array([1.0, 0.0, 0.0, 0.0])
    est = rademacher_estimate([lambda Z: Z @ w], X, trials=4000, seed=3)
    assert abs(est.value) <= 4.0 * est.stderr + 1e-3


def test_rademacher_scales_with_norm():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 3))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    dirs = rng.standard_normal((10, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    small = [(lambda w: (lambda Z: Z @ w))(w) for w in dirs]
    big = [(lambda w: (lambda Z: Z @ (3.0 * w)))(w) for w in dirs]
    e_small = rademacher_estimate(small, X, trials=500, seed=5)
    e_big = rademacher_estimate(big, X, trials=500, seed=5)
    assert e_big.value == pytest.approx(3.0 * e_small.value, rel=1e-9)


def test_rademacher_linear_class_bound():
    """Unit-l2 directions on unit-ball points: R_k <= sqrt(1/k)."""
    rng = np.random.default_rng(6)
    k = 64
    X = rng.standard_normal((k, 5))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    dirs = rng.standard_normal((50, 5))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cands = [lambda Z: np.zeros(Z.shape[0])]
    cands += [(lambda w: (lambda Z: Z @ w))(w) for w in dirs]
    est = rademacher_estimate(cands, X, trials=800, seed=7)
    assert est.value <= math.sqrt(1.0 / k) + 3.0 * est.stderr


def test_rademacher_network_class_bound():
    spec = network_spec(2, 1.0, 2.0, "tanh")
    rng = np.random.default_rng(8)
    k, d = 100, 6
    X = rng.standard_normal((k, d))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    cands = [predictor(zero_network(d), spec)]
    cands += [
        predictor(random_network(spec, d, 2, child_seed(9, i)), spec)
        for i in range(60)
    ]
    est = rademacher_estimate(cands, X, trials=400, seed=10)
    bound = math.sqrt(spec.input_q / k) * spec.budget**spec.depth
    assert est.value <= bound + 3.0 * est.stderr


def test_generalization_gap_within_bound():
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(100, 4, 0.15, 2.0, seed=11)
    rng = np.random.default_rng(12)
    dirs = rng.standard_normal((15, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cands = [lambda X: np.zeros(X.shape[0])]
    cands += [(lambda w: (lambda X: X @ w))(w) for w in dirs]
    res = generalization_gap_check(cands, loss, data, k=40, trials=200, seed=13)
    assert res.k == 40
    assert res.max_gap >= res.mean_gap >= 0.0
    assert res.mean_gap <= res.bound + 3.0 * res.stderr_gap


def test_generalization_gap_shrinks_with_k():
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(120, 4, 0.15, 2.0, seed=14)
    rng = np.random.default_rng(15)
    dirs = rng.standard_normal((10, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cands = [(lambda w: (lambda X: X @ w))(w) for w in dirs]
    small = generalization_gap_check(cands, loss, data, k=10, trials=300, seed=16)
    large = generalization_gap_check(cands, loss, data, k=160, trials=300, seed=16)
    assert large.mean_gap < small.mean_gap


@pytest.mark.parametrize("block", [1, 7])
def test_block_size_changes_nothing(block, monkeypatch):
    """Trials drawn one at a time, or BLOCK_TRIALS at a time, give the same
    per-trial values bit for bit, over several blocks and a partial last
    one.  The values are caught on their way into the MC summary, where a
    last-bit difference in one trial would be rounded away."""
    data, _ = planted_halfspace(100, 4, 0.15, 2.0, seed=30)
    dirs = np.random.default_rng(31).standard_normal((15, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cands = [lambda X: np.zeros(X.shape[0])]
    cands += [(lambda w: (lambda X: X @ w))(w) for w in dirs]
    loss = piecewise_linear(1.0)
    atoms = np.random.default_rng(33).standard_normal((9, 5))
    w = np.random.default_rng(34).dirichlet(np.ones(9))
    summarize = analysis._mc

    def per_trial_values():
        seen = []
        monkeypatch.setattr(analysis, "_mc", lambda v: seen.append(v.copy()) or summarize(v))
        # k = 1 too: a one-row product of stacked batches would take another
        # BLAS kernel than a many-row one.
        for k in (1, 3):
            generalization_gap_check(cands, loss, data, k=k, trials=600, seed=35)
        maurey_sparsify(atoms, w, s=5, trials=600, seed=36)
        return seen

    blocked = per_trial_values()
    monkeypatch.setattr(analysis, "BLOCK_TRIALS", block)
    single = per_trial_values()
    assert len(blocked) == len(single) == 5
    for a, b in zip(blocked, single):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [dict(n=1), dict(k=0)])
def test_generalization_rejects_vacuous_inputs(bad):
    """One sample point makes every batch equal the sample: the gap would
    read 0 with stderr 0.  An empty batch has no average."""
    data, _ = planted_halfspace(bad.get("n", 10), 3, 0.1, 2.0, seed=37)
    with pytest.raises(ValueError):
        generalization_gap_check([lambda X: X[:, 0]], piecewise_linear(1.0), data,
                                 k=bad.get("k", 5), trials=10, seed=0)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), st.data())
def test_projection_complement_identity(d, data):
    """||Q_S^T x||^2 = ||x||^2 - ||Q_perp^T x||^2 for the two column blocks
    of one orthogonal Q, the identity the JL check projects through."""
    s = data.draw(st.integers(1, d - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
    kept = np.sum((x @ Q[:, :s]) ** 2)
    assert abs(kept - (x @ x - np.sum((x @ Q[:, s:]) ** 2))) <= 1e-12 * (x @ x)


def test_jl_full_dimension_never_fails():
    rng = np.random.default_rng(17)
    P = rng.standard_normal((6, 4))
    # s = min(d, ...) = d here, and an orthogonal map preserves distances
    res = jl_distortion_check(P, 0.45, trials=50, seed=18)
    assert res.s == 4
    assert res.success_freq == 1.0


def test_jl_frozen_target_dimension():
    # n=10, eps=0.4: s = ceil(12 ln 10 / 0.16) = 173
    rng = np.random.default_rng(19)
    P = rng.standard_normal((10, 200))
    res = jl_distortion_check(P, 0.4, trials=30, seed=20)
    assert res.s == 173
    assert res.threshold == pytest.approx(0.1, rel=1e-12)


def test_jl_success_floor():
    rng = np.random.default_rng(21)
    P = rng.standard_normal((8, 100))
    res = jl_distortion_check(P, 0.4, trials=400, seed=22)
    assert res.success_freq >= res.threshold - 3.0 * res.stderr
    with pytest.raises(ValueError):
        jl_distortion_check(P, 0.6, trials=10, seed=0)


@pytest.mark.parametrize("n, d, eps", [
    (10, 200, 0.4),   # s = 173: the trials project through the complement
    (4, 300, 0.45),   # s = 83: the trials project onto the subspace itself
])
def test_jl_success_floor_below_full_dimension(n, d, eps):
    """The floor above has s = d; here s < d on either side of d / 2.
    One point has no pairs to check."""
    P = np.random.default_rng(21).standard_normal((n, d))
    res = jl_distortion_check(P, eps, trials=400, seed=22)
    assert res.s < d
    assert res.success_freq >= res.threshold - 3.0 * res.stderr
    with pytest.raises(ValueError):
        jl_distortion_check(P[:1], eps, trials=10, seed=0)


def test_maurey_single_atom_is_exact():
    atoms = np.array([[0.3, -0.4, 0.5]])
    res = maurey_sparsify(atoms, np.array([1.0]), s=4, trials=50, seed=23)
    assert res.mse.value == 0.0
    assert res.bound == pytest.approx(0.5 / 4.0, rel=1e-12)


def test_maurey_bound_holds():
    rng = np.random.default_rng(24)
    atoms = rng.standard_normal((15, 6))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)  # b = 1
    w = rng.dirichlet(np.ones(15))
    for s in (4, 16):
        res = maurey_sparsify(atoms, w, s=s, trials=600, seed=25)
        assert res.s == s
        assert res.bound == pytest.approx(1.0 / s, rel=1e-12)
        assert res.mse.value <= res.bound + 3.0 * res.mse.stderr


@pytest.mark.parametrize("s", [1, 4, 16])
def test_maurey_mean_matches_exact_value(s):
    """E ||v - v_s||^2 = (sum_i w_i ||a_i||^2 - ||v||^2) / s exactly, so the
    MC mean lies within 4 stderr of it; atoms of unequal norms."""
    rng = np.random.default_rng(40)
    atoms = rng.standard_normal((12, 5)) * rng.uniform(0.2, 2.0, size=(12, 1))
    w = rng.dirichlet(np.ones(12))
    v = w @ atoms
    exact = (w @ np.sum(atoms**2, axis=1) - v @ v) / s
    res = maurey_sparsify(atoms, w, s=s, trials=4000, seed=41 + s)
    assert abs(res.mse.value - exact) <= 4.0 * res.mse.stderr


def test_maurey_mse_decreases_in_s():
    rng = np.random.default_rng(26)
    atoms = rng.standard_normal((12, 5))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    w = rng.dirichlet(np.ones(12))
    r4 = maurey_sparsify(atoms, w, s=4, trials=800, seed=27)
    r32 = maurey_sparsify(atoms, w, s=32, trials=800, seed=27)
    assert r32.mse.value < r4.mse.value


def test_maurey_validation():
    atoms = np.eye(3)
    with pytest.raises(ValueError):
        maurey_sparsify(atoms, np.array([0.5, 0.5]), 2, 10, 0)
    with pytest.raises(ValueError):
        maurey_sparsify(atoms, np.array([0.7, 0.2, 0.2]), 2, 10, 0)
    with pytest.raises(ValueError):
        maurey_sparsify(atoms, np.full(3, 1.0 / 3.0), 0, 10, 0)
