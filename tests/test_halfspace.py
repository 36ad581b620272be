import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncerm import halfspace
from ncerm.data import WeightedDataset, planted_halfspace
from ncerm.halfspace import (
    LinearModel,
    algorithm1,
    algorithm2,
    best_round,
    config_alg1,
    config_alg2,
    draw_rounds,
    sphere_starts,
)
from ncerm.losses import empirical_risk, piecewise_linear, zero_one_risk
from ncerm.solvers import linear_kernels, lockstep_descent
from ncerm.util import lq_norm, round_uniforms


def test_config_alg1_frozen_example():
    # n=8, d=2: s = min(2, ceil(12 ln 10 / 0.16)) = 2, r = 1,
    # T = ceil(20 * (pi/0.4)^1 * 1) = ceil(157.08) = 158
    assert config_alg1(8, 2, 0.4, math.exp(-1.0)) == (2, 1.0, 158)


def test_config_alg1_s_capped_by_dimension():
    s, r, _ = config_alg1(98, 300, 0.4, 0.05)
    # ceil(12 ln 100 / 0.16) = ceil(345.4) = 346 > d, so s = d and r = 1
    assert s == 300
    assert r == 1.0
    s2, r2, _ = config_alg1(8, 500, 0.4, 0.05)
    s_expect = math.ceil(12.0 * math.log(10.0) / 0.16)
    assert s2 == s_expect
    assert r2 == pytest.approx(math.sqrt(500.0 / s_expect), rel=1e-12)


def test_config_alg1_validation():
    with pytest.raises(ValueError):
        config_alg1(8, 2, 0.5, 0.05)  # eps must be < 1/2
    with pytest.raises(ValueError):
        config_alg1(8, 2, 0.4, 1.0)
    with pytest.raises(ValueError):
        config_alg1(0, 2, 0.4, 0.05)


def test_config_alg2_frozen_batch_sizes():
    # p=1: k = ceil(2 ln d / eps^2) = ceil(2 ln 100 / 0.0625) = 148
    assert config_alg2(50, 100, 1.0, 0.25, 0.05)[0] == 148
    # p=2 -> q=2: k = ceil(1/eps^2)
    assert config_alg2(50, 100, 2.0, 0.2, 0.05)[0] == 25
    assert config_alg2(50, 100, 2.0, 1.0, 0.05)[0] == 1
    # p=1.5 -> q=3: k = ceil(2/eps^2) = 8 at eps=1/2
    assert config_alg2(50, 100, 1.5, 0.5, 0.05)[0] == 8


def test_config_alg2_t_theory():
    # k=1: T = ceil(5 * 4 * 1) = 20
    assert config_alg2(10, 4, 2.0, 1.0, math.exp(-1.0)) == (1, 20)
    with pytest.raises(ValueError):
        config_alg2(10, 4, 2.5, 0.5, 0.05)
    with pytest.raises(ValueError):
        config_alg2(10, 4, 2.0, 0.5, 0.0)


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
    model = algorithm1(data, loss, 0.4, 0.05, 1, 0, 21)
    u = round_uniforms(21, range(1), 4)[0]
    radius, angle = np.sqrt(-2.0 * np.log(1.0 - u[:2])), 2.0 * np.pi * u[2:]
    g = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:3]
    expect = g * (config_alg1(40, 3, 0.4, 0.05)[1] / np.sqrt(np.sum(g * g)))
    assert np.array_equal(model.w, expect)
    model.check_feasible()


def test_algorithm2_deterministic_and_feasible():
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(60, 4, 0.2, 1.5, seed=7)
    m1 = algorithm2(data, loss, 1.5, 0.5, 0.05, 8, 10, 11)
    m2 = algorithm2(data, loss, 1.5, 0.5, 0.05, 8, 10, 11)
    assert np.array_equal(m1.w, m2.w)
    assert lq_norm(m1.w, 1.5) <= 1.0 + 1e-9


def test_algorithm2_rejects_oversized_data():
    from ncerm.data import WeightedDataset

    loss = piecewise_linear(1.0)
    data = WeightedDataset.uniform(np.eye(3) * 1.5, np.ones(3))
    with pytest.raises(ValueError):
        algorithm2(data, loss, 2.0, 0.5, 0.05, 2, 0, 0)


def test_sphere_scheme_hits_frozen_success_floor():
    """At s = d the sphere draw is uniform; the chance that one round
    lands within eps of optimal is at least (eps/4)^... small but the
    planted margin makes near-zero risk reachable, so over many seeds
    the best-round risk concentrates well below the zero predictor."""
    loss = piecewise_linear(1.0)
    data, teacher = planted_halfspace(50, 3, 0.4, 2.0, seed=13)
    model = algorithm1(data, loss, 0.4, 0.05, 200, 0, 17)
    # h(0) = 1/2 is the zero predictor's risk; random restarts must beat it
    assert empirical_risk(model.predict, loss, data) < 0.5


def test_refined_runs_reach_planted_risk():
    loss = piecewise_linear(1.0)
    data, teacher = planted_halfspace(80, 4, 0.3, 2.0, seed=19)
    r_star = empirical_risk(teacher.predict, loss, data)
    model = algorithm2(data, loss, 2.0, 0.5, 0.05, 30, 60, 23)
    assert empirical_risk(model.predict, loss, data) <= r_star + 0.1
    assert zero_one_risk(model.predict, data) <= 0.05


@pytest.mark.parametrize("p", [2.0, 1.0])
def test_algorithm2_chunk_size_changes_nothing(p, monkeypatch):
    """Rounds refined one at a time or CHUNK_ROUNDS at a time in lockstep
    give the same weights, bit for bit, on criterion-5-shaped data."""
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(200, 5, 0.3, p, seed=41)
    chunked = algorithm2(data, loss, p, 0.5, 0.05, 300, 200, 43)
    monkeypatch.setattr(halfspace, "CHUNK_ROUNDS", 1)
    single = algorithm2(data, loss, p, 0.5, 0.05, 300, 200, 43)
    assert np.array_equal(chunked.w, single.w)
    chunked.check_feasible()


def test_algorithm2_chunk_size_changes_nothing_lp(monkeypatch):
    """The same at p = 1.5, where every refinement step projects the
    chunk's rows onto the l_1.5 ball in one batched solve; T is smaller
    because least squares there runs projected gradient."""
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(200, 5, 0.3, 1.5, seed=41)
    chunked = algorithm2(data, loss, 1.5, 0.5, 0.05, 30, 200, 43)
    monkeypatch.setattr(halfspace, "CHUNK_ROUNDS", 1)
    single = algorithm2(data, loss, 1.5, 0.5, 0.05, 30, 200, 43)
    assert np.array_equal(chunked.w, single.w)
    chunked.check_feasible()


@functools.lru_cache(maxsize=None)
def _small_linear_problem():
    data, _ = planted_halfspace(60, 4, 0.2, 2.0, seed=71)
    return linear_kernels(data, piecewise_linear(1.0), 2.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(1, 70), st.integers(1, 60), st.integers(0, 15),
       st.integers(0, 2**32 - 1))
def test_best_round_same_row_for_any_chunk_size(T, chunk, period, refine_budget, seed):
    """best_round returns, for any T and CHUNK_ROUNDS, the row of the
    earliest round of least risk with every round refined alone.  Rounds
    repeat with the given period, so equal risks straddle chunk edges."""
    kernels = _small_linear_problem()

    def candidates(ts):
        return kernels[2](np.array([np.random.default_rng([seed, t % period]).standard_normal(4)
                                    for t in ts]))

    with mock.patch.object(halfspace, "CHUNK_ROUNDS", chunk):
        row = best_round(T, candidates, kernels, refine_budget)
    alone = [lockstep_descent(candidates([t]), *kernels, refine_budget) for t in range(T)]
    W, risks = (np.concatenate(parts) for parts in zip(*alone))
    assert np.array_equal(row, W[int(np.argmin(risks))])


def test_zero_round_budget_is_an_error():
    """An empty round range has no best round to return."""
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(20, 3, 0.2, 2.0, seed=2)
    with pytest.raises(ValueError, match="T_budget"):
        algorithm2(data, loss, 2.0, 0.5, 0.05, 0, 0, 0)
    with pytest.raises(ValueError, match="T_budget"):
        algorithm1(data, loss, 0.4, 0.05, 0, 0, 0)


def _index_dataset(weights):
    """Points 0..n-1 on a line, so a drawn row's feature is its index."""
    w = np.asarray(weights, dtype=float)
    return WeightedDataset(np.arange(w.size, dtype=float)[:, None] / w.size,
                           np.ones(w.size), w / w.sum())


def test_round_uniforms_replayable():
    """A round's block is the same drawn alone, again, or inside a chunk;
    other rounds get other blocks, and only step-1 ranges from round 0
    on are accepted."""
    a = round_uniforms(5, range(3, 4), 6)
    assert a.shape == (1, 6)
    assert np.array_equal(a, round_uniforms(5, range(3, 4), 6))
    assert np.array_equal(a, round_uniforms(5, range(8), 6)[3:4])
    assert not np.array_equal(a, round_uniforms(5, range(4, 5), 6))
    assert not np.array_equal(a, round_uniforms(6, range(3, 4), 6))
    for bad in ([3], range(0, 8, 2), range(-1, 2)):
        with pytest.raises(ValueError, match="range"):
            round_uniforms(5, bad, 6)
    with pytest.raises(ValueError, match="range"):
        draw_rounds(_index_dataset([1.0, 1.0]), 5, [0, 1], 2, 1, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 2**40), st.integers(1, 300),
       st.integers(1, 9), st.integers(1, 15), st.integers(1, 12), st.data())
def test_round_draws_same_for_any_chunking(seed, a, length, k, nodes, dim, data):
    """Any sub-range of a chunk of rounds, drawn alone, gives the chunk's
    rows bit for bit: batches and targets of draw_rounds (blocks of
    k + nodes k uniforms, not a multiple of 4) and Algorithm 1's starts."""
    assume(k * (1 + nodes) % 4)
    sample = _index_dataset([0.0, 3.0, 1.0, 0.0, 2.0, 5.0, 0.0])
    i = data.draw(st.integers(0, length - 1))
    j = data.draw(st.integers(i + 1, length))
    chunk, part = range(a, a + length), range(a + i, a + j)
    X, U = draw_rounds(sample, seed, chunk, k, nodes, 1.5)
    Xp, Up = draw_rounds(sample, seed, part, k, nodes, 1.5)
    assert X.shape == (length, k, 1) and U.shape == (length, nodes, k)
    assert np.array_equal(Xp, X[i:j]) and np.array_equal(Up, U[i:j])
    W = sphere_starts(seed, chunk, dim, 1.5)
    assert W.shape == (length, dim)
    assert np.array_equal(sphere_starts(seed, part, dim, 1.5), W[i:j])


def test_round_draw_distributions():
    """Over 100k draws of one seed: batch points follow the weights within
    5 sigma each and zero weights are never drawn; targets lie in
    [-B, B] with mean 0 and variance B^2/3; Algorithm 1's starts have norm
    r, mean 0 and second moment (r^2/d) I, all within 5 standard errors."""
    w = np.array([0.0, 3.0, 1.0, 0.0, 2.0, 5.0, 0.0, 0.5])
    sample = _index_dataset(w)
    k, nodes, B, N = 4, 2, 1.5, 100_000
    X, U = draw_rounds(sample, 2026, range(N // k), k, nodes, B)
    idx = np.rint(X.ravel() * w.size).astype(int)
    p = sample.weights
    counts = np.bincount(idx, minlength=w.size)
    assert np.all(counts[p == 0] == 0)
    assert np.all(np.abs(counts - N * p) <= 5.0 * np.sqrt(N * p * (1.0 - p)))

    u = U.ravel()
    assert u.size >= N and np.all(np.abs(u) <= B)
    assert abs(u.mean()) <= 5.0 * B / np.sqrt(3.0 * u.size)
    # Var(u^2) = E u^4 - (E u^2)^2 = B^4 (1/5 - 1/9) for u uniform on [-B, B].
    assert abs(np.mean(u**2) - B**2 / 3.0) <= 5.0 * B**2 * np.sqrt(4.0 / 45.0 / u.size)

    d, r = 5, 1.7
    W = sphere_starts(2026, range(N), d, r)
    assert np.allclose(np.linalg.norm(W, axis=1), r, rtol=1e-12, atol=0.0)
    assert np.all(np.abs(W.mean(axis=0)) <= 5.0 * r / np.sqrt(d * N))
    # On the sphere of radius r, Var(x_i^2) = r^4 (3/(d(d+2)) - 1/d^2) is the
    # largest variance of any entry of x x^T.
    second = W.T @ W / N
    sigma = r**2 * np.sqrt((3.0 / (d * (d + 2)) - 1.0 / d**2) / N)
    assert np.all(np.abs(second - r**2 / d * np.eye(d)) <= 5.0 * sigma)
