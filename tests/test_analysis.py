import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from ncerm.networks import Network, network_spec, predictor, random_network, zero_network
from ncerm.util import child_seed


def _reference_signs(seed, trials, k):
    """The (trials, k) signs of the stream of `seed`, by shift and mask: sign
    j of a trial is 1 - 2 * bit (j % 64) of the trial's word j // 64, and a
    trial owns the next ceil(k / 64) words of the bit generator.  The
    array is C-ordered like the estimators' own, since BLAS may round a
    product over a transposed layout differently."""
    bitgen = np.random.default_rng(np.random.SeedSequence(seed)).bit_generator
    words = bitgen.random_raw(trials * -(-k // 64)).reshape(trials, -1)
    j = np.arange(k)
    bits = (words[:, j // 64] >> (j % 64).astype(np.uint64)) & np.uint64(1)
    return np.ascontiguousarray(1.0 - 2.0 * bits)


SIGN_KS = [1, 63, 64, 65, 100, 500]


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(2, 30), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.floats(0.0, 150.0))
@example(100, analysis.BLOCK_TRIALS, 201, 51, 0.0)
@example(2, 2, 3, 666, 0.0)
@example(2, 2, 2, 70, 0.0)
def test_rademacher_sup_divides_once(k, trials, n_cands, seed, log_scale):
    """The supremum max_f (F eps)/k taken as max(F eps) / k equals the old
    max(F eps / k) bit for bit, up to the sign of a zero: dividing by k > 0
    is monotone under correct rounding, but np.max over a column holding
    both +0.0 and -0.0 (a subnormal sum divided by k) may return either, so
    the bytes are compared after adding +0.0.  Values span 1e-150..1e150,
    with zeros, ties and subnormal quotients; rademacher_estimate agrees
    with the old form, one product of all signs, while trials <=
    BLOCK_TRIALS."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((k, 3))
    F = rng.standard_normal((n_cands, k)) * 10.0 ** rng.uniform(-log_scale, log_scale,
                                                               size=(n_cands, 1))
    F[rng.random(F.shape) < 0.2] = 0.0
    F[-1] = F[0]
    F[rng.random(F.shape) < 0.05] = 5e-324
    eps = _reference_signs(seed, trials, k)
    old = np.max(F @ eps.T / k, axis=0)
    assert (np.max(F @ eps.T, axis=0) / k + 0.0).tobytes() == (old + 0.0).tobytes()
    est = rademacher_estimate([(lambda f: (lambda Z: f))(f) for f in F], X, trials, seed)
    assert (est.value, est.trials) == (float(old.mean()), trials)
    assert est.stderr == float(old.std(ddof=1) / math.sqrt(trials))


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


# A network kind (depth, width, activation); a member (which, seed, budget,
# leaf_p) is a plain lambda at which = -2, a depth-1 zero network at -1 and a
# random network of kind `which` (mod the kinds drawn) otherwise.
_NET_KIND = st.tuples(st.integers(1, 3), st.integers(1, 4), st.sampled_from(["tanh", "clamp", "erf"]))
_MEMBER = st.tuples(st.integers(-2, 2), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.5]),
                    st.sampled_from([1.5, 2.0]))


def _mixed_candidates(d, kinds, members):
    cands = []
    for which, seed, budget, leaf_p in members:
        if which == -2:
            w = np.random.default_rng(seed).standard_normal(d)
            cands.append(lambda Z, w=w: Z @ w)
        elif which == -1:
            cands.append(predictor(zero_network(d), network_spec(1, budget, leaf_p, "tanh")))
        else:
            depth, width, act = kinds[which % len(kinds)]
            spec = network_spec(depth, budget, leaf_p, act)
            cands.append(predictor(random_network(spec, d, width, seed), spec))
    return cands


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 30), st.lists(_NET_KIND, min_size=1, max_size=3),
       st.lists(_MEMBER, min_size=1, max_size=24), st.integers(0, 2**32 - 1),
       st.floats(-3.0, 3.0), st.integers(1, 300))
@example(6, 100, [(2, 2, "tanh")], [(-1, 0, 1.0, 2.0)] + [(0, i, 1.0, 2.0) for i in range(200)],
         7, 0.0, 1000)
def test_stacked_candidate_values_equal_each_alone(d, n, kinds, members, seed, log_scale,
                                                   small):
    """_candidate_values evaluates network predictors of one activation and
    level shapes as one stack, whatever their budgets and leaf exponents;
    its rows equal np.stack of every candidate called alone, byte for byte,
    in candidate order.  So they do with BLOCK_FLOATS set small enough to
    split each stack over many blocks, down to one network per block.  The
    scale 10^log_scale reaches the clamp's kinks and the squashing's tails;
    the example is the montecarlo workload's shape."""
    cands = _mixed_candidates(d, kinds, members)
    X = np.random.default_rng(seed).standard_normal((n, d)) * 10.0 ** log_scale
    alone = np.stack([np.asarray(c(X), dtype=float) for c in cands])
    assert analysis._candidate_values(cands, X).tobytes() == alone.tobytes()
    with mock.patch.object(analysis, "BLOCK_FLOATS", small):
        assert analysis._candidate_values(cands, X).tobytes() == alone.tobytes()


def test_stacked_networks_keep_their_error_messages():
    """A stack of network predictors fails with the message the plain 2-D
    products gave: a batch of another dimension than the leaves raises
    matmul's own ValueError, and a NaN weight the non-finite check's."""
    spec = network_spec(2, 1.0, 2.0, "tanh")
    X = np.random.default_rng(3).standard_normal((20, 3))
    wide = [random_network(spec, 4, 2, s) for s in range(3)]
    with pytest.raises(ValueError) as plain:
        X @ wide[0].levels[0].T
    nets = [random_network(spec, 3, 2, s) for s in range(3)]
    leaves = nets[1].levels[0].copy()
    leaves[0, -1] = np.nan
    nets[1] = Network([leaves, *nets[1].levels[1:]])
    for stack, message in ((wide, str(plain.value)), (nets, "candidate values must be finite")):
        with pytest.raises(ValueError) as info:
            rademacher_estimate([lambda Z: np.zeros(len(Z)), *(predictor(n, spec) for n in stack)],
                                X, 10, 0)
        assert str(info.value) == message


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
    last-bit difference in one trial would be rounded away, and a JL
    check's per-pair values on their way into its success rule, on both
    sides of its corner draw."""
    data, _ = planted_halfspace(100, 4, 0.15, 2.0, seed=30)
    dirs = np.random.default_rng(31).standard_normal((15, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cands = [lambda X: np.zeros(X.shape[0])]
    cands += [(lambda w: (lambda X: X @ w))(w) for w in dirs]
    loss = piecewise_linear(1.0)
    atoms = np.random.default_rng(33).standard_normal((9, 5))
    w = np.random.default_rng(34).dirichlet(np.ones(9))
    narrow = np.random.default_rng(38).standard_normal((10, 200))  # m = 9 < r = 27
    wide = np.random.default_rng(39).standard_normal((30, 220))  # m = 29 > r = 18
    summarize = analysis._mc

    def per_trial_values():
        seen = []
        monkeypatch.setattr(analysis, "_mc", lambda v: seen.append(v.copy()) or summarize(v))
        # k = 1 too: a one-row product of stacked batches would take another
        # BLAS kernel than a many-row one.  The other k fill a trial's last
        # sign word partly, exactly, or with one sign over.
        for k in (3, *SIGN_KS):
            generalization_gap_check(cands, loss, data, k=k, trials=600, seed=35)
        maurey_sparsify(atoms, w, s=5, trials=600, seed=36)
        seen += [_jl_per_pair_values(monkeypatch, narrow, 0.4, 600, 37),
                 _jl_per_pair_values(monkeypatch, wide, 0.45, 300, 37)]
        return seen

    blocked = per_trial_values()
    monkeypatch.setattr(analysis, "BLOCK_TRIALS", block)
    single = per_trial_values()
    assert len(blocked) == len(single) == 2 * (1 + len(SIGN_KS)) + 3
    for a, b in zip(blocked, single):
        assert np.array_equal(a, b)


def _rademacher_per_trial(monkeypatch, F, trials, seed):
    """The per-trial suprema of rademacher_estimate over the rows of F."""
    seen = []
    summarize = analysis._mc
    monkeypatch.setattr(analysis, "_mc", lambda v: seen.append(v.copy()) or summarize(v))
    X = np.zeros((F.shape[1], 1))
    rademacher_estimate([(lambda f: (lambda Z: f))(f) for f in F], X, trials, seed)
    monkeypatch.setattr(analysis, "_mc", summarize)
    return seen[0]


@pytest.mark.parametrize("block", [1, 7, 256])
def test_rademacher_blocked_signs_equal_one_draw(block, monkeypatch):
    """One candidate with values 2^(j - c) on a slice of at most 40 columns
    starting at c, and 0 elsewhere, sums the slice's signs into an integer
    that spells them out, exactly in any order.  Slice by slice, under the
    same seed, the blocked sign draw equals the one draw of all trials x k
    signs, whether k fills a trial's last 64-bit word partly, exactly, or
    with one sign over, at every k of SIGN_KS."""
    trials, seed = 600, 50
    monkeypatch.setattr(analysis, "BLOCK_TRIALS", block)
    for k in SIGN_KS:
        eps = _reference_signs(seed, trials, k)
        for c in range(0, k, 40):
            F = np.zeros((1, k))
            F[0, c:c + 40] = 2.0 ** np.arange(F[0, c:c + 40].size)
            assert np.array_equal(_rademacher_per_trial(monkeypatch, F, trials, seed),
                                  eps @ F[0] / k)


def test_rademacher_column_slices_cover_k(monkeypatch):
    """At k = 600 the product runs in three column slices (the last one
    short).  Small integer values sum exactly in any order, so each trial's
    supremum equals the one product over all k columns."""
    k, trials, seed = 600, 40, 57
    assert 2 * analysis.K_SLICE < k < 3 * analysis.K_SLICE
    F = np.random.default_rng(58).integers(-3, 4, size=(9, k)).astype(float)
    eps = _reference_signs(seed, trials, k)
    sups = _rademacher_per_trial(monkeypatch, F, trials, seed)
    assert np.array_equal(sups, np.max(F @ eps.T, axis=0) / k)


def test_sign_draw_law():
    """200,000 signs (2,000 trials of k = 100, two words each) equal the
    shift-and-mask reference.  Every column's frequency of +1, the
    correlation of neighbouring columns (in a byte, across bytes and across
    the word boundary), of the same bit in a trial's two words, and of one
    column in consecutive trials, each lie within 4 sigma of a fair,
    independent coin's."""
    b, k, seed = 2000, 100, 60
    eps = analysis._signs(np.random.default_rng(np.random.SeedSequence(seed)), b, k)
    assert eps.dtype == np.float64
    assert np.array_equal(eps, _reference_signs(seed, b, k))
    freq = np.mean(eps > 0, axis=0)
    assert np.all(np.abs(freq - 0.5) <= 4.0 * 0.5 / math.sqrt(b))
    for corr in (eps[:, :-1] * eps[:, 1:], eps[:, :k - 64] * eps[:, 64:],
                 eps[:-1] * eps[1:]):
        assert np.all(np.abs(corr.mean(axis=0)) <= 4.0 / math.sqrt(corr.shape[0]))


@pytest.mark.parametrize("block", [1, 7])
def test_rademacher_block_size_moves_only_last_bits(block, monkeypatch):
    """Across block sizes the per-trial suprema agree to 1e-12 relative, not
    bit for bit: the signs are the same, but BLAS gemm may sum F @ eps.T in
    another order for another block shape."""
    F = np.random.default_rng(53).standard_normal((201, 100))
    blocked = _rademacher_per_trial(monkeypatch, F, 600, 54)
    monkeypatch.setattr(analysis, "BLOCK_TRIALS", block)
    np.testing.assert_allclose(_rademacher_per_trial(monkeypatch, F, 600, 54), blocked,
                               rtol=1e-12, atol=0.0)


def test_rademacher_memory_is_bounded_by_the_block():
    """51 candidates, k = 100 and 20,000 trials: the signs of all trials at
    once would take 16 MB (and their int64 index as much again); one
    block's draw and product stay far below."""
    F = np.random.default_rng(55).standard_normal((51, 100))
    cands = [(lambda f: (lambda Z: f))(f) for f in F]
    X = np.zeros((100, 1))
    tracemalloc.start()
    try:
        rademacher_estimate(cands, X, trials=20_000, seed=56)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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


def _reference_jl_parts(P, r, trials, seed):
    """The JL projection as it was first written: one Householder QR of a
    d x r Gaussian per trial.  Only its column space is used, which is
    uniform whatever signs the QR picks.  (trials, pairs) squared lengths
    of the pairwise differences projected onto that space."""
    i, j = np.triu_indices(P.shape[0], k=1)
    D = P[i] - P[j]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parts = np.empty((trials, D.shape[0]))
    for t in range(trials):
        Q = np.linalg.qr(rng.standard_normal((P.shape[1], r)))[0]
        parts[t] = np.sum((D @ Q) ** 2, axis=1)
    return parts


def _jl_per_pair_values(monkeypatch, P, epsilon, trials, seed):
    """(trials, pairs) squared projected lengths that jl_distortion_check
    feeds its success rule, caught at the corner-draw seam."""
    blocks = []
    corner = analysis._haar_corner_sq_norms
    monkeypatch.setattr(analysis, "_haar_corner_sq_norms",
                        lambda *a: blocks.append(corner(*a)) or blocks[-1])
    jl_distortion_check(P, epsilon, trials, seed)
    monkeypatch.setattr(analysis, "_haar_corner_sq_norms", corner)
    return np.concatenate(blocks)


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    z = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, z, side="right") / a.size
                               - np.searchsorted(b, z, side="right") / b.size)))


def _assert_projection_law(ratio, ref, r, d):
    """Each column of the (trials, rows) ratios ||P_S x||^2 / ||x||^2 has
    the Beta(r/2, (d - r)/2) mean r/d and variance 2 r (d - r) / (d^2
    (d + 2)) within 5 standard errors, and the extremes over the rows match
    those of the reference ratios by a two-sample KS statistic below its
    0.1% critical value."""
    trials = len(ratio)
    mean, var = r / d, 2.0 * r * (d - r) / (d * d * (d + 2))
    assert np.all(np.abs(ratio.mean(axis=0) - mean) <= 5.0 * math.sqrt(var / trials))
    dev = ratio - ratio.mean(axis=0)
    var_se = np.sqrt((np.mean(dev**4, axis=0) - ratio.var(axis=0) ** 2) / trials)
    assert np.all(np.abs(ratio.var(axis=0, ddof=1) - var) <= 5.0 * var_se)
    critical = 1.95 * math.sqrt(2.0 / len(ref))
    assert _ks_statistic(ratio.min(axis=1), ref.min(axis=1)) < critical
    assert _ks_statistic(ratio.max(axis=1), ref.max(axis=1)) < critical


def _seam_per_pair_values(P, epsilon, trials, seed, points):
    """(trials, pairs) squared projected lengths that jl_distortion_check's
    corner draw gives the pairs of the first `points` points, in the basis
    the check takes: for shapes whose pairs are too many to check them all."""
    n, d = P.shape
    s = math.ceil(12.0 * math.log(n) / epsilon**2)
    i, j = np.triu_indices(points, k=1)
    C = (P[i] - P[j]) @ np.linalg.svd(P[1:] - P[0], full_matrices=False)[2].T
    rngs = list(map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2)))
    return np.concatenate([analysis._haar_corner_sq_norms(C, min(s, d - s), d, *rngs, 200)
                           for _ in range(0, trials, 200)])


@pytest.mark.parametrize("n, d, eps", [
    (10, 200, 0.4),    # m = 9 < r = 27, nu = 173 >= w = 9: drawn from its m columns
    (30, 220, 0.45),   # m = 29 > r = 18, nu = 191 >= w = 18: from its r rows, transposed
    (300, 304, 0.49),  # m = 299, r = 18: nu = 5 < w = 18, a singular Bartlett factor
    (301, 300, 0.49),  # m = d = 300, r = 14: nu = 0, no Bartlett factor at all
])
def test_jl_corner_draw_has_the_projection_law(n, d, eps, monkeypatch):
    """||P_S x||^2 / ||x||^2 for a uniform r-dim subspace S is Beta(r/2,
    (d - r)/2) (Dasgupta & Gupta 2003): each pair's ratio as the check draws
    it has that law, and its extremes over the pairs, which the success rule
    reads, match the QR reference's (_assert_projection_law).  The corner's
    lower nu = d - max(r, m) rows enter through a Bartlett factor of nu rows,
    of fewer rows than columns, or of none.  The check itself projects every
    pair of 300 points (44,850) per trial, so at those shapes the corner
    draw sees the 45 pairs of the first 10 points."""
    trials = 2000
    P = np.random.default_rng(60 + n).standard_normal((n, d))
    s = math.ceil(12.0 * math.log(n) / eps**2)
    r = min(s, d - s)
    points = n if n <= 30 else 10
    i, j = np.triu_indices(points, k=1)
    orig = np.sum((P[i] - P[j]) ** 2, axis=1)
    if points < n:
        ratio = _seam_per_pair_values(P, eps, trials, 61, points) / orig
    else:
        ratio = _jl_per_pair_values(monkeypatch, P, eps, trials, 61) / orig
    assert ratio.shape == (trials, points * (points - 1) // 2)
    _assert_projection_law(ratio, _reference_jl_parts(P[:points], r, trials, 62) / orig, r, d)


@pytest.mark.parametrize("d, r, m", [
    (12, 2, 3),   # nu = 9 >= w = 2: a square Bartlett factor, 9 of the Gram's 12 rows
    (10, 4, 8),   # nu = 2 < w = 4: a singular one of 2 rows
    (6, 3, 6),    # nu = 0: no factor
    (9, 4, 2),    # m < r, nu = 5 >= w = 2: the corner drawn from its m columns
])
def test_haar_corner_law_where_the_bartlett_factor_weighs(d, r, m):
    """At shapes too small for the check's own s, the corner draw's lower
    rows are most of its Gram, so an error in the Bartlett factor's degrees
    of freedom shows in the law of ||K c||^2 / ||c||^2 for 6 fixed rows c of
    C (_assert_projection_law).  The reference reads the first r columns of
    a QR of a d x r Gaussian on the first m coordinates."""
    trials = 20_000
    C = np.random.default_rng(63).standard_normal((6, m))
    rngs = list(map(np.random.default_rng, np.random.SeedSequence(64).spawn(2)))
    ratio = np.concatenate([analysis._haar_corner_sq_norms(C, r, d, *rngs, 2000)
                            for _ in range(0, trials, 2000)]) / np.sum(C * C, axis=1)
    qr = np.random.default_rng(65)
    ref = np.array([np.sum((C @ np.linalg.qr(qr.standard_normal((d, r)))[0][:m]) ** 2, axis=1)
                    for _ in range(trials)]) / np.sum(C * C, axis=1)
    _assert_projection_law(ratio, ref, r, d)


def test_jl_memory_is_bounded_by_the_block():
    """60 points in d = 250 at epsilon 0.49 (s = 205, r = 45): 1,770 pairs,
    so a trial holds about 94,000 floats (0.75 MB), and 100 trials in one
    block would take 75 MB for the projected pairs alone.  A block holds at
    most BLOCK_FLOATS (8 MB) beside the 3.5 MB of differences."""
    P = np.random.default_rng(70).standard_normal((60, 250))
    tracemalloc.start()
    try:
        jl_distortion_check(P, 0.49, trials=100, seed=71)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


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


def _alias_weights():
    rng = np.random.default_rng(80)
    spread = rng.dirichlet(np.ones(500)) * 10.0 ** rng.uniform(-6, 0, 500)
    with_zeros = rng.dirichlet(np.ones(12))
    with_zeros[[0, 5, 11]] = 0.0
    return [np.array([1.0]), np.full(3, 1.0 / 3.0), np.eye(7)[3], with_zeros,
            rng.dirichlet(np.ones(30)), rng.dirichlet(np.full(1000, 0.05)),
            spread / spread.sum(), np.full(5, 0.2) * (1.0 + 1e-10)]


@pytest.mark.parametrize("w", _alias_weights())
def test_alias_table_implies_the_weights(w):
    """Atom i is drawn with probability (prob[i] + sum over alias[j] = i of
    (1 - prob[j])) / n: that equals w_i / sum(w) within a few ulps of the
    largest weight, a zero weight exactly.  A zero-weight atom is never
    drawn, not by its own slot nor as another's alias, not even for the
    uniforms at a slot's edges; and uniforms just below 1 land in the last
    slot."""
    n = w.size
    prob, alias = analysis._alias_table(w)
    assert prob.shape == alias.shape == (n,)
    assert np.all((prob >= 0.0) & (prob <= 1.0)) and np.all((alias >= 0) & (alias < n))
    implied = (prob + np.bincount(alias, weights=1.0 - prob, minlength=n)) / n
    np.testing.assert_allclose(implied, w / w.sum(), rtol=0.0,
                               atol=8.0 * np.finfo(float).eps * w.max())
    zero = w == 0.0
    assert np.all(implied[zero] == 0.0) and not np.any(zero[alias[prob < 1.0]])
    edges = np.concatenate([np.arange(n) / n, np.nextafter(np.arange(1, n + 1) / n, 0.0),
                            np.random.default_rng(81).random(20_000)])
    idx = analysis._alias_draw(prob, alias, edges)
    assert np.all((idx >= 0) & (idx < n)) and not np.any(zero[idx])


def test_alias_draw_stays_inside_the_table():
    """u = 1 - 2^-53, the largest uniform below 1, lands in the last slot of
    a table of every size up to 2,000, and floor(u n) = n - 1 holds for
    large n too: a draw never reads past the table."""
    top = np.nextafter(1.0, 0.0)
    for n in range(1, 2001):
        assert analysis._alias_draw(np.ones(n), np.arange(n), np.array([top]))[0] == n - 1
    for n in (2**20 - 1, 2**31 + 11, 2**52 - 1, 2**53):
        assert int(top * n) == n - 1


def test_maurey_draw_reads_the_uniforms_rng_choice_reads(monkeypatch):
    """Block by block, the alias draw maps the uniforms rng.random(shape)
    that rng.choice would draw, so a generator of the same seed that calls
    rng.choice block by block ends each block in the same state.  Over
    200,000 draws each atom's frequency lies within 4 sigma of its weight."""
    rng = np.random.default_rng(82)
    atoms = rng.standard_normal((9, 3))
    w = rng.dirichlet(np.ones(9))
    w[4] = 0.0
    w /= w.sum()
    seen = []
    draw = analysis._alias_draw
    monkeypatch.setattr(analysis, "_alias_draw",
                        lambda p, a, u: seen.append((u.copy(), draw(p, a, u))) or seen[-1][1])
    monkeypatch.setattr(analysis, "BLOCK_TRIALS", 300)
    trials, s = 1000, 200
    maurey_sparsify(atoms, w, s, trials, seed=83)
    assert [u.shape for u, _ in seen] == [(300, s)] * 3 + [(100, s)]
    uniforms = np.random.default_rng(np.random.SeedSequence(83))
    chooser = np.random.default_rng(np.random.SeedSequence(83))
    for u, _ in seen:
        assert np.array_equal(u, uniforms.random(u.shape))
        chooser.choice(w.size, size=u.shape, replace=True, p=w)
        assert uniforms.bit_generator.state == chooser.bit_generator.state
    freq = np.bincount(np.concatenate([idx.ravel() for _, idx in seen]), minlength=9)
    freq = freq / (trials * s)
    assert freq[4] == 0.0
    assert np.all(np.abs(freq - w) <= 4.0 * np.sqrt(w * (1.0 - w) / (trials * s)))


@pytest.mark.parametrize("block", [1, 7, 256])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_maurey_adds_its_draws_in_order(dim, block, monkeypatch):
    """Whatever the block and the atoms' dimension, a trial's v_s adds its
    s atoms one draw after another, as a per-trial loop over the alias
    draw of the same uniforms does.  Atoms of magnitudes 1e-8..1e8 make a
    pairwise sum, which numpy takes over a one-float row, give other bits."""
    rng = np.random.default_rng(92)
    atoms = rng.standard_normal((20, dim)) * 10.0 ** rng.uniform(-8, 8, (20, 1))
    w = rng.dirichlet(np.ones(20))
    s, trials, seed = 200, 30, 93
    seen = []
    summarize = analysis._mc
    monkeypatch.setattr(analysis, "_mc", lambda v: seen.append(v.copy()) or summarize(v))
    monkeypatch.setattr(analysis, "BLOCK_TRIALS", block)
    maurey_sparsify(atoms, w, s, trials, seed)
    u = np.random.default_rng(np.random.SeedSequence(seed)).random((trials, s))
    idx = analysis._alias_draw(*analysis._alias_table(w), u)
    v = w @ atoms
    ref = np.empty(trials)
    for t in range(trials):
        total = atoms[idx[t, 0]].copy()
        for j in idx[t, 1:]:
            total += atoms[j]
        ref[t] = np.sum(np.square(total / s - v))
    assert np.array_equal(seen[0], ref)


def test_generalization_memory_is_bounded_by_the_block():
    """21 candidates on 2,000 points at k = 1,000: a block of BLOCK_TRIALS
    trials would gather 21 x 256 x 1,000 floats (43 MB) of candidate values
    twice over.  A block holds one gather of at most BLOCK_FLOATS (8 MB)
    floats at a time, with its indices and signs."""
    data, _ = planted_halfspace(2000, 4, 0.15, 2.0, seed=84)
    dirs = np.random.default_rng(85).standard_normal((21, 4))
    cands = [(lambda w: (lambda X: X @ w))(w) for w in dirs]
    tracemalloc.start()
    try:
        generalization_gap_check(cands, piecewise_linear(1.0), data, k=1000, trials=300,
                                 seed=86)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_maurey_memory_is_bounded_by_the_block():
    """s = 1,000 atoms of dimension 40 per trial: a block of BLOCK_TRIALS
    trials would gather 256 x 1,000 x 40 floats (82 MB).  A block holds at
    most BLOCK_FLOATS (8 MB) floats, in fewer trials."""
    rng = np.random.default_rng(87)
    atoms = rng.standard_normal((50, 40))
    w = rng.dirichlet(np.ones(50))
    tracemalloc.start()
    try:
        maurey_sparsify(atoms, w, s=1000, trials=300, seed=88)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def _nan_at(a, index):
    a = np.array(a, dtype=float)
    a[index] = np.nan
    return a


def _non_finite_calls():
    atoms = np.random.default_rng(89).standard_normal((4, 3))
    w = np.full(4, 0.25)
    points = np.random.default_rng(90).standard_normal((10, 200))
    data, _ = planted_halfspace(30, 3, 0.1, 2.0, seed=91)
    bad = [lambda X: np.zeros(X.shape[0]), lambda X: np.where(X[:, 0] > 0, np.inf, 0.0)]
    return {
        "maurey_nan_atom": lambda: maurey_sparsify(_nan_at(atoms, (2, 1)), w, 2, 10, 0),
        "maurey_inf_atom": lambda: maurey_sparsify(atoms * np.inf, w, 2, 10, 0),
        "maurey_nan_weight": lambda: maurey_sparsify(atoms, _nan_at(w, 3), 2, 10, 0),
        "jl_nan_point": lambda: jl_distortion_check(_nan_at(points, (4, 7)), 0.4, 10, 0),
        "rademacher_nan_batch": lambda: rademacher_estimate(
            [lambda X: X[:, 0]], _nan_at(atoms, (0, 0)), 10, 0),
        "generalization_inf_candidate": lambda: generalization_gap_check(
            bad, piecewise_linear(1.0), data, 5, 10, 0),
    }


@pytest.mark.parametrize("case", list(_non_finite_calls()))
def test_monte_carlo_rejects_non_finite_inputs(case):
    """A NaN or infinite atom, weight, point or candidate value is a
    one-line ValueError, not a NaN estimate or a LinAlgError."""
    with pytest.raises(ValueError) as info:
        _non_finite_calls()[case]()
    assert "\n" not in str(info.value) and "finite" in str(info.value)


@pytest.mark.parametrize("wrong", [lambda X: np.zeros((len(X), 2)), lambda X: 0.0])
def test_monte_carlo_rejects_wrong_shaped_candidates(wrong):
    """A candidate whose values are not one per row is a one-line ValueError
    in both estimators that evaluate candidates."""
    data, _ = planted_halfspace(30, 3, 0.1, 2.0, seed=91)
    calls = (lambda: rademacher_estimate([wrong], data.features, 10, 0),
             lambda: generalization_gap_check([wrong], piecewise_linear(1.0), data, 5, 10, 0))
    for call in calls:
        with pytest.raises(ValueError, match="shape") as info:
            call()
        assert "\n" not in str(info.value)
