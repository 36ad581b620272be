"""Monte-Carlo checks of the concentration and compression bounds.  Candidates
are vectorized callables mapping an (n, d) feature matrix to (n,) values;
include the zero function for the symmetrization bounds to apply."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import empirical_risk

# Trials drawn per numpy call, to bound memory.  Each kind of draw takes floats
# from its own stream, and these split cleanly, so the size changes no result.
BLOCK_TRIALS = 256


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    trials: int


def _check_trials(trials: int) -> None:
    # A single trial has no spread, so its standard error would read 0.
    if trials < 2:
        raise ValueError("trials must be >= 2")


def _mc(values: np.ndarray) -> MCEstimate:
    values = np.asarray(values, dtype=float)
    t = values.size
    return MCEstimate(float(values.mean()), float(values.std(ddof=1) / math.sqrt(t)), t)


def rademacher_estimate(candidates, batch_features, trials: int, seed: int) -> MCEstimate:
    """MC estimate of E sup_f (1/k) sum_j eps_j f(x'_j) over the candidates.

    The batch is fixed; only the signs are redrawn per trial.  Over a
    finite candidate subset of a class the estimate lower-bounds the
    class complexity in expectation.
    """
    _check_trials(trials)
    X = np.asarray(batch_features, dtype=float)
    k = X.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    F = np.stack([np.asarray(c(X), dtype=float) for c in candidates])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    eps = rng.choice((-1.0, 1.0), size=(trials, k))
    sups = np.max(F @ eps.T / k, axis=0)
    return _mc(sups)


@dataclass(frozen=True)
class GapCheckResult:
    mean_gap: float
    stderr_gap: float
    max_gap: float
    bound: float
    k: int


def generalization_gap_check(
    candidates, loss, data, k: int, trials: int, seed: int
) -> GapCheckResult:
    """Compare E sup_f |G(f) - risk(f)| against 4 L (R_k + 3 stderr).

    G(f) is the plain average of h(-y' f(x')) over k importance-resampled
    points; the Rademacher term is estimated on fresh per-trial batches.
    Candidates are evaluated once on the sample, since on stacked batches a
    value could depend on its row, and so on the block size.
    """
    _check_trials(trials)
    if data.n < 2 or k < 1:
        raise ValueError("need k >= 1 and a sample of at least two points")
    full = np.array([empirical_risk(c, loss, data) for c in candidates])
    F = np.stack([np.asarray(c(data.features), dtype=float) for c in candidates])
    H = loss.value(-data.labels * F)
    batch_rng, sign_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    gaps, rad = np.empty(trials), np.empty(trials)
    for start in range(0, trials, BLOCK_TRIALS):
        stop = min(start + BLOCK_TRIALS, trials)
        idx = batch_rng.choice(data.n, size=(stop - start, k), replace=True, p=data.weights)
        eps = np.where(sign_rng.random(idx.shape) < 0.5, -1.0, 1.0)
        G = H[:, idx].mean(axis=2)
        gaps[start:stop] = np.max(np.abs(G - full[:, None]), axis=0)
        rad[start:stop] = np.max(np.sum(F[:, idx] * eps, axis=2), axis=0) / k
    rad_est, gap_est = _mc(rad), _mc(gaps)
    bound = 4.0 * loss.lipschitz * (rad_est.value + 3.0 * rad_est.stderr)
    return GapCheckResult(gap_est.value, gap_est.stderr, float(gaps.max()), bound, k)


@dataclass(frozen=True)
class JLCheckResult:
    s: int
    success_freq: float
    stderr: float
    threshold: float
    trials: int


def jl_distortion_check(points, epsilon: float, trials: int, seed: int) -> JLCheckResult:
    """Frequency with which a random s-dimensional projection preserves
    all pairwise squared distances to relative error epsilon, with
    s = min(d, ceil(12 ln n / eps^2)) and scaling sqrt(d/s).  The theory
    promises success probability at least 1/n.
    """
    _check_trials(trials)
    P = np.asarray(points, dtype=float)
    n, d = P.shape
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must be in (0, 1/2)")
    if n < 2:
        raise ValueError("jl needs at least two points")
    s = min(d, max(1, math.ceil(12.0 * math.log(n) / epsilon**2)))
    if s == d:  # an orthogonal map of the whole space keeps every distance
        return JLCheckResult(s, 1.0, 0.0, 1.0 / n, trials)
    i, j = np.triu_indices(n, k=1)
    D = P[i] - P[j]
    orig = np.sum(D * D, axis=1)
    # A uniform s-dim subspace S is the complement of a uniform (d-s)-dim one and
    # ||P_S x||^2 = ||x||^2 - ||P_S^perp x||^2: orthonormalize the narrower.
    r = min(s, d - s)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    successes = 0
    for _ in range(trials):
        Q = np.linalg.qr(rng.standard_normal((d, r)))[0]
        part = np.sum((D @ Q) ** 2, axis=1)
        new = (d / s) * (part if r == s else orig - part)
        successes += bool(np.all(np.abs(new - orig) <= epsilon * orig))
    freq = successes / trials
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / trials)
    return JLCheckResult(s, freq, se, 1.0 / n, trials)


@dataclass(frozen=True)
class MaureyResult:
    mse: MCEstimate
    bound: float
    s: int


def maurey_sparsify(atoms, weights, s: int, trials: int, seed: int) -> MaureyResult:
    """MC mean of ||v - v_s||^2 where v = sum_i w_i a_i and v_s averages s
    i.i.d. atoms drawn by weight; bounded by b^2/s, b = max ||a_i||_2.
    """
    _check_trials(trials)
    A = np.asarray(atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or A.shape[0] != w.size:
        raise ValueError("one weight per atom required")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a convex combination")
    if s < 1:
        raise ValueError("s must be >= 1")
    v = w @ A
    b = float(np.max(np.linalg.norm(A, axis=1)))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    errs = np.empty(trials)
    for start in range(0, trials, BLOCK_TRIALS):
        stop = min(start + BLOCK_TRIALS, trials)
        idx = rng.choice(A.shape[0], size=(stop - start, s), replace=True, p=w)
        errs[start:stop] = np.sum((v - A[idx].mean(axis=1)) ** 2, axis=1)
    return MaureyResult(_mc(errs), b * b / s, s)
