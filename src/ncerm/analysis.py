"""Monte-Carlo checks of the concentration and compression bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import draw_batch
from .losses import empirical_risk

_candidate_doc = """Candidates are vectorized callables mapping an (n, d)
feature matrix to (n,) values; include the zero function for the
symmetrization bounds to apply."""


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
    rademacher: MCEstimate
    bound: float
    k: int


def generalization_gap_check(
    candidates, loss, data, k: int, trials: int, seed: int
) -> GapCheckResult:
    """Compare E sup_f |G(f) - risk(f)| against 4 L (R_k + 3 stderr).

    G(f) is the plain average of h(-y' f(x')) over k importance-resampled
    points; the Rademacher term is estimated on fresh per-trial batches.
    """
    _check_trials(trials)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    full = np.array([empirical_risk(c, loss, data) for c in candidates])
    gaps = np.empty(trials)
    rad = np.empty(trials)
    for j in range(trials):
        batch = draw_batch(rng, data, k)
        vals = np.stack([np.asarray(c(batch.features), dtype=float) for c in candidates])
        G = loss.value(-batch.labels[None, :] * vals).mean(axis=1)
        gaps[j] = np.max(np.abs(G - full))
        eps = rng.choice((-1.0, 1.0), size=k)
        rad[j] = np.max(vals @ eps / k)
    rad_est = _mc(rad)
    L = loss.lipschitz
    bound = 4.0 * L * (rad_est.value + 3.0 * rad_est.stderr)
    gap_est = _mc(gaps)
    return GapCheckResult(
        gap_est.value, gap_est.stderr, float(gaps.max()), rad_est, bound, k
    )


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
        return JLCheckResult(min(d, 1), 1.0, 0.0, 1.0 / max(n, 1), trials)
    s = min(d, max(1, math.ceil(12.0 * math.log(n) / epsilon**2)))
    iu = np.triu_indices(n, k=1)
    diffs = P[:, None, :] - P[None, :, :]
    orig = np.einsum("ijk,ijk->ij", diffs, diffs)[iu]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scale = math.sqrt(d / s)
    successes = 0
    for _ in range(trials):
        G = rng.standard_normal((d, s))
        Q, _ = np.linalg.qr(G)
        proj = P @ Q * scale
        pd = proj[:, None, :] - proj[None, :, :]
        new = np.einsum("ijk,ijk->ij", pd, pd)[iu]
        if np.all(np.abs(new - orig) <= epsilon * orig):
            successes += 1
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
    for j in range(trials):
        idx = rng.choice(A.shape[0], size=s, replace=True, p=w)
        diff = v - A[idx].mean(axis=0)
        errs[j] = diff @ diff
    return MaureyResult(_mc(errs), b * b / s, s)
