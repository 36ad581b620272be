"""Monte-Carlo checks of the concentration and compression bounds.  Candidates
are vectorized callables mapping an (n, d) feature matrix to (n,) values;
include the zero function for the symmetrization bounds to apply."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import draw_indices
from .networks import Predictor, evaluate_stack
from .util import blocks


# Trials run in the blocks of util.blocks, sized by the floats one trial holds;
# each block's draw continues its stream where the previous block stopped.
#
# A Rademacher block's product F @ eps.T is summed over slices of this many of
# the k columns, one slice after another.  OpenBLAS rounds the whole product
# differently at one and two threads for k = 500 or 5,000.  A slice rounds
# alike at both only while it fits in one K block of the gemm kernel that
# OpenBLAS picks at run time (its GEMM_Q); that was checked on one build
# alone (OpenBLAS 0.3.31, SkylakeX kernel, one and two threads), and another
# kernel or BLAS may still round the estimate differently per thread count.
# At k <= K_SLICE it is the one product it always was.
K_SLICE = 256


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    trials: int


def _check_trials(trials: int) -> None:
    # A single trial has no spread, so its standard error would read 0.
    if trials < 2:
        raise ValueError("trials must be >= 2")


def _candidate_values(candidates, X) -> np.ndarray:
    """(candidates, rows) values of the candidates on X, all finite.

    Network predictors of one activation and one set of level shapes are
    evaluated as one stack (networks.evaluate_stack), in the blocks of
    util.blocks, when the first of them comes up; each row has the
    bits the predictor gives alone.  Every other candidate is called on X.
    """
    stacks = {}
    for i, c in enumerate(candidates):
        if isinstance(c, Predictor):
            stacks.setdefault((c.spec.activation, tuple(L.shape for L in c.net.levels)),
                              []).append(i)
    at_first = {group[0]: group for group in stacks.values()}
    rows = [None] * len(candidates)
    for i, c in enumerate(candidates):
        if i in at_first:
            _stack_rows(rows, candidates, at_first[i], X)
        elif not isinstance(c, Predictor):
            rows[i] = np.asarray(c(X), dtype=float)
    F = np.stack(rows)
    if F.shape != (len(F), len(X)):
        raise ValueError(f"candidates returned shape {F.shape[1:]}, expected ({len(X)},)")
    if not np.all(np.isfinite(F)):
        raise ValueError("candidate values must be finite")
    return F


def _stack_rows(rows, candidates, group, X) -> None:
    """Fill rows[j] for the predictors candidates[j], j in group, which share
    an activation and level shapes, a block of networks at a time."""
    levels = candidates[group[0]].net.levels
    # A network holds its leaf pre-activations, their activated copy and its
    # stacked level tensors.
    for ts in blocks(len(group), 2 * len(X) * len(levels[0]) + sum(L.size for L in levels)):
        part = group[ts.start:ts.stop]
        # evaluate_stack reads only the activation, which the group shares.
        V = evaluate_stack([candidates[j].net for j in part], candidates[part[0]].spec, X)
        for j, v in zip(part, V):
            rows[j] = v


def _mc(values: np.ndarray) -> MCEstimate:
    values = np.asarray(values, dtype=float)
    t = values.size
    return MCEstimate(float(values.mean()), float(values.std(ddof=1) / math.sqrt(t)), t)


def rademacher_estimate(candidates, batch_features, trials: int, seed: int) -> MCEstimate:
    """MC estimate of E sup_f (1/k) sum_j eps_j f(x'_j) over the candidates.

    The batch is fixed; only the signs are redrawn per trial, one raw
    generator bit per sign (see _signs).  Over a finite candidate subset of
    a class the estimate lower-bounds the class complexity in expectation.
    """
    _check_trials(trials)
    X = np.asarray(batch_features, dtype=float)
    k = X.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    F = _candidate_values(candidates, X)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sups = np.empty(trials)
    for ts in blocks(trials, 2 * k + len(F)):  # signs, their bits, a column of F eps
        eps = _signs(rng, len(ts), k)
        sups[ts.start:ts.stop] = np.max(_sliced_product(F, eps), axis=0)
    # Dividing by k > 0 is monotone under correct rounding, so the max of
    # the sums divided once equals the max of the divided sums.
    return _mc(sups / k)


def _signs(rng, b, k):
    """(b, k) independent uniform signs +-1.0, one raw generator bit each.

    Each trial takes its own ceil(k / 64) words of the bit generator's
    output, so a block of trials continues the stream exactly where the
    previous block stopped.  Sign j of a trial is 1 - 2 * bit (j % 64) of
    its word j // 64; the words are read as little-endian bytes, so the
    signs do not depend on the platform's byte order.
    """
    words = rng.bit_generator.random_raw(b * -(-k // 64)).reshape(b, -1)
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1, count=k,
                         bitorder="little")
    eps = bits.astype(float)
    eps *= -2.0
    eps += 1.0
    return eps


def _sliced_product(F, eps):
    """F @ eps.T, summed over slices of K_SLICE columns in order."""
    S = F[:, :K_SLICE] @ eps[:, :K_SLICE].T
    for j in range(K_SLICE, F.shape[1], K_SLICE):
        S += F[:, j:j + K_SLICE] @ eps[:, j:j + K_SLICE].T
    return S


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
    Candidates are evaluated once on the sample, for their risks and for
    every batch, since on stacked batches a value could depend on its row,
    and so on the block size.
    """
    _check_trials(trials)
    if data.n < 2 or k < 1:
        raise ValueError("need k >= 1 and a sample of at least two points")
    F = _candidate_values(candidates, data.features)
    H = loss.value(-data.labels * F)
    full = np.array([np.einsum("n,n->", data.weights, h, optimize=False) for h in H])
    batch_rng, sign_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    gaps, rad = np.empty(trials), np.empty(trials)
    # A trial holds one gather of the candidates at its batch at a time, beside
    # its indices, their uniforms and its signs.
    for ts in blocks(trials, k * (len(F) + 4)):
        idx = draw_indices(data.weights, batch_rng.random((len(ts), k)))
        eps = _signs(sign_rng, len(ts), k)
        gaps[ts.start:ts.stop] = np.max(np.abs(H[:, idx].mean(axis=2) - full[:, None]), axis=0)
        S = F[:, idx]
        S *= eps
        rad[ts.start:ts.stop] = np.max(np.sum(S, axis=2), axis=0) / k
        del S  # before the next block's gather
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


def _haar_corner_sq_norms(C: np.ndarray, r: int, d: int, normal_rng, chi_rng,
                          b: int) -> np.ndarray:
    """(b, rows) squared lengths ||K_t c||^2 of the rows c of C (m columns),
    where K_t is the r x m corner of a Haar matrix on O(d), one per trial.

    The corner is drawn from its narrower side w = min(r, m).  For a d x w
    standard normal G with L = cholesky(G^T G), the columns of G L^-T are
    the first w columns of a Haar matrix (G = (G L^-T) L^T is its QR
    factorization with a positive diagonal; Householder QR fixes the signs
    by the data instead).  Its top h = max(r, m) rows are the h x w corner,
    transposed when w = r, and they read only G's top h rows and its Gram.
    So only those rows are drawn.  The Gram of the other nu = d - h rows is
    Wishart(nu, I_w), drawn as R^T R for the min(nu, w) x w upper-trapezoidal
    Bartlett factor R (Bartlett 1933): chi with nu - j degrees of freedom at
    (j, j), standard normals above.  With nu < w the Wishart is singular and
    R has nu rows; with nu = 0 it has none.  The top rows and R stack into
    one matrix with the same Gram as G.  A trial takes a contiguous run of
    each stream (h w normals, then those above R's diagonal; R's chi
    draws), and cholesky, solve and matmul take one matrix of the stack at a
    time, so a trial's values do not depend on the block.
    """
    m = C.shape[1]
    w, h = min(r, m), max(r, m)
    q = min(d - h, w)
    above, right = np.triu_indices(q, 1, w)
    Z = normal_rng.standard_normal((b, h * w + above.size))
    G = np.zeros((b, h + q, w))
    G[:, :h] = Z[:, :h * w].reshape(b, h, w)
    G[:, h + above, right] = Z[:, h * w:]
    diag = np.arange(q)
    G[:, h + diag, diag] = np.sqrt(chi_rng.chisquare(d - h - diag, size=(b, q)))
    L = np.linalg.cholesky(np.swapaxes(G, 1, 2) @ G)
    X = np.linalg.solve(L, np.swapaxes(G[:, :h], 1, 2))  # (b, w, h): corner^T or corner
    Y = C @ (X if r >= m else np.swapaxes(X, 1, 2))
    return np.sum(np.square(Y, out=Y), axis=2)


def jl_distortion_check(points, epsilon: float, trials: int, seed: int) -> JLCheckResult:
    """Frequency with which a random s-dimensional projection preserves
    all pairwise squared distances to relative error epsilon, with
    s = min(d, ceil(12 ln n / eps^2)) and scaling sqrt(d/s).  The theory
    promises success probability at least 1/n.

    A trial reads its projection through the corner of a Haar rotation that
    the pairs see, drawn from the top rows of a Gaussian and a Bartlett
    factor for the rest (see _haar_corner_sq_norms): normals from one child
    stream of the seed, chi draws from the other.  Trials run in the blocks
    of util.blocks.
    """
    _check_trials(trials)
    P = np.asarray(points, dtype=float)
    n, d = P.shape
    if not np.all(np.isfinite(P)):
        raise ValueError("points must be finite")
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
    # The differences span at most m = min(n - 1, d) dimensions; in an
    # orthonormal basis B of that span they read C = D B, and a projection
    # O[:r] of the whole space sees them through its r x m corner only.
    C = D @ np.linalg.svd(P[1:] - P[0], full_matrices=False)[2].T
    # A uniform s-dim subspace S is the complement of a uniform (d-s)-dim one and
    # ||P_S x||^2 = ||x||^2 - ||P_S^perp x||^2: project onto the narrower.
    r = min(s, d - s)
    m = C.shape[1]
    w, h = min(r, m), max(r, m)
    # A trial holds its normals and their stack with the Bartlett factor, its
    # corner and its projected pairs.
    normal_rng, chi_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    successes = 0
    for ts in blocks(trials, (2 * (h + min(d - h, w)) + h) * w + len(C) * r):
        part = _haar_corner_sq_norms(C, r, d, normal_rng, chi_rng, len(ts))
        new = (d / s) * (part if r == s else orig - part)
        successes += int(np.count_nonzero(np.all(np.abs(new - orig) <= epsilon * orig, axis=1)))
    freq = successes / trials
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / trials)
    return JLCheckResult(s, freq, se, 1.0 / n, trials)


@dataclass(frozen=True)
class MaureyResult:
    mse: MCEstimate
    bound: float
    s: int


def _alias_table(w: np.ndarray):
    """Walker's alias table (prob, alias) of the weights w (Walker 1977),
    built by Vose's O(n) method.  A uniform u in [0, 1) maps to the atom
    j = floor(u n) if u n - j < prob[j], and to alias[j] otherwise; atom i
    is then drawn with probability (prob[i] + sum over alias[j] = i of
    (1 - prob[j])) / n, which is w_i / sum(w) up to rounding.  A zero weight
    is never drawn: its prob is 0 and no atom takes it as its alias."""
    n = w.size
    p = (w * (n / w.sum())).tolist()
    prob, alias = [1.0] * n, list(range(n))
    small = [i for i, x in enumerate(p) if x < 1.0]
    large = [i for i, x in enumerate(p) if x >= 1.0]
    while small and large:
        i, j = small.pop(), large.pop()
        prob[i], alias[i] = p[i], j
        p[j] = (p[j] + p[i]) - 1.0  # Vose's order: no cancellation below 0
        (small if p[j] < 1.0 else large).append(j)
    return np.array(prob), np.array(alias)


def _alias_draw(prob, alias, u):
    """The atoms that the alias table maps the uniforms u in [0, 1) to; u is
    overwritten.  For u < 1 and n < 2^53 atoms, floor(u n) < n."""
    u *= prob.size
    j = u.astype(np.intp)
    u -= j
    return np.where(u < prob[j], j, alias[j])


def maurey_sparsify(atoms, weights, s: int, trials: int, seed: int) -> MaureyResult:
    """MC mean of ||v - v_s||^2 where v = sum_i w_i a_i and v_s averages s
    i.i.d. atoms drawn by weight; bounded by b^2/s, b = max ||a_i||_2.

    A trial maps s uniforms of the generator (the ones rng.choice would
    draw, so the generator's state after a block is the same) to atoms
    through a Walker alias table of the weights (see _alias_table).  Trials
    run in the blocks of util.blocks.
    """
    _check_trials(trials)
    A = np.asarray(atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or A.shape[0] != w.size:
        raise ValueError("one weight per atom required")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(w))):
        raise ValueError("atoms and weights must be finite")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a convex combination")
    if s < 1:
        raise ValueError("s must be >= 1")
    v = w @ A
    b = float(np.max(np.linalg.norm(A, axis=1)))
    prob, alias = _alias_table(w)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    errs = np.empty(trials)
    # A trial holds its uniforms, the alias draw's indices and lookups, its
    # drawn atoms and their sum.
    for ts in blocks(trials, s * (v.size + 6) + 2 * v.size):
        idx = _alias_draw(prob, alias, rng.random((len(ts), s)))
        # v_s adds its atoms one draw after another: numpy sums the outer
        # axis of the (s, trials, dim) gather row by row when a row holds
        # two floats or more, and pairwise for one, so a one-float row
        # accumulates in order instead.
        G = A.take(idx.T, axis=0)
        diff = G.sum(axis=0) if G[0].size > 1 else np.add.accumulate(G, axis=0)[-1]
        del G  # before the next block's gather
        diff /= s
        diff -= v
        errs[ts.start:ts.stop] = np.sum(np.square(diff, out=diff), axis=1)
    return MaureyResult(_mc(errs), b * b / s, s)
