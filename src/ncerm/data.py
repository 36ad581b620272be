"""Weighted datasets, importance resampling, and synthetic instance generators."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .util import check_unit_ball, lq_norm

_WEIGHT_SUM_TOL = 1e-12
_PLANT_MAX_CHUNKS = 10_000


class PlantingError(RuntimeError):
    """Rejection sampling failed to collect enough points within the cap."""


@dataclass(frozen=True)
class WeightedDataset:
    """Classification sample with importance weights.

    features: (n, d) finite floats
    labels:   (n,) values in {-1, +1}
    weights:  (n,) nonnegative, summing to 1
    feature_norm_q: when set, every row must satisfy ||x_i||_q <= 1
    """

    features: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    feature_norm_q: float | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(self.features, dtype=float)
        y = np.ascontiguousarray(self.labels, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        n = X.shape[0]
        if y.shape != (n,) or w.shape != (n,):
            raise ValueError("labels and weights must have one entry per row")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")
        if self.feature_norm_q is not None:
            check_unit_ball(X, self.feature_norm_q)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def with_weights(self, weights: np.ndarray) -> "WeightedDataset":
        return WeightedDataset(self.features, self.labels, weights, self.feature_norm_q)

    @staticmethod
    def uniform(features, labels, feature_norm_q=None) -> "WeightedDataset":
        n = np.asarray(features).shape[0]
        if n < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        w = np.full(n, 1.0 / n)
        w /= w.sum()
        return WeightedDataset(features, labels, w, feature_norm_q)


@dataclass(frozen=True)
class SampleBatch:
    """Points drawn with replacement from a dataset by importance weight."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def k(self) -> int:
        return self.features.shape[0]


def draw_batch(rng: np.random.Generator, data: WeightedDataset, k: int) -> SampleBatch:
    if k < 1:
        raise ValueError("k must be >= 1")
    idx = rng.choice(data.n, size=k, replace=True, p=data.weights)
    return SampleBatch(data.features[idx].copy(), data.labels[idx].copy())


def importance_sample(data: WeightedDataset, k: int, seed: int) -> SampleBatch:
    """k i.i.d. draws from the dataset, point i with probability weight_i."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return draw_batch(rng, data, k)


def _sample_q_ball(rng: np.random.Generator, count: int, d: int, q: float) -> np.ndarray:
    """Points with ||x||_q <= 1; exactly uniform for q in {2, inf}."""
    if math.isinf(q):
        return rng.uniform(-1.0, 1.0, size=(count, d))
    g = rng.standard_normal((count, d))
    norms = lq_norm(g, q)
    norms = np.where(norms == 0, 1.0, norms)
    radii = rng.uniform(0.0, 1.0, size=count) ** (1.0 / d)
    return g * (radii / norms)[:, None]


def parity_dataset(
    n: int, d: int, parity_bits: int, noise_rate: float, seed: int
) -> tuple[WeightedDataset, np.ndarray]:
    """Noisy parity over a hidden subset of sign coordinates.

    Raw points are uniform on {-1,1}^d with a constant 1 appended as
    coordinate d+1; the whole vector is divided by sqrt(d+1) so that
    ||x||_2 = 1.  The label is the product of the hidden raw coordinates,
    flipped independently with probability noise_rate.

    Returns the dataset and the sorted hidden coordinate indices (0-based).
    """
    if not (1 <= parity_bits <= d):
        raise ValueError("parity_bits must be in [1, d]")
    if not (0.0 <= noise_rate < 0.5):
        raise ValueError("noise_rate must be in [0, 0.5)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    raw = rng.integers(0, 2, size=(n, d)).astype(float) * 2.0 - 1.0
    hidden = np.sort(rng.choice(d, size=parity_bits, replace=False))
    y = np.prod(raw[:, hidden], axis=1)
    flips = rng.random(n) < noise_rate
    y = np.where(flips, -y, y)
    features = np.hstack([raw, np.ones((n, 1))]) / math.sqrt(d + 1)
    return WeightedDataset.uniform(features, y, feature_norm_q=2.0), hidden


def planted_halfspace(n: int, d: int, margin: float, p_exponent: float, seed: int):
    """Linearly separable sample with margin: y_i <w*, x_i> >= margin.

    w* is a random direction normalized to ||w*||_p = 1; points live in the
    unit l_q ball (q dual to p) and are rejection-sampled to the margin.
    Returns (dataset, planted LinearModel).
    """
    from .halfspace import LinearModel
    from .util import dual_exponent

    if not (0.0 < margin < 1.0):
        raise ValueError("margin must be in (0, 1)")
    q = dual_exponent(p_exponent)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    w = rng.standard_normal(d)
    w /= lq_norm(w, p_exponent)
    keep_X = []
    kept = 0
    chunk = max(256, 2 * n)
    for _ in range(_PLANT_MAX_CHUNKS):
        X = _sample_q_ball(rng, chunk, d, q)
        m = X @ w
        X = X[np.abs(m) >= margin]
        if len(X):
            keep_X.append(X)
            kept += len(X)
        if kept >= n:
            break
    else:
        raise PlantingError(f"could not plant {n} points at margin {margin}")
    X = np.vstack(keep_X)[:n]
    y = np.sign(X @ w)
    data = WeightedDataset.uniform(X, y, feature_norm_q=q)
    return data, LinearModel(w, float(p_exponent), 1.0)


def planted_network(n: int, d: int, margin: float, class_spec, width: int, seed: int):
    """Sample separated with margin by a random network from the class.

    The teacher has `width` leaves at the leaf-norm budget and combination
    weights at the l1 budget; points are rejection-sampled from the unit
    l_q ball until |f*(x)| >= margin.  Returns (dataset, teacher network).
    """
    from .networks import Leaf, Node, evaluate

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    B = class_spec.budget
    leaves = []
    for _ in range(width):
        v = rng.standard_normal(d)
        v *= B / lq_norm(v, class_spec.leaf_p)
        leaves.append(Leaf(v))
    c = rng.standard_normal(width)
    c *= B / np.sum(np.abs(c))
    teacher = Node(tuple(leaves), c) if class_spec.depth >= 2 else leaves[0]
    keep_X, keep_y = [], []
    kept = 0
    chunk = max(256, 2 * n)
    for _ in range(_PLANT_MAX_CHUNKS):
        X = _sample_q_ball(rng, chunk, d, class_spec.input_q)
        vals = evaluate(teacher, class_spec, X)
        ok = np.abs(vals) >= margin
        if np.any(ok):
            keep_X.append(X[ok])
            keep_y.append(np.sign(vals[ok]))
            kept += int(ok.sum())
        if kept >= n:
            break
    else:
        raise PlantingError(f"could not plant {n} points at margin {margin}")
    X = np.vstack(keep_X)[:n]
    y = np.concatenate(keep_y)[:n]
    data = WeightedDataset.uniform(X, y, feature_norm_q=class_spec.input_q)
    return data, teacher


def flip_labels(data: WeightedDataset, rate: float, seed: int) -> WeightedDataset:
    """Flip each label independently with the given probability."""
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must be in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flips = rng.random(data.n) < rate
    y = np.where(flips, -data.labels, data.labels)
    return WeightedDataset(data.features, y, data.weights, data.feature_norm_q)


def save_dataset_csv(path, data: WeightedDataset) -> None:
    """Columns x_1..x_d, y, weight; floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x_{j + 1}" for j in range(data.dim)] + ["y", "weight"])
        for i in range(data.n):
            row = [f"{v:.17g}" for v in data.features[i]]
            row.append(f"{data.labels[i]:.17g}")
            row.append(f"{data.weights[i]:.17g}")
            writer.writerow(row)


def load_dataset_csv(path, feature_norm_q: float | None = None) -> WeightedDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 3 or header[-2:] != ["y", "weight"]:
            raise ValueError("expected columns x_1..x_d, y, weight")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError("dataset has no rows")
    arr = np.asarray(rows, dtype=float)
    return WeightedDataset(arr[:, :-2], arr[:, -2], arr[:, -1], feature_norm_q)
