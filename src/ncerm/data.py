"""Weighted datasets, importance resampling, and synthetic instance generators."""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .util import check_unit_ball, dual_exponent, lq_norm

_WEIGHT_SUM_TOL = 1e-12
_PLANT_MAX_CHUNKS = 10_000


class PlantingError(ValueError):
    """Rejection sampling failed to collect enough points within the cap."""


def _checked_weights(weights, n: int) -> np.ndarray:
    w = np.ascontiguousarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError("weights must have one entry per row")
    # A NaN makes the minimum NaN, which fails the test.
    if not (np.minimum.reduce(w) >= 0.0 and np.isfinite(np.maximum.reduce(w))):
        raise ValueError("weights must be finite and nonnegative")
    total = np.add.reduce(w)
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    return w


@dataclass(frozen=True)
class WeightedDataset:
    """Classification sample with importance weights.

    features: (n, d) finite floats
    labels:   (n,) values in {-1, +1}
    weights:  (n,) nonnegative, summing to 1

    Each learner checks on entry that the rows lie in its unit l_q ball
    (check_unit_ball).  features is a read-only copy of the given array,
    so the largest row norm, computed once per q, stays that of the rows.
    """

    features: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    # q -> largest ||x||_q over the rows, shared with every with_weights copy.
    _max_norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.array(self.features, dtype=float, order="C")
        y = np.ascontiguousarray(self.labels, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must have one entry per row")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        X.flags.writeable = False
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "weights", _checked_weights(self.weights, X.shape[0]))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def check_unit_ball(self, q: float) -> None:
        """util.check_unit_ball of the features, their largest l_q row norm
        computed on the first call for this q by this dataset or any of its
        with_weights copies."""
        top = self._max_norms.get(q)
        if top is None:
            top = self._max_norms[q] = float(np.max(lq_norm(self.features, q)))
        check_unit_ball(self.features, q, top)

    def with_weights(self, weights: np.ndarray) -> "WeightedDataset":
        """The same points under new weights; only the weights are checked,
        and the feature and label arrays and the norms found by
        check_unit_ball are shared."""
        out = copy.copy(self)
        object.__setattr__(out, "weights", _checked_weights(weights, self.n))
        return out

    @staticmethod
    def uniform(features, labels) -> "WeightedDataset":
        n = np.asarray(features).shape[0]
        if n < 1:
            raise ValueError("features must be a nonempty (n, d) matrix")
        w = np.full(n, 1.0 / n)
        w /= w.sum()
        return WeightedDataset(features, labels, w)


def draw_indices(weights: np.ndarray, u) -> np.ndarray:
    """Indices (u.shape) of the draws at uniforms u in [0, 1): i with
    probability weights_i, by the arithmetic of rng.choice(n, size=u.shape,
    replace=True, p=weights) on the uniforms it draws (the weights' CDF at
    u), without its checks of p.  Zero-weight points are never drawn."""
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def draw_batch(data: WeightedDataset, u) -> np.ndarray:
    """Feature rows (*u.shape, d) of the draws at uniforms u (draw_indices)."""
    return data.features[draw_indices(data.weights, u)]


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
    return WeightedDataset.uniform(features, y), hidden


def _plant(rng: np.random.Generator, n: int, d: int, q: float, margin: float, f):
    """n points rejection-sampled from the unit l_q ball in chunks until
    |f(x)| >= margin, each labelled by the sign of its value of f."""
    keep_X, keep_y, kept = [], [], 0
    for _ in range(_PLANT_MAX_CHUNKS):
        X = _sample_q_ball(rng, max(256, 2 * n), d, q)
        vals = f(X)
        ok = np.abs(vals) >= margin
        keep_X.append(X[ok])
        keep_y.append(np.sign(vals[ok]))
        kept += int(ok.sum())
        if kept >= n:
            break
    else:
        raise PlantingError(f"could not plant {n} points at margin {margin}")
    X = np.vstack(keep_X)[:n]
    y = np.concatenate(keep_y)[:n]
    return WeightedDataset.uniform(X, y)


def planted_halfspace(n: int, d: int, margin: float, p_exponent: float, seed: int):
    """Linearly separable sample with margin: y_i <w*, x_i> >= margin.

    w* is a random direction normalized to ||w*||_p = 1, p in [1, 2]; points
    live in the unit l_q ball (q dual to p) and are rejection-sampled to the
    margin.
    Returns (dataset, planted LinearModel).
    """
    from .halfspace import LinearModel

    if not (0.0 < margin < 1.0):
        raise ValueError("margin must be in (0, 1)")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not (1.0 <= p_exponent <= 2.0):
        raise ValueError("p must be in [1, 2]")
    q = dual_exponent(p_exponent)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    w = rng.standard_normal(d)
    w /= lq_norm(w, p_exponent)
    data = _plant(rng, n, d, q, margin, lambda X: X @ w)
    return data, LinearModel(w, float(p_exponent), 1.0)


def planted_network(n: int, d: int, margin: float, class_spec, width: int, seed: int):
    """Sample separated with margin by a random network from the class.

    The teacher is random_network's depth-2 draw (`width` leaves), or its
    first leaf at class depth 1; points are then rejection-sampled from the
    unit l_q ball until |f*(x)| >= margin.  Returns (dataset, teacher).
    """
    from .networks import Network, _draw_network, evaluate

    if d < 1:
        raise ValueError("d must be >= 1")
    if width < 1:
        raise ValueError("width must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    levels = _draw_network(rng, class_spec, d, width, 2)
    teacher = Network(levels if class_spec.depth > 1 else [levels[0][:1]])
    data = _plant(rng, n, d, class_spec.input_q, margin,
                  lambda X: evaluate(teacher, class_spec, X))
    return data, teacher


def flip_labels(data: WeightedDataset, rate: float, seed: int) -> WeightedDataset:
    """Flip each label independently with the given probability."""
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must be in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flips = rng.random(data.n) < rate
    y = np.where(flips, -data.labels, data.labels)
    return WeightedDataset(data.features, y, data.weights)


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


def load_dataset_csv(path) -> WeightedDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 3 or header[-2:] != ["y", "weight"]:
            raise ValueError("expected columns x_1..x_d, y, weight")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"line {reader.line_num} has {len(row)} values, the header {len(header)}"
                )
            rows.append([float(v) for v in row])
    if not rows:
        raise ValueError("dataset has no rows")
    arr = np.asarray(rows, dtype=float)
    return WeightedDataset(arr[:, :-2], arr[:, -2], arr[:, -1])
