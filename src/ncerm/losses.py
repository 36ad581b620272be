"""Surrogate losses for weighted binary classification.

A loss is a scalar function h applied to the negative margin -y*f(x).
The weighted risk of a predictor f on points (x_i, y_i) with importance
weights a_i is sum_i a_i * h(-y_i f(x_i)); the zero-one risk replaces h
by the step indicator 1[-y f >= 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PIECEWISE_LINEAR = "piecewise_linear"
LOGISTIC_SIGMOID = "logistic_sigmoid"
NEG_MIN = "neg_min"


class NonFiniteError(ValueError):
    """A prediction or loss value stopped being finite."""


def _piecewise_linear(t, L, out):
    # Clamped, L*t + 1/2 maps the anchors -1/(2L), 0, 1/(2L) to 0, 1/2, 1
    # exactly where its ends round to 0 and 1 (as at L = 1); else set after.
    lo, hi = -0.5 / L, 0.5 / L
    np.clip(t, lo, hi, out=out)
    if L != 1.0:  # x * 1.0 is x, bit for bit
        np.multiply(out, L, out=out)
    np.add(out, 0.5, out=out)
    if L * lo + 0.5 != 0.0:
        np.putmask(out, t <= lo, 0.0)
    if L * hi + 0.5 != 1.0:
        np.putmask(out, t >= hi, 1.0)
    return out


def _piecewise_linear_slope(t, L, out):
    mask = t >= -0.5 / L
    mask &= t < 0.5 / L
    np.copyto(out, mask)  # one bool -> float cast; 1.0 * L is L and 0.0 * L is 0
    return out if L == 1.0 else np.multiply(out, L, out=out)


def _sigmoid(t, L, out):
    with np.errstate(over="ignore"):  # exp overflows to inf, giving exactly 0
        np.exp(np.multiply(t, -4.0 * L, out=out), out=out)
    return np.divide(1.0, np.add(out, 1.0, out=out), out=out)


def _sigmoid_slope(v, L, out):
    rest = 1.0 - v
    return np.multiply(np.multiply(v, 4.0 * L, out=out), rest, out=out)


_ERF_SCALE = math.sqrt(math.pi) / 2.0
_erf = np.frompyfunc(math.erf, 1, 1)  # elementwise math.erf, object dtype out

# kind -> (value, slope, slope_from_value), each f(x, L, out) writing into out
# (x's shape).  value reads t and never writes over it; slope reads h(t) when
# slope_from_value, else t, and may write over what it reads.  The last three
# kinds are the network activations (L = 1); erf is rescaled from slope
# 2/sqrt(pi) to 1.  The piecewise-linear value and slope skip their x L pass
# at L = 1, where it would change no bit.
_KINDS = {
    PIECEWISE_LINEAR: (_piecewise_linear, _piecewise_linear_slope, False),
    LOGISTIC_SIGMOID: (_sigmoid, _sigmoid_slope, True),
    NEG_MIN: (lambda t, L, out: np.minimum(0.0, t, out=out),
              lambda v, L, out: np.less(v, 0.0, out=out), True),
    "tanh": (lambda x, L, out: np.tanh(x, out=out),
             lambda v, L, out: np.subtract(1.0, np.square(v, out=out), out=out), True),
    "erf": (lambda x, L, out: _erf(np.multiply(x, _ERF_SCALE, out=out), out=out,
                                   casting="unsafe"),
            lambda x, L, out: np.exp(np.negative(np.square(np.multiply(x, _ERF_SCALE, out=out),
                                                           out=out), out=out), out=out),
            False),
    "clamp": (lambda x, L, out: np.clip(x, -1.0, 1.0, out=out),
              lambda v, L, out: np.less(np.abs(v, out=out), 1.0, out=out), True),
}
ACTIVATIONS = ("tanh", "erf", "clamp")  # odd, with range inside [-1, 1]
_UNIT_L = (NEG_MIN, *ACTIVATIONS)  # kinds whose L is always 1


def _apply(fn, t, out, L, value=None):
    """fn(t as a float array, L, out), into out or a fresh array (a float
    for 0-d t); with value, fn reads value(t, L, out) in place of t."""
    t = np.asarray(t, dtype=float)
    res = np.empty_like(t) if out is None else out
    res = fn(t if value is None else value(t, L, res), L, res)
    return float(res) if out is None and res.ndim == 0 else res


@dataclass(frozen=True)
class LossFunction:
    """L-Lipschitz scalar surrogate h.

    kind:
      piecewise_linear  0 for t <= -1/(2L), 1 for t >= 1/(2L), L*t + 1/2 between
      logistic_sigmoid  1 / (1 + exp(-4 L t))
      neg_min           min{0, t}
      tanh, erf, clamp  the odd network activations (erf scaled to slope 1)

    neg_min and the activations take L = 1 only.

    piecewise_linear and logistic_sigmoid are symmetric, h(t) + h(-t) = 1, so
    labels flipped at rate eta < 1/2 give expected risk eta + (1 - 2 eta) R(f)
    and the same minimizers; neg_min is not symmetric.
    """

    kind: str
    lipschitz: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not (math.isfinite(self.lipschitz) and self.lipschitz > 0):
            raise ValueError("lipschitz must be positive and finite")
        if self.kind in _UNIT_L and self.lipschitz != 1.0:
            raise ValueError(f"{self.kind} has lipschitz 1, not {self.lipschitz}")

    def value(self, t, out=None):
        return _apply(_KINDS[self.kind][0], t, out, self.lipschitz)

    def grad(self, t, out=None):
        """Subgradient of h; at kinks the slope of the right piece is used."""
        value, slope, from_value = _KINDS[self.kind]
        return _apply(slope, t, out, self.lipschitz, value if from_value else None)

    @property
    def functions(self):
        """(value, slope, L): the kind's value and slope functions f(x, L, out),
        each writing into out (x's shape) and returning it, and L; the row
        kernels call them directly.  value(t, L, out) is self.value(t, out),
        and slope(k, L, out) is self.slope(k, out)."""
        value, slope, _ = _KINDS[self.kind]
        return value, slope, self.lipschitz

    @property
    def slope_from_value(self) -> bool:
        """Whether slope reads h(t) rather than t (all kinds but piecewise_linear and erf)."""
        return _KINDS[self.kind][2]

    def slope(self, k, out=None):
        """grad(t) from k = h(t) if slope_from_value, else from k = t; out may be k."""
        return _apply(_KINDS[self.kind][1], k, out, self.lipschitz)


def piecewise_linear(lipschitz: float) -> LossFunction:
    return LossFunction(PIECEWISE_LINEAR, float(lipschitz))


def logistic_sigmoid(lipschitz: float) -> LossFunction:
    return LossFunction(LOGISTIC_SIGMOID, float(lipschitz))


def neg_min() -> LossFunction:
    return LossFunction(NEG_MIN, 1.0)


def _predictions(predict, data) -> np.ndarray:
    preds = np.asarray(predict(data.features), dtype=float)
    if preds.shape != (data.n,):
        raise ValueError(f"predictor returned shape {preds.shape}, expected ({data.n},)")
    if not np.all(np.isfinite(preds)):
        raise NonFiniteError("predictor produced non-finite values")
    return preds


def empirical_risk(predict, loss, data) -> float:
    """Weighted surrogate risk sum_i a_i h(-y_i predict(x_i)).

    predict maps the (n, d) feature matrix to an (n,) value vector.
    """
    preds = _predictions(predict, data)
    return float(np.einsum("n,n->", data.weights, loss.value(-data.labels * preds), optimize=False))


def zero_one_risk(predict, data) -> float:
    """Weighted misclassification sum_i a_i 1[-y_i predict(x_i) >= 0]."""
    preds = _predictions(predict, data)
    return float(np.einsum("n,n->", data.weights, (-data.labels * preds >= 0.0).astype(float),
                           optimize=False))
