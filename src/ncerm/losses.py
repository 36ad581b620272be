"""Surrogate losses for weighted binary classification.

A loss is a scalar function h applied to the negative margin -y*f(x).
The weighted risk of a predictor f on points (x_i, y_i) with importance
weights a_i is sum_i a_i * h(-y_i f(x_i)); the zero-one risk replaces h
by the step indicator 1[-y f >= 0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIECEWISE_LINEAR = "piecewise_linear"
LOGISTIC_SIGMOID = "logistic_sigmoid"
NEG_MIN = "neg_min"


class NonFiniteError(ValueError):
    """A prediction or loss value stopped being finite."""


def _piecewise_linear(t, L):
    # Branch on t so the three anchor points 0, 1/2, 1 are exact.
    out = np.asarray(L * t + 0.5)
    np.putmask(out, t <= -0.5 / L, 0.0)
    np.putmask(out, t >= 0.5 / L, 1.0)
    return out


def _sigmoid(t, L):
    with np.errstate(over="ignore"):  # exp overflows to inf, giving exactly 0
        return 1.0 / (1.0 + np.exp(-4.0 * L * t))


def _sigmoid_grad(t, L):
    s = _sigmoid(t, L)
    return 4.0 * L * s * (1.0 - s)


# kind -> (value, subgradient), each a function of (float array t, L).
_KINDS = {
    PIECEWISE_LINEAR: (_piecewise_linear, lambda t, L: ((t >= -0.5 / L) & (t < 0.5 / L)) * L),
    LOGISTIC_SIGMOID: (_sigmoid, _sigmoid_grad),
    NEG_MIN: (lambda t, L: np.minimum(0.0, t), lambda t, L: np.where(t < 0.0, 1.0, 0.0)),
}


@dataclass(frozen=True)
class LossFunction:
    """L-Lipschitz scalar surrogate h.

    kind:
      piecewise_linear  0 for t <= -1/(2L), 1 for t >= 1/(2L), L*t + 1/2 between
      logistic_sigmoid  1 / (1 + exp(-4 L t))
      neg_min           min{0, t}  (L is always 1)

    piecewise_linear and logistic_sigmoid are symmetric, h(t) + h(-t) = 1, so
    labels flipped at rate eta < 1/2 give expected risk eta + (1 - 2 eta) R(f)
    and the same minimizers; neg_min is not symmetric.
    """

    kind: str
    lipschitz: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not (np.isfinite(self.lipschitz) and self.lipschitz > 0):
            raise ValueError("lipschitz must be positive and finite")

    def value(self, t):
        out = _KINDS[self.kind][0](np.asarray(t, dtype=float), self.lipschitz)
        return float(out) if out.ndim == 0 else out

    def grad(self, t):
        """Subgradient of h; at kinks the slope of the right piece is used."""
        out = _KINDS[self.kind][1](np.asarray(t, dtype=float), self.lipschitz)
        return float(out) if out.ndim == 0 else out


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
    return float(np.dot(data.weights, loss.value(-data.labels * preds)))


def zero_one_risk(predict, data) -> float:
    """Weighted misclassification sum_i a_i 1[-y_i predict(x_i) >= 0]."""
    preds = _predictions(predict, data)
    return float(np.dot(data.weights, (-data.labels * preds >= 0.0).astype(float)))
