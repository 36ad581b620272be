"""Surrogate losses for weighted binary classification.

A loss is a scalar function h applied to the negative margin -y*f(x).
The weighted risk of a predictor f on points (x_i, y_i) with importance
weights a_i is sum_i a_i * h(-y_i f(x_i)); the zero-one risk replaces h
by the step indicator 1[-y f >= 0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

PIECEWISE_LINEAR = "piecewise_linear"
LOGISTIC_SIGMOID = "logistic_sigmoid"
NEG_MIN = "neg_min"


class NonFiniteError(ValueError):
    """A prediction or loss value stopped being finite."""


@dataclass(frozen=True)
class LossFunction:
    """L-Lipschitz scalar surrogate h.

    kind:
      piecewise_linear  0 for t <= -1/(2L), 1 for t >= 1/(2L), L*t + 1/2 between
      logistic_sigmoid  1 / (1 + exp(-4 L t))
      neg_min           min{0, t}  (L is always 1)
    """

    kind: str
    lipschitz: float

    def value(self, t):
        t = np.asarray(t, dtype=float)
        L = self.lipschitz
        if self.kind == PIECEWISE_LINEAR:
            # Branch on t so the three anchor points 0, 1/2, 1 are exact.
            out = np.asarray(L * t + 0.5)
            np.putmask(out, t <= -0.5 / L, 0.0)
            np.putmask(out, t >= 0.5 / L, 1.0)
        elif self.kind == LOGISTIC_SIGMOID:
            out = expit(4.0 * L * t)
        elif self.kind == NEG_MIN:
            out = np.minimum(0.0, t)
        else:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if out.ndim == 0:
            return float(out)
        return out

    def grad(self, t):
        """Subgradient of h; at kinks the slope of the right piece is used."""
        t = np.asarray(t, dtype=float)
        L = self.lipschitz
        if self.kind == PIECEWISE_LINEAR:
            out = ((t >= -0.5 / L) & (t < 0.5 / L)) * L
        elif self.kind == LOGISTIC_SIGMOID:
            s = expit(4.0 * L * t)
            out = 4.0 * L * s * (1.0 - s)
        elif self.kind == NEG_MIN:
            out = np.where(t < 0.0, 1.0, 0.0)
        else:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if out.ndim == 0:
            return float(out)
        return out


def piecewise_linear(lipschitz: float) -> LossFunction:
    if not (np.isfinite(lipschitz) and lipschitz > 0):
        raise ValueError("lipschitz must be positive and finite")
    return LossFunction(PIECEWISE_LINEAR, float(lipschitz))


def logistic_sigmoid(lipschitz: float) -> LossFunction:
    if not (np.isfinite(lipschitz) and lipschitz > 0):
        raise ValueError("lipschitz must be positive and finite")
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
