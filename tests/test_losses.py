import numpy as np
import pytest

from ncerm.data import WeightedDataset
from ncerm.losses import (
    LossFunction,
    NonFiniteError,
    empirical_risk,
    logistic_sigmoid,
    neg_min,
    piecewise_linear,
    zero_one_risk,
)


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0, 5.0, 37.0])
def test_piecewise_linear_anchor_values_exact(L):
    h = piecewise_linear(L)
    assert h.value(-0.5 / L) == 0.0
    assert h.value(0.0) == 0.5
    assert h.value(0.5 / L) == 1.0


@pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
def test_piecewise_linear_shape(L):
    h = piecewise_linear(L)
    t = np.linspace(-2.0, 2.0, 401)
    v = h.value(t)
    assert np.all(v[t <= -0.5 / L] == 0.0)
    assert np.all(v[t >= 0.5 / L] == 1.0)
    mid = (t > -0.5 / L) & (t < 0.5 / L)
    assert np.allclose(v[mid], L * t[mid] + 0.5)
    # nondecreasing and within [0, 1]
    assert np.all(np.diff(v) >= 0.0)
    assert v.min() >= 0.0 and v.max() <= 1.0


def test_logistic_sigmoid_values():
    h = logistic_sigmoid(1.0)
    assert h.value(0.0) == 0.5
    # h(t) = 1/(1+exp(-4Lt))
    assert h.value(0.25) == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-15)
    h3 = logistic_sigmoid(3.0)
    assert h3.value(-1.0) == pytest.approx(1.0 / (1.0 + np.exp(12.0)), rel=1e-12)
    big = h.value(np.array([-1e4, 1e4]))
    assert big[0] == 0.0 and big[1] == 1.0


def test_neg_min_values():
    h = neg_min()
    assert h.value(3.0) == 0.0
    assert h.value(0.0) == 0.0
    assert h.value(-2.5) == -2.5
    assert h.lipschitz == 1.0


@pytest.mark.parametrize(
    "make", [lambda: piecewise_linear(0.7), lambda: piecewise_linear(2.0),
             lambda: logistic_sigmoid(0.7), lambda: logistic_sigmoid(2.0),
             lambda: neg_min()]
)
def test_lipschitz_on_grid(make):
    h = make()
    t = np.linspace(-3.0, 3.0, 2001)
    v = h.value(t)
    slopes = np.abs(np.diff(v) / np.diff(t))
    assert np.max(slopes) <= h.lipschitz + 1e-9


@pytest.mark.parametrize(
    "make", [lambda: piecewise_linear(1.0), lambda: piecewise_linear(4.0),
             lambda: logistic_sigmoid(2.0), lambda: neg_min()]
)
def test_grad_matches_finite_differences(make):
    h = make()
    rng = np.random.default_rng(0)
    # stay away from the kinks where the subgradient jumps
    t = rng.uniform(-2.0, 2.0, size=200)
    L = h.lipschitz
    t = t[np.minimum(np.abs(t - 0.5 / L), np.abs(t + 0.5 / L)) > 1e-3]
    t = t[np.abs(t) > 1e-3]
    eps = 1e-6
    fd = (h.value(t + eps) - h.value(t - eps)) / (2.0 * eps)
    assert np.allclose(h.grad(t), fd, atol=1e-5)


def test_grad_right_piece_at_kinks():
    h = piecewise_linear(2.0)
    assert h.grad(-0.25) == 2.0   # left kink: slope of the middle piece
    assert h.grad(0.25) == 0.0    # right kink: slope of the flat piece
    assert neg_min().grad(0.0) == 0.0


def test_scalar_in_scalar_out():
    h = piecewise_linear(1.0)
    assert isinstance(h.value(0.1), float)
    assert isinstance(h.grad(0.1), float)
    arr = h.value(np.array([0.1, 0.2]))
    assert arr.shape == (2,)


def test_factory_validation():
    with pytest.raises(ValueError):
        piecewise_linear(0.0)
    with pytest.raises(ValueError):
        piecewise_linear(-1.0)
    with pytest.raises(ValueError):
        logistic_sigmoid(np.inf)
    with pytest.raises(ValueError):
        LossFunction("nope", 1.0).value(0.0)


def _toy_data():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, 1.0])
    w = np.array([0.4, 0.3, 0.2, 0.1])
    return WeightedDataset(X, y, w)


def test_empirical_risk_hand_value():
    data = _toy_data()
    h = piecewise_linear(1.0)
    predict = lambda X: X @ np.array([1.0, 0.0])
    # negative margins: -1, 0, -1, 0 -> h values 0, 1/2, 0, 1/2
    expected = 0.4 * 0.0 + 0.3 * 0.5 + 0.2 * 0.0 + 0.1 * 0.5
    assert empirical_risk(predict, h, data) == pytest.approx(expected, abs=1e-15)


def test_zero_one_risk_ties_count_as_errors():
    data = _toy_data()
    predict = lambda X: X @ np.array([1.0, 0.0])
    # margins: 1, 0, 1, 0 -> points 2 and 4 are errors (ties)
    assert zero_one_risk(predict, data) == pytest.approx(0.4, abs=1e-15)
    zero = lambda X: np.zeros(X.shape[0])
    assert zero_one_risk(zero, data) == pytest.approx(1.0, abs=1e-12)


def test_nonfinite_predictions_raise():
    data = _toy_data()
    h = piecewise_linear(1.0)
    bad = lambda X: np.full(X.shape[0], np.nan)
    with pytest.raises(NonFiniteError):
        empirical_risk(bad, h, data)
    wrong_shape = lambda X: np.zeros((X.shape[0], 2))
    with pytest.raises(ValueError):
        empirical_risk(wrong_shape, h, data)
