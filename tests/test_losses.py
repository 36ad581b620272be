import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import math

from ncerm.data import WeightedDataset
from ncerm.losses import (
    LOGISTIC_SIGMOID,
    NEG_MIN,
    PIECEWISE_LINEAR,
    LossFunction,
    NonFiniteError,
    empirical_risk,
    logistic_sigmoid,
    neg_min,
    piecewise_linear,
    zero_one_risk,
)
from ncerm.networks import ACTIVATIONS, Activation


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


@pytest.mark.filterwarnings("error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
def test_logistic_sigmoid_values():
    h = logistic_sigmoid(1.0)
    assert h.value(0.0) == 0.5
    # h(t) = 1/(1+exp(-4Lt))
    assert h.value(0.25) == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-15)
    h3 = logistic_sigmoid(3.0)
    assert h3.value(-1.0) == pytest.approx(1.0 / (1.0 + np.exp(12.0)), rel=1e-12)
    big = h.value(np.array([-1e4, 1e4]))
    assert big[0] == 0.0 and big[1] == 1.0


@pytest.mark.parametrize("L", [0.3, 1.0, 7.0])
def test_logistic_sigmoid_is_numpy_form(L):
    h = logistic_sigmoid(L)
    t = np.concatenate([np.linspace(-3.0, 3.0, 601), [-1e4, -0.0, 0.0, 1e4]])
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-4.0 * L * t))
    assert np.array_equal(h.value(t), s)
    assert np.array_equal(h.grad(t), 4.0 * L * s * (1.0 - s))
    assert isinstance(h.value(0.1), float) and isinstance(h.grad(0.1), float)


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


@pytest.mark.parametrize("kind", [NEG_MIN, *ACTIVATIONS])
@pytest.mark.parametrize("L", [0.5, 1.0 + 1e-15, 5.0])
def test_fixed_lipschitz_kinds_reject_other_L(kind, L):
    """neg_min and the activations are 1-Lipschitz; any other L would make
    bounds scaled by loss.lipschitz (the generalization gap check) loose."""
    with pytest.raises(ValueError, match="lipschitz"):
        LossFunction(kind, L)
    assert LossFunction(kind, 1.0).lipschitz == 1.0


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


@st.composite
def _noisy_risk_problems(draw):
    """Weighted points with arbitrary predictions, a Lipschitz constant L
    and a flip rate eta in [0, 1/2)."""
    n = draw(st.integers(1, 40))
    preds = draw(hnp.arrays(float, n, elements=st.floats(-5.0, 5.0)))
    labels = draw(hnp.arrays(float, n, elements=st.sampled_from((-1.0, 1.0))))
    weights = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
    weights = weights + (weights.sum() == 0.0)
    L = draw(st.floats(0.1, 10.0))
    eta = draw(st.floats(0.0, 0.5, exclude_max=True))
    return preds, WeightedDataset(np.zeros((n, 1)), labels, weights / weights.sum()), L, eta


@settings(max_examples=300, deadline=None)
@given(_noisy_risk_problems(), st.sampled_from((piecewise_linear, logistic_sigmoid)))
def test_symmetric_loss_label_noise_identity(problem, make):
    """For h(t) + h(-t) = 1, flipping each label with probability eta turns
    the expected weighted risk into eta + (1 - 2 eta) R(f)."""
    preds, data, L, eta = problem
    h = make(L)
    flipped = WeightedDataset(data.features, -data.labels, data.weights)
    risk = empirical_risk(lambda X: preds, h, data)
    noisy = (1.0 - eta) * risk + eta * empirical_risk(lambda X: preds, h, flipped)
    assert noisy == pytest.approx(eta + (1.0 - 2.0 * eta) * risk, abs=1e-12)


# Reference formulas: the loss and activation functions as first written,
# one fresh array per operation and masked writes at the anchors.
def _ref_piecewise_linear(t, L):
    out = np.asarray(L * t + 0.5)
    np.putmask(out, t <= -0.5 / L, 0.0)
    np.putmask(out, t >= 0.5 / L, 1.0)
    return out


def _ref_sigmoid(t, L):
    return 1.0 / (1.0 + np.exp(-4.0 * L * t))


def _ref_sigmoid_grad(t, L):
    s = _ref_sigmoid(t, L)
    return 4.0 * L * s * (1.0 - s)


_ERF_SCALE = math.sqrt(math.pi) / 2.0
_ref_erf = np.frompyfunc(math.erf, 1, 1)
_REFERENCE = {
    PIECEWISE_LINEAR: (_ref_piecewise_linear,
                       lambda t, L: ((t >= -0.5 / L) & (t < 0.5 / L)) * L),
    LOGISTIC_SIGMOID: (_ref_sigmoid, _ref_sigmoid_grad),
    NEG_MIN: (lambda t, L: np.minimum(0.0, t), lambda t, L: np.where(t < 0.0, 1.0, 0.0)),
    "tanh": (lambda x, L: np.tanh(x), lambda x, L: 1.0 - np.square(np.tanh(x))),
    "erf": (lambda x, L: np.asarray(_ref_erf(_ERF_SCALE * x), dtype=float),
            lambda x, L: np.exp(-(_ERF_SCALE * x) ** 2)),
    "clamp": (lambda x, L: np.clip(x, -1.0, 1.0),
              lambda x, L: (np.abs(x) < 1.0).astype(float)),
}
# Criterion 1's Lipschitz constants.
_CRITERION_1_L = [1.0, 0.5, 2.0, 3.0, 1.0 / 3.0, 10.0, 1e-3, 1e3,
                  *np.random.default_rng(1).uniform(0.05, 20.0, 42)]


@st.composite
def _loss_cases(draw):
    """A loss or activation loss, its L and inputs: scaled normals, +-0,
    +-inf, extreme floats and ulp neighbourhoods of +-1/(2L) and +-1."""
    name = draw(st.sampled_from([PIECEWISE_LINEAR, LOGISTIC_SIGMOID, NEG_MIN, *ACTIVATIONS]))
    L = 1.0 if name in ACTIVATIONS or name == NEG_MIN else draw(st.sampled_from(_CRITERION_1_L))
    kink = 0.5 / L if name not in ACTIVATIONS else 1.0
    near = st.builds(lambda c, sign, k: sign * (c + k * np.spacing(c)),
                     st.sampled_from([0.5 / L, kink]), st.sampled_from([-1.0, 1.0]),
                     st.integers(-100, 100))
    elements = st.one_of(near, st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300]),
                         st.floats(allow_nan=False), st.floats(-4.0 / L, 4.0 / L))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    t = draw(hnp.arrays(float, shape, elements=elements))
    normals = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(t.shape)
    t = np.where(np.asarray(draw(hnp.arrays(bool, shape))), normals * (0.5 / L), t)
    loss = Activation(name) if name in ACTIVATIONS else LossFunction(name, L)
    return name, L, loss, t


def _ramp_kinks(L):
    """The piecewise-linear case at L with t = +-1/(2L) and one ulp to
    either side of each, where the slope's half-open mask turns."""
    kinks = np.array([-0.5 / L, 0.5 / L])
    t = np.concatenate([kinks, np.nextafter(kinks, -np.inf), np.nextafter(kinks, np.inf)])
    return PIECEWISE_LINEAR, L, piecewise_linear(L), t


@settings(max_examples=400, deadline=None)
@given(_loss_cases())
@example(_ramp_kinks(1.0))
@example(_ramp_kinks(3.0))
def test_loss_values_and_derivatives_match_reference_bitwise(case):
    """value and grad equal the reference formulas bit for bit, with and
    without out=; out is filled and returned, and a 0-d input without out
    gives a float."""
    name, L, loss, t = case
    with np.errstate(all="ignore"):
        for method, ref in zip((loss.value, loss.grad), _REFERENCE[name]):
            expected = np.asarray(ref(t, L), dtype=float)
            fresh = method(t)
            if t.ndim == 0:
                assert isinstance(fresh, float)
            assert np.asarray(fresh).tobytes() == expected.tobytes()
            out = np.full_like(t, np.nan)
            assert method(t, out=out) is out
            assert out.shape == t.shape and out.tobytes() == expected.tobytes()


_SLOPE_FROM_VALUE = [LOGISTIC_SIGMOID, NEG_MIN, "tanh", "clamp"]


@st.composite
def _slope_from_value_cases(draw):
    """A loss or activation loss that takes its slope from its value, its
    L, and inputs: +-0, +-inf, subnormals, |t| > 20, ulp neighbourhoods of
    the anchors +-1/(2L) and of +-1, scaled normals and any finite float."""
    name = draw(st.sampled_from(_SLOPE_FROM_VALUE))
    L = draw(st.sampled_from(_CRITERION_1_L)) if name == LOGISTIC_SIGMOID else 1.0
    near = st.builds(lambda c, sign, k: sign * (c + k * np.spacing(c)),
                     st.sampled_from([0.5 / L, 1.0]), st.sampled_from([-1.0, 1.0]),
                     st.integers(-100, 100))
    tiny = np.finfo(float).tiny
    subnormal = st.floats(-tiny, tiny, allow_subnormal=True, exclude_min=True, exclude_max=True)
    large = st.builds(lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]),
                      st.floats(20.0, 1e300, exclude_min=True))
    elements = st.one_of(near, subnormal, large,
                         st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]),
                         st.floats(allow_nan=False), st.floats(-4.0 / L, 4.0 / L))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    t = draw(hnp.arrays(float, shape, elements=elements))
    normals = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(t.shape)
    t = np.where(np.asarray(draw(hnp.arrays(bool, shape))), normals * (0.5 / L), t)
    loss = Activation(name) if name in ACTIVATIONS else LossFunction(name, L)
    return name, L, loss, t


@settings(max_examples=400, deadline=None)
@given(_slope_from_value_cases())
def test_slope_from_kept_value_equals_derivative_bitwise(case):
    """For tanh, clamp, the logistic sigmoid and neg_min the refiner keeps
    the loss values and takes the slope from them.  That slope equals
    Activation.deriv(t) or LossFunction.grad(t), and the previous formulas
    of t, bit for bit, also when it is written over the kept values."""
    name, L, loss, t = case
    assert loss.slope_from_value
    with np.errstate(all="ignore"):
        kept = np.asarray(loss.value(t), dtype=float)
        expected = np.asarray(_REFERENCE[name][1](t, L), dtype=float).tobytes()
        derivative = Activation(name).deriv(t) if name in ACTIVATIONS else loss.grad(t)
        assert np.asarray(derivative).tobytes() == expected
        slope = loss.slope(kept)
        if t.ndim == 0:
            assert isinstance(slope, float)
        assert np.asarray(slope).tobytes() == expected
        assert loss.slope(kept, out=kept) is kept and kept.tobytes() == expected


def test_piecewise_linear_and_erf_take_their_slope_from_the_margin():
    """The kinds whose slope is no function of their value keep t."""
    assert not piecewise_linear(2.0).slope_from_value
    assert not Activation("erf").slope_from_value
    t = np.linspace(-2.0, 2.0, 41)
    for loss in (piecewise_linear(2.0), Activation("erf")):
        assert loss.slope(t).tobytes() == loss.grad(t).tobytes()
