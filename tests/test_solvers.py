import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ncerm.data import WeightedDataset, planted_halfspace
from ncerm.halfspace import LinearModel
from ncerm.losses import piecewise_linear, empirical_risk
from ncerm.solvers import (
    _FEAS_TOL,
    constrained_least_squares,
    linear_kernels,
    lockstep_descent,
    monotone_descent,
    project,
    project_l1,
    project_lp,
    refine,
)
from ncerm.util import lq_norm


@functools.lru_cache(maxsize=None)
def _feasible_grid(p, radius, half_width, steps):
    """The points of a dense 2-D grid that lie in the l_p ball (built once)."""
    g = np.linspace(-half_width, half_width, steps)
    G = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    return G[lq_norm(G, p) <= radius]


def _grid_project_oracle(v, p, radius, half_width=3.0, steps=2001):
    """Dense 2-D search for the closest feasible point (slow, exact-ish)."""
    feas = _feasible_grid(p, radius, half_width, steps)
    d2 = np.sum((feas - v) ** 2, axis=1)
    return feas[np.argmin(d2)]


def test_project_l1_known_point():
    # theta solves (2-theta)+(2-theta)=1 -> theta=1.5 -> point (0.5, 0.5)
    out = project_l1(np.array([2.0, 2.0]), 1.0)
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)
    # interior points are returned unchanged
    v = np.array([0.2, -0.3, 0.1])
    assert np.array_equal(project_l1(v, 1.0), v)
    # signs survive
    out = project_l1(np.array([-2.0, 2.0]), 1.0)
    assert np.allclose(out, [-0.5, 0.5], atol=1e-12)


def test_project_l1_matches_grid_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.uniform(-2.5, 2.5, size=2)
        out = project_l1(v, 1.0)
        best = _grid_project_oracle(v, 1.0, 1.0)
        assert np.sum((out - v) ** 2) <= np.sum((best - v) ** 2) + 1e-4
        assert lq_norm(out, 1.0) <= 1.0 + 1e-9


def test_project_lp_p2_rescales():
    v = np.array([3.0, 4.0])
    out = project_lp(v, 2.0, 1.0)
    assert np.allclose(out, v / 5.0, atol=1e-12)
    assert np.allclose(project_lp(v, 2.0, 10.0), v)


def test_project_lp_symmetric_point():
    # for v = (1, 1) the projection keeps the symmetry w1 = w2 = 2^(-1/p)
    for p in (1.5, 1.2, 2.0):
        out = project_lp(np.array([1.0, 1.0]), p, 1.0)
        expect = 2.0 ** (-1.0 / p)
        assert np.allclose(out, [expect, expect], atol=1e-9)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_project_matches_grid_oracle(p):
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.uniform(-2.5, 2.5, size=2)
        out = project(v, p, 1.0)
        best = _grid_project_oracle(v, p, 1.0)
        assert np.sum((out - v) ** 2) <= np.sum((best - v) ** 2) + 1e-4
        assert lq_norm(out, p) <= 1.0 + 1e-6


def test_project_validation():
    with pytest.raises(ValueError):
        project_l1(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        project_lp(np.ones(3), 2.5, 1.0)
    with pytest.raises(ValueError):
        project_lp(np.ones(3), 1.0, 1.0)


def test_least_squares_interior_matches_lstsq():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 3))
    w_true = np.array([0.1, -0.2, 0.15])  # well inside the unit ball
    u = X @ w_true
    w = constrained_least_squares(X, u, 2.0, 1.0)
    assert np.allclose(w, w_true, atol=1e-4)


def test_least_squares_active_constraint_l2():
    """With the l2 constraint active the solution solves a ridge system;
    bisect on the ridge parameter for an independent oracle."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 4))
    u = X @ np.array([2.0, -1.0, 1.5, 0.5])  # optimum far outside
    radius = 1.0
    w = constrained_least_squares(X, u, 2.0, radius)
    assert np.linalg.norm(w) <= radius + 1e-6

    XtX, Xtu = X.T @ X, X.T @ u
    lo, hi = 0.0, 1.0
    while np.linalg.norm(np.linalg.solve(XtX + hi * np.eye(4), Xtu)) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(np.linalg.solve(XtX + mid * np.eye(4), Xtu)) > radius:
            lo = mid
        else:
            hi = mid
    w_ridge = np.linalg.solve(XtX + hi * np.eye(4), Xtu)
    obj = lambda v: float(np.sum((X @ v - u) ** 2))
    assert obj(w) <= obj(w_ridge) + 1e-4


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_least_squares_beats_random_feasible(p):
    rng = np.random.default_rng(6)
    X = rng.standard_normal((15, 3))
    u = rng.uniform(-1.0, 1.0, size=15)
    w = constrained_least_squares(X, u, p, 1.0)
    assert lq_norm(w, p) <= 1.0 + 1e-6
    obj = lambda v: float(np.sum((X @ v - u) ** 2))
    for _ in range(200):
        v = rng.standard_normal(3)
        v = v / max(1.0, float(lq_norm(v, p)))
        assert obj(w) <= obj(v) + 1e-6


def test_least_squares_zero_matrix():
    w = constrained_least_squares(np.zeros((4, 3)), np.ones(4), 2.0, 1.0)
    assert np.array_equal(w, np.zeros(3))


def test_monotone_descent_never_worsens():
    risk_fn = lambda x: float(np.sum(x**2))
    grad_fn = lambda x: 2.0 * x
    project_fn = lambda x: x
    x0 = np.array([3.0, -4.0])
    x, r = monotone_descent(x0, risk_fn, grad_fn, project_fn, 100)
    assert r <= risk_fn(x0)
    assert r < 1e-4


def test_monotone_descent_budget_zero_is_identity():
    x0 = np.array([1.0, 2.0])
    x, r = monotone_descent(x0, lambda x: float(np.sum(x**2)),
                            lambda x: 2.0 * x, lambda x: x, 0)
    assert np.array_equal(x, x0)
    assert r == 5.0


def test_monotone_descent_nonsmooth_no_oscillation():
    # |x| has a kink at 0; right-piece subgradient keeps pushing at x=0,
    # but monotone acceptance never lets the risk increase
    risk_fn = lambda x: float(np.abs(x).sum())
    grad_fn = lambda x: np.where(x >= 0.0, 1.0, -1.0)
    x, r = monotone_descent(np.array([0.7]), risk_fn, grad_fn, lambda x: x, 500)
    assert r <= 0.7
    assert r < 1e-6


def test_refine_linear_monotone_feasible():
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(60, 4, 0.2, 2.0, seed=3)
    rng = np.random.default_rng(8)
    w0 = rng.standard_normal(4)
    w0 /= np.linalg.norm(w0)
    model0 = LinearModel(w0, 2.0, 1.0)
    r0 = empirical_risk(model0.predict, loss, data)
    model = refine(model0, data, loss, 100)
    r1 = empirical_risk(model.predict, loss, data)
    assert r1 <= r0 + 1e-15
    model.check_feasible()
    same = refine(model0, data, loss, 0)
    assert np.array_equal(same.w, model0.w)


def test_refine_network_requires_spec():
    from ncerm.networks import zero_network

    data = WeightedDataset.uniform(np.eye(3) * 0.5, np.ones(3))
    with pytest.raises(ValueError):
        refine(zero_network(3), data, piecewise_linear(1.0), 5)


def _any_rank_matrix(draw, k, d):
    """A k x d matrix of full rank, of lower rank, or all zero."""
    entries = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(("full", "low_rank", "zero")))
    if kind == "zero":
        return np.zeros((k, d))
    if kind == "low_rank":
        r = draw(st.integers(1, min(k, d)))
        return draw(hnp.arrays(float, (k, r), elements=entries)) @ draw(
            hnp.arrays(float, (r, d), elements=entries)
        )
    return draw(hnp.arrays(float, (k, d), elements=entries))


@st.composite
def _l2_least_squares_problems(draw):
    """X of any rank (all-zero included), targets u and a radius."""
    k = draw(st.integers(1, 8))
    d = draw(st.integers(1, 8))
    X = _any_rank_matrix(draw, k, d)
    u = draw(hnp.arrays(float, k, elements=st.floats(-5.0, 5.0, allow_nan=False)))
    radius = draw(st.floats(0.01, 10.0))
    return X, u, radius


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(_l2_least_squares_problems())
def test_least_squares_l2_kkt(problem):
    """The p=2 solve meets the optimality conditions of the ball-constrained
    problem: feasible, X^T(Xw - u) + lam w = 0 with lam >= 0 and
    lam (||w|| - radius) = 0, and the min-norm solution when that is inside."""
    X, u, radius = problem
    w = constrained_least_squares(X, u, 2.0, radius)
    norm = float(np.linalg.norm(w))
    assert norm <= radius + _FEAS_TOL
    grad = X.T @ (X @ w - u)
    sigma = float(np.linalg.norm(X, 2))
    scale = sigma * (sigma * radius + float(np.linalg.norm(u))) + 1e-300
    tol = 1e-9 * scale
    if norm < radius * (1.0 - 1e-9):
        lam = 0.0
    else:
        # the multiplier that best fits the stationarity condition
        lam = max(0.0, -float(w @ grad) / (norm * norm))
        assert -float(w @ grad) / (norm * norm) >= -tol / radius
    assert np.linalg.norm(grad + lam * w) <= tol
    assert lam * abs(norm - radius) <= tol
    with np.errstate(over="ignore", invalid="ignore"):  # pinv of extreme X
        w_min = np.linalg.pinv(X) @ u
        min_norm = np.linalg.norm(w_min)
    if min_norm < radius * (1.0 - 1e-6):
        assert np.allclose(w, w_min, rtol=1e-9, atol=1e-9 * (1.0 + min_norm))


@st.composite
def _l2_least_squares_stacks(draw):
    """A stack of 1 to 6 fits of one shape, each of any rank (all-zero
    included), with its targets, and a radius."""
    k = draw(st.integers(1, 8))
    d = draw(st.integers(1, 8))
    X = np.stack([_any_rank_matrix(draw, k, d) for _ in range(draw(st.integers(1, 6)))])
    u = draw(hnp.arrays(float, X.shape[:2], elements=st.floats(-5.0, 5.0, allow_nan=False)))
    return X, u, draw(st.floats(0.01, 10.0))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(_l2_least_squares_stacks())
def test_stacked_least_squares_l2_equals_single_fits(problem):
    """Fit i of a stacked p=2 solve is the 2-D fit of (X[i], u[i]), bit for
    bit, whatever else shares the stack."""
    X, u, radius = problem
    W = constrained_least_squares(X, u, 2.0, radius)
    assert W.shape == (X.shape[0], X.shape[2])
    for x, v, w in zip(X, u, W):
        assert np.array_equal(w, constrained_least_squares(x, v, 2.0, radius))


def test_stacked_least_squares_below_p2_fits_one_at_a_time():
    """For p < 2 a stack is fitted member by member, and a u that does
    not match X's rows is refused for stacks as for single fits."""
    rng = np.random.default_rng(9)
    X, u = rng.standard_normal((3, 6, 4)), rng.uniform(-1.0, 1.0, size=(3, 6))
    for p in (1.0, 1.5):
        W = constrained_least_squares(X, u, p, 1.0)
        assert all(np.array_equal(w, constrained_least_squares(x, v, p, 1.0))
                   for x, v, w in zip(X, u, W))
    with pytest.raises(ValueError, match="one entry per row"):
        constrained_least_squares(X, u[:, :5], 2.0, 1.0)


def _assert_rows_follow_monotone_descent(W0, kernels, step_budget):
    risk_rows, grad_rows, project_rows = kernels
    W, risks = lockstep_descent(W0, risk_rows, grad_rows, project_rows, step_budget)
    for w0, w, r in zip(W0, W, risks):
        x, r_seq = monotone_descent(
            w0,
            lambda v: risk_rows(v[None, :])[0],
            lambda v: grad_rows(v[None, :])[0],
            lambda v: project_rows(v[None, :])[0],
            step_budget,
        )
        assert np.array_equal(w, x)
        assert r == r_seq
        assert r <= risk_rows(w0[None, :])[0]
    return W


def test_lockstep_descent_matches_monotone_descent():
    """Each row of the lockstep refinement follows monotone_descent's rules
    exactly, run with single-row closures of the same kernels."""
    loss = piecewise_linear(1.0)
    data, _ = planted_halfspace(200, 5, 0.3, 2.0, seed=31)
    rng = np.random.default_rng(32)
    for p in (2.0, 1.0):
        kernels = linear_kernels(data, loss, p, 1.0)
        W0 = kernels[2](rng.standard_normal((6, 5)))
        W0[0] = 0.0
        for budget in (200, 7):
            W = _assert_rows_follow_monotone_descent(W0, kernels, budget)
            assert not np.array_equal(W, W0)
            assert np.all(lq_norm(W, p) <= 1.0 + 1e-9)


def test_lockstep_descent_stop_rules():
    """On the steep risk 1000 |x| the starts below stop on a zero gradient,
    on 25 rejections in a row, on the step floor (the second start only
    after an acceptance at its 25th attempt), and on the budget after the
    step size reached its cap; a budget of 5 stops all but the first
    early.  Each row still matches monotone_descent."""
    kernels = (
        lambda W: 1e3 * np.sum(np.abs(W), axis=1),
        lambda W: 1e3 * np.sign(W),
        lambda W: W,
    )
    W0 = np.array([[0.0], [1e-9], [4e-8], [0.3], [2.0], [1e6]])
    for budget in (500, 5):
        _assert_rows_follow_monotone_descent(W0, kernels, budget)


@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("scale,target", [(1e-200, 1.0), (1e-170, 1e-160)])
def test_least_squares_tiny_x_finite_and_feasible(p, scale, target):
    """sigma_max(X)^2 underflows to 0 for these X; projected gradient must
    still return a finite point in the ball, no worse than w = 0."""
    X, u = np.array([[scale, 0.0]]), np.array([target])
    w = constrained_least_squares(X, u, p, 1.0)
    assert np.all(np.isfinite(w))
    assert lq_norm(w, p) <= 1.0 + _FEAS_TOL
    assert np.sum((X @ w - u) ** 2) <= np.sum(u * u)


@st.composite
def _lp_projection_problems(draw):
    """A point with magnitudes from 1e-6 to 1e3 (some entries zero), an
    exponent p in (1, 2) and a radius."""
    p = draw(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
    d = draw(st.integers(1, 60))
    exponents = draw(hnp.arrays(float, d, elements=st.floats(-6.0, 3.0)))
    signs = draw(hnp.arrays(float, d, elements=st.sampled_from((-1.0, 0.0, 1.0))))
    radius = draw(st.floats(0.01, 100.0))
    return signs * 10.0**exponents, p, radius


@settings(max_examples=400, deadline=None)
@given(_lp_projection_problems())
@example((np.array([-1.0]), 1.00001, 0.5))
@example((np.array([-1.33352143, -1.0]), 1.0000000000000002, 1.0))
def test_project_lp_kkt(problem):
    """The projection is feasible, keeps signs and zeros, returns a point
    inside the ball as it is, and otherwise meets the optimality
    conditions w_i + lam*p*w_i^(p-1) = |v_i| with one lam > 0 for all i
    and ||w||_p = radius."""
    v, p, radius = problem
    out = project_lp(v, p, radius)
    assert lq_norm(out, p) <= radius * (1.0 + 1e-12)
    assert np.all(out[v == 0.0] == 0.0)
    assert np.all((np.sign(out) == np.sign(v)) | (out == 0.0))
    if lq_norm(v, p) <= radius:
        assert np.array_equal(out, v)
        return
    assert lq_norm(out, p) >= radius * (1.0 - 1e-12)
    a, w, q = np.abs(v), np.abs(out), p - 1.0
    # Below the smallest normal float w_i^(p-1) has lost its precision.
    normal = w >= np.finfo(float).tiny
    b = (a - w)[normal] / a[normal]
    c = p * w[normal] ** q / a[normal]
    lam = np.sum(b * c) / np.sum(c * c)  # least-squares fit of the multiplier
    assert lam > 0.0
    resid = np.abs(w + lam * p * w**q - a)[normal] / a[normal]
    assert np.all(resid <= 1e-12)
    # Where w_i underflowed, so does the exact root, which is below
    # (|v_i| / (lam*p))^(1/(p-1)).
    hidden = (v != 0.0) & ~normal
    assert np.all((a[hidden] / (lam * p)) ** (1.0 / q) <= 2.0 * np.finfo(float).tiny)


def test_project_lp_rows_match_single_rows():
    """A 300-row matrix mixing points inside and outside the ball projects
    each row exactly as projecting that row alone does."""
    rng = np.random.default_rng(17)
    W = rng.standard_normal((300, 7)) * rng.choice([0.05, 0.3, 1.0, 5.0], size=(300, 1))
    W[::25] = 0.0
    inside = lq_norm(W, 1.5) <= 1.0
    assert 0 < inside.sum() < 300
    out = project_lp(W, 1.5, 1.0)
    for i in range(300):
        assert np.array_equal(out[i], project_lp(W[i], 1.5, 1.0))
    assert np.array_equal(out[inside], W[inside])
