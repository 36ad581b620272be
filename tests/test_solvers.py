import functools
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings, target
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ncerm.boosting import ActivationLoss, boost_weights
from ncerm.data import WeightedDataset, planted_halfspace, planted_network
from ncerm.halfspace import LinearModel
from ncerm.losses import empirical_risk, logistic_sigmoid, piecewise_linear
from ncerm.networks import network_spec
from ncerm.solvers import (
    LS_MAX_ITER,
    constrained_least_squares,
    linear_kernels,
    lockstep_descent,
    monotone_descent,
    project_l1,
    project_lp,
    projector,
    refine,
)
from ncerm.util import NORM_TOL, lq_norm


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
        out = projector(p, 1.0)(v)
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


@pytest.mark.filterwarnings("error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=300, deadline=None)
@given(_l2_least_squares_problems())
def test_least_squares_l2_kkt(problem):
    """The p=2 solve meets the optimality conditions of the ball-constrained
    problem: feasible, X^T(Xw - u) + lam w = 0 with lam >= 0 and
    lam (||w|| - radius) = 0, and the min-norm solution when that is inside."""
    X, u, radius = problem
    w = constrained_least_squares(X, u, 2.0, radius)
    norm = float(np.linalg.norm(w))
    assert norm <= radius + NORM_TOL
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


@pytest.mark.filterwarnings("error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
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


@st.composite
def _below_p2_least_squares_stacks(draw):
    """A stack of 1 to 6 fits of one shape, each of any rank, with an
    all-zero X and a zero u among them when drawn, and p and a radius."""
    X, u, radius = draw(_l2_least_squares_stacks())
    if draw(st.booleans()):
        X[draw(st.integers(0, len(X) - 1))] = 0.0
    if draw(st.booleans()):
        u[draw(st.integers(0, len(X) - 1))] = 0.0
    return X, u, draw(st.sampled_from((1.0, 1.3, 1.5, 1.9))), radius


@pytest.mark.filterwarnings("error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=100, deadline=None)
@given(_below_p2_least_squares_stacks())
@example((np.ones((1, 1, 1)), np.array([[2.2250738585072014e-309]]), 1.0, 1.0))
@example((np.ones((1, 1, 1)), np.array([[5.79867881e-276]]), 1.0, 1.0))
def test_stacked_least_squares_below_p2_equals_single_fits(problem):
    """For p < 2, fit i of a stack is the fit of (X[i], u[i]) alone, bit for
    bit, whatever else shares the stack; an all-zero X or a zero u gives
    w = 0; and a u that does not match X's rows is refused for stacks as
    for single fits.  The examples have ||u|| so far below ||X|| that
    X / ||u|| would overflow."""
    X, u, p, radius = problem
    W = constrained_least_squares(X, u, p, radius)
    assert W.shape == (X.shape[0], X.shape[2])
    for x, v, w in zip(X, u, W):
        assert np.array_equal(w, constrained_least_squares(x, v, p, radius))
        if not (x.any() and v.any()):
            assert not w.any()
    with pytest.raises(ValueError, match="one entry per row"):
        constrained_least_squares(X, u[:, 1:], p, radius)


def _reference_projected_gradient_fit(X, u, p, radius):
    """One l_p-ball fit, p in [1, 2), by monotone projected gradient from
    w = 0 with step 1 over the gradient's Lipschitz constant 2 sigma_max(X)^2,
    stopped after LS_MAX_ITER steps or on a 1e-8 relative gain (the solver
    once used for p < 2, kept here as a reference)."""
    w = np.zeros(X.shape[1])
    if not X.any():
        return w
    sigma = float(np.linalg.norm(X, 2))
    # Inside the ball X w moves the fit by at most sigma * radius; below an
    # ulp of ||u|| every feasible w has the objective of w = 0.
    if sigma * radius <= np.finfo(float).eps * np.linalg.norm(u):
        return w
    # Gradient 2 X^T resid times step 1/(2 sigma^2) folds into one matrix,
    # divided by sigma twice so that a tiny sigma^2 cannot underflow.
    step_T = (X / sigma).T / sigma
    resid = X @ w - u
    obj = float(resid @ resid)
    proj = projector(p, radius)
    for _ in range(LS_MAX_ITER):
        w_new = proj(w - step_T @ resid)
        resid_new = X @ w_new - u
        obj_new = float(resid_new @ resid_new)
        if obj_new > obj:
            break
        improved = obj - obj_new
        w, resid, obj = w_new, resid_new, obj_new
        if improved <= 1e-8 * max(obj, 1e-12):
            break
    return w


@st.composite
def _below_p2_least_squares_problems(draw):
    """X (k, d) of full or lower rank and targets u in [-1, 1]^k, both
    times one scale t in [1e-3, 1e3], p in [1, 2) and a radius."""
    k, d = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(1, min(k, d)))
    X = rng.standard_normal((k, r)) @ rng.standard_normal((r, d)) / math.sqrt(r)
    t = 10.0 ** draw(st.floats(-3.0, 3.0))
    p = draw(st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)))
    return t * X, t * rng.uniform(-1.0, 1.0, size=k), p, draw(st.floats(0.01, 10.0))


@pytest.mark.filterwarnings("error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=100, deadline=None)
@given(_below_p2_least_squares_problems())
def test_least_squares_below_p2_matches_projected_gradient_reference(problem):
    """A p < 2 fit is finite, in its ball, and its objective is within
    1e-4 ||u||^2 of the reference projected-gradient fit's or below it."""
    X, u, p, radius = problem
    w = constrained_least_squares(X, u, p, radius)
    ref = _reference_projected_gradient_fit(X, u, p, radius)
    assert np.all(np.isfinite(w))
    assert lq_norm(w, p) <= radius * (1.0 + 1e-12)
    obj = lambda v: float(np.sum((X @ v - u) ** 2))
    assert obj(w) <= obj(ref) + 1e-4 * float(u @ u)


def _assert_rows_follow_monotone_descent(W0, kernels, step_budget):
    risk_rows, grad_rows, project_rows = kernels
    W, risks = lockstep_descent(W0, risk_rows, grad_rows, project_rows, step_budget)
    for i, (w0, w, r) in enumerate(zip(W0, W, risks)):
        row = np.array([i])
        x, r_seq = monotone_descent(
            w0,
            lambda v: risk_rows(v[None, :], row)[0][0],
            lambda v: grad_rows(v[None, :], risk_rows(v[None, :], row)[1], row)[0],
            lambda v: project_rows(v[None, :])[0],
            step_budget,
        )
        assert np.array_equal(w, x)
        assert r == r_seq
        assert r <= risk_rows(w0[None, :], row)[0][0]
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
        lambda W, rows: (1e3 * np.sum(np.abs(W), axis=1), np.sign(W)),
        lambda W, S, rows: 1e3 * S,
        lambda W: W,
    )
    W0 = np.array([[0.0], [1e-9], [4e-8], [0.3], [2.0], [1e6]])
    for budget in (500, 5):
        _assert_rows_follow_monotone_descent(W0, kernels, budget)


def test_lockstep_descent_single_row_counts_rejects_from_its_last_acceptance():
    """A row refined alone takes every accepted step on the path where all
    live rows accept.  On 1000 |x| the start 4e-8 is rejected 24 times,
    accepted, then rejected once and accepted again: its reject count
    starts again from 0 at each acceptance, as in monotone_descent, so
    the stall rule does not end it early."""
    kernels = (
        lambda W, rows: (1e3 * np.sum(np.abs(W), axis=1), np.sign(W)),
        lambda W, S, rows: 1e3 * S,
        lambda W: W,
    )
    for x0 in (4e-8, 1e-9, 0.3, 2.0):
        _assert_rows_follow_monotone_descent(np.array([[x0]]), kernels, 500)


@st.composite
def _linear_kernel_problems(draw):
    """A weighted sample (n, d) with some zero weights, a stack W of c
    weight rows at mixed scales, p, and a smooth or piecewise-linear
    loss."""
    n, d, c = draw(st.integers(1, 60)), draw(st.integers(1, 8)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(n) * (rng.random(n) < 0.8)
    weights = np.full(n, 1.0 / n) if weights.sum() == 0.0 else weights / weights.sum()
    data = WeightedDataset(rng.standard_normal((n, d)), rng.choice((-1.0, 1.0), size=n),
                           weights)
    W = rng.standard_normal((c, d)) * 10.0 ** rng.uniform(-3.0, 1.0, size=(c, 1))
    kind = draw(st.sampled_from((piecewise_linear, logistic_sigmoid)))
    return data, W, draw(st.sampled_from((1.0, 1.5, 2.0))), kind(draw(st.floats(0.5, 5.0)))


@settings(max_examples=200, deadline=None)
@given(_linear_kernel_problems(), st.data())
def test_linear_kernel_rows_are_independent(problem, data_strategy):
    """The risks, states, gradients and projections of any subset of rows
    equal those rows of the call on the whole stack, bit for bit."""
    data, W, p, loss = problem
    risk_rows, grad_rows, project_rows = linear_kernels(data, loss, p, 1.0)
    rows = data_strategy.draw(st.lists(st.integers(0, len(W) - 1), min_size=1,
                                       max_size=len(W), unique=True))
    every = np.arange(len(W))
    risks, M = risk_rows(W, every)
    risks_sub, M_sub = risk_rows(W[rows], rows)
    assert M.shape == (len(W), data.n)
    assert np.array_equal(risks_sub, risks[rows])
    assert np.array_equal(M_sub, M[rows])
    assert np.array_equal(grad_rows(W[rows], M_sub, rows), grad_rows(W, M, every)[rows])
    assert np.array_equal(project_rows(W[rows]), project_rows(W)[rows])


@settings(max_examples=200, deadline=None)
@given(_linear_kernel_problems())
def test_linear_kernel_matches_coordinate_sums(problem):
    """The state is the margin matrix -y_j <w, x_j> accumulated coordinate
    by coordinate; risk and gradient equal numpy sums over the sample to
    1e-12 of the sum of the terms' magnitudes.  With one sample point
    numpy sums the d products of a margin in its own order, so that
    case agrees to rounding only."""
    data, W, p, loss = problem
    risk_rows, grad_rows, _ = linear_kernels(data, loss, p, 1.0)
    every = np.arange(len(W))
    risks, M = risk_rows(W, every)
    ZnegT = (-data.labels[:, None] * data.features).T
    loop, mag = W[:, :1] * ZnegT[0], np.abs(W[:, :1] * ZnegT[0])
    for j in range(1, W.shape[1]):
        loop += W[:, j:j + 1] * ZnegT[j]
        mag += np.abs(W[:, j:j + 1] * ZnegT[j])
    if data.n > 1:
        assert np.array_equal(M, loop)
    else:
        assert np.all(np.abs(M - loop) <= 1e-14 * mag)
    terms = data.weights * loss.value(M)
    assert np.all(np.abs(risks - np.sum(terms, axis=1)) <= 1e-12 * np.sum(np.abs(terms), axis=1))
    S = data.weights * loss.grad(M)
    old = np.stack([np.sum(S * z, axis=1) for z in ZnegT], axis=1)
    scale = np.stack([np.sum(np.abs(S * z), axis=1) for z in ZnegT], axis=1)
    assert np.all(np.abs(grad_rows(W, M, every) - old) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(_linear_kernel_problems(), st.floats(0.1, 3.0), st.integers(0, 40))
def test_lockstep_descent_rows_run_alone_and_never_raise_risk(problem, radius, budget):
    """Over random shapes, p, radius and step budgets, every row ends in
    its ball with a risk no higher than its start's, the risk returned is
    the risk of the row returned, and each row equals its own
    single-row run bit for bit."""
    data, W, p, loss = problem
    kernels = linear_kernels(data, loss, p, radius)
    W0 = kernels[2](W)
    X, risks = lockstep_descent(W0, *kernels, budget)
    every = np.arange(len(W0))
    assert np.all(risks <= kernels[0](W0, every)[0])
    assert np.array_equal(risks, kernels[0](X, every)[0])
    assert np.all(lq_norm(X, p) <= radius * (1.0 + NORM_TOL))
    for w0, x, r in zip(W0, X, risks):
        x_alone, r_alone = lockstep_descent(w0, *kernels, budget)
        assert np.array_equal(x_alone[0], x)
        assert r_alone[0] == r


def _boostnet_round_problem(seed, activation, radius, rows):
    """A weak learner's refinement in BoostNet: a planted depth-2 sample
    under boosting weights, the activation as the loss, p = 2, and rows
    starts of mixed scale projected into the ball."""
    rng = np.random.default_rng(seed)
    spec = network_spec(2, 2.0, 2.0, activation)
    data, _ = planted_network(20, 5, 0.3, spec, 2, seed=seed % 1000)
    data = data.with_weights(boost_weights(6.0 * rng.standard_normal(data.n), data.labels))
    kernels = linear_kernels(data, ActivationLoss(spec.act), 2.0, radius)
    W = rng.standard_normal((rows, data.dim)) * 10.0 ** rng.uniform(-3.0, 2.0, size=(rows, 1))
    return kernels, kernels[2](W)


def _step_kinds(kernels):
    """Kernels that record, for each step of lockstep_descent after the
    first, whether every row of the previous trial accepted it (the
    gradient is then taken on all of them) or only some did."""
    risk_rows, grad_rows, project_rows = kernels
    kinds, trial = [], []

    def risk(W, rows):
        trial.append(len(W))
        return risk_rows(W, rows)

    def grad(W, state, rows):
        if len(trial) > 1:
            kinds.append("all" if len(W) == trial[-1] else "some")
        return grad_rows(W, state, rows)

    return (risk, grad, project_rows), kinds


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("tanh", "erf")), st.floats(1.0, 3.0),
       st.integers(1, 8), st.integers(0, 150))
def test_lockstep_descent_activation_loss_rows_follow_monotone_descent(
        seed, activation, radius, rows, budget):
    """In BoostNet's regime (a few rows, a smooth activation loss, long
    budgets) each row of the lockstep refinement equals its own
    monotone_descent run bit for bit, whether a step was accepted by
    every live row or by some."""
    kernels, W0 = _boostnet_round_problem(seed, activation, radius, rows)
    recording, kinds = _step_kinds(kernels)
    lockstep_descent(W0, *recording, budget)
    # Steer the search towards starts whose steps some rows reject.
    target(float(kinds.count("some")), label="steps only some rows accept")
    event(f"steps accepted by only some rows: {'some' in kinds}")
    W = _assert_rows_follow_monotone_descent(W0, kernels, budget)
    assert np.all(lq_norm(W, 2.0) <= radius * (1.0 + NORM_TOL))


def test_lockstep_descent_boostnet_regime_takes_both_step_kinds():
    """The problems of the oracle test above do reach both kinds of step:
    ones every live row accepts and ones only some rows accept."""
    kernels, W0 = _boostnet_round_problem(15, "tanh", 3.0, 6)
    recording, kinds = _step_kinds(kernels)
    lockstep_descent(W0, *recording, 150)
    assert {"all", "some"} <= set(kinds)
    _assert_rows_follow_monotone_descent(W0, kernels, 150)


@settings(max_examples=100, deadline=None)
@given(_linear_kernel_problems(), st.floats(0.1, 3.0))
def test_linear_kernel_projection_is_project(problem, radius):
    """The projection bound into the kernels is solvers.projector at the
    same p and radius, bit for bit; at p = 2 both equal the rescale
    w * min(1, radius / ||w||)."""
    data, W, p, loss = problem
    project_rows = linear_kernels(data, loss, p, radius)[2]
    assert np.array_equal(project_rows(W), projector(p, radius)(W))
    assert np.array_equal(project_rows(W[0]), projector(p, radius)(W[0]))
    if p == 2.0:
        with np.errstate(divide="ignore"):
            scale = np.minimum(1.0, radius / np.sqrt(np.sum(W * W, axis=1)))
        assert np.array_equal(project_rows(W), W * scale[:, None])


def test_linear_kernels_check_p_and_radius_when_built():
    data, _ = planted_halfspace(20, 3, 0.3, 2.0, seed=1)
    loss = piecewise_linear(1.0)
    for p, radius in ((0.5, 1.0), (2.5, 1.0), (math.nan, 1.0), (1.0, 0.0),
                      (2.0, -1.0), (1.5, math.nan)):
        with pytest.raises(ValueError):
            linear_kernels(data, loss, p, radius)


@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("scale,target", [(1e-200, 1.0), (1e-170, 1e-160)])
def test_least_squares_tiny_x_finite_and_feasible(p, scale, target):
    """sigma_max(X)^2 underflows to 0 for these X; projected gradient must
    still return a finite point in the ball, no worse than w = 0."""
    X, u = np.array([[scale, 0.0]]), np.array([target])
    w = constrained_least_squares(X, u, p, 1.0)
    assert np.all(np.isfinite(w))
    assert lq_norm(w, p) <= 1.0 + NORM_TOL
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


def _reference_lp_magnitudes(a, lp, q):
    """Solve w + lp*w^q = a elementwise by Newton on s = w^q from the
    right of the root, then one Newton step in w (the nested route of
    Liu & Ye 2010, kept here as a reference solver)."""
    k = 1.0 / q
    s = np.minimum(a / lp, a**q)
    for _ in range(100):
        sk = s ** (k - 1.0)
        s_new = s - (sk * s + lp * s - a) / (k * sk + lp)
        falling = s_new < s
        if not falling.any():
            break
        s = np.where(falling, s_new, s)
    w = s**k
    t = w**q
    den = w + q * lp * t
    w = w - np.divide(w * (w + lp * t - a), den, out=np.zeros_like(w), where=den > 0)
    return w, w**q


def _reference_project_lp(v, p, radius):
    """The l_p projection by an outer safeguarded Newton iteration on the
    dual scalar lam, with a full per-coordinate Newton solve at each step."""
    v = np.asarray(v, dtype=float)
    a = np.abs(np.atleast_2d(v))
    outside = np.sum(a**p, axis=-1) ** (1.0 / p) > radius
    if not outside.any():
        return v.copy()
    A, q, rp, eps4 = a[outside], p - 1.0, radius**p, 4.0 * np.finfo(float).eps
    top = A.max(axis=1)
    hi = top * np.sum((A / top[:, None]) ** (p / q), axis=1) ** (q / p) / (p * radius**q)
    lam, lo = hi, np.zeros_like(hi)
    out = np.empty_like(A)
    live = np.arange(A.shape[0])
    for _ in range(100):
        w, s = _reference_lp_magnitudes(A, (lam * p)[:, None], q)
        out[live] = w
        G = np.sum(w * s, axis=1)
        den = w + (lam * (p * q))[:, None] * s
        terms = np.divide(w * s * s, den, out=np.zeros_like(w), where=den > 0)
        dG = -p * p * np.sum(terms, axis=1)
        over = G > rp
        lo, hi = np.where(over, lam, lo), np.where(over, hi, lam)
        step = -p * G * np.expm1((q / p) * np.log(G / rp)) / (q * dG)
        done = (np.abs(step) <= eps4 * lam) | (hi - lo <= eps4 * lam)
        lam = lam + step
        lam = np.where((lo < lam) & (lam < hi), lam, 0.5 * (lo + hi))
        if done.any():
            live, A, lam, lo, hi = (x[~done] for x in (live, A, lam, lo, hi))
            if live.size == 0:
                break
    a[outside] = out * (radius / np.sum(out**p, axis=1) ** (1.0 / p))[:, None]
    return np.sign(v) * a.reshape(v.shape)


@settings(max_examples=400, deadline=None)
@given(_lp_projection_problems())
@example((np.array([-1.0]), 1.00001, 0.5))
@example((np.array([-1.33352143, -1.0]), 1.0000000000000002, 1.0))
def test_project_lp_matches_nested_reference(problem):
    """The joint Newton solve agrees with the nested reference solver to
    1e-13 of the larger of the radius and max|v_i|."""
    v, p, radius = problem
    out = project_lp(v, p, radius)
    ref = _reference_project_lp(v, p, radius)
    assert np.max(np.abs(out - ref)) <= 1e-13 * max(radius, np.max(np.abs(v)))


@pytest.mark.filterwarnings("error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=200, deadline=None)
@given(_lp_projection_problems(), st.sampled_from((1e150, 1e-150)))
def test_project_lp_scale_equivariant(problem, t):
    """project_lp(t v, p, t r) = t project_lp(v, p, r) far from unit scale,
    without overflow or underflow warnings."""
    v, p, radius = problem
    out = project_lp(t * v, p, t * radius)
    assert np.max(np.abs(out - t * project_lp(v, p, radius))) <= 1e-13 * t * max(
        radius, np.max(np.abs(v)))


@pytest.mark.filterwarnings("error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
def test_project_lp_extreme_magnitudes():
    """A radius 1e-400 times max|v| (r / max|v| underflows) and a point whose
    sum |v_i|^p underflows are still projected onto the sphere."""
    out = project_lp(np.array([1e200, 1.0]), 1.9, 1e-200)
    assert out[0] == pytest.approx(1e-200, rel=1e-14)
    assert out[1] == 0.0  # 1e-200 * (1e-200)^(1/0.9) underflows
    v, t = np.array([1e-300, 3e-301]), 1e-300
    out = project_lp(v, 1.5, 1e-305)
    assert np.all(out > 0.0)
    assert np.max(np.abs(out - t * _reference_project_lp(v / t, 1.5, 1e-305 / t))) <= 1e-13 * 1e-300
