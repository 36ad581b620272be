import functools
import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, target
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ncerm import solvers
from ncerm.boosting import boost_weights
from ncerm.data import WeightedDataset, planted_halfspace, planted_network
from ncerm.halfspace import LinearModel
from ncerm.losses import (
    ACTIVATIONS, LOGISTIC_SIGMOID, NEG_MIN, PIECEWISE_LINEAR, LossFunction, empirical_risk,
    logistic_sigmoid, piecewise_linear,
)
from ncerm.networks import network_spec
from ncerm.solvers import (
    LS_MAX_ITER,
    constrained_least_squares,
    lockstep_descent,
    monotone_descent,
    project_l1,
    project_lp,
    projector,
    refine,
    row_kernels,
)
from ncerm.util import NORM_TOL, lq_norm

from row_kernel_problems import (
    assert_rows_run_alone, linear_kernel_problems, linear_problem, row_kernel_problems,
)


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


@st.composite
def _l2_boundary_fits(draw):
    """X of any rank, targets u with X^T u != 0, and a radius below the
    norm of the minimum-norm solution, so the ball constraint is active."""
    k = draw(st.integers(1, 8))
    d = draw(st.integers(1, 8))
    X = _any_rank_matrix(draw, k, d)
    u = draw(hnp.arrays(float, k, elements=st.floats(-5.0, 5.0, allow_nan=False)))
    with np.errstate(over="ignore", invalid="ignore"):  # pinv of extreme X
        min_norm = float(np.linalg.norm(np.linalg.pinv(X) @ u))
    assume(1e-6 < min_norm < np.inf)
    return X, u, draw(st.floats(0.01, 0.99)) * min_norm


@settings(max_examples=300, deadline=None)
@given(_l2_boundary_fits())
@example((np.array([[1e-24], [2e-12]]), np.array([1.0, 0.0]), 0.12501111257279263))
def test_secular_start_is_below_the_root(problem):
    """The p=2 Newton iteration starts at lam_0 = max_i (s_i |c_i| / radius -
    s_i^2)+, c = U^T u; since each coordinate s_i c_i / (s_i^2 + lam) of
    w(lam) is at most ||w(lam)|| = radius at the root, lam_0 is a lower
    bound of the root, here found by bisection on
    ||(X^T X + lam I)^{-1} X^T u|| = radius.

    The computed SVD is exact for some X + E with ||E|| about eps s_0, and
    lam_0 is the bound of that matrix's root.  To first order E moves the
    root by at most ||E|| (||u|| / radius + s_0) (s_0^2 + lam) /
    (sigma^2 + lam), sigma the least singular value of X on R^d; the bound
    may sit that far above the root of X.  In the example (s = 2e-12,
    c = 5e-13) it sits 1.8e-4 relative above."""
    X, u, radius = problem
    Uk, s, _ = np.linalg.svd(X, full_matrices=False)
    lam0 = max(0.0, float(np.max(s * np.abs(Uk.T @ u) / radius - s * s)))

    def ridge_norm(lam):
        # (X^T X + lam I)^{-1} X^T u as the least-squares fit of [X; sqrt(lam) I]
        A = np.vstack([X, math.sqrt(lam) * np.eye(X.shape[1])])
        b = np.concatenate([u, np.zeros(X.shape[1])])
        return np.linalg.norm(np.linalg.lstsq(A, b, rcond=None)[0])

    lo, hi = 0.0, 1.0
    while ridge_norm(hi) > radius:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ridge_norm(mid) > radius else (lo, mid)
    k, d = X.shape
    sigma = s[-1] if d <= k else 0.0
    norm_E = 4 * (k + d) * np.finfo(float).eps * s[0]
    moved = norm_E * (np.linalg.norm(u) / radius + s[0]) * (s[0] ** 2 + hi) / (sigma**2 + hi)
    assert lam0 <= hi * (1.0 + 1e-9) + 1e-12 * s[0] ** 2 + moved


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
    """A stack of 1 to 6 fits of one shape, each of any rank, with an
    all-zero X and a zero u among them when drawn, and a radius."""
    k = draw(st.integers(1, 8))
    d = draw(st.integers(1, 8))
    X = np.stack([_any_rank_matrix(draw, k, d) for _ in range(draw(st.integers(1, 6)))])
    u = draw(hnp.arrays(float, X.shape[:2], elements=st.floats(-5.0, 5.0, allow_nan=False)))
    if draw(st.booleans()):
        X[draw(st.integers(0, len(X) - 1))] = 0.0
    if draw(st.booleans()):
        u[draw(st.integers(0, len(X) - 1))] = 0.0
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
    """A stack of _l2_least_squares_stacks, and p below 2."""
    X, u, radius = draw(_l2_least_squares_stacks())
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


def _linear_kernels(data, loss, p, radius):
    """The row kernels of linear predictors: one level, of shape (1, d)."""
    return row_kernels(data, loss, [(1, data.dim)], p, radius)


def _state_lasts_one_call(kernels):
    """The kernels with each state handed out as a copy that the next risk
    call overwrites with NaN, as a kernel that reuses its buffers may."""
    risk_rows, grad_rows, project_rows = kernels
    handed_out = []

    def risk(W, rows):
        for state in handed_out:
            state.fill(np.nan)
        risks, state = risk_rows(W, rows)
        handed_out[:] = [np.array(state, dtype=float)]
        return risks, handed_out[0]

    return risk, grad_rows, project_rows


def _assert_rows_follow_monotone_descent(W0, kernels, step_budget):
    """Each row of lockstep_descent, run on kernels whose states last only
    until the next risk call, equals monotone_descent run on single-row
    closures of the same kernels."""
    risk_rows, grad_rows, project_rows = kernels
    W, risks = lockstep_descent(W0, *_state_lasts_one_call(kernels), step_budget)
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
        kernels = _linear_kernels(data, loss, p, 1.0)
        W0 = kernels[2](rng.standard_normal((6, 5)))
        W0[0] = 0.0
        for budget in (200, 7):
            W = _assert_rows_follow_monotone_descent(W0, kernels, budget)
            assert not np.array_equal(W, W0)
            assert np.all(lq_norm(W, p) <= 1.0 + 1e-9)


def _steep_abs_kernels():
    """Row functions of the risk 1000 |x|, whose state sign(x) is written
    into one buffer that every risk call reuses, grown on demand."""
    buffer = [np.empty((0, 1))]

    def risk_rows(W, rows):
        if len(buffer[0]) < len(W):
            buffer[0] = np.empty(W.shape)
        return 1e3 * np.sum(np.abs(W), axis=1), np.sign(W, out=buffer[0][:len(W)])

    return risk_rows, lambda W, S, rows: 1e3 * S, lambda W: W


def test_lockstep_descent_stop_rules():
    """On the steep risk 1000 |x| the starts below stop on a zero gradient,
    on 25 rejections in a row, on the step floor (the second start only
    after an acceptance at its 25th attempt), and on the budget after the
    step size reached its cap; a budget of 5 stops all but the first
    early.  Each row still matches monotone_descent."""
    W0 = np.array([[0.0], [1e-9], [4e-8], [0.3], [2.0], [1e6]])
    for budget in (500, 5):
        _assert_rows_follow_monotone_descent(W0, _steep_abs_kernels(), budget)


def test_lockstep_descent_single_row_counts_rejects_from_its_last_acceptance():
    """A row refined alone takes every accepted step on the path where all
    live rows accept.  On 1000 |x| the start 4e-8 is rejected 24 times,
    accepted, then rejected once and accepted again: its reject count
    starts again from 0 at each acceptance, as in monotone_descent, so
    the stall rule does not end it early."""
    for x0 in (4e-8, 1e-9, 0.3, 2.0):
        _assert_rows_follow_monotone_descent(np.array([[x0]]), _steep_abs_kernels(), 500)


@settings(max_examples=200, deadline=None)
@given(row_kernel_problems(st.just(1)), st.integers(0, 30), st.data())
def test_linear_kernel_rows_are_independent(problem, budget, data_strategy):
    """For a linear predictor, the risks, states, gradients, projections
    and lockstep refinements of any subset of rows, and of each row
    alone, equal those rows of the call on the whole stack, bit for bit
    (row_kernel_problems.assert_rows_run_alone)."""
    rows = data_strategy.draw(st.lists(st.integers(0, len(problem[-1]) - 1), min_size=1,
                                       max_size=len(problem[-1]), unique=True))
    assert_rows_run_alone(problem, budget, rows)


@settings(max_examples=100, deadline=None)
@given(row_kernel_problems(), st.integers(1, 20), st.integers(0, 30))
def test_linear_kernel_scratch_never_aliases_state(problem, extra, budget):
    """The pre-activations, loss values and derivatives of the row kernels,
    linear (depth 1) or deeper, share two scratch arrays per kernel set,
    grown on demand, so a state lasts until the next risk call.  Until
    then it is what a fresh kernel set hands out, and grad_rows, which
    writes over the array the state is not in, leaves it unchanged.  This
    holds as the scratch arrays grow and as fewer rows reuse them, and a
    kernel set reused across refinements gives what fresh ones give."""
    data, loss, shapes, p, radius, act, W1 = problem
    kernels = lambda: row_kernels(data, loss, shapes, p, radius, act)
    shared = kernels()
    W2 = np.concatenate([W1[::-1]] * (1 + extra))
    for W in (W1, W2, W1[::-1], W2[::-1]):  # grows the scratch, then reuses it
        rows, fresh = np.arange(len(W)), kernels()
        (risks, state), (risks_fresh, state_fresh) = shared[0](W, rows), fresh[0](W, rows)
        kept = state.copy()
        assert risks.tobytes() == risks_fresh.tobytes()
        assert state.tobytes() == state_fresh.tobytes()
        assert shared[1](W, state, rows).tobytes() == fresh[1](W, state_fresh, rows).tobytes()
        assert state.tobytes() == kept.tobytes()
    W0 = shared[2](W2)
    for start in (W0, W0[:1], W0):
        X, risks = lockstep_descent(start, *shared, budget)
        X_fresh, risks_fresh = lockstep_descent(start, *kernels(), budget)
        assert X.tobytes() == X_fresh.tobytes() and risks.tobytes() == risks_fresh.tobytes()


@settings(max_examples=200, deadline=None)
@given(linear_kernel_problems)
@example(linear_problem(26, 3, 11, 29564, logistic_sigmoid, 2.0, 0.908830852706918))
def test_linear_kernel_matches_coordinate_sums(problem):
    """The state is the margins -y_j <w, x_j>, or their loss values when
    the loss takes its slope from its value.  Each margin equals the sum
    of its d products, accumulated coordinate by coordinate, to 1e-14 of
    the sum of their magnitudes; the order in which the kernel sums them
    is its own.  So an L-Lipschitz value is within L 1e-14 of that
    magnitude, plus its own rounding: two correct evaluations of the
    sigmoid near 1/2 from margins that differ in their last bits can
    differ by 1-2 ulps of the value (the example), so the bound adds four
    roundings, np.spacing(|value|).  Risk and gradient equal numpy sums
    over the sample to 1e-12 of the sum of the terms' magnitudes."""
    data, W, p, loss = problem
    risk_rows, grad_rows, _ = _linear_kernels(data, loss, p, 1.0)
    every = np.arange(len(W))
    risks, state = risk_rows(W, every)
    grads, state = grad_rows(W, state, every), state.copy()
    ZnegT = (-data.labels[:, None] * data.features).T
    loop, mag = W[:, :1] * ZnegT[0], np.abs(W[:, :1] * ZnegT[0])
    for j in range(1, W.shape[1]):
        loop += W[:, j:j + 1] * ZnegT[j]
        mag += np.abs(W[:, j:j + 1] * ZnegT[j])
    if loss.slope_from_value:
        value = loss.value(loop)
        bound = loss.lipschitz * 1e-14 * mag + 1e-16 + 4.0 * np.spacing(np.abs(value))
        assert np.all(np.abs(state - value) <= bound)
    else:
        assert np.all(np.abs(state - loop) <= 1e-14 * mag)
    terms = data.weights * (state if loss.slope_from_value else loss.value(state))
    assert np.all(np.abs(risks - np.sum(terms, axis=1)) <= 1e-12 * np.sum(np.abs(terms), axis=1))
    S = data.weights * loss.slope(state)
    old = np.stack([np.sum(S * z, axis=1) for z in ZnegT], axis=1)
    scale = np.stack([np.sum(np.abs(S * z), axis=1) for z in ZnegT], axis=1)
    assert np.all(np.abs(grads - old) <= 1e-12 * scale)


@pytest.mark.parametrize("kind", (PIECEWISE_LINEAR, LOGISTIC_SIGMOID, NEG_MIN, *ACTIVATIONS))
def test_linear_kernel_rows_are_computed_alone(kind):
    """Each row's risk, state and gradient equal, byte for byte, what that
    row gives alone as a fresh (1, d) array, for stacks of 1 to 257 rows
    held contiguous, strided, gathered, or as a view at an odd element
    offset inside a larger buffer."""
    rng = np.random.default_rng(22)
    n, d = 50, 5
    weights = rng.random(n)
    data = WeightedDataset(rng.standard_normal((n, d)), rng.choice((-1.0, 1.0), size=n),
                           weights / weights.sum())
    loss = LossFunction(kind, 2.5 if kind in (PIECEWISE_LINEAR, LOGISTIC_SIGMOID) else 1.0)
    risk_rows, grad_rows, _ = _linear_kernels(data, loss, 2.0, 1.0)
    for c in (1, 2, 3, 7, 64, 257):
        base = rng.standard_normal((2 * c, d)) * 10.0 ** rng.uniform(-3.0, 1.0, size=(2 * c, 1))
        buf = rng.standard_normal(c * d + 2)
        buf[1:c * d + 1] = base[:c].ravel()
        forms = (base[:c].copy(), base[::2], base[rng.permutation(2 * c)[:c]],
                 buf[1:c * d + 1].reshape(c, d))
        for W in forms:
            rows = np.arange(c)
            risks, state = risk_rows(W, rows)
            risks, grads = risks.copy(), grad_rows(W, state, rows).copy()
            state = state.copy()
            for i in range(c):
                risk_i, state_i = risk_rows(W[i].copy()[None], rows[i:i + 1])
                assert risks[i].tobytes() == risk_i[0].tobytes()
                assert state[i].tobytes() == state_i[0].tobytes()
                grad_i = grad_rows(W[i].copy()[None], state_i, rows[i:i + 1])
                assert grads[i].tobytes() == grad_i[0].tobytes()


@pytest.mark.parametrize("kind", (PIECEWISE_LINEAR, LOGISTIC_SIGMOID, NEG_MIN, *ACTIVATIONS))
def test_linear_kernel_losses_equal_the_loss_methods(kind):
    """The row kernels call the loss's value and slope functions and L,
    looked up once when they are built (LossFunction.functions).  Risks,
    states and gradients equal, byte for byte, the same sums over the
    kernel's margins of LossFunction.value and slope, and slope equals
    grad.  L is 1 and, where the kind allows, 3 and 7.3; at 7.3 the end
    -1/(2L) of the piecewise-linear loss rounds off its anchor 0, so its
    putmask correction runs, and margins fall on its kinks exactly."""
    n = 7
    x = np.array([1.0, -1.0, 0.5, 0.25, 1.0, -0.75, 0.125])[:, None]
    data = WeightedDataset(x, np.array([-1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0]),
                           np.arange(1.0, n + 1.0) / (n * (n + 1) / 2))
    ZnegT = np.ascontiguousarray((-data.labels[:, None] * data.features).T)
    for L in (1.0, 3.0, 7.3) if kind in (PIECEWISE_LINEAR, LOGISTIC_SIGMOID) else (1.0,):
        loss = LossFunction(kind, L)
        if L == 7.3:
            assert L * (-0.5 / L) + 0.5 != 0.0
        # The margins of the first column are w itself: on both kinks, at
        # zero and either side of them.
        W = np.array([[-0.5 / L], [0.5 / L], [0.0], [np.nextafter(-0.5 / L, 0.0)],
                      [-0.49 / L], [2.0], [-3.0]])
        risk_rows, grad_rows, _ = _linear_kernels(data, loss, 2.0, 10.0)
        every = np.arange(len(W))
        risks, state = risk_rows(W, every)
        state = state.copy()
        grads = grad_rows(W, state.copy(), every)
        M = np.matmul(W[:, None, :], ZnegT)[:, 0]
        H = loss.value(M)
        K = H if loss.slope_from_value else M
        assert state.tobytes() == K.tobytes()
        assert risks.tobytes() == np.einsum("cn,n->c", H, data.weights,
                                            optimize=False).tobytes()
        slopes = loss.slope(K.copy())
        assert slopes.tobytes() == loss.grad(M).tobytes()
        assert grads.tobytes() == np.einsum("cn,dn->cd", slopes, data.weights * ZnegT,
                                            optimize=False).tobytes()


@settings(max_examples=60, deadline=None)
@given(linear_kernel_problems, st.floats(0.1, 3.0), st.integers(0, 40))
def test_lockstep_descent_rows_run_alone_and_never_raise_risk(problem, radius, budget):
    """Over random shapes, p, radius and step budgets, every row ends in
    its ball with a risk no higher than its start's, the risk returned is
    the risk of the row returned, and each row equals its own
    single-row run bit for bit."""
    data, W, p, loss = problem
    kernels = _linear_kernels(data, loss, p, radius)
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
    kernels = _linear_kernels(data, spec.act, 2.0, radius)
    W = rng.standard_normal((rows, data.dim)) * 10.0 ** rng.uniform(-3.0, 2.0, size=(rows, 1))
    return kernels, kernels[2](W)


def _recording_kernels(kernels):
    """The kernels, with a log of copies of every call's arguments and
    results: ("risk", W, rows, risks, state) and ("grad", W, rows, state)."""
    risk_rows, grad_rows, project_rows = kernels
    log = []

    def risk(W, rows):
        risks, state = risk_rows(W, rows)
        log.append(("risk", W.copy(), rows.copy(), np.array(risks), np.array(state)))
        return risks, state

    def grad(W, state, rows):
        log.append(("grad", W.copy(), rows.copy(), np.array(state)))
        return grad_rows(W, state, rows)

    return (risk, grad, project_rows), log


def _step_kinds(log, step_budget):
    """Check the log of one lockstep_descent run and return, for each
    gradient call after the first, whether every row of the trial before
    it accepted ("all") or only some did ("some").

    The first call evaluates the starts and each later risk call is a
    trial, at most step_budget of them.  A trial accepts a row whose risk
    falls below the row's last accepted risk.  Every gradient call comes
    straight after a risk call, before the budget is spent, and asks only
    for rows that call accepted (every start, after the first), at the
    points and with the states that call had."""
    current, accepted, trials, kinds = {}, set(), -1, []
    for i, entry in enumerate(log):
        if entry[0] == "risk":
            _, _, rows, risks, _ = entry
            trials += 1
            assert trials <= step_budget
            accepted = {j for j, r in zip(rows.tolist(), risks) if r < current.get(j, np.inf)}
            current.update((j, r) for j, r in zip(rows.tolist(), risks) if j in accepted)
            continue
        _, W, rows, state = entry
        assert i > 0 and log[i - 1][0] == "risk" and trials < step_budget
        _, W_trial, rows_trial, _, state_trial = log[i - 1]
        assert set(rows.tolist()) <= accepted
        at = np.searchsorted(rows_trial, rows)
        assert np.array_equal(rows_trial[at], rows)
        assert W.tobytes() == W_trial[at].tobytes() and state.tobytes() == state_trial[at].tobytes()
        if trials:
            kinds.append("all" if len(rows) == len(rows_trial) else "some")
    return kinds


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
    recording, log = _recording_kernels(kernels)
    lockstep_descent(W0, *recording, budget)
    kinds = _step_kinds(log, budget)
    # Steer the search towards starts whose steps some rows reject.
    target(float(kinds.count("some")), label="steps only some rows accept")
    event(f"steps accepted by only some rows: {'some' in kinds}")
    W = _assert_rows_follow_monotone_descent(W0, kernels, budget)
    assert np.all(lq_norm(W, 2.0) <= radius * (1.0 + NORM_TOL))


def test_lockstep_descent_boostnet_regime_takes_both_step_kinds():
    """The problems of the oracle test above do reach both kinds of step:
    ones every live row accepts and ones only some rows accept."""
    kernels, W0 = _boostnet_round_problem(15, "tanh", 3.0, 6)
    recording, log = _recording_kernels(kernels)
    lockstep_descent(W0, *recording, 150)
    assert {"all", "some"} <= set(_step_kinds(log, 150))
    _assert_rows_follow_monotone_descent(W0, kernels, 150)


def test_lockstep_descent_ramp_loss_regime_is_mostly_partial_steps():
    """In Algorithm 2's restart regime (250 ramp-loss rows on n = 200,
    budget 200) most steps are accepted by only some rows, and each row
    still equals its own monotone_descent run bit for bit."""
    data, _ = planted_halfspace(200, 5, 0.3, 2.0, seed=31)
    kernels = _linear_kernels(data, piecewise_linear(1.0), 2.0, 1.0)
    W0 = kernels[2](np.random.default_rng(32).standard_normal((250, 5)))
    recording, log = _recording_kernels(kernels)
    lockstep_descent(W0, *recording, 200)
    kinds = _step_kinds(log, 200)
    assert kinds.count("some") > len(kinds) / 2
    _assert_rows_follow_monotone_descent(W0, kernels, 200)


def test_lockstep_descent_takes_gradients_only_at_accepted_points():
    """With steps of both kinds, rejected trials and budgets that end in
    the middle of a run, lockstep_descent asks for a gradient only at
    points the risk call just before it accepted, from that call's state,
    and never after a rejected trial or once the budget is spent.  The
    same holds on many linear rows and on the steep 1000 |x|, whose
    starts are rejected 24 times in a row."""
    data, _ = planted_halfspace(200, 5, 0.3, 2.0, seed=31)
    linear = _linear_kernels(data, piecewise_linear(1.0), 2.0, 1.0)
    problems = [
        _boostnet_round_problem(15, "tanh", 3.0, 6),
        (linear, linear[2](np.random.default_rng(33).standard_normal((40, 5)))),
        (_steep_abs_kernels(), np.array([[4e-8], [1e-9], [0.3], [0.0]])),
    ]
    for kernels, W0 in problems:
        seen = set()
        for budget in (0, 1, 2, 7, 26, 150):
            recording, log = _recording_kernels(kernels)
            X, risks = lockstep_descent(W0, *recording, budget)
            seen.update(_step_kinds(log, budget))
            if budget == 0:
                assert [entry[0] for entry in log] == ["risk"]
        assert seen == {"all", "some"}


@settings(max_examples=100, deadline=None)
@given(linear_kernel_problems, st.floats(0.1, 3.0))
def test_linear_kernel_projection_is_project(problem, radius):
    """The projection bound into the kernels is solvers.projector at the
    same p and radius, bit for bit; at p = 2 both equal the rescale
    w * min(1, radius / ||w||)."""
    data, W, p, loss = problem
    project_rows = _linear_kernels(data, loss, p, radius)[2]
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
            _linear_kernels(data, loss, p, radius)


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
# Many tied magnitudes with p near 1, where the joint Newton iteration runs
# out of steps and bisection finishes the row.
@example((np.array([-2.5482967479793466] + [-1.0] * 18), 1.0078125, 1.75))
@example((np.array([-64.93816316, -10.0] + [-1.0] * 24), 1.0000000000000002, 62.0))
@example((np.array([-2.5137196629566914] + [-1.0] * 49), 1.0000000000000002, 1.7036306764810012))
# On the sphere to the last bit: the inside test must agree with lq_norm.
@example((np.array([-0.01]), 1.5, 0.01))
def test_project_lp_kkt(problem):
    """The projection is feasible, keeps signs and zeros, returns a point
    inside the ball as it is, and otherwise meets the optimality
    conditions w_i + lam*p*w_i^(p-1) = |v_i| with one lam > 0 for all i
    and ||w||_p = radius."""
    v, p, radius = problem
    _assert_lp_kkt(v, p, radius, project_lp(v, p, radius))


def _assert_lp_kkt(v, p, radius, out):
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


def test_project_lp_tied_magnitudes_battery(monkeypatch):
    """Rows of 3 leading magnitudes and m up to 60 tied unit ones, with
    p - 1 from 2^-52 to 0.1, each meet the optimality conditions, and the
    joint Newton iteration converges on all 4,608 rows, so none reaches
    bisection; project_lp looks the fallback up at call time, so the
    counter sees every row that reaches it."""
    bisect, fallback = solvers._bisect_sphere_rows, []

    def counted(bound, a, *rest):
        fallback.append(len(a))
        return bisect(bound, a, *rest)

    monkeypatch.setattr(solvers, "_bisect_sphere_rows", counted)
    assert solvers._bisect_sphere_rows is counted
    heads = -np.array([[2.5482967479793466, 1.0, 1.0], [64.93816316, 10.0, 1.0],
                       [3.0, 2.0, 1.5], [1.0, 1.0, 1.0], [1.5, 1.0, 1.0], [8.0, 8.0, 1.0],
                       [1.01, 1.0, 1.0], [20.0, 1.0, 1.0]])
    for m in (0, 3, 9, 15, 21, 27, 33, 45, 60):
        V = np.hstack([heads, -np.ones((len(heads), m))])
        for p in 1.0 + np.geomspace(2.0**-52, 0.1, 16):
            for radius in (0.3, 1.75, 5.0, 62.0):
                for v, w in zip(V, project_lp(V, p, radius)):
                    _assert_lp_kkt(v, p, radius, w)
    assert sum(fallback) == 0


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


def test_project_lp_stack_outside_matches_single_rows():
    """A 3-D stack whose every row lies outside the ball, as networks
    project it, gives each row exactly as projecting that row alone does,
    and so does a Fortran-ordered matrix.  Rows have 5 and 19 entries:
    numpy sums 8 or more terms in blocks, whose order a strided row would
    change."""
    rng = np.random.default_rng(23)
    for m in (5, 19):
        W = rng.standard_normal((4, 6, m)) * rng.choice([1.0, 5.0, 40.0], size=(4, 6, 1))
        assert np.all(lq_norm(W, 1.3) > 1.0)
        out = project_lp(W, 1.3, 1.0)
        assert out.shape == W.shape
        for i in np.ndindex(W.shape[:-1]):
            assert np.array_equal(out[i], project_lp(W[i], 1.3, 1.0))
        assert np.array_equal(project_lp(np.asfortranarray(W[0]), 1.3, 1.0), out[0])


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
# Many tied magnitudes with p near 1, where the joint Newton iteration runs
# out of steps and bisection finishes the row.
@example((np.array([-2.5482967479793466] + [-1.0] * 18), 1.0078125, 1.75))
@example((np.array([-64.93816316, -10.0] + [-1.0] * 24), 1.0000000000000002, 62.0))
@example((np.array([-2.5137196629566914] + [-1.0] * 49), 1.0000000000000002, 1.7036306764810012))
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
