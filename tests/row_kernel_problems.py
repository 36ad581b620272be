"""Random problems for ncerm.solvers.row_kernels and the check that its
rows run alone.

Linear predictors (depth 1) back the solver tests and deeper networks
the network tests; both draw their weighted samples and losses here.
"""

import math

import numpy as np
from hypothesis import strategies as st

from ncerm.data import WeightedDataset
from ncerm.losses import ACTIVATIONS, logistic_sigmoid, piecewise_linear
from ncerm.networks import Activation
from ncerm.solvers import lockstep_descent, project_lp, row_kernels


def linear_problem(n, d, c, seed, kind, p, lipschitz):
    """A weighted sample (n, d) with some zero weights, a stack W of c
    weight rows at mixed scales, p, and the loss of its kind."""
    rng = np.random.default_rng(seed)
    weights = rng.random(n) * (rng.random(n) < 0.8)
    weights = np.full(n, 1.0 / n) if weights.sum() == 0.0 else weights / weights.sum()
    data = WeightedDataset(rng.standard_normal((n, d)), rng.choice((-1.0, 1.0), size=n),
                           weights)
    W = rng.standard_normal((c, d)) * 10.0 ** rng.uniform(-3.0, 1.0, size=(c, 1))
    return data, W, p, kind(lipschitz)


linear_kernel_problems = st.builds(
    linear_problem, st.integers(1, 60), st.integers(1, 8), st.integers(1, 12),
    st.integers(0, 2**32 - 1), st.sampled_from((piecewise_linear, logistic_sigmoid)),
    st.sampled_from((1.0, 1.5, 2.0)), st.floats(0.5, 5.0))


@st.composite
def row_kernel_problems(draw, depths=st.integers(1, 3)):
    """A weighted sample with some zero weights, a smooth or
    piecewise-linear loss, level shapes of a depth drawn from `depths`
    and width 1-4 with every activation, the leaf p, a radius, and 1-12
    rows at mixed scales; depth 1 is a linear predictor."""
    data, _, p, loss = draw(linear_kernel_problems)
    m, s, c = draw(depths), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    shapes = [(s ** (m - 1 - j), s if j else data.dim) for j in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.standard_normal((c, sum(math.prod(shape) for shape in shapes)))
    return (data, loss, shapes, p, draw(st.floats(1.0, 3.0)),
            Activation(draw(st.sampled_from(ACTIVATIONS))),
            P * 10.0 ** rng.uniform(-3.0, 1.0, size=(c, 1)))


def assert_rows_run_alone(problem, budget, rows):
    """The risks, states, gradients and projections of the subset `rows`,
    and of each row alone, equal those rows of the call on the whole
    stack, bit for bit, and so does each row's lockstep refinement, which
    never raises a row's risk.  A state, one row of n * sum(N_j)
    pre-activations per row, is read or copied before the next risk call,
    which may reuse its buffer.  project_lp on the (c, N, d) leaf stack
    equals the same rows projected as a matrix."""
    data, loss, shapes, p, radius, act, P = problem
    kernels = risk_rows, grad_rows, project_rows = row_kernels(data, loss, shapes, p, radius, act)
    every = np.arange(len(P))
    risks, state = risk_rows(P, every)
    grads, state, starts = grad_rows(P, state, every), state.copy(), project_rows(P)
    assert state.shape == (len(P), data.n * sum(N for N, _ in shapes))
    risks_sub, state_sub = risk_rows(P[rows], rows)
    assert np.array_equal(risks_sub, risks[rows])
    assert np.array_equal(state_sub, state[rows])
    assert np.array_equal(grad_rows(P[rows], state_sub, rows), grads[rows])
    assert np.array_equal(project_rows(P[rows]), starts[rows])
    X, refined = lockstep_descent(starts, *kernels, budget)
    assert np.all(refined <= risk_rows(starts, every)[0])
    for i in range(len(P)):
        risk, z = risk_rows(P[i:i + 1], every[i:i + 1])
        assert risk[0] == risks[i]
        assert np.array_equal(z[0], state[i])
        assert np.array_equal(grad_rows(P[i:i + 1], z, every[i:i + 1])[0], grads[i])
        assert np.array_equal(project_rows(P[i:i + 1])[0], starts[i])
        x, r = lockstep_descent(starts[i], *kernels, budget)
        assert np.array_equal(x[0], X[i])
        assert r[0] == refined[i]
    W = P[:, :math.prod(shapes[0])].reshape(len(P), *shapes[0])
    for q in (1.5, 2.0):
        stacked = project_lp(W, q, radius)
        assert np.array_equal(stacked, project_lp(W.reshape(-1, W.shape[-1]), q,
                                                  radius).reshape(W.shape))
