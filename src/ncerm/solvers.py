"""Norm-ball projections, constrained least squares, and local refinement."""

from __future__ import annotations

import math

import numpy as np

LS_MAX_ITER = 500
LS_RTOL = 1e-8
_STEP_FLOOR = 1e-13
_STALL_REJECTS = 25
_GAIN_RTOL = 1e-8
_FEAS_TOL = 1e-9
_SECULAR_MAX_ITER = 100
_SECULAR_RTOL = 4.0 * np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge within its fixed budget."""


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius.

    Sort-based soft thresholding: the unique theta >= 0 with
    sum_i max(|v_i| - theta, 0) = radius is found from the sorted
    magnitudes, then applied with the original signs.  A matrix is
    projected row by row, each row on its own.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    inside = a.sum(axis=-1) <= radius
    if np.all(inside):
        return v.copy()
    u = -np.sort(-a, axis=-1)
    css = np.cumsum(u, axis=-1)
    j = np.arange(1, v.shape[-1] + 1)
    # rho is the last index with u_rho * (rho + 1) > css_rho - radius
    rho = v.shape[-1] - 1 - np.argmax((u * j > (css - radius))[..., ::-1], axis=-1)
    theta = (np.take_along_axis(css, rho[..., None], axis=-1)[..., 0] - radius) / (rho + 1.0)
    out = np.sign(v) * np.maximum(a - theta[..., None], 0.0)
    return np.where(inside[..., None], v, out)


def _lp_coordinate_solve(a: np.ndarray, lam: float, p: float) -> np.ndarray:
    """Solve w + lam*p*w^(p-1) = a coordinatewise for w in [0, a].

    The left side is strictly increasing in w, so bisection converges;
    64 halvings put the error near machine precision relative to a.
    """
    lo = np.zeros_like(a)
    hi = a.copy()
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        val = mid + lam * p * np.power(mid, p - 1.0, where=mid > 0, out=np.zeros_like(mid))
        too_big = val > a
        hi = np.where(too_big, mid, hi)
        lo = np.where(too_big, lo, mid)
    return 0.5 * (lo + hi)


def project_lp(v: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Euclidean projection onto the l_p ball, p in (1, 2].

    p = 2 rescales.  For p in (1, 2) the KKT system
    w_i + lam*p*w_i^(p-1) = |v_i| is solved by bisection on the dual
    scalar lam until the constraint is active.  A matrix is projected
    row by row, each row on its own.
    """
    if not (1.0 < p <= 2.0):
        raise ValueError("p must be in (1, 2]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    if p == 2.0:
        # Rows inside the ball are scaled by radius / radius = 1 exactly.
        norm = np.sqrt(np.sum(v * v, axis=-1))
        return v * (radius / np.maximum(norm, radius))[..., None]
    if v.ndim == 2:
        return np.array([project_lp(row, p, radius) for row in v])
    norm = float(np.sum(np.abs(v) ** p) ** (1.0 / p))
    if norm <= radius:
        return v.copy()
    a = np.abs(v)

    def constraint(lam: float) -> float:
        w = _lp_coordinate_solve(a, lam, p)
        return float(np.sum(w**p) ** (1.0 / p)) - radius

    lam_lo, lam_hi = 0.0, 1.0
    for _ in range(200):
        if constraint(lam_hi) <= 0:
            break
        lam_lo = lam_hi
        lam_hi *= 2.0
    else:
        raise ConvergenceError("l_p projection: dual upper bracket not found")
    for _ in range(100):
        mid = 0.5 * (lam_lo + lam_hi)
        if constraint(mid) > 0:
            lam_lo = mid
        else:
            lam_hi = mid
    w = _lp_coordinate_solve(a, lam_hi, p)
    return np.sign(v) * w


def project(v: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Projection onto the l_p ball for p in [1, 2], row by row for a matrix."""
    if p == 1.0:
        return project_l1(v, radius)
    return project_lp(v, p, radius)


def _least_squares_l2(X: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Exact argmin_{||w||_2 <= radius} ||X w - u||_2^2 (Moré & Sorensen 1983).

    With the thin SVD X = U diag(s) V^T and c = U^T u, the minimum-norm
    least-squares solution has coordinates c/s in the basis V.  If it lies
    in the ball it is the answer.  Otherwise the solution is
    w(lam) = (X^T X + lam I)^{-1} X^T u for the lam > 0 with
    ||w(lam)|| = radius, found by safeguarded Newton steps on the secular
    equation 1/||w(lam)|| - 1/radius = 0, which is concave and increasing
    in lam.  Directions with zero singular value never enter w.
    """
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    keep = s > max(X.shape) * np.finfo(float).eps * s[0]
    s, V = s[keep], Vt[keep]
    c = U[:, keep].T @ u
    cmax = float(np.max(np.abs(c)))
    if cmax == 0.0:
        return np.zeros(X.shape[1])
    t, c_hat = s / s[0], c / cmax
    # ||c / s|| <= radius, in units of max|c| / s_max (Python floats, so
    # an overflow is a silent inf).
    a = radius * (float(s[0]) / cmax)
    if math.hypot(*(c_hat / t)) <= a:
        return (c / s) @ V
    # In the same units w(lam) = V q / a with q = t c_hat / (a t^2 + z) and
    # z = a lam / s_max^2, so ||w|| = radius becomes ||q|| = 1.  The search
    # starts at z = ||t c_hat||, where ||q|| <= 1 and no entry can overflow;
    # by concavity the first Newton step lands left of the root and the
    # rest climb to it.  Norms use math.hypot, which cannot underflow.
    at2, tc = a * t * t, t * c_hat
    lo = 0.0
    z = hi = math.hypot(*tc)
    q = tc / (at2 + z)
    for _ in range(_SECULAR_MAX_ITER):
        norm = math.hypot(*q)
        if abs(norm - 1.0) <= _SECULAR_RTOL:
            break
        if norm > 1.0:
            lo = z
        else:
            hi = z
        dphi = (math.hypot(*(q / np.sqrt(at2 + z))) / norm) ** 2 / norm
        step = z - (1.0 / norm - 1.0) / dphi
        z = step if lo < step < hi else 0.5 * (lo + hi)
        q = tc / (at2 + z)
    w = q @ V
    return w * (radius / math.hypot(*w))


def constrained_least_squares(
    X: np.ndarray,
    u: np.ndarray,
    p: float,
    radius: float,
    max_iter: int = LS_MAX_ITER,
    rtol: float = LS_RTOL,
) -> np.ndarray:
    """argmin_{||w||_p <= radius} ||X w - u||_2^2.

    p = 2 is solved exactly by one thin SVD and the trust-region secular
    equation; max_iter and rtol do not apply.  p in [1, 2) uses projected
    gradient: it starts at 0 (always feasible), steps with 1 over the
    gradient's Lipschitz constant 2*sigma_max(X)^2, and stops early once
    the objective improvement falls below rtol relative tolerance.
    """
    X = np.asarray(X, dtype=float)
    u = np.asarray(u, dtype=float)
    k, d = X.shape
    if u.shape != (k,):
        raise ValueError("u must have one entry per row of X")
    w = np.zeros(d)
    if not X.any():
        return w
    if p == 2.0:
        return _least_squares_l2(X, u, radius)
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
    for _ in range(max_iter):
        w_new = project(w - step_T @ resid, p, radius)
        resid_new = X @ w_new - u
        obj_new = float(resid_new @ resid_new)
        if obj_new > obj:
            break
        improved = obj - obj_new
        w, resid, obj = w_new, resid_new, obj_new
        if improved <= rtol * max(obj, 1e-12):
            break
    return w


def monotone_descent(x0, risk_fn, grad_fn, project_fn, step_budget: int):
    """Projected subgradient descent that never accepts a worse point.

    Backtracking on rejection (step halved), mild growth on acceptance.
    The gradient is recomputed only after an accepted step; rejections
    leave the iterate (and hence its gradient) unchanged.  Stops when the
    step floor is reached, 25 rejections happen in a row, an accepted
    step improves the risk by less than a 1e-8 relative tolerance, the
    gradient vanishes, or the budget of attempted steps is spent.
    Returns (x, risk(x)) with risk(x) <= risk(x0).
    """
    x = np.asarray(x0, dtype=float).copy()
    risk = float(risk_fn(x))
    if step_budget <= 0:
        return x, risk
    eta = 1.0
    g = None
    rejects = 0
    for _ in range(step_budget):
        if g is None:
            g = np.asarray(grad_fn(x), dtype=float)
            # numpy's own sum, as lockstep_descent takes it row by row, so
            # the two agree bit for bit (BLAS dot rounds differently).
            gnorm = math.sqrt(float(np.sum(g * g)))
            if gnorm == 0.0:
                break
        x_new = project_fn(x - (eta / max(gnorm, 1.0)) * g)
        risk_new = float(risk_fn(x_new))
        if risk_new < risk:
            gain = risk - risk_new
            x, risk = x_new, risk_new
            g = None
            rejects = 0
            eta = min(eta * 1.25, 1e3)
            if gain <= _GAIN_RTOL * max(abs(risk), 1e-3):
                break
        else:
            eta *= 0.5
            rejects += 1
            if eta < _STEP_FLOOR or rejects >= _STALL_REJECTS:
                break
    return x, risk


def lockstep_descent(X0, risk_rows, grad_rows, project_rows, step_budget: int):
    """monotone_descent run on every row of X0 at once.

    Each row keeps its own step size, reject counter, gradient and stop
    rule, exactly as monotone_descent would for that row alone; rows that
    have stopped leave the working set.  The row functions map a (c, d)
    matrix to c risks, c gradients and c projected rows, each row
    computed on its own.  Returns (X, risks) with risks[i] <= risk(X0[i]).
    """
    X = np.array(X0, dtype=float, ndmin=2)
    risk = np.asarray(risk_rows(X), dtype=float)
    live = np.arange(X.shape[0])
    eta = np.ones(live.size)
    rejects = np.zeros(live.size, dtype=int)
    g = np.zeros_like(X)
    gnorm = np.zeros(live.size)
    stale = np.ones(live.size, dtype=bool)
    for _ in range(step_budget):
        x, r = X[live], risk[live]
        if stale.any():
            g[stale] = grad_rows(x[stale])
            gnorm[stale] = np.sqrt(np.sum(g[stale] * g[stale], axis=1))
            moving = ~stale | (gnorm != 0.0)
            if not moving.all():
                live, x, r, eta, rejects, g, gnorm = (
                    arr[moving] for arr in (live, x, r, eta, rejects, g, gnorm)
                )
                if live.size == 0:
                    break
        x_new = project_rows(x - (eta / np.maximum(gnorm, 1.0))[:, None] * g)
        r_new = np.asarray(risk_rows(x_new), dtype=float)
        accept = r_new < r
        X[live[accept]] = x_new[accept]
        risk[live[accept]] = r_new[accept]
        stale = accept
        rejects = np.where(accept, 0, rejects + 1)
        eta = np.where(accept, np.minimum(eta * 1.25, 1e3), eta * 0.5)
        done = np.where(
            accept,
            r - r_new <= _GAIN_RTOL * np.maximum(np.abs(r_new), 1e-3),
            (eta < _STEP_FLOOR) | (rejects >= _STALL_REJECTS),
        )
        if done.any():
            live, eta, rejects, g, gnorm, stale = (
                arr[~done] for arr in (live, eta, rejects, g, gnorm, stale)
            )
            if live.size == 0:
                break
    return X, risk


def linear_kernels(data, loss, p: float, radius: float):
    """Row functions (risk, gradient, projection) for linear predictors.

    Row i of W is a weight vector.  Risk and gradient are sums over the
    sample taken along each row with numpy's own summation, never through
    BLAS, so a row's values do not depend on which rows share the call.
    """
    ZnegT = np.ascontiguousarray((-data.labels[:, None] * data.features).T)
    a = data.weights

    def margins(W):
        # -y_i <w, x_i> for every row w of W, accumulated coordinate by coordinate.
        M = W[:, :1] * ZnegT[0]
        for j in range(1, ZnegT.shape[0]):
            M += W[:, j:j + 1] * ZnegT[j]
        return M

    def risk_rows(W):
        return np.sum(a * loss.value(margins(W)), axis=1)

    def grad_rows(W):
        S = a * loss.grad(margins(W))
        return np.stack([np.sum(S * z, axis=1) for z in ZnegT], axis=1)

    def project_rows(W):
        return project(W, p, radius)

    return risk_rows, grad_rows, project_rows


def refine(model, data, loss, step_budget: int, spec=None):
    """Local search from a feasible model; output stays feasible and its
    risk never exceeds the input's.  step_budget = 0 returns the input.

    Linear models refine over their own l_p ball; networks need their
    class spec and refine all weights jointly with per-level projections.
    """
    from .halfspace import LinearModel

    if isinstance(model, LinearModel):
        kernels = linear_kernels(data, loss, model.p_exponent, model.radius)
        W, _ = lockstep_descent(model.w, *kernels, step_budget)
        return LinearModel(W[0], model.p_exponent, model.radius)
    from .networks import refine_network

    if spec is None:
        raise ValueError("network refinement requires the class spec")
    return refine_network(model, spec, data, loss, step_budget)
