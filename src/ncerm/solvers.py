"""Norm-ball projections, constrained least squares, and local refinement."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

LS_MAX_ITER = 500
LS_RTOL = 1e-8
_STEP_FLOOR = 1e-13
_STALL_REJECTS = 25
_GAIN_RTOL = 1e-8
_FEAS_TOL = 1e-9
_NEWTON_MAX_ITER = 100
_NEWTON_RTOL = 4.0 * np.finfo(float).eps


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


def _lp_magnitudes(a: np.ndarray, lp: np.ndarray, q: float):
    """Solve w + lp*w^q = a elementwise for w in [0, a], given lp > 0.

    Newton runs on s = w^q, where s^(1/q) + lp*s = a is convex and
    increasing.  It starts at min(a/lp, a^q), which is never left of the
    root, so the iterates fall monotonically to it and never reach w = 0,
    where the derivative in w is infinite.  Each entry stops on its own
    once a step no longer lowers it.  w = s^(1/q) carries the rounding
    error of s times 1/q, so one Newton step on the equation in w itself
    follows, which restores the precision lost as p nears 1.  Returns
    (w, w^q).
    """
    k = 1.0 / q
    s = np.minimum(a / lp, a**q)
    for _ in range(_NEWTON_MAX_ITER):
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


def _project_lp_rows(A: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Projections of the rows of A >= 0, all outside the l_p ball.

    Row i has its own dual scalar lam > 0 with sum_j w_j(lam)^p =
    radius^p, where w_j(lam) solves w + lam*p*w^(p-1) = A_ij.  Safeguarded
    Newton steps run on phi(lam) = ||w(lam)||_p^-(p-1), which is linear
    in lam once every w_j is small, inside a bracket that starts at
    [0, hi] with hi from w_j <= (A_ij / (lam*p))^(1/(p-1)); a step that
    leaves the bracket bisects it instead.  Rows leave the working set as
    they converge, so each row's result is the one it gets alone.  The
    constraint is active at the projection of an outside point, so each
    row is finally scaled onto the sphere; this also makes it feasible.
    """
    q = p - 1.0
    rp = radius**p
    top = A.max(axis=1)
    hi = top * np.sum((A / top[:, None]) ** (p / q), axis=1) ** (q / p) / (p * radius**q)
    lam, lo = hi, np.zeros_like(hi)
    out = np.empty_like(A)
    live, a = np.arange(A.shape[0]), A
    for _ in range(_NEWTON_MAX_ITER):
        w, s = _lp_magnitudes(a, (lam * p)[:, None], q)
        out[live] = w
        G = np.sum(w * s, axis=1)
        # dG/dlam = -p^2 sum_j w^p / (w^(2-p) + lam*p*q); with top and
        # bottom multiplied by s = w^(p-1) it needs no power, and w = 0 adds 0.
        den = w + (lam * (p * q))[:, None] * s
        terms = np.divide(w * s * s, den, out=np.zeros_like(w), where=den > 0)
        dG = -p * p * np.sum(terms, axis=1)
        over = G > rp
        lo = np.where(over, lam, lo)
        hi = np.where(over, hi, lam)
        # Newton step on phi, with phi(root) / phi(lam) - 1 taken by expm1.
        step = -p * G * np.expm1((q / p) * np.log(G / rp)) / (q * dG)
        done = (np.abs(step) <= _NEWTON_RTOL * lam) | (hi - lo <= _NEWTON_RTOL * lam)
        lam = lam + step
        lam = np.where((lo < lam) & (lam < hi), lam, 0.5 * (lo + hi))
        if done.any():
            live, a, lam, lo, hi = (x[~done] for x in (live, a, lam, lo, hi))
            if live.size == 0:
                break
    norm = np.sum(out**p, axis=1) ** (1.0 / p)
    return out * (radius / norm)[:, None]


def project_lp(v: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Euclidean projection onto the l_p ball, p in (1, 2].

    p = 2 rescales.  For p in (1, 2) the KKT system
    w_i + lam*p*w_i^(p-1) = |v_i| is solved by Newton on the dual scalar
    lam, with an inner Newton solve per coordinate (the root-finding route
    of Liu & Ye 2010).  A stack is projected along its last axis in one
    solve, each row exactly as it would be alone.
    """
    if not (1.0 < p <= 2.0):
        raise ValueError("p must be in (1, 2]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    if p == 2.0:
        return _scale_into_l2(v, radius)
    a = np.abs(np.atleast_2d(v))
    outside = np.sum(a**p, axis=-1) ** (1.0 / p) > radius
    if not outside.any():
        return v.copy()
    a[outside] = _project_lp_rows(a[outside], p, radius)
    return np.sign(v) * a.reshape(v.shape)


def _scale_into_l2(v: np.ndarray, radius: float) -> np.ndarray:
    # Rows inside the ball are scaled by radius / radius = 1 exactly.
    return v * (radius / np.maximum(_rownorm(v), radius))[..., None]


def projector(p: float, radius: float):
    """The projection onto the l_p ball, p in [1, 2], of a float vector or
    of each row along the last axis of a float stack, with p and radius
    checked once, here."""
    if not (1.0 <= p <= 2.0):
        raise ValueError("p must be in [1, 2]")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if p == 2.0:
        return functools.partial(_scale_into_l2, radius=radius)
    if p == 1.0:
        return functools.partial(project_l1, radius=radius)
    return functools.partial(project_lp, p=p, radius=radius)


def project(v: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Projection onto the l_p ball for p in [1, 2], row by row for a matrix."""
    return projector(p, radius)(np.asarray(v, dtype=float))


def _rownorm(A: np.ndarray) -> np.ndarray:
    return np.sqrt((A * A).sum(axis=-1))


def _secular_fits(X: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Exact argmin_{||w||_2 <= radius} ||X_i w - u_i||_2^2 for every fit i
    of a stack X (c, k, d), u (c, k) (Moré & Sorensen 1983).

    With the thin SVD X_i = U diag(s) V^T and c = U^T u_i, the minimum-norm
    least-squares solution has coordinates c/s in the basis V.  If it lies
    in the ball it is the answer.  Otherwise the solution is
    w(lam) = (X^T X + lam I)^{-1} X^T u for the lam > 0 with
    ||w(lam)|| = radius, found by safeguarded Newton steps on the secular
    equation 1/||w(lam)|| - 1/radius = 0, which is concave and increasing
    in lam.  Directions with zero singular value never enter w.  Every
    step is elementwise or a reduction within one fit, and fits leave the
    Newton working set as they converge, so fit i of a stack equals the
    fit of X[i] alone, bit for bit.
    """
    n, k, d = X.shape
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    # Dropped directions get c = 0, so dividing them by 1 below keeps them 0.
    keep = s > max(k, d) * np.finfo(float).eps * s[:, :1]
    c = np.where(keep, np.einsum("nkr,nk->nr", U, u), 0.0)
    cmax = np.max(np.abs(c), axis=1)
    W = np.zeros((n, d))
    # An all-zero X, or u orthogonal to its range, has w = 0; the rest have
    # a kept direction, so s_max > 0.
    fit = np.flatnonzero(cmax > 0.0)
    s, c, cmax, keep, Vt = s[fit], c[fit], cmax[fit], keep[fit], Vt[fit]
    s0 = s[:, 0]
    t = s / s0[:, None]
    c_hat = c / cmax[:, None]
    # ||c / s|| <= radius, in units of max|c| / s_max and multiplied out, so
    # that neither side can overflow.
    inside = _rownorm(c_hat / np.where(keep, t, 1.0)) * cmax <= radius * s0
    i = np.flatnonzero(inside)
    W[fit[i]] = np.einsum("nr,nrd->nd", c[i] / np.where(keep[i], s[i], 1.0), Vt[i])
    b = np.flatnonzero(~inside)
    if b.size == 0:
        return W
    # In the same units w(lam) = V q / a with a = radius s_max / max|c|,
    # q = t c_hat / (a t^2 + z) and z = a lam / s_max^2, so ||w|| = radius
    # becomes ||q|| = 1.  Outside the ball a < ||c_hat / t|| is finite.  The
    # search starts at z = ||t c_hat||, where ||q|| <= 1 and no entry can
    # overflow; by concavity the first Newton step lands left of the root
    # and the rest climb to it.
    a = radius * s0[b] / cmax[b]
    at2, tc = a[:, None] * t[b] * t[b], t[b] * c_hat[b]
    z = hi = _rownorm(tc)
    lo = np.zeros_like(z)
    Q = tc / (at2 + z[:, None])
    live, q = np.arange(b.size), Q
    for _ in range(_NEWTON_MAX_ITER):
        norm = _rownorm(q)
        moving = np.abs(norm - 1.0) > _NEWTON_RTOL
        if not moving.all():
            live, q, norm, z, lo, hi, at2, tc = (
                x[moving] for x in (live, q, norm, z, lo, hi, at2, tc))
            if live.size == 0:
                break
        over = norm > 1.0
        lo = np.where(over, z, lo)
        hi = np.where(over, hi, z)
        dphi = (_rownorm(q / np.sqrt(at2 + z[:, None])) / norm) ** 2 / norm
        step = z - (1.0 / norm - 1.0) / dphi
        z = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        q = tc / (at2 + z[:, None])
        Q[live] = q
    w = np.einsum("nr,nrd->nd", Q, Vt[b])
    W[fit[b]] = w * (radius / _rownorm(w))[:, None]
    return W


def _projected_gradient_fit(X, u, p, radius) -> np.ndarray:
    """One l_p-ball fit, p in [1, 2), by projected gradient from w = 0."""
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
        if improved <= LS_RTOL * max(obj, 1e-12):
            break
    return w


def constrained_least_squares(X: np.ndarray, u: np.ndarray, p: float, radius: float) -> np.ndarray:
    """argmin_{||w||_p <= radius} ||X w - u||_2^2.

    X (k, d) and u (k,) give one fit (d,); a stack X (c, k, d) and
    u (c, k) gives c fits (c, d), fit i the one of X[i] alone.  p = 2 is
    solved exactly for the whole stack by one batched thin SVD and the
    trust-region secular equation.  p in [1, 2) fits one at a time by
    projected gradient: it starts at 0 (always feasible), steps with 1
    over the gradient's Lipschitz constant 2*sigma_max(X)^2, and stops
    after LS_MAX_ITER steps or once the objective improvement falls
    below LS_RTOL relative tolerance.
    """
    X = np.asarray(X, dtype=float)
    u = np.asarray(u, dtype=float)
    Xs, us = (X, u) if X.ndim == 3 else (X[None], u[None])
    if Xs.ndim != 3 or us.shape != Xs.shape[:2]:
        raise ValueError("u must have one entry per row of X")
    if p == 2.0:
        W = _secular_fits(Xs, us, radius)
    else:
        W = np.zeros((len(Xs), Xs.shape[2]))
        for i, (x, v) in enumerate(zip(Xs, us)):
            W[i] = _projected_gradient_fit(x, v, p, radius)
    return W if X.ndim == 3 else W[0]


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
    rule, exactly as monotone_descent would for that row alone.
    risk_rows(W) maps a (c, d) matrix to (risks, state): c risks and a
    state with one row per row of W, holding what the gradient at that
    row needs.  grad_rows(W, state) gives the c gradients and
    project_rows(W) the c projected rows.  Each row is computed on its
    own.  The live rows are compact working copies, written back to X as
    they stop.  A row's gradient is taken as soon as a step is accepted,
    from the state of the risk call that evaluated the new point, so an
    accepted point is evaluated once; when every live row accepts, the
    trial arrays are adopted whole.  A negative step_budget is a
    ValueError.  Returns (X, risks) with risks[i] <= risk(X0[i]).
    """
    if step_budget < 0:
        raise ValueError(f"refinement step budget must be >= 0, not {step_budget}")
    X = np.array(X0, dtype=float, ndmin=2)
    risk, state = risk_rows(X)
    risk = np.asarray(risk, dtype=float)
    if step_budget == 0:
        return X, risk
    rows, x, r = np.arange(len(X)), X.copy(), risk.copy()
    eta, rejects = np.ones(len(X)), np.zeros(len(X), dtype=int)
    g = grad_rows(x, state)
    gnorm = np.sqrt((g * g).sum(axis=1))
    done = gnorm == 0.0
    for step in range(step_budget):
        if done.any():
            X[rows[done]], risk[rows[done]] = x[done], r[done]
            keep = ~done
            rows, x, r, state, eta, rejects, g, gnorm = (
                a[keep] for a in (rows, x, r, state, eta, rejects, g, gnorm))
            if rows.size == 0:
                return X, risk
        x_new = project_rows(x - (eta / np.maximum(gnorm, 1.0))[:, None] * g)
        r_new, s_new = risk_rows(x_new)
        accept = r_new < r
        done = r - r_new <= _GAIN_RTOL * np.maximum(np.abs(r_new), 1e-3)
        if accept.all():
            x, r, state = x_new, r_new, s_new
            rejects[:] = 0
            eta = np.minimum(eta * 1.25, 1e3)
            moved = slice(None)
        else:
            x[accept], r[accept], state[accept] = x_new[accept], r_new[accept], s_new[accept]
            rejects = np.where(accept, 0, rejects + 1)
            eta = np.where(accept, np.minimum(eta * 1.25, 1e3), eta * 0.5)
            done = np.where(accept, done, (eta < _STEP_FLOOR) | (rejects >= _STALL_REJECTS))
            moved = accept & ~done
            if not moved.any():
                continue
        # Rows that moved take their gradient now, unless the budget is spent.
        if step + 1 < step_budget:
            g[moved] = grad_rows(x[moved], state[moved])
            gnorm = np.sqrt((g * g).sum(axis=1))
            done |= gnorm == 0.0
    X[rows], risk[rows] = x, r
    return X, risk


def linear_kernels(data, loss, p: float, radius: float):
    """Row functions (risk, gradient, projection) for linear predictors.

    Row i of W is a weight vector, and its state is its margins
    -y_j <w, x_j>, one per sample point.  Every contraction is one einsum
    on numpy's own loops, never BLAS, so a row's values do not depend on
    which rows share the call.  The projection is bound, and p and radius
    checked, when the kernels are built.
    """
    project_rows = projector(p, radius)
    ZnegT = np.ascontiguousarray((-data.labels[:, None] * data.features).T)
    a = data.weights

    def risk_rows(W):
        M = np.einsum("cd,dn->cn", W, ZnegT, optimize=False)
        return np.einsum("cn,n->c", loss.value(M), a, optimize=False), M

    def grad_rows(W, M):
        return np.einsum("cn,dn->cd", a * loss.grad(M), ZnegT, optimize=False)

    return risk_rows, grad_rows, project_rows


def refine(model, data, loss, step_budget: int):
    """Local search from a feasible linear model over its own l_p ball;
    the output stays feasible and its risk never exceeds the input's.
    step_budget = 0 returns the input.  Networks refine with
    networks.refine_network.
    """
    kernels = linear_kernels(data, loss, model.p_exponent, model.radius)
    W, _ = lockstep_descent(model.w, *kernels, step_budget)
    return dataclasses.replace(model, w=W[0])
