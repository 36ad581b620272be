"""Norm-ball projections, constrained least squares, and local refinement."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

LS_MAX_ITER = 500
_STEP_FLOOR = 1e-13
_STALL_REJECTS = 25
_GAIN_RTOL = 1e-8
_NEWTON_MAX_ITER = 100
_NEWTON_RTOL = 4.0 * np.finfo(float).eps
_KKT_TOL = 1e-8
_BRACKET_MARGIN = 1e-12
_G_FLOOR = 1e-14
_TINY = np.finfo(float).tiny


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


def _lp_sphere_rows(alpha, c, norm, p: float, radius: float) -> np.ndarray:
    """Project rows alpha >= 0 (max 1, l_p norm `norm` > c) onto the ball of
    radius c (m, 1).  With w = c*omega, s = omega^(p-1), Newton runs on the
    KKT system F = c*omega + rho*s - alpha = 0, G ln G = 0 (G = sum omega^p)
    jointly in rho and u = ln(omega), whose rounding is |u|*eps for every p.
    The Jacobian is D = c*omega + (p-1)*rho*s plus one row and column (Schur
    complement).  rho starts at hi*(1 - c/norm), hi = ||alpha||_(p/(p-1))
    its bound, and omega at 1/(c/alpha + (rho/alpha)^(1/(p-1))), a bound of
    its root.  F is convex in u and concave in omega, so G at the roots for
    this rho lies in [sum omega^p (1 - pF/D), sum omega^p exp(-pF/D)]: a step
    leaving (lo, hi) tightens the bracket with them and bisects it.  A rho
    step worth a rounding-level change of G is dropped.  A row stops after
    the step from an iterate with |F| <= _KKT_TOL*alpha, |G ln G| and the
    relative rho step <= _KKT_TOL, and leaves the working set, so it comes
    out as it would alone: w = radius*omega/||omega||_p, on the sphere.
    """
    q, k = p - 1.0, 1.0 / (p - 1.0)

    def bound(rho, cap, ln_inv, ln_a):
        return np.minimum(cap, -np.logaddexp(ln_inv, k * (np.log(rho)[:, None] - ln_a)))

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ln_a = np.log(alpha)
        ln_inv = np.where(alpha > 0.0, np.log(c) - ln_a, np.inf)
        a, cr, tol, cap = alpha, alpha * 0.0 + c, _KKT_TOL * alpha + _TINY, np.minimum(-ln_inv, 0.0)
        hi = (a ** (p / q)).sum(axis=1) ** (q / p) * (1.0 + _BRACKET_MARGIN)
        lo, rho = np.zeros_like(hi), hi * np.maximum(1.0 - c[:, 0] / norm, _TINY)
        U, live, u = np.empty_like(a), np.arange(len(a)), bound(rho, cap, ln_inv, ln_a)
        for _ in range(_NEWTON_MAX_ITER):
            w, s = np.exp(u), np.exp(q * u)
            cw, rs = cr * w, rho[:, None] * s
            F, D = cw + rs - a, cw + q * rs + _TINY
            ws, f, g = w * s, F / D, s / D
            G, wf = ws.sum(axis=1), (ws * f).sum(axis=1)
            E = G * np.log(G)
            N = E / p - wf
            step = N * (abs(N) > _G_FLOOR) / (ws * g).sum(axis=1)
            new = rho + step
            out = ~((lo < new) & (new < hi))
            done = (abs(E) <= _KKT_TOL) & (abs(step) <= _KKT_TOL * rho) & ~out
            if done.any():
                done &= (abs(F) <= tol).all(axis=1)
            top = cap
            if out.any():
                lo = np.where(out & (G - p * wf > 1.0 + _BRACKET_MARGIN), rho, lo)
                up = np.exp(p * (u - f)).sum(axis=1) < 1.0 - _BRACKET_MARGIN
                hi = np.where(out & up, rho, hi)
                new = np.where(out, 0.5 * (lo + hi), new)
                top = np.where(out[:, None], bound(new, cap, ln_inv, ln_a), cap)
            u, rho = np.minimum(u - (f + g * (new - rho)[:, None]), top), new
            if done.any():
                U[live[done]] = u[done]
                if done.all():
                    break
                keep = ~done
                live, u, rho, lo, hi, a, cr, tol, cap, ln_inv, ln_a = (
                    x[keep] for x in (live, u, rho, lo, hi, a, cr, tol, cap, ln_inv, ln_a))
        else:
            U[live] = u
    # Formed in logs, so no entry underflows before w itself does.
    return np.exp(U + (math.log(radius) - np.log(np.exp(p * U).sum(axis=1)) / p)[:, None])


def project_lp(v: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Euclidean projection onto the l_p ball, p in (1, 2].

    p = 2 rescales.  For p in (1, 2) a row is tested and solved in units of
    its largest magnitude t, as proj_{rB}(v) = t proj_{(r/t)B}(v/t), so no
    magnitude of v or radius overflows or underflows.  A row outside the
    ball is solved by one safeguarded Newton iteration on its whole KKT
    system w_i + lam*p*w_i^(p-1) = |v_i|, ||w||_p = radius (_lp_sphere_rows).
    A stack is projected along its last axis, each row as it would be alone.
    """
    if not (1.0 < p <= 2.0):
        raise ValueError("p must be in (1, 2]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    if p == 2.0:
        return _scale_into_l2(v, radius)
    a = np.abs(np.atleast_2d(v))
    top = a.max(axis=-1, keepdims=True)
    # An all-zero row gives nan > inf and a subnormal top r/top = inf: inside.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha, c = a / top, radius / top
        norm = (alpha**p).sum(axis=-1) ** (1.0 / p)
        outside = norm > c[..., 0]
    if not outside.any():
        return v.copy()
    a[outside] = _lp_sphere_rows(alpha[outside], c[outside], norm[outside], p, radius)
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


def _least_squares_kernels(X: np.ndarray, u: np.ndarray, p: float, radius: float):
    """Row functions for the l_p-ball fits of a stack X (c, k, d), u (c, k),
    row i of the iterate being fit i, each in units of its target: v in the
    unit ball fits u / ||u|| with radius * X / ||u||, so that the refiner's
    step and gain rules are scale-free, and w = radius * v.  A row's state
    is its residual R; its gradient 2 X^T R is given in units of its
    Lipschitz bound 2 ||X||_F^2, so the first step is a safe
    projected-gradient step.  Every contraction is an einsum on numpy's own
    loops, so a fit does not depend on which fits share the call.
    """
    # hypot takes ||u_i|| without underflow.  Floored at eps * radius *
    # max|X_i|, it keeps every scaled entry of X_i below 1/eps.  A zero u
    # has zero gradient at v = 0, so its fit is w = 0.
    norm = np.maximum(np.hypot.reduce(u, axis=1, keepdims=True),
                      np.finfo(float).eps * radius * np.abs(X).max(axis=(1, 2))[:, None])
    norm[norm == 0.0] = 1.0
    X, u = radius * (X / norm[..., None]), u / norm
    # Floored at eps, below which no v in the ball moves the objective by
    # 3e-8 ||u||^2, so that the gradient cannot overflow.
    lip = np.maximum(np.einsum("ckd,ckd->c", X, X, optimize=False), np.finfo(float).eps)

    def risk_rows(V, rows):
        R = np.einsum("ckd,cd->ck", X[rows], V, optimize=False) - u[rows]
        return np.einsum("ck,ck->c", R, R, optimize=False), R

    def grad_rows(V, R, rows):
        return np.einsum("ckd,ck->cd", X[rows], R, optimize=False) / lip[rows, None]

    return risk_rows, grad_rows, projector(p, 1.0)


def constrained_least_squares(X: np.ndarray, u: np.ndarray, p: float, radius: float) -> np.ndarray:
    """argmin_{||w||_p <= radius} ||X w - u||_2^2.

    X (k, d) and u (k,) give one fit (d,); a stack X (c, k, d) and
    u (c, k) gives c fits (c, d), fit i the one of X[i] alone.  p = 2 is
    solved exactly for the whole stack by one batched thin SVD and the
    trust-region secular equation.  p in [1, 2) runs lockstep_descent on
    the whole stack from w = 0, twice, for up to LS_MAX_ITER steps in all.
    """
    X = np.asarray(X, dtype=float)
    u = np.asarray(u, dtype=float)
    Xs, us = (X, u) if X.ndim == 3 else (X[None], u[None])
    if Xs.ndim != 3 or us.shape != Xs.shape[:2]:
        raise ValueError("u must have one entry per row of X")
    if p == 2.0:
        W = _secular_fits(Xs, us, radius)
    else:
        kernels = _least_squares_kernels(Xs, us, p, radius)
        # A fit stops at its first accepted step that gains little, which a
        # step grown past its stable length can take early on an
        # ill-conditioned fit; the second run starts again at the safe step.
        V, _ = lockstep_descent(np.zeros((len(Xs), Xs.shape[2])), *kernels, LS_MAX_ITER // 2)
        W = radius * lockstep_descent(V, *kernels, LS_MAX_ITER // 2)[0]
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
    risk_rows(W, rows) maps a (c, d) matrix, whose rows are the rows
    `rows` of X0, to (risks, state): c risks and a state with one row per
    row of W, holding what the gradient at that row needs.
    grad_rows(W, state, rows) gives the c gradients and project_rows(W)
    the c projected rows.  Each row is computed on its own.  The live rows
    are compact working copies, written back to X as they stop.  A row's
    gradient is taken as soon as a step is accepted, from the state of the
    risk call that evaluated the new point, so an accepted point is
    evaluated once; when every live row accepts, the trial arrays are
    adopted whole.  A negative step_budget is a ValueError.  Returns
    (X, risks) with risks[i] <= risk(X0[i]).
    """
    if step_budget < 0:
        raise ValueError(f"refinement step budget must be >= 0, not {step_budget}")
    X = np.array(X0, dtype=float, ndmin=2)
    rows = np.arange(len(X))
    risk, state = risk_rows(X, rows)
    risk = np.asarray(risk, dtype=float)
    if step_budget == 0:
        return X, risk
    x, r = X.copy(), risk.copy()
    eta, rejects = np.ones(len(X)), np.zeros(len(X), dtype=int)
    g = grad_rows(x, state, rows)
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
        r_new, s_new = risk_rows(x_new, rows)
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
            g[moved] = grad_rows(x[moved], state[moved], rows[moved])
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

    def risk_rows(W, rows):
        M = np.einsum("cd,dn->cn", W, ZnegT, optimize=False)
        return np.einsum("cn,n->c", loss.value(M), a, optimize=False), M

    def grad_rows(W, M, rows):
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
