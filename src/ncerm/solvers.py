"""Norm-ball projections, constrained least squares, and local refinement."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from .util import lq_scaled

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
    """Project rows alpha >= 0 (max 1, l_p norm `norm`) outside the ball of
    radius c (m, 1) onto it.  With w = c*omega, s = omega^(p-1), Newton runs
    on the KKT system F = c*omega + rho*s - alpha = 0, G ln G = 0 (G = sum
    omega^p) jointly in rho and u = ln(omega), whose rounding is |u|*eps for
    every p.  The Jacobian is D = c*omega + (p-1)*rho*s plus one row and
    column (Schur complement).  rho starts at hi*(1 - c/norm), hi = ||alpha||_(p/(p-1))
    its bound, and omega at 1/(c/alpha + (rho/alpha)^(1/(p-1))), a bound of
    its root from above, which one Newton step in u alone at that rho brings
    nearer (F is convex and increasing in u, so the step stays above the
    root).  F is convex in u and concave in omega, so G at the roots for
    this rho lies in [sum omega^p (1 - pF/D), sum omega^p exp(-pF/D)]: a step
    leaving (lo, hi) tightens the bracket with them and bisects it, or, if
    neither bound decides, holds rho for a step in u alone.  A rho
    step worth a rounding-level change of G is dropped.  A row stops after
    the step from an iterate with |F| <= _KKT_TOL*alpha, |G ln G| and the
    relative rho step <= _KKT_TOL, and leaves the working set, so it comes
    out as it would alone: w = radius*omega/||omega||_p, on the sphere.  A
    row still live after _NEWTON_MAX_ITER steps is finished by
    _bisect_sphere_rows in its bracket.
    """
    q, k = p - 1.0, 1.0 / (p - 1.0)

    def bound(rho, cap, ln_inv, ln_a):
        return np.minimum(cap, -np.logaddexp(ln_inv, k * (np.log(rho)[:, None] - ln_a)))

    def residual(u, rho, c, a):
        w, s = np.exp(u), np.exp(q * u)
        cw, rs = c * w, rho[:, None] * s
        return w, s, cw + rs - a, cw + q * rs + _TINY

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ln_a = np.log(alpha)
        ln_inv = np.where(alpha > 0.0, np.log(c) - ln_a, np.inf)
        a, cap = alpha, np.minimum(-ln_inv, 0.0)
        hi = (a ** (p / q)).sum(axis=1) ** (q / p) * (1.0 + _BRACKET_MARGIN)
        lo, rho = np.zeros_like(hi), hi * np.maximum(1.0 - c[:, 0] / norm, _TINY)
        U, live, u = np.empty_like(a), np.arange(len(a)), bound(rho, cap, ln_inv, ln_a)
        _, _, F, D = residual(u, rho, c, a)
        u = np.minimum(u - F / D, cap)
        for _ in range(_NEWTON_MAX_ITER):
            w, s, F, D = residual(u, rho, c, a)
            ws, f, g = w * s, F / D, s / D
            G, wf = ws.sum(axis=1), (ws * f).sum(axis=1)
            E = G * np.log(G)
            N = E / p - wf
            step = N * (abs(N) > _G_FLOOR) / (ws * g).sum(axis=1)
            new = rho + step
            out = ~((lo < new) & (new < hi))
            done = abs(E) <= _KKT_TOL
            finished = done.any()
            if finished:
                done &= (abs(step) <= _KKT_TOL * rho) & ~out
                done &= (abs(F) <= _KKT_TOL * a + _TINY).all(axis=1)
                finished = done.any()
            top = cap
            if out.any():
                above = out & (G - p * wf > 1.0 + _BRACKET_MARGIN)
                below = out & (np.exp(p * (u - f)).sum(axis=1) < 1.0 - _BRACKET_MARGIN)
                lo, hi = np.where(above, rho, lo), np.where(below, rho, hi)
                new = np.where(out, np.where(above | below, 0.5 * (lo + hi), rho), new)
                top = np.where(out[:, None], bound(new, cap, ln_inv, ln_a), cap)
            u, rho = np.minimum(u - (f + g * (new - rho)[:, None]), top), new
            if finished:
                U[live[done]] = u[done]
                if done.all():
                    break
                keep = ~done
                live, u, rho, lo, hi, a, c, cap, ln_inv, ln_a = (
                    x[keep] for x in (live, u, rho, lo, hi, a, c, cap, ln_inv, ln_a))
        else:
            U[live] = _bisect_sphere_rows(bound, a, c, lo, hi, cap, ln_inv, ln_a, p)
    # Formed in logs, so no entry underflows before w itself does.
    return np.exp(U + (math.log(radius) - np.log(np.exp(p * U).sum(axis=1)) / p)[:, None])


def _bisect_sphere_rows(bound, a, c, lo, hi, cap, ln_inv, ln_a, p):
    """u = ln(omega) of rows that _lp_sphere_rows' joint iteration left
    unconverged, by bisection on rho in their bracket (lo, hi) until no
    float lies inside it.  At each rho every coordinate is solved alone,
    F = c*omega + rho*s - alpha = 0, by Newton in u from the bound of its
    root: F is convex and increasing in u, so the steps fall to the root
    and stop when rounding stops them falling.  G = sum omega^p decreases
    in rho, so G > 1 puts the root above rho.
    """
    q, rho = p - 1.0, 0.5 * (lo + hi)
    while True:
        rs, u = rho[:, None], bound(rho, cap, ln_inv, ln_a)
        for _ in range(_NEWTON_MAX_ITER):
            w, s = np.exp(u), np.exp(q * u)
            new = u - (c * w + rs * s - a) / (c * w + q * rs * s + _TINY)
            falling = new < u
            if not falling.any():
                break
            u = np.where(falling, new, u)
        over = np.exp(p * u).sum(axis=1) > 1.0
        lo, hi = np.where(over, rho, lo), np.where(over, hi, rho)
        rho = 0.5 * (lo + hi)
        if not ((lo < rho) & (rho < hi)).any():
            return u


def project_lp(v: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Euclidean projection onto the l_p ball, p in (1, 2].

    p = 2 rescales.  For p in (1, 2) a row is unchanged if lq_norm(v, p) <=
    radius, else solved in units of its largest magnitude t, as proj_{rB}(v)
    = t proj_{(r/t)B}(v/t), so no magnitude of v or radius overflows or
    underflows, by one safeguarded Newton iteration on its whole KKT system
    w_i + lam*p*w_i^(p-1) = |v_i|, ||w||_p = radius (_lp_sphere_rows).
    A stack is projected along its last axis, each row as it would be alone.
    """
    if not (1.0 < p <= 2.0):
        raise ValueError("p must be in (1, 2]")
    if radius <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    if p == 2.0:
        return _scale_into_l2(v, radius)
    # C order, so each row of a stack is solved with the same sums as alone.
    a = np.abs(np.atleast_2d(v), order="C")
    top, alpha, norm = lq_scaled(a, p)
    outside = top[..., 0] * norm > radius  # lq_norm(v, p) > radius
    if not outside.any():
        return v.copy()
    a[outside] = _lp_sphere_rows(alpha[outside], radius / top[outside], norm[outside], p, radius)
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
    return np.sqrt(np.add.reduce(A * A, axis=-1))


def _secular_fits(X: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Exact argmin_{||w||_2 <= radius} ||X_i w - u_i||_2^2 for every fit i
    of a stack X (c, k, d), u (c, k) (Moré & Sorensen 1983).

    With the thin SVD X_i = U diag(s) V^T and c = U^T u_i, the minimum-norm
    least-squares solution has coordinates c/s in the basis V.  If it lies
    in the ball it is the answer.  Otherwise the solution is
    w(lam) = (X^T X + lam I)^{-1} X^T u for the lam > 0 with
    ||w(lam)|| = radius, found by safeguarded Newton steps on the secular
    equation 1/||w(lam)|| - 1/radius = 0, which is concave and increasing
    in lam.  They start at a lower bound of the root, so they climb to it
    from the left.  Directions with zero singular value never enter w.
    Every step is elementwise or a reduction within one fit, and a fit that
    has converged keeps its lam while the others move, so fit i of a stack
    equals the fit of X[i] alone, bit for bit.
    """
    n, k, d = X.shape
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    # Dropped directions get c = 0 and, below, divisors of 1, so they stay 0.
    keep = s > max(k, d) * np.finfo(float).eps * s[:, :1]
    c = np.where(keep, np.einsum("nkr,nk->nr", U, u), 0.0)
    cmax = np.maximum.reduce(np.abs(c), axis=1)
    W = np.zeros((n, d))
    # An all-zero X, or u orthogonal to its range, has w = 0; the rest have
    # a kept direction, so s_max > 0.
    fit = np.flatnonzero(cmax > 0.0)
    if len(fit) < n:
        s, c, cmax, keep, Vt = s[fit], c[fit], cmax[fit], keep[fit], Vt[fit]
    s0 = s[:, 0]
    t = np.where(keep, s / s0[:, None], 1.0)
    c_hat = c / cmax[:, None]
    # ||c / s|| <= radius, in units of max|c| / s_max and multiplied out, so
    # that neither side can overflow.
    inside = _rownorm(c_hat / t) * cmax <= radius * s0
    if np.count_nonzero(inside):
        W[fit[inside]] = np.einsum("nr,nrd->nd", c[inside] / np.where(keep[inside], s[inside], 1.0),
                                   Vt[inside])
        b = ~inside
        if not np.count_nonzero(b):
            return W
        s0, cmax, t, c_hat, Vt, fit = (x[b] for x in (s0, cmax, t, c_hat, Vt, fit))
    # In the same units w(lam) = V q / a with a = radius s_max / max|c|,
    # q = t c_hat / (a t^2 + z) and z = a lam / s_max^2, so ||w|| = radius
    # becomes ||q|| = 1.  Outside the ball a < ||c_hat / t|| is finite.  As
    # |q_i| <= ||q|| = 1 at the root, z starts at max_i (|t_i c_hat_i| -
    # a t_i^2)+, a lower bound where no |q_i| exceeds 1, so no entry can
    # overflow; by concavity every Newton step stays left of the root.
    a = radius * s0 / cmax
    at2, tc = a[:, None] * t * t, t * c_hat
    z = lo = np.maximum.reduce(np.abs(tc) - at2, axis=1, initial=0.0)
    hi = _rownorm(tc)
    for _ in range(_NEWTON_MAX_ITER):
        r = at2 + z[:, None]
        q = tc / r
        qq = q * q
        n2 = np.add.reduce(qq, axis=1)
        e = np.sqrt(n2) - 1.0  # ||q|| - 1
        moving = np.abs(e) > _NEWTON_RTOL
        live = np.count_nonzero(moving)
        if not live:
            break
        over = e > 0.0
        lo = np.where(over, z, lo)
        hi = np.where(over, hi, z)
        step = z + e * n2 / np.add.reduce(qq / r, axis=1)
        bracketed = (lo < step) & (step < hi)
        if np.count_nonzero(bracketed) < len(step):
            step = np.where(bracketed, step, 0.5 * (lo + hi))
        z = step if live == len(z) else np.where(moving, step, z)
    w = np.einsum("nr,nrd->nd", q, Vt)
    W[fit] = w * (radius / _rownorm(w))[:, None]
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
    row of W, holding what the gradient at that row needs.  The state need
    only last until the next risk_rows call, so kernels may hand out their
    own reused buffers.  grad_rows(W, state, rows) gives the c gradients
    as a fresh array, and project_rows(W) the c projected rows, also
    fresh.  Each row is computed on its own.  The live rows are compact
    working copies, written back to X as they stop.  The rows a trial
    accepts take their gradient at once, from that trial's own state, so
    an accepted point is evaluated once and no state is carried from step
    to step.  When every live row accepts, which is most steps, the trial
    point and risk arrays are adopted whole and one grad_rows call on all
    of them gives the new gradients, with no gather or scatter; each row
    keeps max(||g||, 1), the divisor of its step, and only new gradients
    are normed.  When only some rows accept, the accepted and moved rows'
    positions are found once and every update, gather and scatter of
    those rows goes by position; step sizes and reject counts are first
    updated on all rows as if rejected, then overwritten at the accepted
    positions.  A negative step_budget is a ValueError.  Returns (X,
    risks) with risks[i] <= risk(X0[i]).
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
    # Each row's max(||g||, 1), the divisor of its step.
    gnorm = np.sqrt(np.add.reduce(g * g, axis=1))
    done, gnorm = gnorm == 0.0, np.maximum(gnorm, 1.0)
    for step in range(step_budget):
        if np.count_nonzero(done):
            stop = rows[done]
            X[stop], risk[stop] = x[done], r[done]
            if len(stop) == len(rows):
                return X, risk
            keep = np.flatnonzero(~done)
            rows, x, r, eta, rejects, g, gnorm = (
                a.take(keep, axis=0) for a in (rows, x, r, eta, rejects, g, gnorm))
        x_new = project_rows(x - (eta / gnorm)[:, None] * g)
        r_new, state = risk_rows(x_new, rows)
        gain = r - r_new
        accept = gain > 0.0  # r_new < r
        done = gain <= _GAIN_RTOL * np.maximum(np.abs(r_new), 1e-3)
        # Rows that moved take their gradient now, unless the budget is spent.
        more = step + 1 < step_budget
        if np.count_nonzero(accept) == len(accept):
            x, r = x_new, r_new
            rejects.fill(0)
            eta = np.minimum(eta * 1.25, 1e3)
            if more:
                g = grad_rows(x, state, rows)
                new = np.sqrt(np.add.reduce(g * g, axis=1))
                done |= new == 0.0
                gnorm = np.maximum(new, 1.0)
            continue
        acc = np.flatnonzero(accept)
        x[acc], r[acc] = x_new.take(acc, axis=0), r_new.take(acc)
        grown = np.minimum(eta.take(acc) * 1.25, 1e3)
        eta *= 0.5
        rejects += 1
        eta[acc], rejects[acc] = grown, 0
        done = np.where(accept, done, (eta < _STEP_FLOOR) | (rejects >= _STALL_REJECTS))
        moved = acc[~done.take(acc)]
        if more and len(moved):
            g[moved] = g_moved = grad_rows(x_new.take(moved, axis=0), state.take(moved, axis=0),
                                           rows.take(moved))
            new = np.sqrt(np.add.reduce(g_moved * g_moved, axis=1))
            done[moved] = new == 0.0
            gnorm[moved] = np.maximum(new, 1.0)
    X[rows], risk[rows] = x, r
    return X, risk


def row_kernels(data, loss, shapes, leaf_p: float, radius: float, act=None):
    """Row functions (risk, gradient, projection) for networks whose rows
    concatenate level tensors of the given shapes (networks.Network): leaf
    weights (N_0, d) first, then one combination block (N_j, s_j) per level
    with its one activation act.  shapes [(1, d)] is a linear predictor,
    whose row is its weight vector; it has no level above the leaves.

    Every level is evaluated on ZnegT = (-y x)^T: the leaf pre-activations
    are one BLAS matmul per row, a sum over d only, so each is -y times its
    value, and as act is odd so is every level above; the top one is the
    margins -y f(x).  A row's state is its lower levels' pre-activations
    followed by its loss values if loss.slope_from_value (the sigmoid,
    neg_min and the tanh and clamp activations), else its margins.  The
    backward pass carries d risk / d Z without the sample weights a, which
    enter the combination gradients and, as the operand a * ZnegT, the leaf
    gradient.  Every sum over the sample is an einsum on numpy's own loops,
    since OpenBLAS splits long dots across its threads, so a row's values
    depend neither on which rows share the call nor on the BLAS thread
    count.  Pre-activations, activations, loss values and derivatives go
    into two scratch arrays per kernel set, n floats per node and row each
    (2n sum N_j per row), grown on demand, so a state lasts until the next
    risk_rows call; grad_rows writes only over the array it does not read.
    Leaves are projected onto the l_{leaf_p} ball and combination rows onto
    the l_1 ball of the radius, bound (and p and radius checked) when the
    kernels are built; the loss's and act's value and slope functions and L
    are looked up then too and called directly.
    """
    project_rows = projector(leaf_p, radius)
    ZnegT = np.ascontiguousarray((-data.labels[:, None] * data.features).T)
    a, keep_value, n, (N0, d) = data.weights, loss.slope_from_value, data.n, shapes[0]
    value, slope, L = loss.functions
    if act is not None:
        act_value, act_slope, act_L = act.functions
    aZnegT = a * ZnegT
    # Columns of each level in a row, and of its outputs in a state row.
    cuts = [0, *itertools.accumulate(N * s for N, s in shapes)]
    zcuts = [0, *itertools.accumulate(n * N for N, _ in shapes)]
    levels = [(cuts[j], cuts[j + 1], N, s, zcuts[j - 1], zcuts[j])
              for j, (N, s) in enumerate(shapes) if j]
    leaf, top = cuts[1], zcuts[-2]
    full, last = [((),)], [0, ()]

    def at(c):
        """Views of the first c rows of the scratch arrays, grown on demand:
        one holds the states row by row, the other a row-major block per
        level for its activations and derivatives."""
        if len(full[0][0]) < c:
            S, work = np.empty((2, c, zcuts[-1]))
            B = [work.ravel()[c * lo:c * hi].reshape(c, -1) for lo, hi in zip(zcuts, zcuts[1:])]
            M, V = (B[-1], S[:, top:]) if keep_value else (S[:, top:], B[-1])
            Z = [S[:, lo:hi] for lo, hi in zip(zcuts, zcuts[1:-1])] + [M]
            full[0] = S, Z[0].reshape(c, N0, n), M, V, B[-1], [
                (lo, hi, N, s, z0, z1, B[j].reshape(c, N, s, n), Z[j + 1].reshape(c, N, n))
                for j, (lo, hi, N, s, z0, z1) in enumerate(levels)]
        S, Z, M, V, G, lv = full[0]
        return S[:c], Z[:c], M[:c], V[:c], G[:c], [(*l, A[:c], out[:c]) for *l, A, out in lv]

    def risk_rows(P, rows):
        c = len(P)
        if last[0] != c:  # a refinement's row count changes only as rows stop
            last[:] = c, at(c)
        S, Z, M, V, _, lv = last[1]
        np.matmul(P[:, :leaf].reshape(c, N0, d), ZnegT, out=Z)
        for lo, hi, N, s, _, _, A, out in lv:
            A = act_value(Z.reshape(c, N, s, n), act_L, A)
            Z = np.einsum("cisn,cis->cin", A, P[:, lo:hi].reshape(c, N, s), out=out, optimize=False)
        return np.einsum("cn,n->c", value(M, L, V), a, optimize=False), S

    def grad_rows(P, K, rows):
        c = len(P)
        *_, G, lv = full[0]
        G, grads = slope(K[:, top:], L, G[:c]), []
        for lo, hi, N, s, z0, z1, A, _ in lv[::-1]:
            Z, G = K[:, z0:z1].reshape(c, N, s, n), G.reshape(c, N, n)
            A = act_value(Z, act_L, A[:c])
            grads.append(np.einsum("cin,cisn,n->cis", G, A, a, optimize=False).reshape(c, -1))
            A = act_slope(A if act.slope_from_value else Z, act_L, A)
            np.multiply(A, P[:, lo:hi].reshape(c, N, s, 1), out=A)
            G = np.multiply(A, G[:, :, None], out=A).reshape(-1, n)
        g = np.einsum("cn,dn->cd", G, aZnegT, optimize=False)
        return np.concatenate([g.reshape(c, -1), *grads[::-1]], axis=1) if grads else g

    if levels:
        projects = [project_rows] + [projector(1.0, radius)] * len(levels)

        def project_rows(P):
            out = np.empty_like(P)
            for lo, hi, shape, project in zip(cuts, cuts[1:], shapes, projects):
                out[:, lo:hi] = project(P[:, lo:hi].reshape(len(P), *shape)).reshape(len(P), -1)
            return out

    return risk_rows, grad_rows, project_rows


def refine(model, data, loss, step_budget: int):
    """Local search from a feasible linear model over its own l_p ball;
    the output stays feasible and its risk never exceeds the input's.
    step_budget = 0 returns the input.  Networks refine with
    networks.refine_network.
    """
    kernels = row_kernels(data, loss, [(1, data.dim)], model.p_exponent, model.radius)
    W, _ = lockstep_descent(model.w, *kernels, step_budget)
    return dataclasses.replace(model, w=W[0])
