"""Per-call timings of the kernels, on fixed inputs.

Each case is timed in batches of calls; the reported figure is the median
batch time divided by the batch size.  Inputs come from a fixed generator
so every run times the same arithmetic.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ncerm import losses, solvers

LOSS_N = (200, 2500, 10_000)
PROJ_D = (5, 50, 1000)
CLS_K = (4, 16)
CLS_D = (5, 50)

# Figures from the ROADMAP baseline table, in microseconds.
ROADMAP_US = {
    "kernel.solvers.project_l1.d50_us": 22.0,
    "kernel.solvers.project_lp.d50_us": 90_000.0,
    "kernel.solvers.constrained_least_squares.k4_d5_us": 400.0,
}


def _per_call_us(fn, min_batch_s, batches):
    """Median over batches of the mean per-call time, in microseconds."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(min_batch_s / once))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times) * 1e6


def kernel_sweep():
    """Dict of metric name -> (microseconds per call, "us")."""
    rng = np.random.default_rng(20151124)
    loss = losses.piecewise_linear(1.0)
    out = {}
    for n in LOSS_N:
        t = rng.uniform(-1.0, 1.0, size=n)
        out[f"kernel.losses.LossFunction.value.n{n}_us"] = _per_call_us(
            lambda: loss.value(t), 0.01, 7)
        out[f"kernel.losses.LossFunction.grad.n{n}_us"] = _per_call_us(
            lambda: loss.grad(t), 0.01, 7)
    for d in PROJ_D:
        g = rng.standard_normal(d)
        # Norm 3 in the projected norm, so neither call returns early.
        v1 = g * (3.0 / np.sum(np.abs(g)))
        vp = g * (3.0 / np.sum(np.abs(g) ** 1.5) ** (1.0 / 1.5))
        out[f"kernel.solvers.project_l1.d{d}_us"] = _per_call_us(
            lambda: solvers.project_l1(v1, 1.0), 0.01, 7)
        out[f"kernel.solvers.project_lp.d{d}_us"] = _per_call_us(
            lambda: solvers.project_lp(vp, 1.5, 1.0), 0.0, 3)
    for k in CLS_K:
        for d in CLS_D:
            X = rng.standard_normal((k, d))
            X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
            u = rng.uniform(-1.0, 1.0, size=k)
            out[f"kernel.solvers.constrained_least_squares.k{k}_d{d}_us"] = _per_call_us(
                lambda: solvers.constrained_least_squares(X, u, 2.0, 1.0), 0.02, 5)
    return {name: (value, "us") for name, value in out.items()}


def roadmap_divergence(sweep):
    """Measured over ROADMAP figure for the three quoted kernels."""
    return {name: sweep[name][0] / ref for name, ref in ROADMAP_US.items()}
