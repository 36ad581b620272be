"""A fixed reference loop for timing against the host's current speed.

On a shared host the same call can take 1.3 s one moment and 3.4 s a few
seconds later, with CPU time drifting along with wall time: the core
itself runs slower, so no process clock removes it.  The benchmark runs
this loop between consecutive instances and divides each instance's
wall time by the mean of the two loops around it.  The ratio keeps the
program's cost and drops most of the host's drift.

The loop mixes what the program spends its time on: a scalar bisection
over Newton solves on 5-vectors (interpreter plus tiny numpy calls, like
``project_lp`` and the refinement loops), a 200 x 40 QR and Gram product
(LAPACK/BLAS, like the Monte Carlo estimators), and a dict-and-int loop
(pure interpreter).  It imports nothing from ncerm, so no change to the
program changes it.  One call takes ~20 ms on a 2-vCPU Xeon VM.
"""

import numpy as np

_RNG = np.random.default_rng(20151124)
_VECTORS = [3.0 * _RNG.standard_normal(5) for _ in range(4)]
_MATRIX = _RNG.standard_normal((200, 40))
_P = 1.5


def _newton(a, lam):
    w = a.copy()
    for _ in range(30):
        f = w + lam * _P * w ** (_P - 1.0) - a
        fp = 1.0 + lam * _P * (_P - 1.0) * np.maximum(w, 1e-12) ** (_P - 2.0)
        w = np.clip(w - f / fp, 0.0, a)
    return w


def _bisect(v):
    a = np.abs(v)
    lo, hi = 0.0, 4.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if float(np.sum(_newton(a, mid) ** _P) ** (1.0 / _P)) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def reference_loop():
    """Run the fixed work once; returns a checksum so nothing is skipped."""
    total = sum(_bisect(v) for v in _VECTORS)
    q, r = np.linalg.qr(_MATRIX)
    total += float(np.abs(r).sum()) + float((_MATRIX.T @ _MATRIX).trace())
    counts = {}
    for k in range(2000):
        counts[k % 97] = counts.get(k % 97, 0) + k
    return total + sum(counts.values())
