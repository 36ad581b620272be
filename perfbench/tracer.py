"""Outside-in span tracing of ncerm's public functions.

The tracer swaps each traced function for a wrapper that records one span
per call: name, start, end, parent span and instance id.  Spans are kept
in flat arrays in memory and written out when the run ends.  Modules bind
names with ``from .x import y``, so a wrapper is installed in every loaded
ncerm module that holds the original object, not only in the defining one.

``monotone_descent`` gets an extra layer that wraps its ``risk_fn`` and
``grad_fn`` arguments to count evaluations, accepted steps and any return
value above the starting risk.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# (module, attribute path) of every traced function, in report order.
TARGETS = (
    ("cli", "main"),
    ("experiments", "run_halfspace"),
    ("data", "draw_batch"),
    ("data", "planted_halfspace"),
    ("data", "planted_network"),
    ("data", "WeightedDataset.with_weights"),
    ("losses", "LossFunction.value"),
    ("losses", "LossFunction.grad"),
    ("losses", "empirical_risk"),
    ("networks", "Activation.value"),
    ("networks", "Activation.deriv"),
    ("solvers", "constrained_least_squares"),
    ("solvers", "project_l1"),
    ("solvers", "project_lp"),
    ("solvers", "monotone_descent"),
    ("halfspace", "algorithm2"),
    ("networks", "algorithm3"),
    ("networks", "refine_network"),
    ("networks", "evaluate"),
    ("boosting", "boostnet_train"),
    ("boosting", "weak_learn"),
    ("boosting", "margin_certificate"),
    ("analysis", "rademacher_estimate"),
    ("analysis", "jl_distortion_check"),
    ("analysis", "maurey_sparsify"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)

DERIVED = (
    "solvers.constrained_least_squares.iters_per_call",
    "solvers.monotone_descent.risk_evals_per_call",
    "solvers.monotone_descent.grad_evals_per_call",
    "solvers.monotone_descent.accept_frac",
    "solvers.project_lp.bisect_calls",
)


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance_id = array("i")
        self.instance = -1
        self._stack = []
        self._restore = []
        self.descent = {"calls": 0, "risk_evals": 0, "grad_evals": 0,
                        "steps": 0, "accepted": 0, "risk_raised": 0}
        self.lp_bisect_calls = 0

    # -- recording -------------------------------------------------------

    def _span(self, nid, fn):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.instance_id.append(self.instance)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()

        return traced

    def _counting_descent(self, fn):
        stats = self.descent

        @functools.wraps(fn)
        def descent(x0, risk_fn, grad_fn, project_fn, step_budget):
            seen = {"start": None, "best": math.inf}

            def risk(x):
                value = risk_fn(x)
                r = float(value)
                stats["risk_evals"] += 1
                if seen["start"] is None:
                    seen["start"] = r
                else:
                    stats["steps"] += 1
                    if r < seen["best"]:
                        stats["accepted"] += 1
                seen["best"] = min(seen["best"], r)
                return value

            def grad(x):
                stats["grad_evals"] += 1
                return grad_fn(x)

            stats["calls"] += 1
            x, r = fn(x0, risk, grad, project_fn, step_budget)
            if seen["start"] is not None and not r <= seen["start"]:
                stats["risk_raised"] += 1
            return x, r

        return descent

    def _counting_lp(self, fn):
        @functools.wraps(fn)
        def project_lp(v, p, radius):
            if p != 2.0:
                self.lp_bisect_calls += 1
            return fn(v, p, radius)

        return project_lp

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ncerm" or name.startswith("ncerm."))]
        for nid, (mod_name, path) in enumerate(TARGETS):
            module = sys.modules[f"ncerm.{mod_name}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._span(nid, original))
                continue
            original = getattr(module, path)
            inner = original
            if path == "monotone_descent":
                inner = self._counting_descent(original)
            elif path == "project_lp":
                inner = self._counting_lp(original)
            wrapper = self._span(nid, inner)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.instance_id, dtype=np.int32))

    def save(self, path):
        """Write every span to a compressed .npz file."""
        name_id, start, end, parent, inst = self.arrays()
        np.savez_compressed(path, names=np.array(SPAN_NAMES), name_id=name_id,
                            start=start, end=end, parent=parent, instance=inst)

    def summarize(self):
        """Per-layer calls, self time and the derived ratios.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        name_id, start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(TARGETS)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=self_time, minlength=k)
        out = {}
        for nid, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = (int(calls[nid]), "count")
            out[f"{span}.self_s"] = (float(self_s[nid]), "s")

        cls_id = SPAN_NAMES.index("solvers.constrained_least_squares")
        proj_ids = [SPAN_NAMES.index("solvers.project_lp"),
                    SPAN_NAMES.index("solvers.project_l1")]
        nested = np.isin(name_id, proj_ids) & has_parent
        nested &= name_id[np.where(has_parent, parent, 0)] == cls_id
        d = self.descent
        out[DERIVED[0]] = (_ratio(int(nested.sum()), int(calls[cls_id])), "count")
        out[DERIVED[1]] = (_ratio(d["risk_evals"], d["calls"]), "count")
        out[DERIVED[2]] = (_ratio(d["grad_evals"], d["calls"]), "count")
        out[DERIVED[3]] = (_ratio(d["accepted"], d["steps"]), "frac")
        out[DERIVED[4]] = (self.lp_bisect_calls, "count")
        return out


def _ratio(num, den):
    return num / den if den else 0.0
