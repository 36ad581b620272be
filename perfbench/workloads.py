"""The four benchmark workloads.

Each workload turns the seed into a pool of instance inputs (set-up),
runs one instance through ncerm's public entry points (the timed call),
and checks the outputs afterwards (untimed).  Instance i uses pool entry
i mod len(pool), so a run can go on for as long as it is asked to.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

from ncerm import (
    analysis,
    boosting,
    cli,
    data as data_mod,
    experiments,
    halfspace,
    losses,
    networks,
    solvers,
    util,
)

EXCESS_BAR = 0.1  # criterion 5's quality bar


def instance_seed(seed, index):
    """Seed of instance ``index`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    """Checked result of one instance."""

    problems: list            # failed output checks; empty when correct
    passed: int               # quality checks met
    checks: int               # quality checks made
    rounds: int               # candidate rounds, or Monte Carlo trials
    digest: str
    quality: dict = field(default_factory=dict)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


# ---------------------------------------------------------------------------
# halfspace_l2: Algorithm 2 through ``ncerm halfspace``


class Halfspace:
    """One CLI solve per instance at the criterion-5 shape, T=250 rounds."""

    N, D, MARGIN, P = 200, 5, 0.3, 2.0
    ROUNDS, REFINE = 250, 200
    POOL = 64
    COLUMNS = ("t_run", "risk", "planted_risk", "excess", "zero_one")

    def __init__(self, min_instances, trace_instances):
        self.name = "halfspace_l2"
        self.min_instances = min_instances
        self.trace_instances = trace_instances
        self.loss = losses.piecewise_linear(1.0)
        self.captured = []
        # The CSV carries no weights, so keep the model algorithm2 returns
        # for the feasibility check.  Looking algorithm2 up at call time
        # keeps any tracing wrapper on it in the call path.
        experiments.algorithm2 = self._capture

    def _capture(self, *args, **kwargs):
        model = halfspace.algorithm2(*args, **kwargs)
        self.captured.append(model)
        return model

    def close(self):
        experiments.algorithm2 = halfspace.algorithm2

    def setup(self, seed):
        self.argv, self.data, self.planted_risk = [], [], []
        for j in range(self.POOL):
            s = instance_seed(seed, j)
            self.argv.append([
                "halfspace", "--algorithm", "2", "--n", str(self.N),
                "--d", str(self.D), "--margin", str(self.MARGIN),
                "--p", str(self.P), "--epsilon", "0.5", "--delta", "0.05",
                "--budget-rounds", str(self.ROUNDS),
                "--refine-steps", str(self.REFINE),
                "--repetitions", "1", "--seed", str(s),
            ])
            # run_halfspace draws repetition 0's sample from child_seed(seed, 0).
            data, teacher = data_mod.planted_halfspace(
                self.N, self.D, self.MARGIN, self.P, util.child_seed(s, 0))
            self.data.append(data)
            self.planted_risk.append(
                losses.empirical_risk(teacher.predict, self.loss, data))

    def run(self, i):
        self.captured = []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(self.argv[i % self.POOL])
        return status, out.getvalue(), self.captured

    def check(self, i, raw):
        status, text, models = raw
        j = i % self.POOL
        problems = []
        lines = text.splitlines()
        if status != 0 or len(lines) != 2:
            return Outcome([f"exit {status}, {len(lines)} CSV lines"], 0, 1, 0,
                           _digest(text))
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        if any(c not in row for c in self.COLUMNS):
            return Outcome(["CSV columns missing"], 0, 1, 0, _digest(text))
        vals = {c: float(row[c]) for c in self.COLUMNS}
        if not _finite(*vals.values()):
            problems.append("non-finite CSV value")
        if int(vals["t_run"]) != self.ROUNDS:
            problems.append(f"t_run {row['t_run']} != {self.ROUNDS}")
        if len(models) != 1:
            problems.append(f"{len(models)} models returned")
        else:
            model = models[0]
            try:
                model.check_feasible()
            except ValueError as exc:
                problems.append(f"infeasible model: {exc}")
            if model.w.shape != (self.D,) or not _finite(model.w):
                problems.append("model weights malformed or non-finite")
            risk = losses.empirical_risk(model.predict, self.loss, self.data[j])
            if f"{risk:.17g}" != row["risk"]:
                problems.append("CSV risk differs from the returned model's risk")
        if f"{self.planted_risk[j]:.17g}" != row["planted_risk"]:
            problems.append("CSV planted_risk differs from the planted sample")
        passed = int(vals["excess"] <= EXCESS_BAR)
        return Outcome(problems, passed, 1, int(vals["t_run"]), _digest(text),
                       {"excess": vals["excess"]})


class LpRefine:
    """Refine a random start in the unit l_1.5 ball: 10 projected steps.

    This is the per-round refinement Algorithm 2 runs at p = 1.5, called
    through the public ``refine``; nearly every step pays one bisection
    ``project_lp``.
    """

    N, D, MARGIN, P, STEPS = 200, 5, 0.3, 1.5, 10
    POOL = 32

    def __init__(self, min_instances, trace_instances):
        self.name = "halfspace_lp"
        self.min_instances = min_instances
        self.trace_instances = trace_instances
        self.loss = losses.piecewise_linear(1.0)

    def close(self):
        pass

    def setup(self, seed):
        self.inputs = []
        for j in range(self.POOL):
            s = instance_seed(seed, j)
            data, teacher = data_mod.planted_halfspace(
                self.N, self.D, self.MARGIN, self.P, util.child_seed(s, 0))
            g = np.random.default_rng(util.child_seed(s, 1)).standard_normal(self.D)
            start = halfspace.LinearModel(g / util.lq_norm(g, self.P), self.P, 1.0)
            risks = [losses.empirical_risk(m.predict, self.loss, data)
                     for m in (start, teacher)]
            self.inputs.append((data, start, *risks))

    def run(self, i):
        data, start, _, _ = self.inputs[i % self.POOL]
        return solvers.refine(start, data, self.loss, self.STEPS)

    def check(self, i, model):
        data, _, start_risk, planted_risk = self.inputs[i % self.POOL]
        problems = []
        try:
            model.check_feasible()
        except ValueError as exc:
            problems.append(f"infeasible model: {exc}")
        if model.w.shape != (self.D,) or not _finite(model.w):
            problems.append("model weights malformed or non-finite")
        risk = losses.empirical_risk(model.predict, self.loss, data)
        if not risk <= start_risk:
            problems.append(f"refinement raised risk {start_risk!r} -> {risk!r}")
        excess = risk - planted_risk
        return Outcome(problems, int(excess <= EXCESS_BAR), 1, 1, _digest(model.w),
                       {"excess": excess})


# ---------------------------------------------------------------------------
# boostnet: the criterion-6 fixture


class BoostNet:
    """Plant a depth-2 tanh sample, boost 60 weak Algorithm 3 nets, certify."""

    N, D, MARGIN, GAMMA = 200, 5, 0.3, 0.3
    POOL = 64

    def __init__(self, min_instances, trace_instances):
        self.name = "boostnet"
        self.min_instances = min_instances
        self.trace_instances = trace_instances
        self.spec = networks.network_spec(2, 2.0, 2.0, "tanh")
        self.weak = boosting.WeakLearnerConfig(
            kind="algorithm3", epsilon=0.5, k=8, T_budget=6, refine_budget=120)
        self.threshold = self.GAMMA / 16.0
        _, _, t_theory = networks.config_alg3(self.spec.input_q, 0.5, 0.05, 1)
        self.weak_rounds = min(self.weak.T_budget, t_theory)

    def close(self):
        pass

    def setup(self, seed):
        self.inputs = []
        for j in range(self.POOL):
            s = instance_seed(seed, j)
            cfg = boosting.BoostConfig(self.spec, gamma=self.GAMMA, T=60,
                                       weak=self.weak, seed=util.child_seed(s, 1))
            self.inputs.append((util.child_seed(s, 0), cfg))

    def run(self, i):
        data_seed, cfg = self.inputs[i % self.POOL]
        sample, _ = data_mod.planted_network(
            self.N, self.D, self.MARGIN, self.spec, 2, data_seed)
        result = boosting.boostnet_train(sample, cfg)
        cert = boosting.margin_certificate(result.network, self.spec, sample,
                                           self.threshold)
        return sample, result, cert

    def check(self, i, raw):
        sample, res, cert = raw
        problems = []
        try:
            networks.validate(res.network, self.spec)
        except ValueError as exc:
            problems.append(f"network outside its class: {exc}")
        mus = np.array([r.mu for r in res.rounds])
        if not _finite(res.coefficients, mus, res.b_T, res.potential_value,
                       cert.min_margin):
            problems.append("non-finite boosting output")
        if len(res.rounds) != res.T:
            problems.append("round records missing")
        z1 = losses.zero_one_risk(networks.predictor(res.network, self.spec), sample)
        passed = int(z1 == 0.0 and cert.min_margin >= self.threshold)
        leaves = np.concatenate([c.w for c in res.network.children])
        digest = _digest(res.coefficients, res.network.comb_weights, leaves, mus,
                         cert.min_margin, cert.fraction_at_threshold)
        return Outcome(problems, passed, 1, res.T * self.weak_rounds, digest,
                       {"margin": cert.min_margin})


# ---------------------------------------------------------------------------
# montecarlo: criteria 9-11 estimators


class MonteCarlo:
    """Rademacher (201 nets), JL (10 x 200, eps 0.4) and Maurey (s = 4, 16)."""

    POOL = 8
    K, D_RAD, NETS = 100, 6, 200
    RAD_TRIALS, JL_TRIALS, MAUREY_TRIALS = 8000, 40, 2000
    JL_EPS = 0.4

    def __init__(self, min_instances, trace_instances):
        self.name = "montecarlo"
        self.min_instances = min_instances
        self.trace_instances = trace_instances
        self.spec = networks.network_spec(2, 1.0, 2.0, "tanh")
        self.rad_bound = math.sqrt(self.spec.input_q / self.K) * self.spec.budget ** 2

    def close(self):
        pass

    def setup(self, seed):
        self.inputs = []
        for j in range(self.POOL):
            s = instance_seed(seed, j)
            rng = np.random.default_rng(s)
            X = rng.standard_normal((self.K, self.D_RAD))
            X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
            nets = [networks.zero_network(self.D_RAD)] + [
                networks.random_network(self.spec, self.D_RAD, 2, util.child_seed(s, n))
                for n in range(self.NETS)]
            cands = [networks.predictor(net, self.spec) for net in nets]
            points = rng.standard_normal((10, 200))
            atoms = rng.standard_normal((30, 8))
            atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
            weights = rng.dirichlet(np.ones(30))
            seeds = [util.child_seed(s, 10_000 + c) for c in range(4)]
            self.inputs.append((cands, X, points, atoms, weights, seeds))

    def run(self, i):
        cands, X, points, atoms, weights, seeds = self.inputs[i % self.POOL]
        rad = analysis.rademacher_estimate(cands, X, self.RAD_TRIALS, seeds[0])
        jl = analysis.jl_distortion_check(points, self.JL_EPS, self.JL_TRIALS, seeds[1])
        m4 = analysis.maurey_sparsify(atoms, weights, 4, self.MAUREY_TRIALS, seeds[2])
        m16 = analysis.maurey_sparsify(atoms, weights, 16, self.MAUREY_TRIALS, seeds[3])
        return rad, jl, m4, m16

    def check(self, i, raw):
        rad, jl, m4, m16 = raw
        problems = []
        values = (rad.value, rad.stderr, jl.success_freq, jl.stderr,
                  m4.mse.value, m4.mse.stderr, m16.mse.value, m16.mse.stderr)
        if not _finite(*values):
            problems.append("non-finite estimate")
        if jl.s != 173:
            problems.append(f"JL target dimension {jl.s} != 173")
        trials = (rad.trials, jl.trials, m4.mse.trials, m16.mse.trials)
        if trials != (self.RAD_TRIALS, self.JL_TRIALS, self.MAUREY_TRIALS,
                      self.MAUREY_TRIALS):
            problems.append(f"trial counts {trials}")
        checks = (
            rad.value <= self.rad_bound + 3.0 * rad.stderr,
            jl.success_freq >= jl.threshold - 3.0 * jl.stderr,
            m4.mse.value <= m4.bound + 3.0 * m4.mse.stderr,
            m16.mse.value <= m16.bound + 3.0 * m16.mse.stderr,
        )
        return Outcome(problems, sum(checks), len(checks), sum(trials),
                       _digest(values))


def make(name):
    if name == "halfspace_l2":
        return Halfspace(min_instances=8, trace_instances=4)
    if name == "halfspace_lp":
        return LpRefine(min_instances=6, trace_instances=3)
    if name == "boostnet":
        return BoostNet(min_instances=12, trace_instances=6)
    if name == "montecarlo":
        return MonteCarlo(min_instances=12, trace_instances=6)
    raise ValueError(f"unknown workload {name!r}")

