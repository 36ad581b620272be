"""End-to-end experiment runners; each returns (header, rows, log lines)."""

from __future__ import annotations

import math

import numpy as np

from . import analysis, hardness
from .boosting import BoostConfig, WeakLearnerConfig, boostnet_train
from .data import (
    WeightedDataset,
    load_dataset_csv,
    parity_dataset,
    planted_halfspace,
    planted_network,
)
from .halfspace import algorithm1, algorithm2, config_alg1, config_alg2
from .losses import empirical_risk, piecewise_linear, zero_one_risk
from .networks import (
    algorithm3,
    config_alg3,
    network_spec,
    predictor,
    random_network,
    save_network,
    zero_network,
)
from .util import child_seed, dual_exponent

BACKPROP_EPOCHS = 300
BACKPROP_LR_GRID = (0.5, 0.1, 0.02)
BACKPROP_COUNTS = (1, 2, 5, 10, 20, 35, 50)
PARITY_WEAK = WeakLearnerConfig(
    kind="algorithm3", epsilon=0.5, k=10, T_budget=1, refine_budget=150
)


def _zero_one(margins: np.ndarray) -> float:
    return float(np.mean(margins <= 0.0))


def _default_epsilon(epsilon, sphere: bool) -> float:
    """epsilon, or when it is None 0.4 for the sphere scheme (Algorithm 1)
    and 0.5 for the others."""
    return epsilon if epsilon is not None else (0.4 if sphere else 0.5)


def _repeat(repetitions: int, seed: int, run_one) -> list:
    """run_one(rep, data_seed, run_seed) for rep = 0..repetitions-1, where
    repetition rep draws its sample from child_seed(seed, 2 rep) and runs
    its learner from child_seed(seed, 2 rep + 1)."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return [run_one(rep, child_seed(seed, 2 * rep), child_seed(seed, 2 * rep + 1))
            for rep in range(repetitions)]


def _risk_columns(predict, loss, sample, planted_risk) -> tuple:
    """The risk, planted_risk, excess and zero_one columns of a trained predictor."""
    risk = empirical_risk(predict, loss, sample)
    return risk, planted_risk, risk - planted_risk, zero_one_risk(predict, sample)


# ---------------------------------------------------------------------------
# parity


def _train_backprop(X, y, hidden: int, lr: float, rng: np.random.Generator):
    """Plain full-batch gradient descent on mean squared error for a
    two-layer tanh net (bias lives in the data's constant coordinate).
    """
    n, D = X.shape
    W = rng.uniform(-0.5, 0.5, size=(hidden, D))
    v = rng.uniform(-0.5, 0.5, size=hidden)
    for _ in range(BACKPROP_EPOCHS):
        A = np.tanh(X @ W.T)
        out = A @ v
        r = 2.0 * (out - y) / n
        gv = A.T @ r
        gW = ((r[:, None] * (1.0 - A * A)) * v).T @ X
        v = v - lr * gv
        W = W - lr * gW
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(v))):
            return None
    return W, v


def run_parity_experiment(
    d: int,
    p_bits: int,
    n: int,
    noise_rate: float,
    seeds,
    budget: float = 10.0,
    hidden_budget: int = 50,
):
    """Noisy-parity comparison: boosted networks vs. backprop vs. linear.

    The sample splits 50/10/40 into train/validation/test.  The boosted
    net trains one weak unit per round (so round t is a t-hidden-unit
    network); backprop trains at a fixed grid of unit counts.  For each
    method and unit count the seed with the best validation error is
    reported on the test split.  Rows: (method, hidden_units, test_error).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    if n < 10:
        raise ValueError("n must be >= 10 so that no split is empty")
    data, _ = parity_dataset(n, d, p_bits, noise_rate, seeds[0])
    n_train = n // 2
    n_val = n // 10
    X, y = data.features, data.labels
    X_tr, y_tr = X[:n_train], y[:n_train]
    X_va, y_va = X[n_train:n_train + n_val], y[n_train:n_train + n_val]
    X_te, y_te = X[n_train + n_val:], y[n_train + n_val:]
    train = WeightedDataset.uniform(X_tr, y_tr, feature_norm_q=2.0)
    spec = network_spec(2, budget, 2.0, "tanh")

    # boosted nets: per-round validation/test errors for every seed; column t
    # of the running sums M is the net of the first t + 1 weak units
    wrong = []
    for seed in seeds:
        cfg = BoostConfig(spec, gamma=0.1, T=hidden_budget, weak=PARITY_WEAK, seed=seed)
        result = boostnet_train(train, cfg)
        W = result.network.levels[0]
        M = np.cumsum(result.coefficients * spec.act.value(X[n_train:] @ W.T), axis=1)
        wrong.append(y[n_train:, None] * M <= 0.0)
    val_err = np.array([np.mean(e[:n_val], axis=0) for e in wrong])
    test_err = np.array([np.mean(e[n_val:], axis=0) for e in wrong])
    rows = []
    for t in range(hidden_budget):
        best = int(np.argmin(val_err[:, t]))
        rows.append(("boostnet", t + 1, float(test_err[best, t])))

    # backprop baseline at matched unit counts
    for h in [c for c in BACKPROP_COUNTS if c <= hidden_budget]:
        best_val, best_test = math.inf, 1.0
        for si, seed in enumerate(seeds):
            for li, lr in enumerate(BACKPROP_LR_GRID):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(7, h, li))
                )
                fit = _train_backprop(X_tr, y_tr, h, lr, rng)
                if fit is None:
                    continue
                W, v = fit
                ev = _zero_one(y_va * (np.tanh(X_va @ W.T) @ v))
                if ev < best_val:
                    best_val = ev
                    best_test = _zero_one(y_te * (np.tanh(X_te @ W.T) @ v))
        rows.append(("backprop", h, float(best_test)))

    # linear baseline: unconstrained least squares on the labels
    w_lin, *_ = np.linalg.lstsq(X_tr, y_tr, rcond=None)
    rows.append(("linear", 0, _zero_one(y_te * (X_te @ w_lin))))

    header = ("method", "hidden_units", "test_error")
    return header, rows, []


def run_parity(d: int, p_bits: int, n: int, noise: float, budget: float,
               budget_rounds: int, seeds, restarts: int, seed: int):
    """``ncerm parity``: train on the comma-separated ``seeds``, or on
    ``restarts`` consecutive seeds from ``seed`` when ``seeds`` is None."""
    if seeds is None:
        seed_list = [seed + i for i in range(restarts)]
    else:
        seed_list = [int(tok) for tok in seeds.split(",") if tok.strip()]
    return run_parity_experiment(d, p_bits, n, noise, seed_list, budget, budget_rounds)


# ---------------------------------------------------------------------------
# halfspace


def run_halfspace(
    algorithm: int,
    n: int,
    d: int,
    margin: float,
    p: float,
    epsilon,
    delta: float,
    budget_rounds: int,
    refine_steps: int,
    repetitions: int,
    seed: int,
    data=None,
):
    """epsilon = None uses 0.4 for Algorithm 1 and 0.5 for Algorithm 2."""
    epsilon = _default_epsilon(epsilon, algorithm == 1)
    loss = piecewise_linear(1.0)
    header = (
        "rep", "seed", "algorithm", "n", "d", "p", "epsilon", "delta",
        "s", "k", "r", "t_theory", "t_run", "risk", "planted_risk",
        "excess", "zero_one",
    )

    loaded = []  # the --data sample, parsed once, on the first repetition

    def run_one(rep, data_seed, run_seed):
        if data is None:
            sample, teacher = planted_halfspace(n, d, margin, p, data_seed)
            planted_risk = empirical_risk(teacher.predict, loss, sample)
        else:
            if not loaded:
                loaded.append(load_dataset_csv(data, feature_norm_q=dual_exponent(p)))
            sample, planted_risk = loaded[0], math.nan
        if algorithm == 1:
            (s, r, T_theory), k = config_alg1(sample.n, sample.dim, epsilon, delta), 0
            model = algorithm1(sample, loss, epsilon, delta, budget_rounds,
                               refine_steps, run_seed)
        else:
            (k, T_theory), s, r = config_alg2(sample.n, sample.dim, p, epsilon, delta), 0, 1.0
            model = algorithm2(sample, loss, p, epsilon, delta, budget_rounds,
                               refine_steps, run_seed)
        return (
            rep, run_seed, algorithm, sample.n, sample.dim, p, epsilon, delta,
            s, k, r, str(T_theory), min(budget_rounds, T_theory),
            *_risk_columns(model.predict, loss, sample, planted_risk),
        )

    return header, _repeat(repetitions, seed, run_one), []


# ---------------------------------------------------------------------------
# networks


def run_nn(
    m: int,
    budget: float,
    epsilon: float,
    delta: float,
    k,
    s,
    budget_rounds: int,
    refine_steps: int,
    n: int,
    d: int,
    margin: float,
    width: int,
    activation: str,
    repetitions: int,
    seed: int,
    save_model=None,
):
    """save_model receives the net of the earliest repetition with the lowest risk."""
    loss = piecewise_linear(1.0)
    spec = network_spec(m, budget, 2.0, activation)
    k_cfg, s_cfg, T_theory = config_alg3(spec.input_q, epsilon, delta, m)
    header = (
        "rep", "seed", "m", "budget", "k", "s", "t_run", "risk",
        "planted_risk", "excess", "zero_one",
    )
    trained = []  # (risk, net) of each repetition

    def run_one(rep, data_seed, run_seed):
        data, teacher = planted_network(n, d, margin, spec, width, data_seed)
        planted_risk = empirical_risk(predictor(teacher, spec), loss, data)
        net = algorithm3(data, loss, spec, epsilon, delta, budget_rounds,
                         refine_steps, run_seed, k=k, s=s)
        columns = _risk_columns(predictor(net, spec), loss, data, planted_risk)
        trained.append((columns[0], net))
        return (
            rep, run_seed, m, budget, k_cfg if k is None else k,
            s_cfg if s is None else s, min(budget_rounds, T_theory), *columns,
        )

    rows = _repeat(repetitions, seed, run_one)
    if save_model is not None:
        save_network(save_model, min(trained, key=lambda pair: pair[0])[1])
    return header, rows, []


# ---------------------------------------------------------------------------
# boosting


def run_boostnet(
    m: int,
    budget: float,
    gamma: float,
    budget_rounds,
    weak_kind: str,
    epsilon,
    weak_k,
    weak_rounds: int,
    weak_refine: int,
    n: int,
    d: int,
    margin: float,
    activation: str,
    seed: int,
    data=None,
):
    """Per-round trace of one boosting run: t, mu_t, coefficient,
    train_zero_one, min_margin.  The weak learners run at ``epsilon``;
    None uses 0.4 for Algorithm 1 and 0.5 otherwise."""
    epsilon = _default_epsilon(epsilon, weak_kind == "algorithm1")
    spec = network_spec(m, budget, 2.0, activation)
    if data is None:
        sample, _ = planted_network(n, d, margin, spec, 2, child_seed(seed, 0))
    else:
        sample = load_dataset_csv(data, feature_norm_q=spec.input_q)
    weak = WeakLearnerConfig(
        kind=weak_kind, epsilon=epsilon, k=weak_k,
        T_budget=weak_rounds, refine_budget=weak_refine,
    )
    cfg = BoostConfig(spec, gamma=gamma, T=budget_rounds, weak=weak,
                      seed=child_seed(seed, 1))
    result = boostnet_train(sample, cfg)
    header = ("t", "mu_t", "coefficient", "train_zero_one", "min_margin")
    rows = [
        (r.t, r.mu, r.coefficient, r.train_zero_one, r.min_margin)
        for r in result.rounds
    ]
    lines = [
        f"rounds={result.T} b_T={result.b_T:.17g} "
        f"clamped={'yes' if result.any_clamped else 'no'} "
        f"potential={result.potential_value:.17g} "
        f"potential_bound={result.potential_bound:.17g}"
    ]
    return header, rows, lines


# ---------------------------------------------------------------------------
# hardness


def run_hardness(instances: int, n_literals: int, clauses: int, seed: int,
                 lifted: bool):
    if instances < 1:
        raise ValueError("instances must be >= 1")
    header = ("check", "instance", "n", "d", "value", "reference", "ok")
    rows = []
    lines = []
    for i in range(instances):
        inst = hardness.random_instance(n_literals, clauses, child_seed(seed, i))
        worst = 0.0
        for alpha in 2.0 * hardness.enumerate_assignments(inst.n_literals + 1) - 1.0:
            lhs, rhs, _ = hardness.verify_identity(inst, alpha)
            worst = max(worst, abs(lhs - rhs))
        ok = worst <= 1e-9
        rows.append(("identity", i, inst.n_literals, inst.d, worst, 1e-9, ok))
        lines.append(f"{'PASS' if ok else 'FAIL'} identity instance {i}")
        if lifted:
            vectors = hardness.reduction_pair_vectors(inst)
            lift = hardness.lifted_instance(vectors)
            value = lift.loss_alpha_tau(np.zeros(inst.d), 1.0)
            ref = 11.0 / 26.0
            ok = value == ref
            rows.append(("lifted_value", i, inst.n_literals, inst.d, value, ref, ok))
            lines.append(f"{'PASS' if ok else 'FAIL'} lifted_value instance {i}")
    return header, rows, lines


# ---------------------------------------------------------------------------
# analysis


def run_analysis(check: str, trials: int, k: int, n: int, d: int,
                 epsilon: float, budget: float, m: int, width: int, seed: int):
    header = ("check", "estimate", "stderr", "bound", "ok")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if check == "rademacher":
        spec = network_spec(m, budget, 2.0, "tanh")
        cands = [predictor(zero_network(d), spec)]
        cands += [
            predictor(random_network(spec, d, width, child_seed(seed, i)), spec)
            for i in range(n)
        ]
        g = rng.standard_normal((k, d))
        batch = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1.0)
        est = analysis.rademacher_estimate(cands, batch, trials, child_seed(seed, 10**6))
        bound = math.sqrt(spec.input_q / k) * budget**m
        ok = est.value <= bound + 3.0 * est.stderr
        return header, [(check, est.value, est.stderr, bound, ok)], []
    if check == "generalization":
        data, _ = planted_halfspace(n, d, 0.1, 2.0, child_seed(seed, 1))
        dirs = rng.standard_normal((19, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        cands = [lambda X: np.zeros(X.shape[0])]
        cands += [(lambda w: (lambda X: X @ w))(w) for w in dirs]
        loss = piecewise_linear(1.0)
        res = analysis.generalization_gap_check(cands, loss, data, k, trials,
                                                child_seed(seed, 2))
        ok = res.mean_gap <= res.bound + 3.0 * res.stderr_gap
        return header, [(check, res.mean_gap, res.stderr_gap, res.bound, ok)], []
    if check == "jl":
        points = rng.standard_normal((n, d))
        res = analysis.jl_distortion_check(points, epsilon, trials, child_seed(seed, 3))
        if res.s == d:  # the library's shortcut: every trial passes, nothing is checked
            s_full = max(1, math.ceil(12.0 * math.log(n) / epsilon**2))
            raise ValueError(f"jl at n={n}, epsilon={epsilon} projects onto all d={d} "
                             f"dimensions and checks nothing; it needs d > {s_full}")
        ok = res.success_freq >= res.threshold - 3.0 * res.stderr
        return header, [(check, res.success_freq, res.stderr, res.threshold, ok)], []
    if check == "maurey":
        atoms = rng.standard_normal((20, d))
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        weights = rng.dirichlet(np.ones(20))
        res = analysis.maurey_sparsify(atoms, weights, k, trials, child_seed(seed, 4))
        ok = res.mse.value <= res.bound + 3.0 * res.mse.stderr
        return header, [(check, res.mse.value, res.mse.stderr, res.bound, ok)], []
    raise ValueError(f"unknown analysis check {check!r}")
