"""End-to-end acceptance checks, one test per numbered criterion.

Each test exercises its criterion at the stated scale and tolerance,
prints a single `criterion N: PASS/FAIL (...)` summary line, and then
asserts, so a verbose run shows one outcome line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from ncerm.analysis import jl_distortion_check, maurey_sparsify, rademacher_estimate
from ncerm.boosting import (
    BoostConfig,
    WeakLearnerConfig,
    boostnet_train,
    margin_certificate,
)
from ncerm.cli import main
from ncerm.data import flip_labels, planted_halfspace, planted_network
from ncerm.experiments import run_parity_experiment
from ncerm.halfspace import algorithm2
from ncerm.hardness import (
    lifted_instance,
    random_instance,
    reduction_pair_vectors,
    verify_identity,
)
from ncerm.losses import empirical_risk, piecewise_linear, zero_one_risk
from ncerm.networks import (
    evaluate,
    network_spec,
    predictor,
    random_network,
    zero_network,
)
from ncerm.solvers import project_l1, projector
from ncerm.util import child_seed, lq_norm

from hardness_oracles import min_reduction_loss, negative_part_loss


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_piecewise_linear_anchor_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    lipschitz_values = [1.0, 0.5, 2.0, 3.0, 1.0 / 3.0, 10.0, 1e-3, 1e3]
    lipschitz_values += list(rng.uniform(0.05, 20.0, 42))
    exact = True
    for L in lipschitz_values:
        h = piecewise_linear(L)
        exact &= h.value(-1.0 / (2.0 * L)) == 0.0
        exact &= h.value(0.0) == 0.5
        exact &= h.value(1.0 / (2.0 * L)) == 1.0
    elapsed = time.perf_counter() - t0
    ok = exact and elapsed < 1.0
    _report(1, ok, f"{len(lipschitz_values)} L values, anchors exact, {elapsed:.2f}s")
    assert exact
    assert elapsed < 1.0


def test_criterion_02_max2sat_identity_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    checked, bad = 0, 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 11))
        inst = random_instance(n, d, seed=int(rng.integers(0, 2**31)))
        for bits in itertools.product((-1.0, 1.0), repeat=n + 1):
            lhs, rhs, within = verify_identity(inst, np.array(bits))
            checked += 1
            if not within or abs(lhs - rhs) > 1e-9:
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    _report(2, ok, f"{checked} sign vectors over 100 instances, {bad} violations, {elapsed:.2f}s")
    assert bad == 0
    assert elapsed < 10.0


def test_criterion_03_lifted_values_and_grid_minimization():
    t0 = time.perf_counter()
    exact_origin = True
    for seed, (n, d) in zip((30, 31, 32, 33), ((2, 2), (3, 4), (4, 6), (5, 3))):
        inst = random_instance(n, d, seed=seed)
        lift = lifted_instance(reduction_pair_vectors(inst))
        exact_origin &= lift.loss_alpha_tau(np.zeros(inst.d), 1.0) == 11.0 / 26.0

    worst_gap = -math.inf
    for seed, (n, d) in zip((13, 14, 15), ((3, 3), (2, 3), (4, 2))):
        inst = random_instance(n, d, seed=seed)
        lift = lifted_instance(reduction_pair_vectors(inst))
        grid = np.linspace(-1.0, 1.0, 9)
        best_val, best_alpha = math.inf, None
        for alpha in itertools.product(grid, repeat=d):
            alpha = np.array(alpha)
            norm = np.linalg.norm(alpha)
            if norm > 1.0 or norm == 0.0:
                continue
            val = lift.loss_alpha_tau(alpha, 1.0)
            if val < best_val:
                best_val, best_alpha = val, alpha
        g_star = min_reduction_loss(inst)
        eps_obs = best_val - (11.0 / 26.0 + g_star / 26.0)
        assert eps_obs >= -1e-12
        g_grid = negative_part_loss(lift, best_alpha / np.linalg.norm(best_alpha))
        worst_gap = max(worst_gap, g_grid - (g_star + 26.0 * eps_obs))
    elapsed = time.perf_counter() - t0
    ok = exact_origin and worst_gap <= 1e-9 and elapsed < 60.0
    _report(3, ok, f"origin value exact, worst grid gap {worst_gap:.2e}, {elapsed:.2f}s")
    assert exact_origin
    assert worst_gap <= 1e-9
    assert elapsed < 60.0


def test_criterion_04_projection_grid_oracles():
    t0 = time.perf_counter()
    grid_axis = np.linspace(-3.0, 3.0, 2001)
    G = np.stack(np.meshgrid(grid_axis, grid_axis, indexing="ij"), axis=-1).reshape(-1, 2)
    worst = -math.inf
    rng = np.random.default_rng(4)
    for p in (1.0, 1.5, 2.0):
        feasible = G[lq_norm(G, p) <= 1.0]
        for _ in range(50):
            v = rng.uniform(-2.5, 2.5, size=2)
            out = project_l1(v, 1.0) if p == 1.0 else projector(p, 1.0)(v)
            assert lq_norm(out, p) <= 1.0 + 1e-6
            best_d2 = float(np.min(np.sum((feasible - v) ** 2, axis=1)))
            worst = max(worst, float(np.sum((out - v) ** 2)) - best_d2)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(4, ok, f"150 inputs over p in {{1, 1.5, 2}}, worst excess {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_05_budgeted_algorithm2_excess_risk():
    t0 = time.perf_counter()
    loss = piecewise_linear(1.0)
    successes = 0
    worst_excess = -math.inf
    for seed in range(20):
        data, teacher = planted_halfspace(200, 5, 0.3, 2.0, seed=5100 + seed)
        model = algorithm2(data, loss, 2.0, 0.5, 0.05, 2000, 200, 5200 + seed)
        excess = empirical_risk(model.predict, loss, data) - empirical_risk(
            teacher.predict, loss, data
        )
        worst_excess = max(worst_excess, excess)
        if excess <= 0.1:
            successes += 1
    elapsed = time.perf_counter() - t0
    ok = successes >= 18 and elapsed < 60.0
    _report(5, ok, f"{successes}/20 seeds, worst excess {worst_excess:.4f}, {elapsed:.1f}s")
    assert successes >= 18
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def boost_runs():
    spec = network_spec(2, 2.0, 2.0, "tanh")
    weak = WeakLearnerConfig(
        kind="algorithm3", epsilon=0.5, k=8, T_budget=6, refine_budget=120
    )
    t0 = time.perf_counter()
    runs = []
    for seed in range(20):
        data, _ = planted_network(200, 5, 0.3, spec, 2, seed=6100 + seed)
        cfg = BoostConfig(spec, gamma=0.3, T=60, weak=weak, seed=6200 + seed)
        runs.append((data, boostnet_train(data, cfg)))
    return spec, runs, time.perf_counter() - t0


def test_criterion_06_boostnet_margin_certificate(boost_runs):
    spec, runs, elapsed = boost_runs
    threshold = 0.3 / 16.0
    successes = 0
    worst_margin = math.inf
    for data, res in runs:
        z1 = zero_one_risk(lambda X: evaluate(res.network, spec, X), data)
        cert = margin_certificate(res.network, spec, data, threshold)
        worst_margin = min(worst_margin, cert.min_margin)
        if z1 == 0.0 and cert.min_margin >= threshold:
            successes += 1
    ok = successes >= 18 and elapsed < 300.0
    _report(6, ok, f"{successes}/20 seeds, worst min margin {worst_margin:.3f}, {elapsed:.1f}s")
    assert successes >= 18
    assert elapsed < 300.0


def test_criterion_07_adaboost_potential_bound(boost_runs):
    spec, runs, _ = boost_runs
    unclamped = 0
    worst_slack = -math.inf
    for _, res in runs:
        if res.any_clamped:
            continue
        unclamped += 1
        worst_slack = max(worst_slack, res.potential_value - res.potential_bound)

    # Separable runs mostly clamp at the edge floor, so also drive runs
    # whose label noise keeps every edge strictly inside (-1/2, 1).
    weak = WeakLearnerConfig(kind="algorithm3", epsilon=0.5, k=8, T_budget=2, refine_budget=15)
    noisy_spec = network_spec(2, 1.0, 2.0, "tanh")
    for seed in range(5):
        clean, _ = planted_network(120, 5, 0.25, noisy_spec, 2, seed=7100 + seed)
        data = flip_labels(clean, 0.35, seed=7200 + seed)
        res = boostnet_train(
            data, BoostConfig(noisy_spec, gamma=0.1, T=6, weak=weak, seed=7300 + seed)
        )
        if res.any_clamped:
            continue
        unclamped += 1
        worst_slack = max(worst_slack, res.potential_value - res.potential_bound)
    ok = unclamped > 0 and worst_slack <= 1e-9
    _report(7, ok, f"{unclamped} unclamped runs, worst potential slack {worst_slack:.2e}")
    assert unclamped > 0
    assert worst_slack <= 1e-9


def test_criterion_08_parity_experiment_desk_scale():
    t0 = time.perf_counter()
    header, rows, _ = run_parity_experiment(10, 3, 5000, 0.1, [0, 1, 2])
    elapsed = time.perf_counter() - t0
    assert header == ("method", "hidden_units", "test_error")
    boost_errs = [r[2] for r in rows if r[0] == "boostnet" and r[1] <= 50]
    linear_errs = [r[2] for r in rows if r[0] == "linear"]
    boost_best = min(boost_errs)
    linear_err = linear_errs[0]
    # The full-scale variant (d=50, p=5, n=50000) is an optional target
    # and is not run here.
    ok = boost_best <= 0.25 and linear_err >= 0.45
    _report(
        8,
        ok,
        f"boostnet {boost_best:.3f} <= 0.25 within 50 units, "
        f"linear {linear_err:.3f} >= 0.45, {elapsed:.1f}s",
    )
    assert boost_best <= 0.25
    assert linear_err >= 0.45


def test_criterion_09_rademacher_network_bound():
    t0 = time.perf_counter()
    spec = network_spec(2, 1.0, 2.0, "tanh")
    rng = np.random.default_rng(90)
    k, d = 100, 6
    X = rng.standard_normal((k, d))
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    candidates = [predictor(zero_network(d), spec)]
    candidates += [
        predictor(random_network(spec, d, 2, child_seed(91, i)), spec)
        for i in range(200)
    ]
    est = rademacher_estimate(candidates, X, trials=600, seed=92)
    bound = math.sqrt(spec.input_q / k) * spec.budget**spec.depth
    elapsed = time.perf_counter() - t0
    ok = est.value <= bound + 3.0 * est.stderr and elapsed < 60.0
    _report(9, ok, f"estimate {est.value:.4f} <= {bound:.4f} + 3se, {elapsed:.1f}s")
    assert est.value <= bound + 3.0 * est.stderr
    assert elapsed < 60.0


def test_criterion_10_jl_success_frequency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    P = rng.standard_normal((10, 200))
    res = jl_distortion_check(P, 0.4, trials=5000, seed=101)
    elapsed = time.perf_counter() - t0
    floor = res.threshold - 3.0 * res.stderr
    ok = res.s == 173 and res.success_freq >= floor and elapsed < 60.0
    _report(10, ok, f"s={res.s}, freq {res.success_freq:.4f} >= {floor:.4f}, {elapsed:.1f}s")
    assert res.s == 173
    assert res.success_freq >= floor
    assert elapsed < 60.0


def test_criterion_11_maurey_mse_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    atoms = rng.standard_normal((30, 8))
    atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
    convex_weights = rng.dirichlet(np.ones(30))
    details = []
    ok = True
    for s in (4, 16):
        res = maurey_sparsify(atoms, convex_weights, s=s, trials=3000, seed=111 + s)
        assert res.bound == pytest.approx(1.0 / s, rel=1e-12)
        within = res.mse.value <= res.bound + 3.0 * res.mse.stderr
        ok &= within
        details.append(f"s={s}: {res.mse.value:.4f} <= {res.bound:.4f} + 3se")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(11, ok, f"{'; '.join(details)}, {elapsed:.1f}s")
    assert ok


FAST_CLI_ARGS = {
    "halfspace": ["--n", "40", "--d", "3", "--repetitions", "2",
                  "--budget-rounds", "10", "--refine-steps", "10"],
    "nn": ["--n", "40", "--d", "3", "--budget-rounds", "4",
           "--refine-steps", "10", "--repetitions", "1"],
    "boostnet": ["--n", "40", "--d", "3", "--budget-rounds", "3",
                 "--weak-rounds", "2", "--weak-refine", "15"],
    "parity": ["--d", "4", "--p-bits", "2", "--n", "200",
               "--budget-rounds", "2", "--restarts", "1"],
    "hardness": ["--instances", "2", "--lifted"],
    "analysis": ["--check", "maurey", "--k", "4", "--trials", "80"],
}


def test_criterion_12_cli_determinism(tmp_path):
    identical = 0
    for name, argv in sorted(FAST_CLI_ARGS.items()):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}.csv"
            status = main([name, *argv, "--seed", "5", "--out", str(out)])
            assert status == 0
            outputs.append(out.read_bytes())
        assert len(outputs[0].split(b"\n")) > 2
        if outputs[0] == outputs[1]:
            identical += 1
    ok = identical == len(FAST_CLI_ARGS)
    _report(12, ok, f"{identical}/{len(FAST_CLI_ARGS)} subcommands byte-identical on repeat runs")
    assert identical == len(FAST_CLI_ARGS)
