import math

import numpy as np
import pytest

from ncerm.data import WeightedDataset, planted_network
from ncerm.halfspace import algorithm2, config_alg2
from ncerm.losses import empirical_risk, piecewise_linear
from ncerm.networks import (
    ACTIVATIONS,
    Activation,
    Leaf,
    NetworkClassSpec,
    Node,
    algorithm3,
    config_alg3,
    depth,
    evaluate,
    generate_candidate,
    load_network,
    net_from_dict,
    net_to_dict,
    network_spec,
    predictor,
    random_network,
    refine_network,
    save_network,
    validate,
    zero_network,
)
from ncerm.util import lq_norm, round_rng
from ncerm import halfspace
from ncerm.losses import logistic_sigmoid
from ncerm.networks import network_kernels, to_levels


@pytest.mark.parametrize("name", ACTIVATIONS)
def test_activation_odd_bounded_lipschitz(name):
    act = Activation(name)
    x = np.linspace(-4.0, 4.0, 4001)
    v = act.value(x)
    assert np.allclose(v, -act.value(-x), atol=1e-12)
    assert np.max(np.abs(v)) <= 1.0 + 1e-12
    slopes = np.abs(np.diff(v) / np.diff(x))
    assert np.max(slopes) <= 1.0 + 1e-9
    assert act.value(0.0) == 0.0


@pytest.mark.parametrize("name", ACTIVATIONS)
def test_activation_deriv_finite_diff(name):
    act = Activation(name)
    x = np.linspace(-2.0, 2.0, 101)
    if name == "clamp":
        x = x[np.abs(np.abs(x) - 1.0) > 1e-2]
    eps = 1e-6
    fd = (act.value(x + eps) - act.value(x - eps)) / (2.0 * eps)
    assert np.allclose(act.deriv(x), fd, atol=1e-5)


def test_unknown_activation_raises():
    with pytest.raises(ValueError):
        Activation("relu").value(0.0)
    with pytest.raises(ValueError):
        network_spec(2, 1.0, 2.0, "relu")


def test_spec_validation():
    network_spec(1, 1.0)
    with pytest.raises(ValueError):
        network_spec(0, 1.0)
    with pytest.raises(ValueError):
        network_spec(2, 0.5)
    with pytest.raises(ValueError):
        network_spec(2, 1.0, leaf_p=1.0)
    with pytest.raises(ValueError):
        NetworkClassSpec(2, 1.0, 2.0, 3.0, "tanh")  # q not dual to p


def test_validate_budgets():
    spec = network_spec(2, 1.0)
    good = Node((Leaf(np.array([0.6, 0.0])), Leaf(np.array([0.0, -0.9]))),
                np.array([0.5, -0.5]))
    validate(good, spec)
    with pytest.raises(ValueError):
        validate(Leaf(np.array([1.2, 0.0])), spec)  # leaf norm over budget
    bad_comb = Node((Leaf(np.array([0.5, 0.0])),), np.array([1.5]))
    with pytest.raises(ValueError):
        validate(bad_comb, spec)
    deep = Node((good,), np.array([1.0]))
    with pytest.raises(ValueError):
        validate(deep, spec)  # depth 3 > 2
    with pytest.raises(ValueError):
        validate(Leaf(np.array([np.nan, 0.0])), spec)


def test_evaluate_hand_computed():
    spec = network_spec(2, 2.0, 2.0, "tanh")
    net = Node(
        (Leaf(np.array([1.0, 0.0])), Leaf(np.array([0.0, -1.0]))),
        np.array([0.5, -1.5]),
    )
    x = np.array([0.3, 0.2])
    expect = 0.5 * math.tanh(0.3) - 1.5 * math.tanh(-0.2)
    assert evaluate(net, spec, x) == pytest.approx(expect, rel=1e-15)
    X = np.array([[0.3, 0.2], [0.0, 0.0]])
    vals = evaluate(net, spec, X)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(expect, rel=1e-15)
    assert vals[1] == 0.0
    assert depth(net) == 2
    assert depth(zero_network(4)) == 1


def test_predictor_wraps_evaluate():
    spec = network_spec(1, 1.0)
    net = Leaf(np.array([0.5, -0.5]))
    f = predictor(net, spec)
    X = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(f(X), evaluate(net, spec, X))


def test_json_roundtrip_exact(tmp_path):
    spec = network_spec(3, 1.5)
    net = random_network(spec, 5, 2, seed=4)
    path = tmp_path / "net.json"
    save_network(path, net)
    back = load_network(path)
    assert net_to_dict(back) == net_to_dict(net)

    def same(a, b):
        if isinstance(a, Leaf):
            return isinstance(b, Leaf) and np.array_equal(a.w, b.w)
        return (
            isinstance(b, Node)
            and np.array_equal(a.comb_weights, b.comb_weights)
            and len(a.children) == len(b.children)
            and all(same(x, y) for x, y in zip(a.children, b.children))
        )

    assert same(net, back)
    with pytest.raises(ValueError):
        net_from_dict({"type": "mystery"})


def test_config_alg3_frozen_values():
    # q=2, eps=1/2: k = ceil(2/(1/4)) = 8, s = ceil(4) = 4
    k, s, T = config_alg3(2.0, 0.5, 0.05, 1)
    assert (k, s) == (8, 4)
    # depth 1: exponent k*1 = 8; T = ceil(5 * 8^8 * ln 20)
    assert T == math.ceil(5.0 * 8.0**8 * math.log(20.0))
    # depth 2: levels = 1 + s = 5, exponent 40; with delta = e^-1 the log
    # term is exactly 1.0 in floats, so T = 5 * 8^40 exactly
    assert math.log(1.0 / math.exp(-1.0)) == 1.0
    k, s, T2 = config_alg3(2.0, 0.5, math.exp(-1.0), 2)
    assert T2 == 5 * 8**40
    with pytest.raises(ValueError):
        config_alg3(2.0, 0.0, 0.05, 1)
    with pytest.raises(ValueError):
        config_alg3(1.5, 0.5, 0.05, 1)


def test_config_alg3_eps_one():
    k, s, T = config_alg3(2.0, 1.0, 0.5, 3)
    assert (k, s) == (2, 1)
    # s = 1 collapses the level count to m
    assert T == math.ceil(5.0 * 4.0**6 * math.log(2.0))


def test_generate_candidate_feasible_and_deterministic():
    spec = network_spec(2, 1.0)
    data, _ = planted_network(50, 3, 0.1, spec, 2, seed=0)
    from ncerm.data import importance_sample

    batch = importance_sample(data, 12, seed=5)
    c1 = generate_candidate(batch, spec, 2, 3, seed=9)
    c2 = generate_candidate(batch, spec, 2, 3, seed=9)
    assert net_to_dict(c1) == net_to_dict(c2)
    validate(c1, spec)
    assert len(c1.children) == 3
    with pytest.raises(ValueError):
        generate_candidate(batch, spec, 3, 2, seed=0)


def test_refine_network_monotone_and_feasible():
    spec = network_spec(2, 1.0)
    loss = piecewise_linear(1.0)
    data, _ = planted_network(60, 3, 0.15, spec, 2, seed=2)
    net0 = random_network(spec, 3, 2, seed=1)
    r0 = empirical_risk(predictor(net0, spec), loss, data)
    net1 = refine_network(net0, spec, data, loss, 80)
    r1 = empirical_risk(predictor(net1, spec), loss, data)
    assert r1 <= r0 + 1e-15
    validate(net1, spec)


def test_algorithm3_improves_with_budget():
    spec = network_spec(2, 1.0)
    loss = piecewise_linear(1.0)
    data, _ = planted_network(80, 3, 0.15, spec, 2, seed=6)
    risks = []
    for T in (1, 4, 16):
        net = algorithm3(data, loss, spec, 0.5, 0.05, T, 0, seed=3)
        validate(net, spec)
        risks.append(empirical_risk(predictor(net, spec), loss, data))
    # best-of-T with a shared seed stream is monotone in T
    assert risks[1] <= risks[0] + 1e-15
    assert risks[2] <= risks[1] + 1e-15


@pytest.mark.parametrize("refine_budget", [0, 20])
def test_algorithm3_depth1_matches_halfspace_scheme(refine_budget):
    """At depth 1 with unit budget and a shared batch size the network
    trainer and the least-squares halfspace scheme draw identical
    candidates round by round, so their outputs agree bit for bit."""
    loss = piecewise_linear(1.0)
    spec = network_spec(1, 1.0, 2.0)
    data, _ = planted_network(70, 4, 0.1, spec, 2, seed=8)
    eps, delta, T, seed = 0.5, 0.05, 6, 13
    cfg = config_alg2(data.n, data.dim, 2.0, eps, delta, seed=seed, T_budget=T)
    net = algorithm3(data, loss, spec, eps, delta, T, refine_budget, seed, k=cfg.k)
    model = algorithm2(data, loss, cfg, refine_budget)
    assert isinstance(net, Leaf)
    assert np.array_equal(net.w, model.w)


def test_algorithm3_rejects_oversized_data():
    spec = network_spec(1, 1.0)
    X = np.eye(3) * 2.0
    data = WeightedDataset.uniform(X, np.ones(3))
    with pytest.raises(ValueError):
        algorithm3(data, piecewise_linear(1.0), spec, 0.5, 0.05, 2, 0, 0)


def test_random_network_norms_at_budget():
    spec = network_spec(2, 1.5)
    net = random_network(spec, 4, 3, seed=7)
    validate(net, spec)
    assert np.sum(np.abs(net.comb_weights)) == pytest.approx(1.5, rel=1e-12)
    for leaf in net.children:
        assert lq_norm(leaf.w, 2.0) == pytest.approx(1.5, rel=1e-12)


def test_round_rng_replayable():
    a = round_rng(5, 3).standard_normal(4)
    b = round_rng(5, 3).standard_normal(4)
    c = round_rng(5, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_json_golden_format(tmp_path):
    """The saved file is exactly this text: type/w for leaves and
    type/weights/children for nodes, floats as shortest repr."""
    net = Node((Leaf(np.array([0.5, -0.25])), Leaf(np.array([0.0, 1.0]))),
               np.array([0.75, -0.25]))
    path = tmp_path / "net.json"
    save_network(path, net)
    assert path.read_text() == (
        '{"type": "node", "weights": [0.75, -0.25], "children": ['
        '{"type": "leaf", "w": [0.5, -0.25]}, {"type": "leaf", "w": [0.0, 1.0]}]}\n'
    )


def _leaf(*w):
    return {"type": "leaf", "w": list(w)}


def _node(weights, *children):
    return {"type": "node", "weights": list(weights), "children": list(children)}


@pytest.mark.parametrize("obj", [
    {"type": "leaf"},
    [_leaf(1.0)],
    "leaf",
    None,
    {"type": "node", "weights": [1.0]},
    _node([]),
    _node([1.0, 0.0], _leaf(1.0)),
    _node([0.5, 0.5], _leaf(1.0), _node([1.0], _leaf(1.0))),
    _node([0.5, 0.5], _leaf(1.0), _leaf(1.0, 0.0)),
    _node([0.5, 0.5], _node([1.0], _leaf(1.0)), _node([0.5, 0.5], _leaf(1.0), _leaf(1.0))),
], ids=["leaf_without_w", "list", "string", "null", "node_without_children",
        "node_with_no_children", "weight_count", "mixed_depth", "leaf_dims", "level_widths"])
def test_net_from_dict_rejects_malformed(obj):
    """Anything net_to_dict cannot have written, including a tree that is
    not uniform, is a ValueError rather than a KeyError or TypeError."""
    with pytest.raises(ValueError):
        net_from_dict(obj)


@pytest.mark.parametrize("m", [2, 3])
def test_network_gradient_matches_finite_differences(m):
    """The per-level backward pass agrees with central differences of the
    risk at depth 2 and 3 (smooth loss and activation)."""
    spec = network_spec(m, 1.5, 2.0, "tanh")
    data, _ = planted_network(40, 3, 0.1, network_spec(2, 1.5), 2, seed=1)
    levels = to_levels(random_network(spec, 3, 2, seed=3))
    risk, grad, _ = network_kernels(data, logistic_sigmoid(1.0), spec,
                                    [L.shape for L in levels])
    x = 0.5 * np.concatenate([L.ravel() for L in levels])
    h = 1e-6
    fd = [(risk((x + h * e)[None])[0] - risk((x - h * e)[None])[0]) / (2.0 * h)
          for e in np.eye(x.size)]
    assert np.allclose(grad(x[None])[0], fd, rtol=0.0, atol=1e-8)


def test_algorithm3_depth2_chunk_size_changes_nothing(monkeypatch):
    """Depth-2 rounds refined one at a time or CHUNK_ROUNDS at a time in
    lockstep give the same network, bit for bit."""
    spec = network_spec(2, 1.0)
    loss = piecewise_linear(1.0)
    data, _ = planted_network(80, 3, 0.15, spec, 2, seed=6)
    args = (data, loss, spec, 0.5, 0.05, 60, 40, 3)
    chunked = algorithm3(*args, k=8, s=2)
    monkeypatch.setattr(halfspace, "CHUNK_ROUNDS", 1)
    single = algorithm3(*args, k=8, s=2)
    assert all(np.array_equal(a, b) for a, b in zip(to_levels(chunked), to_levels(single)))
    validate(chunked, spec)
