import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncerm import networks
from ncerm.data import WeightedDataset, draw_batch, planted_halfspace, planted_network
from ncerm.halfspace import algorithm2
from ncerm.losses import empirical_risk, piecewise_linear
from ncerm.networks import (
    ACTIVATIONS,
    Activation,
    Network,
    algorithm3,
    combine,
    config_alg3,
    evaluate,
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
from ncerm.util import lq_norm, round_uniforms
from ncerm import util
from ncerm.losses import logistic_sigmoid
from ncerm.solvers import constrained_least_squares, row_kernels

from row_kernel_problems import assert_rows_run_alone, row_kernel_problems


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
def test_activation_value_odd_and_slope_even_bitwise(name):
    """value(-x) = -value(x) and deriv(-x) = deriv(x) bit for bit, signed
    zeros included, on a dense grid with subnormals and large magnitudes:
    the row kernels evaluate every level at -y times its pre-activation."""
    act = Activation(name)
    tiny = np.finfo(float).smallest_subnormal * np.array([1.0, 2.0, 3.0, 1e3, 2.0**51])
    mags = np.concatenate([[0.0], tiny, np.logspace(-307.0, 307.0, 2001), 1.5 * tiny,
                           np.linspace(0.0, 8.0, 20001), [1.0, np.finfo(float).max]])
    with np.errstate(over="ignore"):
        x = np.concatenate([mags, np.nextafter(mags, np.inf)])
        assert act.value(-x).tobytes() == (-act.value(x)).tobytes()
        assert act.deriv(-x).tobytes() == act.deriv(x).tobytes()


def test_erf_activation_is_math_erf_bitwise():
    """Elementwise math.erf(sqrt(pi)/2 * x), float64, in the input's shape."""
    value, scale = Activation("erf").value, math.sqrt(math.pi) / 2.0
    mags = np.logspace(-300.0, math.log10(30.0), 301)
    stack = np.random.default_rng(5).normal(scale=3.0, size=(3, 5, 4))
    for x in (np.array([0.0, -0.0]), np.concatenate([mags, -mags]), stack):
        out = value(x)
        ref = np.array([math.erf(scale * v) for v in x.ravel()]).reshape(x.shape)
        assert out.dtype == np.float64 and out.shape == x.shape
        assert out.tobytes() == ref.tobytes()
    for x in (0.7, np.array(-1.3)):
        out = value(x)
        assert np.ndim(out) == 0 and float(out) == math.erf(scale * float(x))


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
    """The loss kinds share the activations' table but are not odd, so they
    are no activations."""
    for name in ("relu", "neg_min", "logistic_sigmoid", "piecewise_linear"):
        with pytest.raises(ValueError):
            Activation(name).value(0.0)
        with pytest.raises(ValueError):
            network_spec(2, 1.0, 2.0, name)


def test_spec_validation():
    network_spec(1, 1.0)
    with pytest.raises(ValueError):
        network_spec(0, 1.0)
    with pytest.raises(ValueError):
        network_spec(2, 0.5)
    with pytest.raises(ValueError):
        network_spec(2, 1.0, leaf_p=1.0)
    assert network_spec(2, 1.0, leaf_p=1.5).input_q == pytest.approx(3.0)
    assert network_spec(2, 1.0).input_q == 2.0


def test_validate_budgets():
    spec = network_spec(2, 1.0)
    good = Network([[[0.6, 0.0], [0.0, -0.9]], [[0.5, -0.5]]])
    validate(good, spec)
    with pytest.raises(ValueError):
        validate(Network([[[1.2, 0.0]]]), spec)  # leaf norm over budget
    bad_comb = Network([[[0.5, 0.0]], [[1.5]]])
    with pytest.raises(ValueError):
        validate(bad_comb, spec)
    deep = combine([good], [1.0])
    with pytest.raises(ValueError):
        validate(deep, spec)  # depth 3 > 2
    with pytest.raises(ValueError):
        validate(Network([[[np.nan, 0.0]]]), spec)


def test_evaluate_hand_computed():
    spec = network_spec(2, 2.0, 2.0, "tanh")
    net = Network([[[1.0, 0.0], [0.0, -1.0]], [[0.5, -1.5]]])
    x = np.array([0.3, 0.2])
    expect = 0.5 * math.tanh(0.3) - 1.5 * math.tanh(-0.2)
    assert evaluate(net, spec, x) == pytest.approx(expect, rel=1e-15)
    X = np.array([[0.3, 0.2], [0.0, 0.0]])
    vals = evaluate(net, spec, X)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(expect, rel=1e-15)
    assert vals[1] == 0.0
    assert len(net.levels) == 2
    assert len(zero_network(4).levels) == 1


def _plain_evaluate(net, spec, x):
    """evaluate as it was written over one network: the leaves one 2-D
    product X @ W.T, each level above one einsum without a network axis."""
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    Z = X @ net.levels[0].T
    for C in net.levels[1:]:
        Z = np.einsum("nis,is->ni", spec.act.value(Z.reshape(len(X), *C.shape)), C)
    out = Z[:, 0]
    return float(out[0]) if x.ndim == 1 else out


def _stacked_evaluate(net, spec, x):
    """evaluate as it was written over a stack of one network: each level's
    operands carry a leading axis of length 1."""
    x = np.asarray(x, dtype=float)
    X, levels = np.atleast_2d(x), [L[None] for L in net.levels]
    Z = X @ levels[0].transpose(0, 2, 1)
    for C in levels[1:]:
        Z = np.einsum("cnis,cis->cni", spec.act.value(Z.reshape(1, len(X), *C.shape[1:])), C)
    out = Z[0, :, 0]
    return float(out[0]) if x.ndim == 1 else out


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 7), st.sampled_from(ACTIVATIONS),
       st.sampled_from([0, 1, 7, 200, 3000]), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
@example(2, 2, 6, "tanh", 100, 0, 0.0)
def test_evaluate_equals_stacked_products(depth, width, dim, act, n, seed, log_scale):
    """evaluate, the stacked pass on a stack of one, gives the bytes of both
    earlier forms, the stack-of-one products and the plain 2-D products, at
    depth 1 to 4, for every activation, for one point (n = 0: a 1-D input)
    and for matrices of 1 to 3,000 rows, whose scale 10^log_scale reaches
    the clamp's kinks and the squashing's tails."""
    spec = network_spec(depth, 1.0, 2.0, act)
    net = random_network(spec, dim, width, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim) if n else dim) * 10.0 ** log_scale
    new = evaluate(net, spec, x)
    for old in (_stacked_evaluate(net, spec, x), _plain_evaluate(net, spec, x)):
        assert np.asarray(new).tobytes() == np.asarray(old).tobytes()
        assert type(new) is type(old)


def test_predictor_wraps_evaluate(monkeypatch):
    """A predictor calls the module's evaluate as it stands at call time, so
    a wrapper installed after the predictor was built (a tracer's) sees it."""
    spec = network_spec(1, 1.0)
    net = Network([[[0.5, -0.5]]])
    f = predictor(net, spec)
    X = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(f(X), evaluate(net, spec, X))
    calls = []
    monkeypatch.setattr(networks, "evaluate", lambda *a: calls.append(a) or evaluate(*a))
    assert np.array_equal(f(X), evaluate(net, spec, X))
    assert len(calls) == 1 and calls[0][0] is net


def test_json_roundtrip_exact(tmp_path):
    spec = network_spec(3, 1.5)
    net = random_network(spec, 5, 2, seed=4)
    path = tmp_path / "net.json"
    save_network(path, net)
    back = load_network(path)
    assert net_to_dict(back) == net_to_dict(net)

    assert len(back.levels) == len(net.levels) == 3
    assert all(np.array_equal(a, b) for a, b in zip(back.levels, net.levels))

    def same(a, obj):
        """The tree views read the numbers net_to_dict wrote."""
        if obj["type"] == "leaf":
            return len(a.levels) == 1 and a.w.tolist() == obj["w"]
        return (
            a.comb_weights.tolist() == obj["weights"]
            and len(a.children) == len(obj["children"])
            and all(same(x, o) for x, o in zip(a.children, obj["children"]))
        )

    assert same(back, net_to_dict(net))
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
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 6))
@example(13, 4, 6)
def test_algorithm3_depth1_matches_halfspace_scheme(refine_budget, seed, k, T):
    """At depth 1 with unit budget and a shared batch size the network
    trainer and the least-squares halfspace scheme draw identical
    candidates round by round, so their outputs agree bit for bit, for
    any seed, batch size k and round count T."""
    loss = piecewise_linear(1.0)
    spec = network_spec(1, 1.0, 2.0)
    data, _ = planted_network(70, 4, 0.1, spec, 2, seed=8)
    eps, delta = 0.5, 0.05
    net = algorithm3(data, loss, spec, eps, delta, T, refine_budget, seed, k=k)
    model = algorithm2(data, loss, 2.0, eps, delta, T, refine_budget, seed, k=k)
    assert len(net.levels) == 1
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


def _combine_built_network(rng, spec, dim, width, depth):
    """random_network's draw built node by node with combine, as a
    reference: every leaf, then each level's nodes left to right, one
    vector draw per node."""
    B = spec.budget
    nets = []
    for _ in range(width ** (depth - 1)):
        v = rng.standard_normal(dim)
        nets.append(Network([(v * (B / lq_norm(v, spec.leaf_p)))[None]]))
    for _ in range(depth - 1):
        parents = []
        for i in range(0, len(nets), width):
            c = rng.standard_normal(width)
            parents.append(combine(nets[i:i + width], c * (B / np.sum(np.abs(c)))))
        nets = parents
    return nets[0]


@pytest.mark.parametrize("depth,leaf_p,width", [(1, 2.0, 3), (2, 1.5, 1), (2, 1.5, 4),
                                                (3, 2.0, 2), (3, 1.2, 3), (4, 1.7, 2)])
def test_random_network_equals_combine_built_reference(depth, leaf_p, width):
    """The level tensors drawn at once equal a combine-built tree's, bit
    for bit: same draw order, each leaf normalized on its own."""
    spec = network_spec(depth, 1.5, leaf_p)
    for seed in range(5):
        net = random_network(spec, 6, width, seed)
        ref = _combine_built_network(np.random.default_rng(np.random.SeedSequence(seed)),
                                     spec, 6, width, depth)
        assert len(net.levels) == len(ref.levels) == depth
        for L, R in zip(net.levels, ref.levels):
            assert L.shape == R.shape and L.tobytes() == R.tobytes()


def test_json_golden_format(tmp_path):
    """The saved file is exactly this text: type/w for leaves and
    type/weights/children for nodes, floats as shortest repr."""
    net = Network([[[0.5, -0.25], [0.0, 1.0]], [[0.75, -0.25]]])
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


@pytest.mark.parametrize("levels", [
    (),
    (np.ones(3),),
    (np.ones((2, 3)),),
    (np.ones((4, 3)), np.ones((2, 3)), np.ones((1, 2))),
    (np.ones((2, 0)), np.ones((1, 2))),
    (np.ones((2, 3)), np.ones((0, 2)), np.ones((1, 0))),
], ids=["empty", "leaf_level_1d", "two_rows_on_top", "rows_not_a_share", "zero_dim",
        "zero_width"])
def test_network_rejects_non_uniform_levels(levels):
    """Direct construction checks what combine and net_from_dict rely on:
    nonempty matrices, each row of C_j combining N_{j-1}/s_j outputs of
    the level below, and one row on top."""
    with pytest.raises(ValueError):
        Network(levels)


def test_combine_rejects_unequal_children():
    """Children of different depths or leaf dimensions have no common
    level tensors; combine refuses them, and an empty combination."""
    leaf, pair = Network([[[1.0, 0.0]]]), Network([[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5]]])
    assert np.array_equal(combine([leaf, leaf], [0.5, -0.5]).levels[0], [[1.0, 0.0], [1.0, 0.0]])
    for children in ([leaf, pair], [leaf, Network([[[1.0, 0.0, 0.0]]])], []):
        with pytest.raises(ValueError):
            combine(children, np.ones(len(children)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_network_gradient_matches_finite_differences(m):
    """The per-level backward pass agrees with central differences of the
    risk at depth 1 to 3 (smooth loss, tanh and erf activations)."""
    data, _ = planted_network(40, 3, 0.1, network_spec(2, 1.5), 2, seed=1)
    for activation in ("tanh", "erf"):
        spec = network_spec(m, 1.5, 2.0, activation)
        levels = random_network(spec, 3, 2, seed=3).levels
        risk, grad, _ = row_kernels(data, logistic_sigmoid(1.0), [L.shape for L in levels],
                                    spec.leaf_p, spec.budget, spec.act)
        x, row = 0.5 * np.concatenate([L.ravel() for L in levels]), np.array([0])
        h = 1e-6
        fd = [(risk((x + h * e)[None], row)[0][0] - risk((x - h * e)[None], row)[0][0])
              / (2.0 * h) for e in np.eye(x.size)]
        assert np.allclose(grad(x[None], risk(x[None], row)[1], row)[0], fd, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_kernel_risks_match_empirical_risk(m, activation):
    """best_round picks a round by the row kernels' risks, which evaluate
    the network on (-y x)^T, and the CSV reports empirical_risk of its
    predictor, which evaluates it on x: the two agree to 1e-12 of the risk
    for random networks scaled from their budget down to 1e-3 of it, widths
    1 to 3 and two losses."""
    data, _ = planted_network(60, 4, 0.1, network_spec(2, 1.0), 2, seed=2)
    for width, seed, loss in ((1, 5, piecewise_linear(1.0)), (2, 6, logistic_sigmoid(2.0)),
                              (3, 7, piecewise_linear(3.0))):
        spec = network_spec(m, 2.0, 1.5, activation)
        nets = [Network([f * L for L in random_network(spec, data.dim, width, seed + t).levels])
                for t, f in enumerate((1.0, 0.5, 0.1, 1e-3))]
        P = np.array([np.concatenate([L.ravel() for L in net.levels]) for net in nets])
        shapes = [L.shape for L in nets[0].levels]
        risks, _ = row_kernels(data, loss, shapes, spec.leaf_p, spec.budget, spec.act)[0](
            P, np.arange(len(P)))
        for net, risk in zip(nets, risks):
            ref = empirical_risk(predictor(net, spec), loss, data)
            assert abs(risk - ref) <= 1e-12 * ref


def test_algorithm3_depth2_chunk_size_changes_nothing(monkeypatch):
    """Depth-2 rounds refined one at a time or BLOCK_ROWS at a time in
    lockstep give the same network, bit for bit."""
    spec = network_spec(2, 1.0)
    loss = piecewise_linear(1.0)
    data, _ = planted_network(80, 3, 0.15, spec, 2, seed=6)
    args = (data, loss, spec, 0.5, 0.05, 60, 40, 3)
    chunked = algorithm3(*args, k=8, s=2)
    monkeypatch.setattr(util, "BLOCK_ROWS", 1)
    single = algorithm3(*args, k=8, s=2)
    assert all(np.array_equal(a, b) for a, b in zip(chunked.levels, single.levels))
    validate(chunked, spec)


def test_algorithm3_depth3_chunk_size_changes_nothing(monkeypatch):
    """Depth-3 rounds with four leaves, refined one at a time or all 40 in
    one chunk, give the same network, bit for bit."""
    spec = network_spec(3, 1.0)
    data, _ = planted_network(80, 3, 0.15, network_spec(2, 1.0), 2, seed=6)
    args = (data, piecewise_linear(1.0), spec, 0.5, 0.05, 40, 30, 7)
    chunked = algorithm3(*args, k=6, s=2)
    monkeypatch.setattr(util, "BLOCK_ROWS", 1)
    single = algorithm3(*args, k=6, s=2)
    assert [L.shape for L in chunked.levels] == [(4, 3), (2, 2), (1, 2)]
    assert all(np.array_equal(a, b) for a, b in zip(chunked.levels, single.levels))
    validate(chunked, spec)


def test_algorithm3_depth3_memory_is_bounded_by_the_chunk():
    """n = 100,000 at depth 3 with four leaves: a round's refinement holds
    2n floats of scratch per node, 1.4 million (11 MB), so the 8 rounds in
    one chunk would take 90 MB.  util.blocks puts one round in a chunk."""
    data, _ = planted_halfspace(100_000, 5, 0.1, 2.0, seed=3)
    tracemalloc.start()
    try:
        algorithm3(data, piecewise_linear(1.0), network_spec(3, 1.0), 0.5, 0.05, 8, 3, 5,
                   k=8, s=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _recursive_candidate(X, spec, level, s, targets):
    """(values on X, level tensors) of one candidate, built the recursive
    way: each node's children first, then the next target row of its
    level, then its fit."""
    if level == 1:
        design, p, levels = X, spec.leaf_p, []
    else:
        parts = [_recursive_candidate(X, spec, level - 1, s, targets) for _ in range(s)]
        design, p = spec.act.value(np.stack([v for v, _ in parts], axis=1)), 1.0
        levels = [np.concatenate(same) for same in zip(*(ls for _, ls in parts))]
    u = next(targets[level - 1])
    c = constrained_least_squares(design, u, p, spec.budget)
    return design @ c, levels + [c[None, :]]


@pytest.mark.parametrize("depth,s,leaf_p", [(2, 3, 2.0), (3, 2, 2.0), (3, 2, 1.5)])
def test_algorithm3_candidates_match_recursive_build(depth, s, leaf_p):
    """Without refinement, Algorithm 3's level-by-level chunk fits pick
    the candidate that building each round recursively, one fit at a
    time, picks; the two differ only by rounding (einsum against BLAS
    products of child outputs)."""
    spec = network_spec(depth, 1.5, leaf_p)
    loss = piecewise_linear(1.0)
    data, _ = planted_network(60, 3, 0.1, network_spec(2, 1.0), 2, seed=4)
    T, k, seed = 7, 6, 11
    shapes = [(s ** (depth - 1 - j), s if j else data.dim) for j in range(depth)]
    counts = [n for n, _ in shapes]
    nodes = sum(counts)
    rows = []
    for t in range(T):
        # Round t's block: k uniforms for its batch, then k per node, level
        # by level from the leaves.
        u = round_uniforms(seed, range(t, t + 1), k * (1 + nodes))[0]
        U = spec.budget * (2.0 * u[k:] - 1.0).reshape(nodes, k)
        targets = [iter(part) for part in np.split(U, np.cumsum(counts)[:-1])]
        levels = _recursive_candidate(draw_batch(data, u[:k]), spec, depth, s, targets)[1]
        rows.append(np.concatenate([L.ravel() for L in levels]))
    kernels = row_kernels(data, loss, shapes, spec.leaf_p, spec.budget, spec.act)
    risks, _ = kernels[0](np.array(rows), np.arange(T))
    net = algorithm3(data, loss, spec, 0.5, 0.05, T, 0, seed, k=k, s=s)
    got = np.concatenate([L.ravel() for L in net.levels])
    assert np.allclose(got, rows[int(np.argmin(risks))], rtol=0.0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(row_kernel_problems(st.integers(2, 3)), st.integers(0, 30), st.data())
def test_network_kernel_rows_run_alone(problem, budget, data_strategy):
    """For networks of depth 2-3, the risks, states, gradients,
    projections and lockstep refinements of any subset of rows, and of
    each row alone, equal those rows of the call on the whole stack, bit
    for bit (row_kernel_problems.assert_rows_run_alone)."""
    rows = data_strategy.draw(st.lists(st.integers(0, len(problem[-1]) - 1), min_size=1,
                                       max_size=len(problem[-1]), unique=True))
    assert_rows_run_alone(problem, budget, rows)
