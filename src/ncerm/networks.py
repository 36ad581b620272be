"""Norm-bounded networks and their random-restart training loop.

The class is defined recursively: depth 1 holds linear maps x -> <w, x>
with ||w||_p <= B; at depth m, outputs of depth m-1 members pass through
a bounded odd activation and are combined linearly under an l1 budget B.
Leaf/Node trees are uniform (one width per level) and all arithmetic
runs on their level tensors (to_levels).  Training draws a candidate per
round (random targets fitted by constrained least squares, leaves first)
and keeps the best after optional joint local refinement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .data import draw_batch
from .halfspace import best_round
from .solvers import constrained_least_squares, linear_kernels, lockstep_descent, project
from .util import NORM_TOL, ceil_big_product, check_unit_ball, dual_exponent, lq_norm, round_rng

_ERF_SCALE = math.sqrt(math.pi) / 2.0
# name -> (value, derivative); erf is rescaled from slope 2/sqrt(pi) to 1 at 0.
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda x: 1.0 - np.square(np.tanh(x))),
    "erf": (lambda x: erf(_ERF_SCALE * x), lambda x: np.exp(-(_ERF_SCALE * x) ** 2)),
    "clamp": (lambda x: np.clip(x, -1.0, 1.0), lambda x: (np.abs(x) < 1.0).astype(float)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


@dataclass(frozen=True)
class Activation:
    """Odd, 1-Lipschitz squashing function with range inside [-1, 1]."""

    name: str

    def __post_init__(self):
        if self.name not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, not {self.name!r}")

    def value(self, x):
        return _ACTIVATIONS[self.name][0](np.asarray(x, dtype=float))

    def deriv(self, x):
        return _ACTIVATIONS[self.name][1](np.asarray(x, dtype=float))


@dataclass(frozen=True)
class NetworkClassSpec:
    """Class parameters: depth, norm budget, leaf/input exponents, activation.

    leaf_p in (1, 2] bounds leaf weights; input_q is its dual and bounds
    the data (||x||_q <= 1); budget >= 1 caps every weight-vector norm.
    """

    depth: int
    budget: float
    leaf_p: float
    input_q: float
    activation: str

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.budget < 1.0:
            raise ValueError("budget must be >= 1")
        if not (1.0 < self.leaf_p <= 2.0):
            raise ValueError("leaf_p must be in (1, 2]")
        if abs(1.0 / self.leaf_p + 1.0 / self.input_q - 1.0) > 1e-9:
            raise ValueError("input_q must be the dual exponent of leaf_p")
        Activation(self.activation)  # raises ValueError for an unknown name

    @property
    def act(self) -> Activation:
        return Activation(self.activation)


def network_spec(depth: int, budget: float, leaf_p: float = 2.0,
                 activation: str = "tanh") -> NetworkClassSpec:
    return NetworkClassSpec(depth, float(budget), float(leaf_p),
                            dual_exponent(leaf_p), activation)


@dataclass(frozen=True)
class Leaf:
    """Linear map x -> <w, x>."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.ascontiguousarray(self.w, dtype=float))


@dataclass(frozen=True)
class Node:
    """Linear combination of activated child outputs."""

    children: tuple
    comb_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "comb_weights", np.ascontiguousarray(self.comb_weights, dtype=float))


def to_levels(net) -> list:
    """Level tensors [W, C_1, ..., C_{m-1}] of a depth-m uniform tree.

    W (N, d) holds the leaf weights left to right; row i of C_j (N_j, s_j)
    combines outputs i*s_j .. (i+1)*s_j - 1 of level j.
    """
    nodes, levels = [net], []
    while isinstance(nodes[0], Node):
        s = len(nodes[0].children)
        if s < 1 or not all(isinstance(n, Node) and n.comb_weights.shape == (s,) == (len(n.children),)
                            for n in nodes):
            raise ValueError("network not uniform: nodes need children, one weight each")
        levels.insert(0, np.array([n.comb_weights for n in nodes]))
        nodes = [c for n in nodes for c in n.children]
    if not all(isinstance(n, Leaf) and n.w.shape == nodes[0].w.shape for n in nodes) or (
            nodes[0].w.ndim != 1 or nodes[0].w.size < 1):
        raise ValueError("network not uniform: leaves need one depth and one dimension")
    return [np.array([n.w for n in nodes]), *levels]


def from_levels(levels):
    """The tree whose level tensors are given (inverse of to_levels)."""
    nodes = [Leaf(w.copy()) for w in levels[0]]
    for C in levels[1:]:
        nodes = [Node(nodes[i * len(c):(i + 1) * len(c)], c.copy()) for i, c in enumerate(C)]
    return nodes[0]


def _flat(levels) -> np.ndarray:
    return np.concatenate([L.ravel() for L in levels])


def _split(row: np.ndarray, shapes) -> list:
    cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(row, cuts), shapes)]


def _forward(levels, act: Activation, X: np.ndarray) -> list:
    """Pre-activation outputs Z_j (n, N_j) of every level; the last is (n, 1)."""
    Z = [X @ levels[0].T]
    for C in levels[1:]:
        Z.append(np.einsum("nis,is->ni", act.value(Z[-1].reshape(len(X), *C.shape)), C))
    return Z


def depth(net) -> int:
    return len(to_levels(net))


def validate(net, spec: NetworkClassSpec) -> None:
    """Raise ValueError unless net is a uniform member of the class."""
    levels = to_levels(net)
    if len(levels) > spec.depth:
        raise ValueError(f"network depth {len(levels)} exceeds class depth {spec.depth}")
    norms = [lq_norm(levels[0], spec.leaf_p), *(np.sum(np.abs(C), axis=1) for C in levels[1:])]
    for j, (L, norm) in enumerate(zip(levels, norms), start=1):
        if not (np.all(np.isfinite(L)) and np.max(norm) <= spec.budget + NORM_TOL):
            raise ValueError(f"level {j} weights must be finite with norms within "
                             f"budget {spec.budget} (max norm {np.max(norm)})")


def evaluate(net, spec: NetworkClassSpec, x):
    """Network value at a point (1-D input) or per row of a matrix."""
    x = np.asarray(x, dtype=float)
    out = _forward(to_levels(net), spec.act, np.atleast_2d(x))[-1][:, 0]
    return float(out[0]) if x.ndim == 1 else out


def predictor(net, spec: NetworkClassSpec):
    """Vectorized callable suitable for the risk functions."""
    return lambda X: evaluate(net, spec, X)


def net_to_dict(net) -> dict:
    if isinstance(net, Leaf):
        return {"type": "leaf", "w": [float(v) for v in net.w]}
    return {"type": "node", "weights": [float(v) for v in net.comb_weights],
            "children": [net_to_dict(c) for c in net.children]}


def net_from_dict(obj):
    """Inverse of net_to_dict; raises ValueError for anything it cannot
    have written, including a tree that is not uniform."""
    try:
        if obj["type"] == "leaf":
            net = Leaf(np.asarray(obj["w"], dtype=float))
        elif obj["type"] == "node":
            net = Node(tuple(net_from_dict(c) for c in obj["children"]),
                       np.asarray(obj["weights"], dtype=float))
        else:
            raise ValueError(f"unknown node type {obj['type']!r}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"network JSON: not a leaf or node object ({exc!r})") from None
    to_levels(net)
    return net


def save_network(path, net) -> None:
    """JSON tree; float repr round-trips exactly."""
    with open(path, "w") as fh:
        json.dump(net_to_dict(net), fh)
        fh.write("\n")


def load_network(path):
    with open(path) as fh:
        return net_from_dict(json.load(fh))


def config_alg3(q: float, epsilon: float, delta: float, m: int):
    """Per-round sample size k, width s, and the round count T_theory.

    k = ceil(q / eps^2), s = ceil(1 / eps^2),
    T = ceil(5 * (4/eps)^(k*(s^m - 1)/(s - 1)) * ln(1/delta)).
    """
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (2.0 <= q < math.inf):
        raise ValueError("q must be finite and >= 2")
    k = max(1, math.ceil(q / epsilon**2))
    s = max(1, math.ceil(1.0 / epsilon**2))
    levels = m if s == 1 else (s**m - 1) // (s - 1)
    T_theory = ceil_big_product(5.0, 4.0 / epsilon, k * levels, math.log(1.0 / delta))
    return k, s, T_theory


def _generate(X: np.ndarray, spec: NetworkClassSpec, level: int, s: int,
              rng: np.random.Generator):
    """(values on X, level tensors) of one random candidate on a fixed batch.

    Randomness is consumed depth-first: children are generated before the
    node's target vector u is drawn, so a given (seed, structure) pair
    always yields the same candidate."""
    if level == 1:
        design, p, levels = X, spec.leaf_p, []
    else:
        parts = [_generate(X, spec, level - 1, s, rng) for _ in range(s)]
        design, p = spec.act.value(np.stack([v for v, _ in parts], axis=1)), 1.0
        levels = [np.concatenate(same) for same in zip(*(ls for _, ls in parts))]
    B = spec.budget
    u = rng.uniform(-B, B, size=len(X))
    c = constrained_least_squares(design, u, p, B)
    return design @ c, levels + [c[None, :]]


def generate_candidate(batch, spec: NetworkClassSpec, level: int, s: int, seed: int):
    """Random candidate of the given depth fitted to uniform targets."""
    if not 1 <= level <= spec.depth or s < 1:
        raise ValueError("level must be in [1, class depth] and s >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return from_levels(_generate(np.asarray(batch.features, dtype=float), spec, level, s, rng)[1])


def network_kernels(data, loss, spec: NetworkClassSpec, shapes):
    """Row functions (risk, gradient, projection) for networks whose flat
    rows concatenate level tensors of the given shapes.  Each row is
    computed on its own, so its values do not depend on which rows share
    the call.  Depth 1 uses linear_kernels, as Algorithm 2 does.
    """
    if len(shapes) == 1:
        return linear_kernels(data, loss, spec.leaf_p, spec.budget)
    X, y, a, act, B = data.features, data.labels, data.weights, spec.act, spec.budget

    def risk(row):
        return a @ loss.value(-y * _forward(_split(row, shapes), act, X)[-1][:, 0])

    def grad(row):
        # Backward pass: G holds d risk / d Z_j, from the output down.
        levels = _split(row, shapes)
        Z = _forward(levels, act, X)
        G = (a * loss.grad(-y * Z[-1][:, 0]) * -y)[:, None]
        grads = []
        for C, Z_in in zip(levels[:0:-1], Z[-2::-1]):
            Z_in = Z_in.reshape(len(X), *C.shape)
            grads.append(np.einsum("ni,nis->is", G, act.value(Z_in)))
            G = (G[:, :, None] * C * act.deriv(Z_in)).reshape(len(X), -1)
        return _flat([G.T @ X, *grads[::-1]])

    def project_row(row):
        W, *blocks = _split(row, shapes)
        return _flat([project(W, spec.leaf_p, B), *(project(C, 1.0, B) for C in blocks)])

    def by_row(fn):
        return lambda P: np.array([fn(row) for row in P])

    return by_row(risk), by_row(grad), by_row(project_row)


def refine_network(net, spec: NetworkClassSpec, data, loss, step_budget: int):
    """Joint monotone projected descent over all weights of the network."""
    levels = to_levels(net)
    shapes = [L.shape for L in levels]
    P, _ = lockstep_descent(_flat(levels), *network_kernels(data, loss, spec, shapes),
                            step_budget)
    return from_levels(_split(P[0], shapes))


def algorithm3(data, loss, spec: NetworkClassSpec, epsilon: float, delta: float,
               T_budget: int, refine_budget: int, seed: int,
               k: int | None = None, s: int | None = None):
    """Best-of-T random candidates, each optionally refined.

    Each round draws k points by importance weight, builds a candidate of
    the class depth (leaves fitted to uniform targets, then each level's
    combination weights), refines it, and scores it on the full sample;
    the earliest best of min(T_theory, T_budget) rounds of
    halfspace.best_round wins, exactly as in Algorithm 2 at depth 1.
    """
    check_unit_ball(data.features, spec.input_q)
    k_cfg, s_cfg, T_theory = config_alg3(spec.input_q, epsilon, delta, spec.depth)
    k = k_cfg if k is None else int(k)
    s = s_cfg if s is None else int(s)
    if k < 1 or s < 1:
        raise ValueError("k and s must be >= 1")
    # Level j (leaves are level 0) has s^(m-1-j) members.
    shapes = [(s ** (spec.depth - 1 - j), s if j else data.dim) for j in range(spec.depth)]

    def candidate(t):
        rng = round_rng(seed, t)
        batch = draw_batch(rng, data, k)
        return _flat(_generate(batch.features, spec, spec.depth, s, rng)[1])

    row = best_round(min(T_budget, T_theory), candidate,
                     network_kernels(data, loss, spec, shapes), refine_budget)
    return from_levels(_split(row, shapes))


def random_network(spec: NetworkClassSpec, dim: int, width: int, seed: int):
    """Random class member with every norm at the budget (test fixture)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    B = spec.budget

    def build(level):
        if level == 1:
            v = rng.standard_normal(dim)
            return Leaf(v * (B / lq_norm(v, spec.leaf_p)))
        children = tuple(build(level - 1) for _ in range(width))
        c = rng.standard_normal(width)
        return Node(children, c * (B / np.sum(np.abs(c))))

    return build(spec.depth)


def zero_network(dim: int):
    """The zero function as a depth-1 member."""
    return Leaf(np.zeros(dim))
