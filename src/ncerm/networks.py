"""Norm-bounded networks and their random-restart training loop.

The class is defined recursively: depth 1 holds linear maps x -> <w, x>
with ||w||_p <= B; at depth m, outputs of depth m-1 members pass through
a bounded odd activation and are combined linearly under an l1 budget B.
Every network held here is uniform (one width per level), so a Network
is just its level tensors and all arithmetic runs on them; combine builds
the level above equally shaped children.  Its tree views (children,
comb_weights, w) follow the recursive definition for the JSON format and
callers that read a BoostNet output as its weak networks.  Training draws
a candidate per round (random targets fitted by constrained least
squares, leaves first, each level for a whole chunk of rounds at once)
and keeps the best after optional joint local refinement.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .halfspace import best_round, check_eps_delta, draw_rounds
from .losses import apply_into
from .solvers import constrained_least_squares, linear_kernels, lockstep_descent, projector
from .util import NORM_TOL, ceil_big_product, check_unit_ball, dual_exponent, lq_norm

_ERF_SCALE = math.sqrt(math.pi) / 2.0
_erf = np.frompyfunc(math.erf, 1, 1)  # elementwise math.erf, object dtype out
# name -> (value, derivative), each f(float array x, out) writing into out, of
# x's shape and not overlapping x; erf is rescaled from slope 2/sqrt(pi) to 1.
_ACTIVATIONS = {
    "tanh": (np.tanh,
             lambda x, out: np.subtract(1.0, np.square(np.tanh(x, out=out), out=out), out=out)),
    "erf": (lambda x, out: _erf(np.multiply(x, _ERF_SCALE, out=out), out=out, casting="unsafe"),
            lambda x, out: np.exp(np.negative(np.square(np.multiply(x, _ERF_SCALE, out=out),
                                                        out=out), out=out), out=out)),
    "clamp": (lambda x, out: np.clip(x, -1.0, 1.0, out=out),
              lambda x, out: np.less(np.abs(x, out=out), 1.0, out=out)),
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
        return apply_into(_ACTIVATIONS[self.name][0], x)

    def deriv(self, x):
        return apply_into(_ACTIVATIONS[self.name][1], x)

    @property
    def functions(self):
        """(value, derivative), each f(x, out) on float arrays, no conversion."""
        return _ACTIVATIONS[self.name]


@dataclass(frozen=True)
class NetworkClassSpec:
    """Class parameters: depth, norm budget, leaf exponent, activation.

    leaf_p in (1, 2] bounds leaf weights; its dual input_q bounds the data
    (||x||_q <= 1); budget >= 1 caps every weight-vector norm.
    """

    depth: int
    budget: float
    leaf_p: float
    activation: str

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.budget < 1.0:
            raise ValueError("budget must be >= 1")
        if not (1.0 < self.leaf_p <= 2.0):
            raise ValueError("leaf_p must be in (1, 2]")
        Activation(self.activation)  # raises ValueError for an unknown name

    @property
    def input_q(self) -> float:
        return dual_exponent(self.leaf_p)

    @property
    def act(self) -> Activation:
        return Activation(self.activation)


def network_spec(depth: int, budget: float, leaf_p: float = 2.0,
                 activation: str = "tanh") -> NetworkClassSpec:
    return NetworkClassSpec(depth, float(budget), float(leaf_p), activation)


@dataclass(frozen=True, eq=False)
class Network:
    """Uniform network held as its level tensors (W, C_1, ..., C_{m-1}).

    W (N, d) holds the leaf weights left to right; row i of C_j (N_j, s_j)
    combines outputs i*s_j .. (i+1)*s_j - 1 of level j - 1, and the top
    level has one row.  The tensors are read-only copies.
    """

    levels: tuple

    def __post_init__(self):
        levels = tuple(np.array(L, dtype=float) for L in self.levels)
        for L in levels:
            L.flags.writeable = False
        if not levels or any(L.ndim != 2 or L.size < 1 for L in levels) or len(levels[-1]) != 1 \
                or any(len(C) * C.shape[1] != len(L) for L, C in zip(levels, levels[1:])):
            raise ValueError("network not uniform: levels must be nonempty matrices, "
                             "each row combining its share of the rows below, one on top")
        object.__setattr__(self, "levels", levels)

    # Tree views of the recursive definition, read by the JSON writer.
    @property
    def children(self) -> tuple:
        """The networks one level shallower combined at the top."""
        s = len(self.comb_weights)
        return tuple(Network([L[i * len(L) // s:(i + 1) * len(L) // s] for L in self.levels[:-1]])
                     for i in range(s))

    @property
    def comb_weights(self) -> np.ndarray:
        if len(self.levels) == 1:
            raise AttributeError("a depth-1 network has no combination weights")
        return self.levels[-1][0]

    @property
    def w(self) -> np.ndarray:
        if len(self.levels) > 1:
            raise AttributeError("only a depth-1 network has leaf weights w")
        return self.levels[0][0]


def combine(children, weights) -> Network:
    """The network one level deeper that combines equally shaped children."""
    if len({tuple(L.shape for L in c.levels) for c in children}) != 1:
        raise ValueError("network not uniform: combine needs children of one shape")
    return Network([*map(np.concatenate, zip(*(c.levels for c in children))),
                    np.asarray(weights, dtype=float)[None]])


def _flat(levels) -> np.ndarray:
    """Rows (c, D) of level stacks (c, ...); _split is its inverse."""
    return np.concatenate([L.reshape(len(L), -1) for L in levels], axis=1)


def _split(P: np.ndarray, shapes) -> list:
    cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(len(P), *shape)
            for part, shape in zip(np.split(P, cuts, axis=1), shapes)]


def _forward(levels, act: Activation, X: np.ndarray) -> list:
    """Pre-activation outputs Z_j (c, n, N_j) of every level of c networks
    whose level stacks have a leading row axis; the last is (c, n, 1).
    Leaves are one BLAS product per row slice, levels above one einsum.
    """
    Z = [X @ levels[0].transpose(0, 2, 1)]
    for C in levels[1:]:
        A = act.value(Z[-1].reshape(len(C), len(X), *C.shape[1:]))
        Z.append(np.einsum("cnis,cis->cni", A, C))
    return Z


def validate(net, spec: NetworkClassSpec) -> None:
    """Raise ValueError unless net is a uniform member of the class."""
    levels = net.levels
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
    out = _forward([L[None] for L in net.levels], spec.act, np.atleast_2d(x))[-1][0, :, 0]
    return float(out[0]) if x.ndim == 1 else out


def predictor(net, spec: NetworkClassSpec):
    """Vectorized callable suitable for the risk functions."""
    return lambda X: evaluate(net, spec, X)


def net_to_dict(net) -> dict:
    if len(net.levels) == 1:
        return {"type": "leaf", "w": [float(v) for v in net.w]}
    return {"type": "node", "weights": [float(v) for v in net.comb_weights],
            "children": [net_to_dict(c) for c in net.children]}


def net_from_dict(obj):
    """Inverse of net_to_dict; raises ValueError for anything it cannot
    have written, including a tree that is not uniform."""
    try:
        if obj["type"] == "leaf":
            return Network([np.asarray(obj["w"], dtype=float)[None]])
        if obj["type"] == "node":
            return combine([net_from_dict(c) for c in obj["children"]], obj["weights"])
        raise ValueError(f"unknown node type {obj['type']!r}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"network JSON: not a leaf or node object ({exc!r})") from None


def save_network(path, net) -> None:
    """JSON tree; float repr round-trips exactly."""
    with open(path, "w") as fh:
        json.dump(net_to_dict(net), fh)
        fh.write("\n")


def load_network(path):
    with open(path) as fh:
        return net_from_dict(json.load(fh))


@functools.lru_cache(maxsize=256)
def config_alg3(q: float, epsilon: float, delta: float, m: int):
    """Per-round sample size k, width s, and the round count T_theory.

    k = ceil(q / eps^2), s = ceil(1 / eps^2),
    T = ceil(5 * (4/eps)^(k*(s^m - 1)/(s - 1)) * ln(1/delta)).
    Each distinct argument tuple is computed once (BoostNet asks for the
    same one every round).
    """
    check_eps_delta(epsilon, delta)
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (2.0 <= q < math.inf):
        raise ValueError("q must be finite and >= 2")
    k = max(1, math.ceil(q / epsilon**2))
    s = max(1, math.ceil(1.0 / epsilon**2))
    levels = m if s == 1 else (s**m - 1) // (s - 1)
    T_theory = ceil_big_product(5.0, 4.0 / epsilon, k * levels, math.log(1.0 / delta))
    return k, s, T_theory


def network_kernels(data, loss, spec: NetworkClassSpec, shapes):
    """Row functions (risk, gradient, projection) for networks whose flat
    rows concatenate level tensors of the given shapes, each acting on a
    whole stack of rows.  A row's state is its flattened forward
    pre-activations, so the gradient runs only the backward pass.  Risks
    are one BLAS dot per row (np.vecdot), so like the leaf products and
    einsums they do not depend on which rows share the call.  Depth 1
    uses linear_kernels, as Algorithm 2 does: their einsum margins differ
    in the last bits from the BLAS leaf product, and sharing them keeps
    Algorithm 3 at depth 1 equal to Algorithm 2 bit for bit.
    """
    if len(shapes) == 1:
        return linear_kernels(data, loss, spec.leaf_p, spec.budget)
    X, y, a, act, B = data.features, data.labels, data.weights, spec.act, spec.budget
    z_shapes = [(len(X), n) for n, _ in shapes]

    def risk_rows(P, rows):
        Z = _forward(_split(P, shapes), act, X)
        return np.vecdot(loss.value(-y * Z[-1][..., 0]), a), _flat(Z)

    def grad_rows(P, state, rows):
        # Backward pass: G holds d risk / d Z_j, from the output down.
        levels, Z = _split(P, shapes), _split(state, z_shapes)
        G = (a * loss.grad(-y * Z[-1][..., 0]) * -y)[..., None]
        grads = []
        for C, Z_in in zip(levels[:0:-1], Z[-2::-1]):
            Z_in = Z_in.reshape(len(P), len(X), *C.shape[1:])
            grads.append(np.einsum("cni,cnis->cis", G, act.value(Z_in)))
            G = (G[..., None] * C[:, None] * act.deriv(Z_in)).reshape(len(P), len(X), -1)
        return _flat([G.transpose(0, 2, 1) @ X, *grads[::-1]])

    project_leaves, project_comb = projector(spec.leaf_p, B), projector(1.0, B)

    def project_rows(P):
        W, *blocks = _split(P, shapes)
        return _flat([project_leaves(W), *map(project_comb, blocks)])

    return risk_rows, grad_rows, project_rows


def refine_network(net, spec: NetworkClassSpec, data, loss, step_budget: int):
    """Joint monotone projected descent over all weights of the network."""
    shapes = [L.shape for L in net.levels]
    P, _ = lockstep_descent(_flat([L[None] for L in net.levels]),
                            *network_kernels(data, loss, spec, shapes), step_budget)
    return Network([L[0] for L in _split(P, shapes)])


def algorithm3(data, loss, spec: NetworkClassSpec, epsilon: float, delta: float,
               T_budget: int, refine_budget: int, seed: int,
               k: int | None = None, s: int | None = None):
    """Best-of-T random candidates, each optionally refined.

    Each round draws k points by importance weight and then uniform
    targets for every node, depth-first.  Its candidate of the class depth
    fits the leaves to their targets on the batch, then each level's
    combination weights to theirs on the activated outputs below.  It is
    refined and scored on the full sample; the earliest best of
    min(T_theory, T_budget) rounds of halfspace.best_round wins, exactly
    as in Algorithm 2 at depth 1.
    """
    check_unit_ball(data.features, spec.input_q)
    k_cfg, s_cfg, T_theory = config_alg3(spec.input_q, epsilon, delta, spec.depth)
    k = k_cfg if k is None else int(k)
    s = s_cfg if s is None else int(s)
    if k < 1 or s < 1:
        raise ValueError("k and s must be >= 1")
    # Level j (leaves are level 0) has s^(m-1-j) members.
    shapes = [(s ** (spec.depth - 1 - j), s if j else data.dim) for j in range(spec.depth)]
    counts = [n for n, _ in shapes]
    rows, B = _target_rows(counts, s), spec.budget

    def candidates(ts):
        c = len(ts)
        X, U = draw_rounds(data, seed, ts, k, len(rows), B)
        U = U[:, rows]
        # Leaves fit the round's batch and each level above the activated
        # outputs of its children; each level of the chunk is one stacked fit.
        D, levels, first = np.repeat(X[:, None], counts[0], axis=1), [], 0
        for j, n in enumerate(counts):
            if j:
                Z = np.einsum("cnkd,cnd->cnk", D, levels[-1])
                D = np.ascontiguousarray(
                    spec.act.value(Z).reshape(c, n, s, k).transpose(0, 1, 3, 2))
            u = U[:, first:first + n].reshape(c * n, k)
            fits = constrained_least_squares(D.reshape(c * n, k, -1), u,
                                             spec.leaf_p if j == 0 else 1.0, B)
            levels.append(fits.reshape(c, n, -1))
            first += n
        return _flat(levels)

    row = best_round(min(T_budget, T_theory), candidates,
                     network_kernels(data, loss, spec, shapes), refine_budget)
    return Network([L[0] for L in _split(row[None], shapes)])


def _target_rows(counts, s: int) -> np.ndarray:
    """Row of each node in a round's block of target draws.

    Nodes are numbered leaves first, then level by level up, as in the
    level tensors, whose level j has counts[j] members.  A round draws its
    targets depth-first: a node's after those of all its s children.
    """
    orders, first = [[i] for i in range(counts[0])], counts[0]
    for n in counts[1:]:
        orders = [sum(orders[i * s:(i + 1) * s], []) + [first + i] for i in range(n)]
        first += n
    return np.argsort(orders[0])


def _draw_network(rng: np.random.Generator, spec: NetworkClassSpec, dim: int,
                  width: int, depth: int) -> list:
    """Level tensors of a depth-first random network, every norm at the
    budget: a node draws its `width` children, then its combination weights."""
    B = spec.budget
    if depth == 1:
        v = rng.standard_normal(dim)
        return [(v * (B / lq_norm(v, spec.leaf_p)))[None]]
    children = [_draw_network(rng, spec, dim, width, depth - 1) for _ in range(width)]
    c = rng.standard_normal(width)
    return [*map(np.concatenate, zip(*children)), (c * (B / np.sum(np.abs(c))))[None]]


def random_network(spec: NetworkClassSpec, dim: int, width: int, seed: int):
    """Random class member with every norm at the budget (test fixture)."""
    if spec.depth > 1 and width < 1:
        raise ValueError("width must be >= 1")
    return Network(_draw_network(np.random.default_rng(np.random.SeedSequence(seed)),
                                 spec, dim, width, spec.depth))


def zero_network(dim: int):
    """The zero function as a depth-1 member."""
    return Network([np.zeros((1, dim))])
