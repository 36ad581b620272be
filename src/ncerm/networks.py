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
from .losses import ACTIVATIONS, LossFunction
from .solvers import constrained_least_squares, lockstep_descent, row_kernels
from .util import NORM_TOL, ceil_big_product, check_unit_ball, dual_exponent, lq_norm


class Activation(LossFunction):
    """Odd, 1-Lipschitz squashing function with range inside [-1, 1]: the
    loss of its kind at L = 1, so it is also the surrogate of BoostNet's
    weak learners."""

    def __init__(self, name: str):
        if name not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, not {name!r}")
        super().__init__(name, 1.0)

    value = LossFunction.value
    deriv = LossFunction.grad


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

    @functools.cached_property
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


def _level_shapes(depth: int, width: int, dim: int) -> list:
    """Shapes of a uniform network's level tensors, leaves (level 0) first:
    level j has width^(depth-1-j) rows of `width` weights, or `dim` at the
    leaves."""
    return [(width ** (depth - 1 - j), width if j else dim) for j in range(depth)]


def _unflat(row: np.ndarray, shapes) -> Network:
    """The network whose level tensors of the given shapes a row concatenates."""
    cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return Network([part.reshape(shape) for part, shape in zip(np.split(row, cuts), shapes)])


def validate(net, spec: NetworkClassSpec) -> None:
    """Raise ValueError unless net is a uniform member of the class."""
    levels = net.levels
    if len(levels) > spec.depth:
        raise ValueError(f"network depth {len(levels)} exceeds class depth {spec.depth}")
    for j, L in enumerate(levels, start=1):
        norm = lq_norm(L, 1.0 if j > 1 else spec.leaf_p)
        if not (np.all(np.isfinite(L)) and np.max(norm) <= spec.budget + NORM_TOL):
            raise ValueError(f"level {j} weights must be finite with norms within "
                             f"budget {spec.budget} (max norm {np.max(norm)})")


def evaluate_stack(nets, spec: NetworkClassSpec, x) -> np.ndarray:
    """Values of equally shaped networks, one row per network: (networks,
    rows) for a matrix x, (networks,) at a point.  Only spec's activation
    is read.  Each row has the bits evaluate gives its network alone."""
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    # Pre-activations (c, n, N_j) level by level, each level tensor with a
    # leading network axis: the leaves one BLAS gemm per network, the
    # operands of X @ W.T, and each level above one einsum over the whole
    # stack, its sum over s innermost.  These are the products whose
    # rounding the CSV and analysis outputs carry.
    levels = [np.concatenate(Ls).reshape(len(Ls), *Ls[0].shape)
              for Ls in zip(*(net.levels for net in nets))]
    Z = np.matmul(X, levels[0].transpose(0, 2, 1))
    for C in levels[1:]:
        Z = np.einsum("cnis,cis->cni", spec.act.value(Z.reshape(len(C), len(X), *C.shape[1:])), C)
    return Z[:, :, 0] if x.ndim > 1 else Z[:, 0, 0]


def evaluate(net, spec: NetworkClassSpec, x):
    """Network value at a point (1-D input) or per row of a matrix."""
    out = evaluate_stack([net], spec, x)[0]
    return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class Predictor:
    """The vectorized callable X -> evaluate(net, spec, X) of the risk
    functions; analysis evaluates predictors of one shape as a stack."""

    net: Network
    spec: NetworkClassSpec

    def __call__(self, X):
        return evaluate(self.net, self.spec, X)


def predictor(net, spec: NetworkClassSpec) -> Predictor:
    """Vectorized callable suitable for the risk functions."""
    return Predictor(net, spec)


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
    nodes = sum(s**j for j in range(m))
    T_theory = ceil_big_product(5.0, 4.0 / epsilon, k * nodes, math.log(1.0 / delta))
    return k, s, T_theory


def refine_network(net, spec: NetworkClassSpec, data, loss, step_budget: int):
    """Joint monotone projected descent over all weights of the network."""
    shapes = [L.shape for L in net.levels]
    P, _ = lockstep_descent(np.concatenate([L.ravel() for L in net.levels]),
                            *row_kernels(data, loss, shapes, spec.leaf_p, spec.budget, spec.act),
                            step_budget)
    return _unflat(P[0], shapes)


def algorithm3(data, loss, spec: NetworkClassSpec, epsilon: float, delta: float,
               T_budget: int, refine_budget: int, seed: int,
               k: int | None = None, s: int | None = None):
    """Best-of-T random candidates, each optionally refined.

    Each round draws k points by importance weight and then uniform
    targets for every node in level order, leaves first.  Its candidate of
    the class depth fits the leaves to their targets on the batch, then
    each level's combination weights to theirs on the activated outputs
    below.  It is refined and scored on the full sample; the earliest best
    of min(T_theory, T_budget) rounds of halfspace.best_round wins,
    exactly as in Algorithm 2 at depth 1.
    """
    check_unit_ball(data.features, spec.input_q)
    k_cfg, s_cfg, T_theory = config_alg3(spec.input_q, epsilon, delta, spec.depth)
    k = k_cfg if k is None else int(k)
    s = s_cfg if s is None else int(s)
    if k < 1 or s < 1:
        raise ValueError("k and s must be >= 1")
    shapes = _level_shapes(spec.depth, s, data.dim)
    counts = [n for n, _ in shapes]

    def candidates(ts):
        c = len(ts)
        X, U = draw_rounds(data, seed, ts, k, sum(counts), spec.budget)
        # Leaves fit the round's batch and each level above the activated
        # outputs of its children; each level of the chunk is one stacked fit.
        D, levels = np.repeat(X[:, None], counts[0], axis=1), []
        for j, u in enumerate(np.split(U, np.cumsum(counts)[:-1], axis=1)):
            n = u.shape[1]
            if j:
                Z = np.einsum("cnkd,cnd->cnk", D, levels[-1])
                D = np.ascontiguousarray(
                    spec.act.value(Z).reshape(c, n, s, k).transpose(0, 1, 3, 2))
            fits = constrained_least_squares(D.reshape(c * n, k, -1), u.reshape(c * n, k),
                                             spec.leaf_p if j == 0 else 1.0, spec.budget)
            levels.append(fits.reshape(c, n, -1))
        return np.concatenate([L.reshape(c, -1) for L in levels], axis=1)

    row = best_round(min(T_budget, T_theory), candidates,
                     row_kernels(data, loss, shapes, spec.leaf_p, spec.budget, spec.act),
                     refine_budget)
    return _unflat(row, shapes)


def _draw_network(rng: np.random.Generator, spec: NetworkClassSpec, dim: int,
                  width: int, depth: int) -> list:
    """Level tensors of a random network, every norm at the budget: one
    standard normal draw per level, leaves first, each row scaled by its
    norm (l_p at the leaves, l_1 above)."""
    levels = [rng.standard_normal(shape) for shape in _level_shapes(depth, width, dim)]
    for j, L in enumerate(levels):
        L *= (spec.budget / lq_norm(L, 1.0 if j else spec.leaf_p))[:, None]
    return levels


def random_network(spec: NetworkClassSpec, dim: int, width: int, seed: int):
    """Random class member with every norm at the budget (test fixture)."""
    if spec.depth > 1 and width < 1:
        raise ValueError("width must be >= 1")
    return Network(_draw_network(np.random.default_rng(np.random.SeedSequence(seed)),
                                 spec, dim, width, spec.depth))


def zero_network(dim: int):
    """The zero function as a depth-1 member."""
    return Network([np.zeros((1, dim))])
