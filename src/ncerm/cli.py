"""Command line interface.

Subcommands: halfspace, nn, boostnet, parity, hardness, analysis.
Every run is deterministic given --seed; output is CSV (stdout or --out).
Options resolve as: built-in defaults < --config JSON file < explicit flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace

from . import experiments

_COMMON = {
    "seed": 0,
    "out": None,
    "config": None,
}

_DEFAULTS = {
    "halfspace": {
        **_COMMON,
        "algorithm": 2, "n": 100, "d": 5, "margin": 0.3, "p": 2.0,
        "epsilon": 0.5, "delta": 0.05, "budget_rounds": 200,
        "refine_steps": 50, "repetitions": 3, "data": None,
    },
    "nn": {
        **_COMMON,
        "m": 2, "budget": 1.0, "epsilon": 0.5, "delta": 0.05,
        "k": None, "s": None, "budget_rounds": 50, "refine_steps": 50,
        "n": 100, "d": 5, "margin": 0.3, "width": 2,
        "activation": "tanh", "repetitions": 3, "save_model": None,
    },
    "boostnet": {
        **_COMMON,
        "m": 2, "budget": 2.0, "gamma": 0.3, "budget_rounds": 20,
        "weak_kind": "algorithm3", "epsilon": 0.5, "weak_k": 8,
        "weak_rounds": 4, "weak_refine": 60, "n": 100, "d": 5,
        "margin": 0.3, "activation": "tanh", "data": None,
    },
    "parity": {
        **_COMMON,
        "d": 10, "p_bits": 3, "n": 5000, "noise": 0.1, "budget": 10.0,
        "budget_rounds": 50, "seeds": None, "restarts": 3,
    },
    "hardness": {
        **_COMMON,
        "instances": 5, "n_literals": 4, "clauses": 6, "lifted": False,
    },
    "analysis": {
        **_COMMON,
        "check": "rademacher", "trials": 200, "k": 100, "n": 50, "d": 10,
        "epsilon": 0.4, "budget": 1.0, "m": 2, "width": 2,
    },
}


def _add_common(sp):
    sp.add_argument("--seed", type=int, help="master random seed")
    sp.add_argument("--out", help="write CSV here instead of stdout")
    sp.add_argument("--config", help="JSON file with option defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncerm",
        description="Nonconvex empirical-risk experiments: halfspaces, "
                    "small networks, boosting, hardness reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("halfspace", help="train a norm-bounded halfspace")
    sp.add_argument("--algorithm", type=int, choices=(1, 2))
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--margin", type=float)
    sp.add_argument("--p", type=float, help="weight-norm exponent in [1, 2]")
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--budget-rounds", type=int, dest="budget_rounds")
    sp.add_argument("--refine-steps", type=int, dest="refine_steps")
    sp.add_argument("--repetitions", type=int)
    sp.add_argument("--data", help="dataset CSV (default: planted sample)")
    _add_common(sp)

    sp = sub.add_parser("nn", help="train a depth-m recursive network")
    sp.add_argument("--m", type=int)
    sp.add_argument("--budget", type=float, help="norm budget B")
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--k", type=int, help="override batch size")
    sp.add_argument("--s", type=int, help="override branching factor")
    sp.add_argument("--budget-rounds", type=int, dest="budget_rounds")
    sp.add_argument("--refine-steps", type=int, dest="refine_steps")
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--margin", type=float)
    sp.add_argument("--width", type=int, help="planted teacher width")
    sp.add_argument("--activation", choices=("tanh", "erf", "clamp"))
    sp.add_argument("--repetitions", type=int)
    sp.add_argument("--save-model", dest="save_model", help="write best net JSON")
    _add_common(sp)

    sp = sub.add_parser("boostnet", help="boost weak nets into a wide net")
    sp.add_argument("--m", type=int)
    sp.add_argument("--budget", type=float, help="norm budget B")
    sp.add_argument("--gamma", type=float, help="weak-learning edge")
    sp.add_argument("--budget-rounds", type=int, dest="budget_rounds",
                    help="boosting rounds T")
    sp.add_argument("--weak-kind", dest="weak_kind",
                    choices=("algorithm1", "algorithm2", "algorithm3"))
    sp.add_argument("--epsilon", type=float, help="weak learner epsilon")
    sp.add_argument("--weak-k", type=int, dest="weak_k")
    sp.add_argument("--weak-rounds", type=int, dest="weak_rounds")
    sp.add_argument("--weak-refine", type=int, dest="weak_refine")
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--margin", type=float)
    sp.add_argument("--activation", choices=("tanh", "erf", "clamp"))
    sp.add_argument("--data", help="dataset CSV (default: planted sample)")
    _add_common(sp)

    sp = sub.add_parser("parity", help="noisy parity benchmark")
    sp.add_argument("--d", type=int)
    sp.add_argument("--p-bits", type=int, dest="p_bits")
    sp.add_argument("--n", type=int)
    sp.add_argument("--noise", type=float)
    sp.add_argument("--budget", type=float, help="norm budget B")
    sp.add_argument("--budget-rounds", type=int, dest="budget_rounds",
                    help="hidden-unit budget")
    sp.add_argument("--seeds", help="comma-separated training seeds")
    sp.add_argument("--restarts", type=int,
                    help="number of seeds derived from --seed when --seeds is absent")
    _add_common(sp)

    sp = sub.add_parser("hardness", help="clause-counting identity checks")
    sp.add_argument("--instances", type=int)
    sp.add_argument("--n-literals", type=int, dest="n_literals")
    sp.add_argument("--clauses", type=int)
    sp.add_argument("--lifted", action="store_true",
                    help="also check the lifted construction")
    _add_common(sp)

    sp = sub.add_parser("analysis", help="Monte Carlo concentration checks")
    sp.add_argument("--check",
                    choices=("rademacher", "generalization", "jl", "maurey"))
    sp.add_argument("--trials", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--budget", type=float)
    sp.add_argument("--m", type=int)
    sp.add_argument("--width", type=int)
    _add_common(sp)

    return parser


def _config_types(key: str, default) -> tuple:
    """Python types a config-file value may take, read off the option's default."""
    if isinstance(default, bool):
        return (bool,)
    if isinstance(default, float):
        return (int, float)
    if isinstance(default, int) or key in ("k", "s"):  # k and s default to None
        return (int,)
    return (str,)


def _option_choices(parser: argparse.ArgumentParser, command: str) -> dict:
    """The allowed values of each option of a subcommand that lists them."""
    subparsers = next(a for a in parser._actions if a.dest == "command")
    return {a.dest: a.choices for a in subparsers.choices[command]._actions if a.choices}


def _merge_options(args: argparse.Namespace, choices: dict) -> SimpleNamespace:
    defaults = _DEFAULTS[args.command]
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            types = _config_types(key, defaults[key])
            typed = isinstance(value, types) and (bool in types or not isinstance(value, bool))
            if not (typed or value is None and defaults[key] is None):
                names = " or ".join(t.__name__ for t in types)
                raise ValueError(f"config key {key!r} must be {names}, not {value!r}")
            if key in choices and value not in choices[key]:
                allowed = ", ".join(map(repr, choices[key]))
                raise ValueError(f"config key {key!r} must be one of {allowed}, not {value!r}")
        merged.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            merged[key] = value
    return SimpleNamespace(**merged)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, header, rows) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_format_cell(v) for v in row) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _dispatch(command: str, o: SimpleNamespace):
    if command == "halfspace":
        return experiments.run_halfspace(
            o.algorithm, o.n, o.d, o.margin, o.p, o.epsilon, o.delta,
            o.budget_rounds, o.refine_steps, o.repetitions, o.seed, o.data,
        )
    if command == "nn":
        return experiments.run_nn(
            o.m, o.budget, o.epsilon, o.delta, o.k, o.s, o.budget_rounds,
            o.refine_steps, o.n, o.d, o.margin, o.width, o.activation,
            o.repetitions, o.seed, o.save_model,
        )
    if command == "boostnet":
        return experiments.run_boostnet(
            o.m, o.budget, o.gamma, o.budget_rounds, o.weak_kind, o.epsilon,
            o.weak_k, o.weak_rounds, o.weak_refine, o.n, o.d, o.margin,
            o.activation, o.seed, o.data,
        )
    if command == "parity":
        if o.seeds is not None:
            seeds = [int(tok) for tok in str(o.seeds).split(",") if tok.strip()]
        else:
            seeds = [o.seed + i for i in range(o.restarts)]
        return experiments.run_parity_experiment(
            o.d, o.p_bits, o.n, o.noise, seeds, o.budget, o.budget_rounds,
        )
    if command == "hardness":
        return experiments.run_hardness(
            o.instances, o.n_literals, o.clauses, o.seed, o.lifted,
        )
    if command == "analysis":
        return experiments.run_analysis(
            o.check, o.trials, o.k, o.n, o.d, o.epsilon, o.budget,
            o.m, o.width, o.seed,
        )
    raise ValueError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = _merge_options(args, _option_choices(parser, args.command))
        header, rows, lines = _dispatch(args.command, options)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    _write_csv(options.out, header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
