"""Command line interface.

Subcommands: halfspace, nn, boostnet, parity, hardness, analysis.
Every run is deterministic given --seed; output is CSV (stdout or --out).
Options resolve as: built-in defaults < --config JSON file < explicit flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple

from . import experiments
from .boosting import WEAK_KINDS
from .networks import ACTIVATIONS


class Opt(NamedTuple):
    """One option of a subcommand.  Its flag is ``--`` plus the name with
    ``_`` replaced by ``-``; a ``bool`` option is a switch.  A config-file
    value must have ``type`` (an int is a float; a bool is never an int),
    be one of ``choices`` when they are given, and may be ``null`` only
    where the default is ``None``."""

    default: object
    type: type
    choices: tuple | None = None
    help: str | None = None


_ACTIVATION = Opt("tanh", str, ACTIVATIONS)
_DATA = Opt(None, str, help="dataset CSV (default: planted sample)")
_COMMON = {
    "seed": Opt(0, int, help="master random seed"),
    "out": Opt(None, str, help="write CSV here instead of stdout"),
    "config": Opt(None, str, help="JSON file with option defaults"),
}

# command -> (help, name of its runner in ``experiments``, its own options);
# the runner takes every option but out and config as a keyword argument.
COMMANDS = {
    "halfspace": ("train a norm-bounded halfspace", "run_halfspace", {
        "algorithm": Opt(2, int, (1, 2)), "n": Opt(100, int), "d": Opt(5, int),
        "margin": Opt(0.3, float),
        "p": Opt(2.0, float, help="weight-norm exponent in [1, 2]"),
        "epsilon": Opt(None, float, help="default 0.4 for Algorithm 1, else 0.5"),
        "delta": Opt(0.05, float), "budget_rounds": Opt(200, int),
        "refine_steps": Opt(50, int), "repetitions": Opt(3, int), "data": _DATA,
    }),
    "nn": ("train a depth-m recursive network", "run_nn", {
        "m": Opt(2, int), "budget": Opt(1.0, float, help="norm budget B"),
        "epsilon": Opt(0.5, float), "delta": Opt(0.05, float),
        "k": Opt(None, int, help="override batch size"),
        "s": Opt(None, int, help="override branching factor"),
        "budget_rounds": Opt(50, int), "refine_steps": Opt(50, int),
        "n": Opt(100, int), "d": Opt(5, int), "margin": Opt(0.3, float),
        "width": Opt(2, int, help="planted teacher width"),
        "activation": _ACTIVATION, "repetitions": Opt(3, int),
        "save_model": Opt(None, str, help="write best net JSON"),
    }),
    "boostnet": ("boost weak nets into a wide net", "run_boostnet", {
        "m": Opt(2, int), "budget": Opt(2.0, float, help="norm budget B"),
        "gamma": Opt(0.3, float, help="weak-learning edge"),
        "budget_rounds": Opt(20, int, help="boosting rounds T"),
        "weak_kind": Opt("algorithm3", str, WEAK_KINDS),
        "epsilon": Opt(None, float, help="weak learner epsilon "
                                         "(default 0.4 for algorithm1, else 0.5)"),
        "weak_k": Opt(8, int, help="weak batch size (algorithm1 draws no batch)"),
        "weak_rounds": Opt(4, int), "weak_refine": Opt(60, int),
        "n": Opt(100, int), "d": Opt(5, int), "margin": Opt(0.3, float),
        "activation": _ACTIVATION, "data": _DATA,
    }),
    "parity": ("noisy parity benchmark", "run_parity", {
        "d": Opt(10, int), "p_bits": Opt(3, int), "n": Opt(5000, int),
        "noise": Opt(0.1, float), "budget": Opt(10.0, float, help="norm budget B"),
        "budget_rounds": Opt(50, int, help="hidden-unit budget"),
        "seeds": Opt(None, str, help="comma-separated training seeds"),
        "restarts": Opt(3, int, help="number of seeds derived from --seed "
                                     "when --seeds is absent"),
    }),
    "hardness": ("clause-counting identity checks", "run_hardness", {
        "instances": Opt(5, int), "n_literals": Opt(4, int), "clauses": Opt(6, int),
        "lifted": Opt(False, bool, help="also check the lifted construction"),
    }),
    "analysis": ("Monte Carlo concentration checks", "run_analysis", {
        "check": Opt("rademacher", str, ("rademacher", "generalization", "jl", "maurey")),
        "trials": Opt(200, int), "k": Opt(100, int), "n": Opt(50, int),
        "d": Opt(10, int), "epsilon": Opt(0.4, float), "budget": Opt(1.0, float),
        "m": Opt(2, int), "width": Opt(2, int),
    }),
}


def command_options(command: str) -> dict:
    """Every option of a subcommand by name, the common ones last."""
    return {**COMMANDS[command][2], **_COMMON}


@functools.cache  # built once per process; parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncerm",
        description="Nonconvex empirical-risk experiments: halfspaces, "
                    "small networks, boosting, hardness reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name, opt in command_options(command).items():
            flag = "--" + name.replace("_", "-")
            if opt.type is bool:
                sp.add_argument(flag, action="store_true", help=opt.help)
            else:
                sp.add_argument(flag, type=opt.type, choices=opt.choices, help=opt.help)
    return parser


def _check_config_value(key: str, value, opt: Opt) -> None:
    types = (int, float) if opt.type is float else (opt.type,)
    typed = isinstance(value, types) and (opt.type is bool or not isinstance(value, bool))
    if not (typed or value is None and opt.default is None):
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"config key {key!r} must be {names}, not {value!r}")
    if opt.choices is not None and value not in opt.choices:
        allowed = ", ".join(map(repr, opt.choices))
        raise ValueError(f"config key {key!r} must be one of {allowed}, not {value!r}")


def _merge_options(args: argparse.Namespace) -> dict:
    options = command_options(args.command)
    merged = {key: opt.default for key, opt in options.items()}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(options))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            _check_config_value(key, value, options[key])
        merged.update(loaded)
    for key in options:
        value = getattr(args, key)
        if value is not None and value is not False:
            merged[key] = value
    return merged


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_text(header, rows) -> str:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_format_cell(v) for v in row) + "\n"
    return text


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = _merge_options(args)
        out = options.pop("out")
        del options["config"]
        # Looked up per call, so a wrapper installed on the runner takes effect.
        runner = getattr(experiments, COMMANDS[args.command][1])
        header, rows, lines = runner(**options)
        text = _csv_text(header, rows)
        if out is not None:  # written before any stdout, so a failure prints nothing
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    if out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
