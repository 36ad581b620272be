import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncerm
from ncerm import experiments, halfspace, util
from ncerm.cli import COMMANDS, build_parser, command_options, main
from ncerm.networks import Network

FAST_ARGS = {
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


def _run(tmp_path, name, argv, tag):
    out = tmp_path / f"{name}_{tag}.csv"
    status = main([name, *argv, "--seed", "5", "--out", str(out)])
    assert status == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(FAST_ARGS))
def test_repeat_runs_byte_identical(tmp_path, name):
    a = _run(tmp_path, name, FAST_ARGS[name], "a")
    b = _run(tmp_path, name, FAST_ARGS[name], "b")
    assert a == b
    header = a.split(b"\n", 1)[0]
    assert b"," in header  # header row present
    assert len(a.split(b"\n")) > 2  # at least one data row


@pytest.mark.parametrize("argv", [
    ["halfspace", *FAST_ARGS["halfspace"]],
    ["halfspace", "--algorithm", "1", *FAST_ARGS["halfspace"]],
    ["nn", *FAST_ARGS["nn"]],
    ["boostnet", *FAST_ARGS["boostnet"]],
    ["parity", *FAST_ARGS["parity"]],
])
def test_csv_same_for_any_chunk_size(tmp_path, monkeypatch, argv):
    """Rounds drawn in util.blocks' chunks or 3 at a time give the same
    CSV, byte for byte."""
    name, *rest = argv
    whole = _run(tmp_path, name, rest, "whole")
    monkeypatch.setattr(util, "BLOCK_ROWS", 3)
    assert _run(tmp_path, name, rest, "chunked") == whole


def test_seed_changes_output(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    argv = ["halfspace", *FAST_ARGS["halfspace"], "--out"]
    assert main(argv + [str(out1), "--seed", "1"]) == 0
    assert main(argv + [str(out2), "--seed", "2"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_stdout_when_no_out(capsys):
    status = main(["hardness", "--instances", "1", "--seed", "0"])
    assert status == 0
    captured = capsys.readouterr().out
    assert "PASS identity instance 0" in captured
    assert "check,instance,n,d,value,reference,ok" in captured


def test_parser_error_then_run_matches_fresh_process(capsys):
    """The parser is built once per process; an argparse error (SystemExit)
    leaves it unchanged, so the next run prints what a fresh process does."""
    argv = ["halfspace", *FAST_ARGS["halfspace"], "--seed", "5"]
    with pytest.raises(SystemExit):
        main(["halfspace", "--n", "not-a-number"])
    capsys.readouterr()
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    assert build_parser() is build_parser()
    src = str(Path(ncerm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-m", "ncerm.cli", *argv], env=env,
                           capture_output=True, check=True).stdout
    assert in_process.encode() == fresh


def test_config_file_sets_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 3, "seed": 11}))
    out = tmp_path / "a.csv"
    assert main(["hardness", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 1 + 3  # header + one identity row per instance


def test_explicit_flag_beats_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 3}))
    out = tmp_path / "a.csv"
    assert main(["hardness", "--config", str(cfg), "--instances", "1",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 2


def test_config_equivalent_to_flags(tmp_path):
    """The same options through a config file or through flags produce
    byte-identical CSV."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 40, "d": 3, "repetitions": 2, "budget_rounds": 10,
        "refine_steps": 10, "seed": 5,
    }))
    via_cfg = tmp_path / "c.csv"
    via_flags = tmp_path / "f.csv"
    assert main(["halfspace", "--config", str(cfg), "--out", str(via_cfg)]) == 0
    assert main(["halfspace", *FAST_ARGS["halfspace"], "--seed", "5",
                 "--out", str(via_flags)]) == 0
    assert via_cfg.read_bytes() == via_flags.read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["hardness", "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_config_file_is_an_error(tmp_path, capsys):
    assert main(["hardness", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_boostnet_round_trace_columns(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["boostnet", *FAST_ARGS["boostnet"], "--seed", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,mu_t,coefficient,train_zero_one,min_margin"
    assert len(lines) == 1 + 3  # one row per round


def test_nn_save_model(tmp_path):
    from ncerm.networks import load_network, network_spec, validate

    path = tmp_path / "net.json"
    out = tmp_path / "nn.csv"
    assert main(["nn", *FAST_ARGS["nn"], "--seed", "2",
                 "--save-model", str(path), "--out", str(out)]) == 0
    net = load_network(path)
    validate(net, network_spec(2, 1.0, 2.0, "tanh"))


def _csv_rows(path):
    lines = path.read_text().strip().split("\n")
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def test_repetition_contract(tmp_path):
    """Repetition rep trains from child_seed(seed, 2 rep + 1) on the sample
    planted from child_seed(seed, 2 rep), and --save-model keeps the net of
    the earliest lowest-risk repetition."""
    from ncerm.data import planted_halfspace, planted_network
    from ncerm.losses import empirical_risk, piecewise_linear
    from ncerm.networks import load_network, network_spec, predictor
    from ncerm.util import child_seed

    loss, seed = piecewise_linear(1.0), 2
    hs_out, nn_out, net_path = (tmp_path / name for name in ("h.csv", "n.csv", "net.json"))
    assert main(["halfspace", "--n", "40", "--d", "3", "--budget-rounds", "10",
                 "--refine-steps", "10", "--repetitions", "3", "--seed", str(seed),
                 "--out", str(hs_out)]) == 0
    for rep, row in enumerate(_csv_rows(hs_out)):
        assert row["seed"] == str(child_seed(seed, 2 * rep + 1))
        sample, teacher = planted_halfspace(40, 3, 0.3, 2.0, child_seed(seed, 2 * rep))
        assert row["planted_risk"] == f"{empirical_risk(teacher.predict, loss, sample):.17g}"

    assert main(["nn", "--n", "40", "--d", "3", "--budget-rounds", "4",
                 "--refine-steps", "10", "--repetitions", "3", "--seed", str(seed),
                 "--out", str(nn_out), "--save-model", str(net_path)]) == 0
    spec = network_spec(2, 1.0, 2.0, "tanh")
    rows, samples = _csv_rows(nn_out), []
    for rep, row in enumerate(rows):
        assert row["seed"] == str(child_seed(seed, 2 * rep + 1))
        sample, teacher = planted_network(40, 3, 0.3, spec, 2, child_seed(seed, 2 * rep))
        risk = empirical_risk(predictor(teacher, spec), loss, sample)
        assert row["planted_risk"] == f"{risk:.17g}"
        samples.append(sample)
    best = min(range(len(rows)), key=lambda rep: float(rows[rep]["risk"]))
    assert best == 1  # neither the first nor the last: this seed tells them apart
    risk = empirical_risk(predictor(load_network(net_path), spec), loss, samples[best])
    assert f"{risk:.17g}" == rows[best]["risk"]


def test_dataset_csv_input(tmp_path):
    from ncerm.data import planted_halfspace, save_dataset_csv

    data, _ = planted_halfspace(30, 3, 0.3, 2.0, seed=8)
    dpath = tmp_path / "data.csv"
    save_dataset_csv(dpath, data)
    out = tmp_path / "h.csv"
    assert main(["halfspace", "--data", str(dpath), "--n", "30", "--d", "3",
                 "--repetitions", "1", "--budget-rounds", "10",
                 "--refine-steps", "10", "--seed", "4",
                 "--out", str(out)]) == 0
    body = out.read_text()
    assert "nan" in body  # planted risk is unknown for external data


def test_dataset_csv_parsed_once_per_run(tmp_path, monkeypatch):
    """halfspace --data parses its CSV once for all repetitions; the shared
    sample leaves the run unchanged, and so do the input file and output."""
    import numpy as np

    from ncerm import experiments
    from ncerm.data import load_dataset_csv, planted_halfspace, save_dataset_csv

    data, _ = planted_halfspace(30, 3, 0.3, 2.0, seed=8)
    dpath = tmp_path / "data.csv"
    save_dataset_csv(dpath, data)
    before = dpath.read_bytes()
    loads = []

    def counting_load(*args, **kwargs):
        loads.append(load_dataset_csv(*args, **kwargs))
        return loads[-1]

    monkeypatch.setattr(experiments, "load_dataset_csv", counting_load)
    argv = ["halfspace", "--data", str(dpath), "--n", "30", "--d", "3", "--repetitions", "3",
            "--budget-rounds", "10", "--refine-steps", "10", "--seed", "4"]
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main([*argv, "--out", str(out)]) == 0
    assert len(loads) == 2  # one parse per run, not one per repetition
    assert dpath.read_bytes() == before
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 4
    fresh = load_dataset_csv(dpath)
    for field in ("features", "labels", "weights"):
        assert np.array_equal(getattr(loads[0], field), getattr(fresh, field))


def test_bad_repetitions_reported_before_bad_data(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    assert main(["halfspace", "--data", str(bad), "--repetitions", "0"]) == 1
    assert "repetitions" in capsys.readouterr().err


# Row 1 has l_2 norm about 1 + 8e-7: only the learner's own check refuses it.
OUTSIDE_UNIT_BALL = "x_1,x_2,y,weight\n0.6,0.800001,1,0.5\n0.5,0,-1,0.5\n"
BAD_INPUTS = {
    "zero_points": (["halfspace", "--n", "0"], None),
    "string_count_in_config": (["hardness", "--config", "{path}"], '{"instances": "2"}'),
    "csv_header_only": (["halfspace", "--data", "{path}"], "x_1,x_2,y,weight\n"),
    "csv_empty": (["halfspace", "--data", "{path}"], ""),
    "one_monte_carlo_trial": (["analysis", "--check", "maurey", "--trials", "1"], None),
    "config_value_not_a_choice": (["halfspace", "--config", "{path}"], '{"algorithm": 3}'),
    "csv_rows_narrower_than_header": (
        ["halfspace", "--data", "{path}"], "x_1,x_2,y,weight\n0.1,1,0.5\n0.2,-1,0.5\n",
    ),
    "zero_dimensions": (["halfspace", "--d", "0"], None),
    "zero_dimensions_nn": (["nn", "--d", "0"], None),
    "zero_dimensions_analysis": (["analysis", "--check", "jl", "--d", "0"], None),
    "zero_batch_rademacher": (["analysis", "--check", "rademacher", "--k", "0"], None),
    "jl_single_point": (["analysis", "--check", "jl", "--n", "1"], None),
    "jl_projects_onto_every_dimension": (["analysis", "--check", "jl"], None),
    "generalization_single_point": (["analysis", "--check", "generalization", "--n", "1"], None),
    "margin_too_large_to_plant": (["nn", "--margin", "0.99"], None),
    "row_outside_unit_ball_halfspace": (["halfspace", "--data", "{path}"], OUTSIDE_UNIT_BALL),
    "row_outside_unit_ball_boostnet": (["boostnet", "--data", "{path}"], OUTSIDE_UNIT_BALL),
    "all_zero_features_boostnet": (
        ["boostnet", "--data", "{path}"], "x_1,x_2,y,weight\n0,0,1,0.5\n0,0,-1,0.5\n",
    ),
    "empty_parity_split": (["parity", "--n", "5"], None),
    "zero_width_nn": (["nn", "--width", "0"], None),
    "negative_refine_steps": (["halfspace", "--refine-steps", "-1"], None),
    "negative_refine_steps_nn": (["nn", "--refine-steps", "-3"], None),
    "negative_weak_refine_boostnet": (["boostnet", "--weak-refine", "-2"], None),
    "negative_weak_k_algorithm2": (["boostnet", "--weak-kind", "algorithm2", "--weak-k", "-1"], None),
    "zero_repetitions": (["halfspace", "--repetitions", "0"], None),
    "zero_repetitions_nn": (["nn", "--repetitions", "0"], None),
    "zero_instances_hardness": (["hardness", "--instances", "0"], None),
    "out_in_missing_directory": (["hardness", "--instances", "1", "--out", "{path}/x.csv"], None),
    "infinite_budget_nn": (["nn", "--budget", "inf"], None),
    "nan_budget_nn": (["nn", "--budget", "nan"], None),
    "nan_p_halfspace": (["halfspace", "--p", "nan"], None),
    "infinite_gamma_boostnet": (["boostnet", "--gamma", "inf"], None),
}
# Cases whose error must name the option at fault, not a later symptom.
ERROR_NAMES = {
    "infinite_budget_nn": "budget must",
    "nan_budget_nn": "budget must",
    "nan_p_halfspace": "p must",
    "infinite_gamma_boostnet": "gamma must",
}


@pytest.mark.filterwarnings("error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_a_clean_error(tmp_path, capsys, case):
    """Each input ends in one 'error:' line and exit code 1: no traceback,
    and no estimate with a standard error of 0 from a single trial.  The
    cases in ERROR_NAMES must be reported against their option."""
    argv, text = BAD_INPUTS[case]
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    assert main([a.format(path=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert ERROR_NAMES.get(case, "") in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@pytest.mark.parametrize("fault", ["input_dimension", "nan_weight"])
def test_rademacher_network_stack_error_is_one_line(capsys, monkeypatch, fault):
    """A stack of network candidates that cannot be evaluated ends in the
    one-line error the plain 2-D products gave: matmul's own message for
    leaves wider than the batch, the non-finite check's for a NaN weight."""
    real = experiments.random_network

    def faulty(spec, d, width, seed):
        if fault == "input_dimension":
            return real(spec, d + 1, width, seed)
        net = real(spec, d, width, seed)
        leaves = net.levels[0].copy()
        leaves[0, 0] = np.nan
        return Network([leaves, *net.levels[1:]])

    monkeypatch.setattr(experiments, "random_network", faulty)
    assert main(["analysis", "--check", "rademacher", "--d", "4", "--n", "5",
                 "--trials", "10"]) == 1
    if fault == "input_dimension":  # the default batch is 100 x 4, each leaf level 2 x 5
        with pytest.raises(ValueError) as plain:
            np.zeros((100, 4)) @ np.zeros((2, 5)).T
        message = str(plain.value)
    else:
        message = "candidate values must be finite"
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (f"error: {message}\n", "")


@pytest.mark.parametrize("argv", [
    ["halfspace", "--algorithm", "1", *FAST_ARGS["halfspace"]],
    ["boostnet", "--weak-kind", "algorithm1", *FAST_ARGS["boostnet"]],
])
def test_algorithm1_runs_at_its_default_epsilon(tmp_path, argv):
    """epsilon defaults to 0.4 under Algorithm 1, inside its range (0, 0.5)."""
    out = tmp_path / "a1.csv"
    assert main([*argv, "--out", str(out)]) == 0
    if argv[0] == "halfspace":
        header, row = out.read_text().split("\n")[:2]
        assert float(dict(zip(header.split(","), row.split(",")))["epsilon"]) == 0.4


@pytest.mark.parametrize("name", sorted(FAST_ARGS))
def test_config_of_table_defaults_changes_nothing(tmp_path, name):
    """A config file holding every option at its table default passes the
    type and choice checks and gives the same CSV as no config."""
    assert set(COMMANDS) == set(FAST_ARGS)
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps({k: o.default for k, o in command_options(name).items()}))
    plain = _run(tmp_path, name, FAST_ARGS[name], "plain")
    assert _run(tmp_path, name, [*FAST_ARGS[name], "--config", str(cfg)], "cfg") == plain


@pytest.mark.parametrize("value", ["inf", "0"])
@pytest.mark.parametrize("argv", [
    ["halfspace", "--algorithm", "1", *FAST_ARGS["halfspace"]],
    ["halfspace", "--algorithm", "2", *FAST_ARGS["halfspace"]],
    ["nn", *FAST_ARGS["nn"]],
    *(["boostnet", "--weak-kind", kind, *FAST_ARGS["boostnet"]]
      for kind in ("algorithm1", "algorithm2", "algorithm3")),
])
def test_epsilon_out_of_range_names_epsilon(capsys, argv, value):
    """Every learner checks epsilon and delta the same way, so an epsilon
    of 0 or inf is an error that names the option."""
    assert main([*argv, "--epsilon", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epsilon" in err


@pytest.mark.parametrize("argv, t_run", [
    (["halfspace", "--algorithm", "1", *FAST_ARGS["halfspace"]], ["10", "10"]),
    (["halfspace", "--algorithm", "1", "--n", "8", "--d", "2", "--epsilon", "0.45",
      "--budget-rounds", "5000", "--refine-steps", "0", "--repetitions", "1"], ["419"]),
    (["halfspace", "--algorithm", "2", *FAST_ARGS["halfspace"]], ["10", "10"]),
    (["halfspace", "--algorithm", "2", "--n", "10", "--d", "4", "--epsilon", "1.0",
      "--refine-steps", "0", "--repetitions", "1"], ["60"]),
    (["nn", *FAST_ARGS["nn"]], ["4"]),
    # k = s = 1 at eps = 2: T_theory = ceil(5 * 2^2 * ln 20) = 60
    (["nn", *FAST_ARGS["nn"], "--epsilon", "2", "--budget-rounds", "5000"], ["60"]),
])
def test_t_run_is_the_round_count_run(tmp_path, monkeypatch, argv, t_run):
    """The t_run column, min(budget_rounds, T_theory), is the T that each
    repetition's learner hands to best_round, capped by T_theory or not."""
    from ncerm import networks

    seen, best_round = [], halfspace.best_round

    def recording(T, *args):
        seen.append(str(T))
        return best_round(T, *args)

    monkeypatch.setattr(halfspace, "best_round", recording)
    monkeypatch.setattr(networks, "best_round", recording)
    out = tmp_path / "t.csv"
    assert main([*argv, "--seed", "5", "--out", str(out)]) == 0
    assert [row["t_run"] for row in _csv_rows(out)] == seen == t_run


@pytest.mark.parametrize("argv", [
    ["halfspace", "--d", "3", "--budget-rounds", "10", "--refine-steps", "10",
     "--repetitions", "1", "--n", "20000"],
    ["nn", "--d", "3", "--budget-rounds", "4", "--refine-steps", "10",
     "--repetitions", "1", "--n", "20000"],
    ["analysis", "--check", "rademacher", "--k", "500", "--d", "20", "--trials", "300"],
    ["nn", "--m", "3", "--d", "3", "--budget-rounds", "4", "--refine-steps", "10",
     "--repetitions", "1", "--n", "20000"],
    ["boostnet", "--n", "20000"],
    ["analysis", "--check", "generalization", "--n", "20000", "--d", "20"],
])
def test_csv_same_for_any_blas_thread_count(tmp_path, argv):
    """At n = 20,000 a sum over the sample is long enough for OpenBLAS to
    split a dot across its threads; no such sum goes through BLAS, the
    leaf gradients of networks at every depth included, nor BoostNet's
    rounds or the generalization check's np.sum over its batches.  The
    Rademacher product at k = 500 goes through BLAS in slices of
    analysis.K_SLICE columns, which OpenBLAS 0.3.31's SkylakeX kernel
    rounds alike at one and two threads; other kernels and BLAS builds are
    unverified.  So one and two BLAS threads write the same CSV bytes."""
    src = str(Path(ncerm.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "ncerm.cli", *argv, "--seed", "5", "--out", str(out)],
                       env=env, capture_output=True, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
