import json

import pytest

from ncerm.cli import main

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


BAD_INPUTS = {
    "zero_points": (["halfspace", "--n", "0"], None),
    "string_count_in_config": (["hardness", "--config", "{path}"], '{"instances": "2"}'),
    "csv_header_only": (["halfspace", "--data", "{path}"], "x_1,x_2,y,weight\n"),
    "csv_empty": (["halfspace", "--data", "{path}"], ""),
    "one_monte_carlo_trial": (["analysis", "--check", "maurey", "--trials", "1"], None),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_a_clean_error(tmp_path, capsys, case):
    """Each input ends in one 'error:' line and exit code 1: no traceback,
    and no estimate with a standard error of 0 from a single trial."""
    argv, text = BAD_INPUTS[case]
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    assert main([a.format(path=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
