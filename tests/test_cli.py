import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fairrobust.cli import build_parser, main
from fairrobust.dataset import SyntheticSpec, load_csv
from fairrobust.harness import ExperimentSpec
from fairrobust.nnet import MLPSpec, init_model
from fairrobust.trainer import TrainConfig, save_model

ROOT = Path(__file__).resolve().parents[1]


def test_gen_synth_and_poison_round(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["gen-synth", "--n", "300", "--seed", "4", "--out", str(data)]) == 0
    ds = load_csv(data)
    assert len(ds) == 300

    poisoned = tmp_path / "poisoned.csv"
    rc = main(["poison", "--data", str(data), "--group", "1", "--fraction", "0.1",
               "--strategy", "random", "--seed", "1", "--out", str(poisoned)])
    assert rc == 0
    back = load_csv(poisoned)
    assert (back.labels != ds.labels).sum() == 30


def test_train_metrics_pipeline(tmp_path, capsys):
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    main(["gen-synth", "--n", "400", "--seed", "5", "--out", str(train_csv)])
    main(["gen-synth", "--n", "200", "--seed", "6", "--out", str(test_csv)])
    capsys.readouterr()
    model = tmp_path / "model.json"
    history = tmp_path / "history.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda1": 0.2, "lambda2": 0.0, "epochs": 30,
                               "pretrain_epochs": 5}))
    rc = main(["train", "--config", str(cfg), "--train", str(train_csv),
               "--epochs", "25", "--model-out", str(model),
               "--history-out", str(history), "--test", str(test_csv)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["accuracy"] <= 1.0
    assert len(history.read_text().strip().splitlines()) == 26  # flag beats file

    rc = main(["metrics", "--data", str(test_csv), "--model", str(model)])
    assert rc == 0
    again = json.loads(capsys.readouterr().out)
    assert again["accuracy"] == report["accuracy"]


def test_sweep_command(tmp_path, capsys):
    spec = ExperimentSpec(
        seeds=[0],
        base=TrainConfig(lambda1=0.1, lambda2=0.0, epochs=10, pretrain_epochs=2),
        synthetic=SyntheticSpec(n=120),
        sweep_axis="lambda1",
        grid=[0.0, 0.3],
    )
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(spec.to_json_dict()))
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "runs.csv").exists()
    assert (out_dir / "aggregates.csv").exists()


@pytest.mark.parametrize("values, message", [
    ({"seeds": [0], "base": None, "synthetic": {}}, "base must be a JSON object, not null"),
    ({"seeds": [0], "synthetic": [100]}, "synthetic must be a JSON object or null, not [100]"),
    ({"seeds": [], "synthetic": {}}, "seeds must be nonempty"),
    ({"seeds": 5, "synthetic": {}}, "seeds must be a list, not 5"),
    ({"seeds": [0, "1"], "synthetic": {}}, 'seeds[1] must be an integer, not "1"'),
    ({"seeds": [0], "synthetic": {}, "split_fractions": 3}, "split_fractions must be a list, not 3"),
    ({"seeds": [0], "synthetic": {}, "split_fractions": [0.8, 0.2]},
     "split_fractions must be a list of 3 items, not [0.8, 0.2]"),
    ({"seeds": [0], "synthetic": {}, "base": {"epochs": "x"}},
     'base.epochs must be an integer, not "x"'),
    ({"seeds": [0], "synthetic": {"n": "x"}}, 'synthetic.n must be an integer, not "x"'),
    ([{"seeds": [0], "synthetic": {}}], "a sweep spec must be a JSON object, not list"),
    ({"seeds": [0], "synthetic": {"n": -1}}, "n must be nonnegative"),
    ({"seeds": [0], "synthetic": {"cov_neg": [[1, 2], [2, 1]]}},
     "cov_neg must be positive-definite"),
    ({"seeds": [0], "synthetic": {"cov_neg": [[1, "x"], ["x", 1]]}},
     'synthetic.cov_neg[0][1] must be a number, not "x"'),
    ({"seeds": [0], "synthetic": {"mean_neg": [1, 2, 3]}},
     "synthetic.mean_neg must be a list of 2 items, not [1, 2, 3]"),
    ({"seeds": [0], "synthetic": {"mean_neg": [1, "x"]}},
     'synthetic.mean_neg[1] must be a number, not "x"'),
    ({"seeds": [0], "synthetic": {}, "poison_fraction": 0.1, "poison_strategy": "bogus"},
     "poison_strategy must be one of ('degradation-surrogate', 'random')"),
    ({"seeds": [0], "synthetic": {}, "split_fractions": [0.8, math.nan, 0.1]},
     "split_fractions[1] must lie in [0, 1], not nan"),
    ({"seeds": [0], "synthetic": {}, "split_fractions": [1.5, -0.5, 0.0]},
     "split_fractions[0] must lie in [0, 1], not 1.5"),
    ({"seeds": [0], "synthetic": {}, "poison_fraction": math.inf},
     "poison_fraction must lie in [0, 1], not inf"),
    ({"seeds": [3, 3], "synthetic": {}}, "seeds must not repeat a value, not [3, 3]"),
    ({"seeds": [0, 1], "synthetic": {}, "sweep_axis": "lambda1", "grid": [0.1, 0.1]},
     "grid must not repeat a value, not [0.1, 0.1]"),
    ({"seeds": [0], "synthetic": {}, "grid": [0.0, 0.5]},
     'sweep_axis "none" takes one grid value, not [0.0, 0.5]'),
    ({"seeds": [0], "synthetic": {}, "split_fractions": [0.5, 0.2, 0.2]},
     "split_fractions must sum to 1, not [0.5, 0.2, 0.2]"),
    ({"synthetic": {}}, "missing config keys: seeds"),
], ids=["null_base", "list_synthetic", "no_seeds", "int_seeds", "string_seed",
        "int_split_fractions", "short_split_fractions", "string_epochs", "string_n",
        "list_spec", "negative_n", "indefinite_cov_neg", "string_cov_neg", "long_mean_neg",
        "string_mean_neg", "unknown_poison_strategy", "nan_split_fraction",
        "split_fraction_above_1", "infinite_poison_fraction", "repeated_seeds",
        "repeated_grid_values", "grid_without_axis", "split_fractions_off_1", "missing_seeds"])
def test_malformed_sweep_spec_exits_2(tmp_path, capsys, values, message):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(values))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"fairrobust sweep: error: {message}\n"
    assert captured.out == "" and not out_dir.exists()


UNKNOWN_KEY_CONFIGS = {
    # gen-synth takes its seed from --seed only; train has no batch_size.
    "gen-synth": ({"n": 50, "seed": 3, "nn": 7}, "seed, nn"),
    "poison": ({"fraction": 0.1, "target_group": 1}, "target_group"),
    "train": ({"lamda1": 0.5, "batch_sise": 7, "epochs": 2}, "lamda1, batch_sise"),
    "sweep": ({"seeds": [0], "grids": [0.1], "base": {"epochs": 2, "batch_size": 0},
               "synthetic": {"n": 100, "noise": 1.0}},
              "grids, base.batch_size, synthetic.noise"),
}


def _run_with_config(tmp_path, capsys, command, values, flags=()):
    """Runs ``command`` with ``values`` as its --config file (a str is the
    file's text) and ``flags``; returns the exit code, the captured output and
    the path it writes to."""
    data = tmp_path / "data.csv"
    main(["gen-synth", "--n", "60", "--seed", "1", "--out", str(data)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(values if isinstance(values, str) else json.dumps(values))
    out = tmp_path / "out"
    argv = {"gen-synth": ["--out", str(out)],
            "poison": ["--data", str(data), "--out", str(out)],
            "train": ["--train", str(data), "--model-out", str(out)],
            "sweep": ["--out-dir", str(out)]}[command]
    capsys.readouterr()
    rc = main([command, "--config", str(cfg), *argv, *flags])
    return rc, capsys.readouterr(), out


@pytest.mark.parametrize("command", sorted(UNKNOWN_KEY_CONFIGS))
def test_unknown_config_keys_exit_2_and_are_named(tmp_path, capsys, command):
    values, named = UNKNOWN_KEY_CONFIGS[command]
    rc, captured, out = _run_with_config(tmp_path, capsys, command, values)
    assert rc == 2
    assert captured.err == f"fairrobust {command}: error: unknown config keys: {named}\n"
    assert captured.out == "" and not out.exists()


WRONG_TYPE_CONFIGS = [
    ("train", {"reweight": "no"}, 'reweight must be true or false, not "no"'),
    ("train", {"epochs": True}, "epochs must be an integer, not true"),
    ("train", {"epochs": "x"}, 'epochs must be an integer, not "x"'),
    ("train", {"lambda1": None}, "lambda1 must be a number, not null"),
    ("train", [1], "a train config must be a JSON object, not list"),
    ("gen-synth", {"n": "x"}, 'n must be an integer, not "x"'),
    ("gen-synth", {"mean_neg": 2}, "mean_neg must be a list, not 2"),
    ("gen-synth", {"cov_neg": [[1, "x"], ["x", 1]]}, 'cov_neg[0][1] must be a number, not "x"'),
    ("gen-synth", {"mean_neg": [1, 2, 3]}, "mean_neg must be a list of 2 items, not [1, 2, 3]"),
    ("gen-synth", {"mean_neg": [1, "x"]}, 'mean_neg[1] must be a number, not "x"'),
    ("gen-synth", [1], "a gen-synth config must be a JSON object, not list"),
    ("poison", {"fraction": "x"}, 'fraction must be a number, not "x"'),
    ("poison", {"group": 1.0}, "group must be an integer, not 1.0"),
    ("poison", [1], "a poison config must be a JSON object, not list"),
]


@pytest.mark.parametrize("command, values, message", WRONG_TYPE_CONFIGS,
                         ids=[f"{c}-{json.dumps(v)}" for c, v, _ in WRONG_TYPE_CONFIGS])
def test_wrongly_typed_config_exits_2_and_names_the_field(tmp_path, capsys, command, values,
                                                          message):
    rc, captured, out = _run_with_config(tmp_path, capsys, command, values)
    assert rc == 2
    assert captured.err == f"fairrobust {command}: error: {message}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, values, flags, message", [
    ("gen-synth", {}, ["--n", "-1"], "n must be nonnegative"),
    ("poison", {}, ["--fraction", "2"], "fraction must lie in [0, 1]"),
    ("poison", {"group": 1}, ["--fraction", "0.9"],
     "54 flips requested but group 1 has only"),
    ("poison", {"strategy": "worst"}, [], "unknown strategy 'worst'"),
    ("train", {}, ["--generator-lr", "inf"], "generator_lr must be positive and finite\n"),
    ("train", {"disc_lr": math.nan}, [], "disc_lr must be positive and finite\n"),
], ids=["negative_n", "fraction_above_1", "over_budget", "unknown_strategy", "inf_generator_lr",
        "nan_disc_lr"])
def test_invalid_config_value_exits_2(tmp_path, capsys, command, values, flags, message):
    rc, captured, out = _run_with_config(tmp_path, capsys, command, values, flags)
    assert rc == 2
    assert captured.err.startswith(f"fairrobust {command}: error: {message}")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", sorted(UNKNOWN_KEY_CONFIGS))
def test_config_that_is_not_json_exits_2(tmp_path, capsys, command):
    rc, captured, out = _run_with_config(tmp_path, capsys, command, '{"seeds": [0,')
    assert rc == 2
    assert captured.err == (f"fairrobust {command}: error: {tmp_path / 'cfg.json'} is not "
                            "valid JSON: Expecting value: line 1 column 14 (char 13)\n")
    assert captured.out == "" and not out.exists()


def _with(text, **changes):
    """The model file ``text`` with ``changes`` made to its top-level keys."""
    return json.dumps({**json.loads(text), **changes})


SPEC_4_HIDDEN = "MLPSpec(input_dim=2, hidden_dim=4, output_dim=1)"


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[: len(text) // 2], "Expecting ',' delimiter: "),
    (lambda text: text.replace('"output_dim": 1', '"output_dim": 1, "depth": 2'),
     "unknown config keys: spec.depth\n"),
    (lambda text: "{}", "missing config keys: spec, weights, biases\n"),
    (lambda text: "[1]", "a model file must be a JSON object, not list\n"),
    (lambda text: _with(text, spec=[1]), "spec must be a JSON object, not [1]\n"),
    (lambda text: _with(text, spec={"input_dim": "3", "hidden_dim": 4}),
     'spec.input_dim must be an integer, not "3"\n'),
    (lambda text: _with(text, weights=5), "weights must be a list, not 5\n"),
    (lambda text: _with(text, biases=[[0.0] * 4, [0.0, 0.0]]),
     f"weight and bias shapes ([(2, 4), (4, 1)], [(4,), (2,)]) do not fit {SPEC_4_HIDDEN}\n"),
    (lambda text: _with(text, biases=[[0.0] * 4]),
     f"weight and bias shapes ([(2, 4), (4, 1)], [(4,)]) do not fit {SPEC_4_HIDDEN}\n"),
    (lambda text: _with(text, biases=[[0.0] * 4, [math.inf]]), "non-finite parameters\n"),
], ids=["truncated", "unknown_spec_key", "empty_object", "list", "list_spec", "string_input_dim",
        "int_weights", "wrong_bias_shape", "missing_bias", "infinite_bias"])
def test_unreadable_model_file_exits_2(tmp_path, capsys, edit, message):
    data = tmp_path / "data.csv"
    main(["gen-synth", "--n", "50", "--out", str(data)])
    model = tmp_path / "model.json"
    save_model(init_model(MLPSpec(input_dim=2, hidden_dim=4, output_dim=1), 0), model)
    model.write_text(edit(model.read_text()))
    capsys.readouterr()
    assert main(["metrics", "--data", str(data), "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"fairrobust metrics: error: {model} is not a model file: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


SCORED_CSVS = {  # (a test CSV that cannot be scored, the reason given)
    "one_group": ("x0,x1,z,y\n" + "".join(f"{i},{-i},0,{i % 2}\n" for i in range(8)),
                  "group 1 absent"),
    "empty": ("x0,x1,z,y\n", "empty input"),
    "wrong_width": ("x0,z,y\n" + "".join(f"{i},{i % 2},{i % 2}\n" for i in range(8)),
                    "model expects input dim 4; dataset provides 1 features and 2 sensitive codes"),
}


@pytest.mark.parametrize("command, kind", [
    pytest.param(command, kind, id=command if kind == "one_group" else f"{command}-{kind}")
    for kind in ("one_group", "empty") for command in ("metrics", "train")])
def test_dataset_without_a_group_exits_2(tmp_path, capsys, command, kind):
    data, bad = tmp_path / "data.csv", tmp_path / f"{kind}.csv"
    main(["gen-synth", "--n", "50", "--out", str(data)])
    text, reason = SCORED_CSVS[kind]
    bad.write_text(text)
    model = tmp_path / "model.json"
    save_model(init_model(MLPSpec(input_dim=4), 0), model)
    capsys.readouterr()
    argv = {"metrics": ["--data", str(bad), "--model", str(model)],
            "train": ["--train", str(data), "--epochs", "2", "--test", str(bad)]}[command]
    assert main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"fairrobust {command}: error: {bad} cannot be scored: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["missing", *SCORED_CSVS])
def test_train_checks_its_test_csv_before_training(tmp_path, capsys, kind):
    # A test CSV that cannot be read or scored stops ``train`` before it
    # trains, so neither output file is written.
    data, test = tmp_path / "data.csv", tmp_path / f"{kind}.csv"
    main(["gen-synth", "--n", "50", "--out", str(data)])
    if kind == "missing":
        message = f"[Errno 2] No such file or directory: '{test}'"
    else:
        text, reason = SCORED_CSVS[kind]
        test.write_text(text)
        message = f"{test} cannot be scored: {reason}"
    model, history = tmp_path / "model.json", tmp_path / "history.csv"
    capsys.readouterr()
    assert main(["train", "--train", str(data), "--epochs", "2", "--test", str(test),
                 "--model-out", str(model), "--history-out", str(history)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"fairrobust train: error: {message}\n"
    assert captured.out == ""
    assert not model.exists() and not history.exists()


@pytest.mark.parametrize("command, flag", [
    ("metrics", "--model"), ("train", "--train"), ("sweep", "--config"),
    ("aggregate-crowd", "--responses")], ids=lambda value: value.lstrip("-"))
def test_missing_input_file_exits_2(tmp_path, capsys, command, flag):
    data = tmp_path / "data.csv"
    main(["gen-synth", "--n", "50", "--out", str(data)])
    missing = tmp_path / "missing"
    argv = {"metrics": ["--data", str(data)], "sweep": ["--out-dir", str(tmp_path / "out")]}
    capsys.readouterr()
    assert main([command, flag, str(missing), *argv.get(command, [])]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"fairrobust {command}: error: [Errno 2] No such file or directory: '{missing}'\n")
    assert captured.out == ""


def test_malformed_csv_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x0,z,y\n0.5,0,1\n0.25,1,x\n")
    out = tmp_path / "out.csv"
    assert main(["poison", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "fairrobust poison: error: row 2: non-numeric value 'x' in column 'y'\n")
    assert not out.exists()


def test_train_flags_are_the_config_fields_except_reweight(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--help"])
    options = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    assert options == {
        "--help", "--config", "--train", "--val", "--test", "--model-out", "--history-out",
        "--no-reweight", "--lambda1", "--lambda2", "--c-threshold", "--fairness-criterion",
        "--generator-lr", "--disc-lr", "--epochs", "--pretrain-epochs", "--update-ratio",
        "--seed"}
    flags = {"lambda1": 0.25, "lambda2": 0.125, "c_threshold": 1.5, "fairness_criterion": "EO",
             "generator_lr": 0.5, "disc_lr": 0.75, "epochs": 7, "pretrain_epochs": 3,
             "update_ratio": 2, "seed": 9}
    argv = ["train", "--train", "t.csv", "--no-reweight"]
    for name, value in flags.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    args = build_parser().parse_args(argv)
    parsed = {name: getattr(args, name) for name in flags}
    assert parsed == flags
    assert {name: type(v) for name, v in parsed.items()} == {
        name: type(v) for name, v in flags.items()}


def test_aggregate_crowd_command(tmp_path, capsys):
    responses = tmp_path / "responses.csv"
    responses.write_text(
        "question_id,worker_id,rating\n"
        "1,0,4\n1,1,3\n1,2,1\n2,0,1\n2,1,2\n2,2,1\n3,9,4\n"
    )
    gold = tmp_path / "gold.csv"
    # worker 9 fails the only gold question (rating 4 -> 1 vs truth 0)
    gold.write_text("question_id,worker_id,rating\n3,0,1\n")
    rc = main(["aggregate-crowd", "--responses", str(responses), "--gold", str(gold),
               "--n-max", "11", "--threshold", "2.5", "--min-accuracy", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "question_id,label"
    assert "1,1" in out and "2,0" in out
    assert all(not line.startswith("3,") for line in out[1:])


@pytest.mark.parametrize("row, message", [
    ("1,2", "row 2: no value in column 'rating'"),
    ("1", "row 2: no value in column 'worker_id'"),
    ("1,2,x", "row 2: non-integer cell"),
    ("1,2,9", "rating must be in 1..4, got 9"),
    ("1,0,4,7", "row 2: 4 cells, but the header has 3"),
], ids=["short_row", "one_cell", "non_integer", "rating_out_of_range", "long_row"])
def test_aggregate_crowd_bad_row_exits_2(tmp_path, capsys, row, message):
    responses = tmp_path / "responses.csv"
    responses.write_text(f"question_id,worker_id,rating\n1,0,4\n{row}\n")
    out = tmp_path / "labels.csv"
    assert main(["aggregate-crowd", "--responses", str(responses), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"fairrobust aggregate-crowd: error: {message}\n"
    assert not out.exists()


def test_verify_mi_command(capsys):
    assert main(["verify-mi", "--trials", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_mi_rejects_fewer_than_one_trial(capsys, trials):
    assert main(["verify-mi", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"fairrobust verify-mi: error: --trials must be at least 1, not {trials}\n"
    assert captured.out == ""


TABLES = ["benchmark", "ablations", "poison-sweep", "valsize", "eo"]
TABLE_SCRIPT = ROOT / "scripts" / "run_tables.py"


@pytest.mark.parametrize("argv", [[script.name] for script in sorted(ROOT.glob("scripts/*.py"))]
                         + [["run_tables.py", table] for table in TABLES],
                         ids="-".join)
def test_script_help_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:],
                             "--help"], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


SEED_COUNT_CASES = ([(seeds, table, "between 1 and 10") for seeds in ["0", "11"] for table in TABLES]
                    + [("1", "benchmark", "fewer than the 2 seeds that the +/- column needs")])


@pytest.mark.parametrize("seeds, table, message", SEED_COUNT_CASES,
                         ids=[f"{seeds}-{table}" for seeds, table, _ in SEED_COUNT_CASES])
def test_script_rejects_seed_count_outside_benchmark_seeds(seeds, table, message):
    # run_checked is replaced before the script runs, so a table that
    # accepts the value stops with "training started" instead of training.
    code = ("import runpy, sys\n"
            "import fairrobust.harness as harness\n"
            "harness.run_checked = lambda spec: sys.exit('training started')\n"
            f"sys.argv = [{str(TABLE_SCRIPT)!r}, {table!r}, '--seeds', {seeds!r}]\n"
            f"runpy.run_path({str(TABLE_SCRIPT)!r}, run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert message in result.stderr


def _bench_report(bench, values):
    """A ``scripts/bench.py`` report of one workload whose runs, by seed, read ``values``."""
    runs = [{"seed": seed, "result": {"metrics": {"m": {"value": v}}}}
            for seed, v in enumerate(values)]
    return {"workloads": {"w": {"runs": runs, "summary": bench.summarize(runs)}}}


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("higher", [100, 101, 102, 103, 104], [95, 96, 97, 98, 99], "within its bound"),
    ("higher", [100, 101, 102, 103, 104], [60, 70, 70, 70, 80], "worse than its 25% bound"),
    ("lower", [100, 101, 102, 103, 104], [120, 130, 130, 130, 140], "worse than its 25% bound"),
    ("higher", [60, 80, 100, 120, 140], [70, 80, 90, 100, 110], "unresolved"),
    ("higher", [60, 80, 100, 120, 140], [150, 160, 170, 180, 190], "within its bound"),
], ids=["within", "worse", "worse_lower", "unresolved", "wide_but_every_run_better"])
def test_bench_compare_states_each_metric_verdict_against_its_bound(better, parent, change,
                                                                     verdict):
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    (line,) = bench.compare(_bench_report(bench, change), _bench_report(bench, parent),
                            [{"name": "m", "better": better, "bound": 0.25}])
    assert line.startswith("w m: ") and line.endswith(f" pairs: {verdict}")
