import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairrobust.cli import main
from fairrobust.dataset import SyntheticSpec, load_csv
from fairrobust.harness import ExperimentSpec
from fairrobust.trainer import TrainConfig

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


def test_verify_mi_command(capsys):
    assert main(["verify-mi", "--trials", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("run_*.py")),
                         ids=lambda path: path.name)
def test_script_help_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(script), "--help"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
