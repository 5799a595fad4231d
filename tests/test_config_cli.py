"""Config parsing/validation and the CLI pipeline over the smoke preset."""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import pytest
import yaml

from conftest import CONFIGS, REPO, make_run, run_cli
from tssid.config import MODEL_IDS, compute_fingerprint, load_config
from tssid.errors import ConfigError, IoError
from tssid.manifest import load_manifest

# --- parsing the shipped presets ---------------------------------------------------


def test_every_shipped_preset_parses():
    for path in sorted(CONFIGS.glob("*.yaml")):
        cfg = load_config(path)
        assert len(cfg.fingerprint) == 64
        int(cfg.fingerprint, 16)  # hex digest


def test_smoke_preset_resolved_values():
    cfg = load_config(CONFIGS / "smoke.yaml")
    assert cfg.seed == 4404
    assert cfg.data_dir == REPO / "runs" / "smoke" / "data"
    assert cfg.corpus is not None
    assert cfg.corpus.sample_rate_hz == 20.0
    assert cfg.corpus.flight_ids == ("smk01", "smk02", "smk03", "smk04", "smk05")
    assert cfg.exclude_labels == ("taxiing",)
    assert cfg.split_explicit == {"train": ("smk01", "smk02"), "val": ("smk03",),
                                  "test": ("smk04", "smk05")}
    assert cfg.features.target == "TRQ"
    assert cfg.features.inputs == ("COL", "T1", "P0", "NR", "AIRSPEED")
    assert cfg.sindy_first.threshold == 0.05
    assert cfg.sindy_second.threshold == 2.0  # per-order override
    assert cfg.neural.ffnn_hidden == (8, 8)
    assert cfg.neural.ffnn_train.epochs == 3
    assert cfg.neural.ffnn_train.optimizer == "rmsprop"
    assert cfg.neural.lstm_lookback == 5
    assert cfg.neural.lstm_stride == 2
    assert cfg.neural.lstm_train.optimizer == "adam"
    assert cfg.retrain_augment_ids == ("smk04",)
    assert cfg.evaluate_models == MODEL_IDS


def test_defaults_for_minimal_config(tmp_path):
    p = tmp_path / "min.yaml"
    p.write_text("seed: 7\n", encoding="utf-8")
    cfg = load_config(p)
    assert cfg.corpus is None
    assert cfg.neural.ffnn_hidden == (24, 24, 24, 24)
    tr = cfg.neural.ffnn_train
    assert (tr.optimizer, tr.learning_rate, tr.batch_size, tr.epochs) \
        == ("rmsprop", 1e-4, 64, 500)
    lt = cfg.neural.lstm_train
    assert (lt.optimizer, lt.learning_rate, lt.batch_size, lt.epochs) \
        == ("adam", 5e-4, 64, 100)
    assert cfg.neural.lstm_hidden_size == 6
    assert cfg.neural.lstm_num_layers == 3
    assert cfg.neural.lstm_lookback == 20
    assert cfg.neural.lstm_stride == 10  # lookback // 2
    assert cfg.sindy_first.threshold == 0.05
    assert cfg.sindy_first == cfg.sindy_second
    assert cfg.evaluate_models == MODEL_IDS
    assert cfg.data_dir == tmp_path / "data"
    assert cfg.out_dir == tmp_path / "out"


def test_unknown_keys_rejected(tmp_path):
    cases = [
        "seed: 1\nwidget: 2\n",
        "seed: 1\ncorpus: {sample_rate_hz: 10, ground_truth: {order: first},"
        " templates: [], frobs: 1}\n",
        "seed: 1\nffnn: {depth: 3}\n",
        "seed: 1\nsindy: {thresh: 0.1}\n",
        "seed: 1\nsplit: {training: [a]}\n",
        "seed: 1\nevaluate: {model: [ffnn]}\n",
        "seed: 1\nffnn: {train: {momentum: 0.9}}\n",
    ]
    for i, text in enumerate(cases):
        p = tmp_path / f"bad{i}.yaml"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown"):
            load_config(p)


def test_config_error_cases(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("paths: {}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="seed"):
        load_config(p)
    p.write_text("seed: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(p)
    p.write_text("- just\n- a\n- list\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("seed: 1\nevaluate: {models: [sindy1, forest]}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="forest"):
        load_config(p)
    with pytest.raises(IoError):
        load_config(tmp_path / "absent.yaml")


def test_fingerprint_semantics(tmp_path):
    base = load_config(CONFIGS / "smoke.yaml")
    reseeded = load_config(CONFIGS / "smoke.yaml", seed_override=1)
    assert reseeded.seed == 1
    assert reseeded.fingerprint != base.fingerprint
    moved = load_config(CONFIGS / "smoke.yaml", out_override=tmp_path / "elsewhere")
    assert moved.out_dir == tmp_path / "elsewhere"
    assert moved.fingerprint == base.fingerprint
    # a copy that differs only in its paths section keeps the fingerprint
    copy = make_run(tmp_path, "smoke")
    assert load_config(copy).fingerprint == base.fingerprint


def test_fingerprint_excludes_only_paths():
    raw = yaml.safe_load((CONFIGS / "smoke.yaml").read_text(encoding="utf-8"))
    fp1 = compute_fingerprint(raw)
    raw2 = dict(raw, paths={"data_dir": "x", "out_dir": "y"})
    assert compute_fingerprint(raw2) == fp1
    raw3 = dict(raw, seed=raw["seed"] + 1)
    assert compute_fingerprint(raw3) != fp1


def test_sindy_config_accessor():
    cfg = load_config(CONFIGS / "smoke.yaml")
    assert cfg.sindy_config(1) is cfg.sindy_first
    assert cfg.sindy_config(2) is cfg.sindy_second
    with pytest.raises(ConfigError):
        cfg.sindy_config(3)
    assert cfg.mlp_config(5).hidden_layers == (8, 8)
    lc = cfg.lstm_config(5)
    assert (lc.hidden_size, lc.num_layers, lc.lookback) == (4, 2, 5)


# --- the full pipeline over the smoke preset -----------------------------------------


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """Run every subcommand once over a tmp copy of the smoke preset."""
    tmp = tmp_path_factory.mktemp("smoke")
    cfg_path = make_run(tmp, "smoke")
    for argv in (
        ("generate", "--config", cfg_path),
        ("ingest", "--config", cfg_path),
        ("correlate", "--config", cfg_path),
        ("split", "--config", cfg_path),
        ("fit-sindy", "--config", cfg_path),
        ("train", "--config", cfg_path),
        ("simulate", "--config", cfg_path),
        ("evaluate", "--config", cfg_path),
        ("retrain-experiment", "--config", cfg_path),
        ("report", "--config", cfg_path),
    ):
        assert run_cli(*argv) == 0, f"{argv[0]} failed"
    return {"cfg": cfg_path, "data": tmp / "data", "out": tmp / "out"}


def test_generate_outputs(smoke_run):
    data = smoke_run["data"]
    flights = sorted(p.name for p in (data / "flights").glob("*.csv"))
    assert flights == [f"smk{i:02d}.csv" for i in range(1, 6)]
    assert (data / "maneuvers.csv").exists()
    with open(data / "flights" / "smk01.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "time_s"
    assert len(header) == 15  # time + 14 channels


def test_every_manifest_lists_existing_outputs(smoke_run):
    manifests = sorted(smoke_run["out"].glob("manifest_*.json")) \
        + [smoke_run["data"] / "manifest_generate.json"]
    assert len(manifests) == 10
    for mpath in manifests:
        man = load_manifest(mpath)
        base = mpath.parent
        assert man.outputs, f"{mpath.name} lists no outputs"
        for rel in man.outputs:
            assert (base / rel).exists(), f"{mpath.name} lists missing {rel}"
        assert man.seed == 4404
        assert len(man.config_fingerprint) == 64
        assert "total" in man.timings


def test_split_yaml_matches_explicit_lists(smoke_run):
    split = yaml.safe_load((smoke_run["out"] / "split.yaml").read_text())
    assert split == {"train": ["smk01", "smk02"], "val": ["smk03"],
                     "test": ["smk04", "smk05"]}


def test_loss_csv_rows_equal_epochs(smoke_run):
    out = smoke_run["out"]
    for kind, epochs in (("ffnn", 3), ("lstm", 2)):
        lines = (out / f"{kind}_loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        assert len(lines) == 1 + epochs
        for ln in lines[1:]:
            e, tr, va = ln.split(",")
            assert float(tr) > 0 and float(va) > 0
        assert [int(ln.split(",")[0]) for ln in lines[1:]] == list(range(1, epochs + 1))


def test_sindy_artifacts(smoke_run):
    out = smoke_run["out"]
    for order in (1, 2):
        model = (out / f"sindy{order}_model.txt").read_text(encoding="utf-8")
        assert model.startswith("tssid sparse model v1")
        eq = (out / f"sindy{order}_equations.txt").read_text(encoding="utf-8")
        assert "d(TRQ)/dt" in eq
        assert "residual_rmse:" in eq


def test_simulate_artifacts(smoke_run):
    out = smoke_run["out"]
    for order in (1, 2):
        files = list((out / f"sim_sindy{order}").glob("*.csv"))
        assert files, f"no simulation CSVs for order {order}"
        # only the two test flights are simulated
        assert {f.name.split("__")[0] for f in files} == {"smk04", "smk05"}
        header = files[0].read_text(encoding="utf-8").splitlines()[0]
        assert header == "time_s,WF,TRQ_actual,TRQ_pred"


def test_evaluate_artifacts(smoke_run):
    out = smoke_run["out"]
    for model_id in MODEL_IDS:
        assert (out / f"eval_{model_id}.txt").exists()
        overlays = list((out / "overlays" / model_id).glob("*.csv"))
        assert overlays
    with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["flight_id", *MODEL_IDS]
    assert [r[0] for r in rows[1:]] == ["smk04", "smk05", "overall"]
    for row in rows[1:]:
        for cell in row[1:]:
            assert float(cell) >= 0.0


def test_retrain_artifacts(smoke_run):
    out = smoke_run["out"]
    report = (out / "retrain" / "retrain_report.txt").read_text(encoding="utf-8")
    assert report.startswith("tssid retrain report v1")
    for kind in ("ffnn", "lstm"):
        for phase in ("baseline", "retrained"):
            assert (out / "retrain" / f"{kind}_{phase}_weights.bin").exists()
            assert (out / "retrain" / f"eval_{phase}_{kind}.txt").exists()
    man = load_manifest(out / "manifest_retrain_experiment.json")
    runs = man.extra["runs"]
    assert [r["phase"] for r in runs] == ["baseline", "retrained"]
    assert runs[0]["fingerprint"] != runs[1]["fingerprint"]
    assert set(runs[0]["train_flights"]) < set(runs[1]["train_flights"])
    assert "smk04" in runs[1]["train_flights"]


def test_report_artifacts(smoke_run, capsys):
    out = smoke_run["out"]
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "overall" in text
    for model_id in MODEL_IDS:
        assert model_id in text


def test_rerun_is_byte_identical(smoke_run):
    out = smoke_run["out"]
    before = {p: p.read_bytes() for p in (out / "split.yaml",
                                          out / "sindy1_model.txt")}
    assert run_cli("split", "--config", smoke_run["cfg"]) == 0
    assert run_cli("fit-sindy", "--config", smoke_run["cfg"], "--order", 1) == 0
    for p, blob in before.items():
        assert p.read_bytes() == blob


# --- exit codes ------------------------------------------------------------------------


def test_exit_code_3_missing_config(tmp_path, capsys):
    assert run_cli("generate", "--config", tmp_path / "absent.yaml") == 3
    assert "error" in capsys.readouterr().err


def test_exit_code_2_bad_yaml(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("seed: [unclosed\n", encoding="utf-8")
    assert run_cli("generate", "--config", p) == 2


def test_exit_code_2_unknown_model_id(tmp_path):
    cfg = make_run(tmp_path, "smoke", evaluate={"models": ["sindy1", "forest"]})
    assert run_cli("generate", "--config", cfg) == 2


def test_exit_code_2_non_finite_number(tmp_path, capsys):
    # YAML .inf and .nan are refused by key instead of crashing the fingerprint
    cfg = make_run(tmp_path, "smoke", sindy={"threshold": float("inf")})
    assert run_cli("generate", "--config", cfg) == 2
    assert "sindy.threshold" in capsys.readouterr().err
    cfg = make_run(tmp_path, "smoke", ffnn={"hidden_layers": [8, float("nan")]})
    assert run_cli("generate", "--config", cfg) == 2
    assert "ffnn.hidden_layers[1]" in capsys.readouterr().err


def test_exit_code_3_ingest_before_generate(tmp_path, capsys):
    cfg = make_run(tmp_path, "smoke")
    assert run_cli("ingest", "--config", cfg) == 3
    assert "generate" in capsys.readouterr().err


def test_exit_code_2_zero_variance_channel(tmp_path, capsys):
    cfg = make_run(tmp_path, "smoke")
    assert run_cli("generate", "--config", cfg) == 0
    # flatten NR across the entire corpus, then ask for correlations
    for fpath in (tmp_path / "data" / "flights").glob("*.csv"):
        with open(fpath, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("NR")
        for row in rows[1:]:
            row[col] = "96.5"
        with open(fpath, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    assert run_cli("correlate", "--config", cfg) == 2
    assert "NR" in capsys.readouterr().err


def test_exit_code_4_evaluate_before_artifacts(tmp_path, capsys):
    cfg = make_run(tmp_path, "smoke")
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("evaluate", "--config", cfg, "--model", "sindy1") == 4
    assert "fit-sindy" in capsys.readouterr().err
    assert run_cli("evaluate", "--config", cfg, "--model", "ffnn") == 4
    assert "train" in capsys.readouterr().err


def test_exit_code_4_fingerprint_mismatch(tmp_path, capsys):
    cfg = make_run(tmp_path, "smoke")
    assert run_cli("generate", "--config", cfg) == 0
    assert run_cli("train", "--config", cfg, "--model", "ffnn") == 0
    # same artifacts, different semantic config: the stamp must not match
    assert run_cli("evaluate", "--config", cfg, "--model", "ffnn",
                   "--seed", 999) == 4
    err = capsys.readouterr().err
    assert "fingerprint" in err.lower()


def test_exit_code_4_divergent_training_saves_no_weights(tmp_path, capsys):
    train = {"optimizer": "rmsprop", "learning_rate": 1.0e200, "batch_size": 32,
             "epochs": 3, "seed": 11}
    cfg = make_run(tmp_path, "smoke", ffnn={"train": train})
    # the overflow is reported by the exit code alone, without numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("generate", "--config", cfg) == 0
        assert run_cli("train", "--config", cfg, "--model", "ffnn") == 4
    err = capsys.readouterr().err
    assert "ffnn" in err and "epoch 1" in err
    assert not (tmp_path / "out" / "ffnn_weights.bin").exists()


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        run_cli("transmogrify", "--config", "x.yaml")
