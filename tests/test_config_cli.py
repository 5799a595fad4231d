"""Config parsing/validation and the CLI pipeline over the smoke preset."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import re
import shutil
import warnings
from pathlib import Path

import pytest
import yaml

from conftest import CONFIGS, REPO, make_run, run_cli
from tssid import cli, kernels, manifest
from tssid import config as config_module
from tssid.config import MODEL_IDS, load_config
from tssid.errors import ConfigError, IoError, LengthMismatch
from tssid.manifest import fingerprint, load_manifest
from tssid.neural import load_net, save_net
from tssid.sindy import SINDyConfig

# --- parsing the shipped presets ---------------------------------------------------


def test_every_shipped_preset_parses():
    for path in sorted(CONFIGS.glob("*.yaml")):
        cfg = load_config(path)
        fps = _artifact_fingerprints(cfg)
        assert len(set(fps.values())) == len(fps)
        for fp in fps.values():
            assert len(fp) == 64
            int(fp, 16)  # hex digest


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
    corpus = "seed: 1\ncorpus: {sample_rate_hz: 10, ground_truth: {order: first}, "
    template = "{count: 1, id_prefix: t, duration_s: 20, wf_low: 1, wf_high: 2"
    cases = [
        ("seed: 1\nwidget: 2\n", "bad0.yaml"),
        (corpus + "templates: [], frobs: 1}\n", "corpus"),
        ("seed: 1\nffnn: {depth: 3}\n", "ffnn"),
        ("seed: 1\nsindy: {thresh: 0.1}\n", "sindy"),
        ("seed: 1\nsplit: {training: [a]}\n", "split"),
        ("seed: 1\nevaluate: {model: [ffnn]}\n", "evaluate"),
        ("seed: 1\nffnn: {train: {momentum: 0.9}}\n", "ffnn.train"),
        (corpus + f"templates: [{template}, ground_truth: {{tau: 9}}}}]}}\n",
         "corpus.templates[0].ground_truth"),
        (corpus + "flights: [{id: f, maneuvers: [{kind: hold, duration_s: 5}],"
                  " initial_torque: 5.0}]}\n", "corpus.flights[0]"),
        ("seed: 1\nsindy: {second: {first: {threshold: 9}}}\n", "sindy.second"),
        ("seed: 1\n7: 2\nwidget: 2\n", "bad10.yaml"),  # keys that do not sort together
    ]
    for i, (text, context) in enumerate(cases):
        p = tmp_path / f"bad{i}.yaml"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown") as excinfo:
            load_config(p)
        assert f"{context}: unknown keys" in str(excinfo.value)


def test_ground_truth_overrides_reach_their_flights(tmp_path):
    # a template's or flight's ground_truth replaces only the keys it names
    pool = _SMOKE["corpus"]["templates"][0]
    shifted = {**pool, "id_prefix": "shf", "seed_salt": "shifted",
               "ground_truth": {"mu": 0.48, "seed": 77, "noise_sigma": {"TRQ": 0.9}}}
    hot = {"id": "hot01", "maneuvers": [{"kind": "hold", "duration_s": 5.0, "level": 300.0}],
           "ground_truth": {"tau1": 0.8}}
    corpus = load_config(make_run(tmp_path, "smoke", corpus={
        **_SMOKE["corpus"], "templates": [pool, shifted], "flights": [hot]})).corpus
    (_, pool_params), (_, shifted_params) = corpus.templates
    assert pool_params == corpus.ground_truth
    assert shifted_params == dataclasses.replace(corpus.ground_truth, mu=0.48, seed=77,
                                                 noise_sigma={"TRQ": 0.9})
    assert corpus.explicit[0].params == dataclasses.replace(corpus.ground_truth, tau1=0.8)
    for spec in corpus.build_specs()[:-1]:
        assert spec.params == (shifted_params if spec.flight_id.startswith("shf")
                               else pool_params)


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


def _artifact_fingerprints(cfg) -> dict[str, str]:
    """The corpus and model fingerprints the CLI expects under ``cfg``."""
    split = cli._split_of(cfg)
    fps = {"corpus": cli._corpus_fingerprint(cfg)}
    for model_id in MODEL_IDS:
        fps[model_id] = cli._model_fingerprint(cfg, model_id, split.train_ids,
                                               split.val_ids)
    return fps


def test_fingerprint_semantics(tmp_path):
    base = _artifact_fingerprints(load_config(CONFIGS / "smoke.yaml"))
    # the corpus seed derives from the root seed, so every artifact changes
    reseeded = load_config(CONFIGS / "smoke.yaml", seed_override=1)
    assert reseeded.seed == 1
    changed = _artifact_fingerprints(reseeded)
    assert all(changed[k] != base[k] for k in base)
    moved = load_config(CONFIGS / "smoke.yaml", out_override=tmp_path / "elsewhere")
    assert moved.out_dir == tmp_path / "elsewhere"
    assert _artifact_fingerprints(moved) == base
    # a copy that differs only in its paths section keeps every fingerprint
    copy = make_run(tmp_path, "smoke")
    assert _artifact_fingerprints(load_config(copy)) == base
    # so do spelled-out defaults and a different key order
    raw = yaml.safe_load(copy.read_text(encoding="utf-8"))
    raw["sindy"]["max_iterations"] = 20
    raw["ffnn"]["train"]["shuffle"] = True
    raw["lstm"] = dict(reversed(list(raw["lstm"].items())))
    copy.write_text(yaml.safe_dump(dict(reversed(list(raw.items()))), sort_keys=False),
                    encoding="utf-8")
    assert _artifact_fingerprints(load_config(copy)) == base
    # an edit to one section changes only the artifacts that read it
    edited = _artifact_fingerprints(load_config(
        make_run(tmp_path, "smoke", sindy={"second": {"threshold": 1.5}})))
    assert {k for k in base if edited[k] != base[k]} == {"sindy2"}
    edited = _artifact_fingerprints(load_config(
        make_run(tmp_path, "smoke", lstm={"stride": 3})))
    assert {k for k in base if edited[k] != base[k]} == {"lstm"}


def test_fingerprint_hashes_resolved_values_and_the_tool_version(monkeypatch):
    fp = fingerprint("sindy1", ["a", "b"], SINDyConfig())
    assert fp == fingerprint("sindy1", ("a", "b"), SINDyConfig(threshold=0.05))
    assert fp != fingerprint("sindy1", ["a"], SINDyConfig())
    assert fp != fingerprint("sindy1", ["a", "b"], SINDyConfig(threshold=2.0))
    monkeypatch.setattr(manifest, "__version__", "0.0.0-other")
    assert fp != fingerprint("sindy1", ["a", "b"], SINDyConfig())
    with pytest.raises(TypeError):
        fingerprint(Path("data"))


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
        # every command but split writes or checks a fingerprinted artifact
        assert bool(man.fingerprints) == (man.command != "split"), mpath.name
        for fp in man.fingerprints.values():
            assert len(fp) == 64
        assert "total" in man.timings


def test_manifests_record_each_corpus_file_read_by_sha256(smoke_run):
    data, out = smoke_run["data"], smoke_run["out"]
    every = [f"smk{i:02d}" for i in range(1, 6)]
    read = {"ingest": every, "correlate": every, "fit_sindy": every[:2],
            "train": every[:3], "simulate": every[3:], "evaluate": every[3:],
            "retrain_experiment": every, "split": None, "report": None}
    for command, flights in read.items():
        man = load_manifest(out / f"manifest_{command}.json")
        want = [] if flights is None else sorted(
            ["maneuvers.csv"] + [f"flights/{fid}.csv" for fid in flights])
        assert [i["path"] for i in man.inputs] == want, command
        for item in man.inputs:
            blob = (data / item["path"]).read_bytes()
            assert item["sha256"] == hashlib.sha256(blob).hexdigest()
        assert man.stable_payload()["inputs"] == list(man.inputs)
    assert load_manifest(data / "manifest_generate.json").inputs == ()


def test_cache_holds_one_entry_per_flight_read(smoke_run):
    data, cache = smoke_run["data"], smoke_run["out"] / "cache"
    entries = sorted(p.relative_to(cache).as_posix() for p in cache.rglob("*")
                     if p.is_file())
    assert entries == sorted(
        f"smk{i:02d}/" + hashlib.sha256(
            (data / "flights" / f"smk{i:02d}.csv").read_bytes()).hexdigest() + ".npy"
        for i in range(1, 6))


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
    fps = load_manifest(out / "manifest_fit_sindy.json").fingerprints
    for order in (1, 2):
        model = (out / f"sindy{order}_model.txt").read_text(encoding="utf-8")
        assert model.startswith("tssid sparse model v1")
        stamp = model.index(f"\nfingerprint: {fps[f'sindy{order}_model.txt']}\n")
        assert stamp < model.index("\nequation: ")
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
    for kind in ("ffnn", "lstm"):
        phase_fps = [man.fingerprints[f"retrain/{kind}_{phase}_weights.bin"]
                     for phase in ("baseline", "retrained")]
        assert phase_fps[0] != phase_fps[1]
        assert phase_fps[0] == load_net(out / "retrain" / f"{kind}_baseline_weights.bin"
                                        ).fingerprint
    assert set(runs[0]["train_flights"]) < set(runs[1]["train_flights"])
    assert "smk04" in runs[1]["train_flights"]


def test_report_artifacts(smoke_run, capsys):
    out = smoke_run["out"]
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "overall" in text
    for model_id in MODEL_IDS:
        assert model_id in text


# --- evaluate scores the simulation that simulate wrote -------------------------------


def _count_rk4_calls(monkeypatch) -> list:
    calls = []
    real = kernels.rk4_sparse
    monkeypatch.setattr(kernels, "rk4_sparse", lambda *a: calls.append(a) or real(*a))
    return calls


def _copy_smoke_run(smoke_run, base: Path, **overrides) -> Path:
    shutil.copytree(smoke_run["data"], base / "data")
    shutil.copytree(smoke_run["out"], base / "out")
    return make_run(base, "smoke", **overrides)


_EVAL_SINDY = ("evaluate", "--model", "sindy1", "--model", "sindy2")


def _scored(out: Path) -> dict[str, bytes]:
    """What evaluate writes for the two sparse models."""
    files = [out / "comparison.csv", *sorted(out.glob("eval_sindy*.txt")),
             *sorted((out / "overlays").glob("sindy*/*.csv"))]
    return {f.relative_to(out).as_posix(): f.read_bytes() for f in files}


def test_simulate_integrates_each_model_once_and_evaluate_reads_it(tmp_path, monkeypatch,
                                                                   smoke_run):
    cfg = _copy_smoke_run(smoke_run, tmp_path)
    out = tmp_path / "out"
    calls = _count_rk4_calls(monkeypatch)
    assert run_cli("simulate", "--config", cfg) == 0
    assert len(calls) == 2  # one pass per model over every segment of both test flights
    sim = load_manifest(out / "manifest_simulate.json")
    digests = sim.extra["output_sha256"]
    assert sorted(digests) == sorted(sim.outputs)
    for rel, digest in digests.items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
    calls.clear()
    assert run_cli(*_EVAL_SINDY, "--config", cfg) == 0
    assert calls == []
    evaluated = load_manifest(out / "manifest_evaluate.json").fingerprints
    for order in (1, 2):
        assert evaluated[f"sim_sindy{order}"] == sim.fingerprints[f"sim_sindy{order}"]


def _edit_sim_csv(base: Path, cfg: Path) -> None:
    path = sorted((base / "out" / "sim_sindy1").glob("*.csv"))[0]
    blob = bytearray(path.read_bytes())
    blob[-2] = ord("1") if blob[-2] != ord("1") else ord("2")  # last digit of TRQ_pred
    path.write_bytes(bytes(blob))


def _delete_sim_csv(base: Path, cfg: Path) -> None:
    sorted((base / "out" / "sim_sindy1").glob("*.csv"))[-1].unlink()


def _simulate_order_1_only(base: Path, cfg: Path) -> None:
    assert run_cli("simulate", "--config", cfg, "--order", 1) == 0


def _edit_model_keeping_its_stamp(base: Path, cfg: Path) -> None:
    # a model refitted by other code under the same settings: same stamp, other bytes
    path = base / "out" / "sindy1_model.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if ln.startswith("1\t"))
    lines[i] = f"1\t{float(lines[i].split()[1]) + 0.5!r}\n"
    path.write_text("".join(lines), encoding="utf-8")


def _edit_test_flight(base: Path, cfg: Path) -> None:
    path = base / "data" / "flights" / "smk04.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    col = lines[0].split(",").index("WF")
    for i in range(100, 120):  # inside a scoring segment: the simulation changes
        cells = lines[i].split(",")
        cells[col] = repr(float(cells[col]) + 5.0)
        lines[i] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


def _garble_simulate_manifest(base: Path, cfg: Path) -> None:
    (base / "out" / "manifest_simulate.json").write_text("[1, 2]\n", encoding="utf-8")


def _refit_order_1(base: Path, cfg: Path) -> None:
    assert run_cli("fit-sindy", "--config", cfg, "--order", 1) == 0


@pytest.mark.parametrize("prepare, overrides, integrated", [
    (None, {}, 0),
    (_edit_sim_csv, {}, 1),
    (_delete_sim_csv, {}, 1),
    (_simulate_order_1_only, {}, 1),
    (_edit_model_keeping_its_stamp, {}, 1),
    (_refit_order_1, {"sindy": {"threshold": 0.1}}, 1),
    (_edit_test_flight, {}, 2),
    (_garble_simulate_manifest, {}, 2),
], ids=["fresh", "edited-sim-csv", "deleted-sim-csv", "simulate-order-1-only",
        "edited-model", "refit-model", "edited-test-flight", "garbled-manifest"])
def test_evaluate_reads_fresh_simulations_and_integrates_the_rest(
        tmp_path, monkeypatch, smoke_run, prepare, overrides, integrated):
    """evaluate after simulate writes the bytes it writes when it integrates."""
    scored = {}
    for route in ("after-simulate", "integrating"):
        base = tmp_path / route
        cfg = _copy_smoke_run(smoke_run, base, **overrides)
        if prepare is not None:
            prepare(base, cfg)
        if route == "integrating":
            (base / "out" / "manifest_simulate.json").unlink()
        calls = _count_rk4_calls(monkeypatch)
        assert run_cli(*_EVAL_SINDY, "--config", cfg) == 0
        assert len(calls) == (integrated if route == "after-simulate" else 2), route
        scored[route] = _scored(base / "out")
    assert len(scored["after-simulate"]) > 4
    assert scored["after-simulate"] == scored["integrating"]


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


_SMOKE = yaml.safe_load((CONFIGS / "smoke.yaml").read_text(encoding="utf-8"))


def _drop_stamp(name: str):
    def damage(tmp: Path) -> None:
        path = tmp / name
        path.write_text("".join(ln for ln in path.read_text(encoding="utf-8")
                                .splitlines(keepends=True)
                                if not ln.startswith("fingerprint:")), encoding="utf-8")
    return damage


def _unstamp_weights(tmp: Path) -> None:
    path = tmp / "out" / "ffnn_weights.bin"
    save_net(dataclasses.replace(load_net(path), fingerprint=""), path)


def _unstamp_corpus(tmp: Path) -> None:
    (tmp / "data" / "manifest_generate.json").unlink()


def _move_out(tmp: Path) -> None:
    (tmp / "out").rename(tmp / "elsewhere")


_NEW_PLANT = {"ground_truth": {**_SMOKE["corpus"]["ground_truth"], "mu": 0.5}}
_SPELLED_OUT = {"train": {**_SMOKE["ffnn"]["train"], "shuffle": True}}


@pytest.mark.parametrize("overrides, damage, argv, code, needles", [
    # stale: made under other settings than the current configuration's
    ({"sindy": {"threshold": 0.1}}, None, ("evaluate", "--model", "sindy1"), 4,
     ("sindy1_model.txt", "fit-sindy")),
    ({"corpus": _NEW_PLANT}, None, ("fit-sindy",), 4,
     ("manifest_generate.json", "tssid generate")),
    ({"sindy": {"threshold": 0.1}}, None, ("report", "--model", "sindy1"), 4,
     ("eval_sindy1.txt", "tssid evaluate")),
    ({"split": {"train": ["smk01", "smk03"], "val": ["smk02"]}}, None,
     ("simulate", "--order", "1"), 4, ("sindy1_model.txt", "fit-sindy")),
    # unstamped
    ({}, _unstamp_weights, ("evaluate", "--model", "ffnn"), 4,
     ("ffnn_weights.bin", "no fingerprint", "tssid train")),
    ({}, _drop_stamp("out/sindy2_model.txt"), ("simulate", "--order", "2"), 4,
     ("sindy2_model.txt", "no fingerprint")),
    ({}, _drop_stamp("out/eval_lstm.txt"), ("report", "--model", "lstm"), 4,
     ("eval_lstm.txt", "no fingerprint")),
    ({}, _unstamp_corpus, ("ingest",), 4, ("manifest_generate.json", "no fingerprint")),
    # fresh: nothing the artifact depends on changed
    ({"sindy": {"threshold": 0.1}}, None, ("evaluate", "--model", "ffnn"), 0, ()),
    ({"ffnn": _SPELLED_OUT}, None, ("evaluate", "--model", "ffnn"), 0, ()),
    ({}, None, ("evaluate",), 0, ()),
    ({}, None, ("report",), 0, ()),
    ({}, _move_out, ("evaluate", "--out", "{tmp}/elsewhere"), 0, ()),
], ids=["a-sindy-threshold", "b-plant-params", "stale-eval-report", "split-edit",
        "unstamped-weights", "unstamped-model", "unstamped-eval-report",
        "unstamped-corpus", "c-sindy-edit-keeps-ffnn", "d-spelled-out-default",
        "paths-only", "paths-only-report", "out-flag"])
def test_stale_artifacts_exit_4_and_fresh_ones_0(tmp_path, capsys, smoke_run, overrides,
                                                damage, argv, code, needles):
    """Each case runs on a copy of the smoke run's data and out directories."""
    shutil.copytree(smoke_run["data"], tmp_path / "data")
    shutil.copytree(smoke_run["out"], tmp_path / "out")
    if damage is not None:
        damage(tmp_path)
    cfg = make_run(tmp_path, "smoke", **overrides)
    argv = [a.format(tmp=tmp_path) for a in argv]
    capsys.readouterr()
    assert run_cli(*argv, "--config", cfg) == code
    err = capsys.readouterr().err
    for needle in needles:
        assert needle in err
    assert "Traceback" not in err


def _truncate_weights(tmp: Path) -> None:
    weights = tmp / "out" / "ffnn_weights.bin"
    weights.write_bytes(weights.read_bytes()[:-8])


def _garble_corpus_manifest(tmp: Path) -> None:
    (tmp / "data" / "manifest_generate.json").write_text("[1, 2]\n", encoding="utf-8")


def _edit_sindy1_model(name: str, pattern: str, repl: str):
    """Damage ``name`` that replaces the first match of ``pattern`` in the stamped sindy1 model."""
    def damage(tmp: Path) -> None:
        model = tmp / "out" / "sindy1_model.txt"
        text, n = re.subn(pattern, repl, model.read_text(encoding="utf-8"), count=1)
        assert n == 1
        model.write_text(text, encoding="utf-8")
    damage.__name__ = name
    return damage


_SIMULATE_1 = ("simulate", "--order", "1")


@pytest.mark.parametrize("damage, argv, name", [
    (_truncate_weights, ("evaluate", "--model", "ffnn"), "ffnn_weights.bin"),
    (_garble_corpus_manifest, ("ingest",), "manifest_generate.json"),
    # model files no fit writes, which used to integrate to NaN or crash
    (_edit_sindy1_model("_nan_coefficient", r"\t.*", "\tnan"), _SIMULATE_1,
     "sindy1_model.txt"),
    (_edit_sindy1_model("_inf_coefficient", r"\t.*", "\t-inf"), _SIMULATE_1,
     "sindy1_model.txt"),
    (_edit_sindy1_model("_order_9", r"order: 1", "order: 9"), _SIMULATE_1, "sindy1_model.txt"),
    (_edit_sindy1_model("_unknown_derivative_method", r"derivative_method: .*",
                        "derivative_method: spline"), _SIMULATE_1, "sindy1_model.txt"),
    (_edit_sindy1_model("_library_degree_9", r"library_degree: .*", "library_degree: 9"),
     _SIMULATE_1, "sindy1_model.txt"),
])
def test_exit_code_3_malformed_artifact(tmp_path, capsys, smoke_run, damage, argv, name):
    shutil.copytree(smoke_run["data"], tmp_path / "data")
    shutil.copytree(smoke_run["out"], tmp_path / "out")
    damage(tmp_path)
    cfg = make_run(tmp_path, "smoke")
    assert run_cli(*argv, "--config", cfg) == 3
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err


def test_exit_code_4_diverged_simulation_writes_no_score(tmp_path, capsys, smoke_run):
    # a finite coefficient so large that the simulation overflows to inf and NaN
    shutil.copytree(smoke_run["data"], tmp_path / "data")
    shutil.copytree(smoke_run["out"], tmp_path / "out")
    _edit_sindy1_model("_huge_coefficient", r"\t.*", "\t1e308")(tmp_path)
    good = {name: (tmp_path / "out" / name).read_bytes()
            for name in ("eval_sindy1.txt", "comparison.csv")}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
        assert run_cli("evaluate", "--model", "sindy1", "--config",
                       make_run(tmp_path, "smoke")) == 4
    err = capsys.readouterr().err
    assert "'sindy1'" in err and "'smk04'" in err and "not finite" in err
    assert "Traceback" not in err
    assert good == {name: (tmp_path / "out" / name).read_bytes() for name in good}


@pytest.mark.parametrize("path, value, key", [
    (("sindy", "threshold"), "abc", "sindy.threshold"),
    (("ffnn", "hidden_layers"), ["x"], "ffnn.hidden_layers[0]"),
    (("lstm", "lookback"), [3], "lstm.lookback"),
    (("split",), {"fractions": [0.5, "a", 0.5]}, "split.fractions[1]"),
    (("corpus", "sample_rate_hz"), "fast", "corpus.sample_rate_hz"),
    (("seed",), "abc", "seed"),
    # coercions that used to pass: a truncated fraction, a string or bool read as a flag
    (("lstm", "lookback"), 2.7, "lstm.lookback"),
    (("ffnn", "train", "shuffle"), "false", "ffnn.train.shuffle"),
    (("ffnn", "train", "epochs"), True, "ffnn.train.epochs"),
    (("lstm", "train", "batch_size"), "64", "lstm.train.batch_size"),
    (("sindy", "library"), {"trig": 1}, "sindy.library.trig"),
    (("sindy", "threshold"), False, "sindy.threshold"),
    # a scalar where a list belongs, which used to be split into characters or crash
    (("maneuvers", "exclude_labels"), "taxiing", "maneuvers.exclude_labels"),
    (("ffnn", "hidden_layers"), 8, "ffnn.hidden_layers"),
    (("split", "test"), "smk04", "split.test"),
    (("features", "inputs"), "COL", "features.inputs"),
    (("retrain", "augment_ids"), "smk04", "retrain.augment_ids"),
    # a list where a string belongs, which used to be read as its repr or crash
    (("maneuvers", "exclude_labels"), [["taxiing"]], "maneuvers.exclude_labels[0]"),
    (("features", "target"), ["TRQ"], "features.target"),
    (("paths", "out_dir"), [1], "paths.out_dir"),
])
def test_exit_code_2_wrong_scalar_type_names_the_key(tmp_path, capsys, path, value, key):
    assert run_cli("split", "--config", _smoke_with(tmp_path, path, value)) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected" in err
    assert "Traceback" not in err


def _smoke_with(tmp_path: Path, path: tuple[str, ...], value) -> Path:
    """The smoke preset with the key at ``path`` set to ``value``."""
    cfg = make_run(tmp_path, "smoke")
    raw = yaml.safe_load(cfg.read_text(encoding="utf-8"))
    section = raw
    for part in path[:-1]:
        section = section[part]
    section[path[-1]] = value
    cfg.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return cfg


@pytest.mark.parametrize("path, value, key, given", [
    (("sindy", "second", "derivative_method"), ["central"], "sindy.second.derivative_method",
     ["central"]),
    (("sindy", "derivative_method"), "spline", "sindy.derivative_method", "spline"),
    (("ffnn", "train", "optimizer"), {"rmsprop": 1}, "ffnn.train.optimizer", {"rmsprop": 1}),
    (("lstm", "train", "optimizer"), "sgd", "lstm.train.optimizer", "sgd"),
    (("corpus", "ground_truth", "order"), "third", "corpus.ground_truth.order", "third"),
    (("corpus", "flights"), [{"id": "x", "maneuvers": [{"kind": "glide", "duration_s": 5}]}],
     "corpus.flights[0].maneuvers[0].kind", "glide"),
])
def test_exit_code_2_bad_choice_names_the_key_and_the_value(tmp_path, capsys, path, value,
                                                            key, given):
    assert run_cli("split", "--config", _smoke_with(tmp_path, path, value)) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected one of" in err
    assert repr(given) in err
    assert "Traceback" not in err


def test_whole_numbers_and_yaml_booleans_are_accepted(tmp_path):
    cfg = load_config(make_run(tmp_path, "smoke", lstm={"lookback": 6.0},
                               ffnn={"train": {**_SMOKE["ffnn"]["train"], "shuffle": False}}))
    assert cfg.neural.lstm_lookback == 6 and type(cfg.neural.lstm_lookback) is int
    assert cfg.neural.ffnn_train.shuffle is False


def test_exit_code_2_split_fractions_beside_explicit_lists(tmp_path, capsys):
    cfg = make_run(tmp_path, "smoke", split={"fractions": [0.4, 0.2, 0.4]})
    assert run_cli("split", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "fractions" in err and "train/val/test" in err
    assert "Traceback" not in err


def test_flight_ids_are_the_specs_ids_without_drawing_a_flight(monkeypatch):
    presets = sorted(CONFIGS.glob("*.yaml"))
    expected = {p: [s.flight_id for s in load_config(p).corpus.build_specs()]
                for p in presets}

    def refuse(*args, **kwargs):
        raise AssertionError("flight_ids expanded a template")

    monkeypatch.setattr(config_module, "expand_template", refuse)
    for p in presets:
        assert list(load_config(p).corpus.flight_ids) == expected[p], p.name


def test_duplicate_flight_ids_are_refused(tmp_path):
    extra = {"id": "smk02", "maneuvers": [{"kind": "hold", "duration_s": 5.0,
                                           "level": 300.0}]}
    corpus = load_config(make_run(tmp_path, "smoke", corpus={**_SMOKE["corpus"],
                                                             "flights": [extra]})).corpus
    for build in (lambda: corpus.flight_ids, corpus.build_specs):
        with pytest.raises(ConfigError, match="corpus produces duplicate flight ids"):
            build()


def test_template_duration_budget_is_refused_at_load(tmp_path):
    tpl = {**_SMOKE["corpus"]["templates"][0], "duration_s": 6.0}
    cfg = make_run(tmp_path, "smoke", corpus={**_SMOKE["corpus"], "templates": [tpl]})
    with pytest.raises(LengthMismatch, match="taxi/chirp budget"):
        load_config(cfg)


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


@pytest.mark.parametrize("command", ["train", "evaluate", "report"])
def test_exit_code_2_unknown_model_flag(tmp_path, capsys, command):
    cfg = make_run(tmp_path, "smoke")
    try:
        code = run_cli(command, "--config", cfg, "--model", "forest")
    except SystemExit as exc:  # argparse refuses it before the config is read
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "forest" in err
    assert "Traceback" not in err


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        run_cli("transmogrify", "--config", "x.yaml")


@pytest.fixture(scope="module")
def smoke_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    assert run_cli("generate", "--config", make_run(tmp, "smoke")) == 0
    return tmp / "data"


def _long_cell(path: Path) -> None:
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2] + b"0" * 131073
    path.write_bytes(b"\n".join(lines))


def _non_utf8(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-1] + b"\xff\n")


@pytest.mark.parametrize("name", ["flights/smk02.csv", "maneuvers.csv"])
@pytest.mark.parametrize("damage, detail", [(_non_utf8, "is not UTF-8"),
                                            (_long_cell, "line 3: field larger")])
def test_exit_code_2_malformed_csv_text(tmp_path, capsys, smoke_corpus, name,
                                        damage, detail):
    cfg = make_run(tmp_path, "smoke")
    shutil.copytree(smoke_corpus, tmp_path / "data")
    damage(tmp_path / "data" / name)
    assert run_cli("ingest", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert Path(name).name in err and detail in err
    assert "Traceback" not in err


def _edit_lines(edit):
    def damage(path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(ln + "\n" for ln in edit(lines)), encoding="utf-8")
    return damage


@pytest.mark.parametrize("damage, detail", [
    (_edit_lines(lambda ls: ["label,flight_id" + ls[0][len("flight_id,label"):]] + ls[1:]),
     "header must be flight_id,label,start_index,end_index,excluded"),
    (_edit_lines(lambda ls: []), "header must be flight_id,label,start_index,end_index,"
                                 "excluded, got nothing"),
    (_edit_lines(lambda ls: [ln + ",x" for ln in ls]), "got flight_id,label,start_index,"
                                                        "end_index,excluded,x"),
    (_edit_lines(lambda ls: [ls[0], "smk01,taxiing,0,40,2"] + ls[2:]),
     "data row 1: excluded must be 0 or 1, got '2'"),
    (_edit_lines(lambda ls: [ls[0], ls[1], "smk01,hover,30,73,0"] + ls[3:]),
     "data row 2: flight 'smk01' segment 'hover' [30,73) overlaps 'taxiing' [0,40) "
     "of data row 1"),
    (_edit_lines(lambda ls: ls + ["smk99,hover,0,10,0"]), "flight 'smk99' is not in the corpus"),
], ids=["swapped-header", "empty", "extra-column", "excluded-2", "overlap", "unknown-flight"])
def test_exit_code_2_malformed_maneuvers_csv(tmp_path, capsys, smoke_corpus, damage, detail):
    cfg = make_run(tmp_path, "smoke")
    shutil.copytree(smoke_corpus, tmp_path / "data")
    damage(tmp_path / "data" / "maneuvers.csv")
    assert run_cli("ingest", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "maneuvers.csv: " in err and detail in err, err
    assert "Traceback" not in err
