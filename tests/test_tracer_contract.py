"""The benchmark's tracer still runs and records what it reads from ``tssid``.

``perfbench/tracer.py`` imports ``tssid.cli``, then looks every module of
its ``WRAPPED`` table up in ``sys.modules`` and every listed function up by
name.  A refactor that makes a module import lazily or renames one of
those functions would break ``perfbench/run.py --trace 1``; the first test
fails first.  The tracer also reads call details, such as the epochs of
``train``'s second positional argument and the ``kind`` of its result; the
second test runs the smoke preset's ``generate`` and ``train`` through the
tracer script, as ``perfbench/run.py --trace 1`` does, and checks them.  It
also checks that each run records its command as exactly one ``cli.cmd_*``
span: the tracer replaces the module attributes, so a command reached
other than by its module-global name would read 0 s in every run.
The third test runs ``fit-sindy``, ``simulate`` and ``evaluate`` the same
way and checks the spans ``--trace 1`` reads from them, and the last one
pins the positional signature that the tracer keys ``sindy.simulate`` on.
The tracer file is used as it is and not changed.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np

from conftest import REPO, make_run, run_cli

import tssid.cli  # noqa: F401  (the import the tracer makes before wrapping)
from tssid import sindy


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists_after_importing_the_cli():
    wrapped = _tracer().WRAPPED
    assert wrapped
    for mod_name, names in wrapped.items():
        module = sys.modules.get(f"tssid.{mod_name}")
        assert module is not None, f"tssid.{mod_name} is not imported by tssid.cli"
        for name in names:
            assert callable(getattr(module, name, None)), f"tssid.{mod_name}.{name}"


def test_traced_smoke_train_records_each_nets_epochs_and_kind(tmp_path):
    cfg = make_run(tmp_path, "smoke")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for stage in ("generate", "train"):
        spans_path = tmp_path / f"{stage}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "tracer.py"),
             str(spans_path), stage, "--config", str(cfg)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        assert [s[0] for s in spans if s[0].startswith("cli.")] == [f"cli.cmd_{stage}"]
    # smoke trains the FFNN for 3 epochs and the LSTM for 2
    assert sorted((s[4], s[5]) for s in spans if s[0] == "neural.train") == [
        (2, "lstm"), (3, "ffnn")]


def test_traced_smoke_sindy_stages_record_the_kernel_and_overlay_spans(tmp_path):
    cfg = make_run(tmp_path, "smoke")
    for stage in ("generate", "train"):
        assert run_cli(stage, "--config", cfg) == 0
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    spans = {}
    for stage in ("fit-sindy", "simulate", "evaluate"):
        spans_path = tmp_path / f"{stage}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "tracer.py"),
             str(spans_path), stage, "--config", str(cfg)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        spans[stage] = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        assert [s[0] for s in spans[stage] if s[0].startswith("cli.")] == [
            f"cli.cmd_{stage.replace('-', '_')}"]
    steps = [s[4] for s in spans["simulate"] if s[0] == "kernels.rk4_sparse"]
    assert steps and all(n > 0 for n in steps)
    rows = [s[4] for s in spans["evaluate"] if s[0] == "evaluation.write_overlay_csv"]
    assert rows and all(n > 0 for n in rows)


def test_recorder_keys_a_positional_sindy_simulate_call():
    recorder = _tracer().Recorder()
    traced = recorder.wrap("sindy.simulate", sindy.simulate)
    spec = sindy.LibrarySpec(degree=1)
    expo, trig, labels = sindy.build_term_encoding(("TRQ",), ("WF",), spec)
    model = sindy.SparseModel(1, ("TRQ",), ("WF",), np.array([[0.0, -1.0, 1.0]]), labels,
                              expo, trig, sindy.SINDyConfig(library=spec), (0.0,))
    u = np.linspace(0.5, 1.0, 50)
    x = traced(model, u, 0.01, 0.25)
    assert np.array_equal(x, sindy.simulate(model, u, 0.01, 0.25))
    [span] = recorder.spans
    assert span[0] == "sindy.simulate" and span[4] == 1
    assert span[5] == f"1:{hashlib.sha1(u.tobytes()).hexdigest()}:0.25"
