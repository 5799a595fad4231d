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
The tracer file is used as it is and not changed.
"""

import importlib.util
import json
import os
import subprocess
import sys

from conftest import REPO, make_run

import tssid.cli  # noqa: F401  (the import the tracer makes before wrapping)


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
