"""The stages that fork their units: the outputs, exit code and messages of a serial run.

``simulate`` forks one unit per sparse model, ``evaluate`` one per test
flight and ``retrain-experiment`` one per (phase, net).  Each test runs a
stage on copies of one fitted smoke run, as if one CPU and as if more were
usable, and compares the runs.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import CPU_MASK, REPO, assert_no_child_left, make_run, run_cli, usable_cpus
from tssid import cli
from tssid.errors import ComputationError
from tssid.manifest import load_manifest

#: stage -> its units on the smoke preset
UNITS = {"simulate": 2, "evaluate": 2, "retrain-experiment": 4}


@pytest.fixture(scope="module")
def fitted(tmp_path_factory) -> Path:
    """A smoke run up to ``train``: every input of the stages that fork."""
    tmp = tmp_path_factory.mktemp("fitted")
    cfg = make_run(tmp, "smoke")
    for stage in ("generate", "fit-sindy", "train"):
        assert run_cli(stage, "--config", cfg) == 0
    return tmp


def _copy(fitted: Path, dest: Path) -> Path:
    for name in ("data", "out"):
        shutil.copytree(fitted / name, dest / name)
    return make_run(dest, "smoke")


def _outputs(out: Path) -> dict[str, object]:
    """Every file under ``out``: its bytes, or a manifest's stable payload."""
    return {p.relative_to(out).as_posix(): (load_manifest(p).stable_payload()
                                            if p.name.startswith("manifest_") else p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()}


def _run(fitted: Path, dest: Path, stage: str, cpus: int, capsys) -> tuple:
    """``stage`` on a copy of ``fitted`` at ``dest``: exit code, stdout, stderr and forks."""
    cfg = _copy(fitted, dest)
    capsys.readouterr()
    with usable_cpus(cpus) as forks:
        code = run_cli(stage, "--config", cfg)
    captured = capsys.readouterr()
    assert_no_child_left()
    return code, captured.out.replace(str(dest), "<tmp>"), captured.err, len(forks)


@pytest.mark.parametrize("stage", sorted(UNITS))
def test_forked_units_write_the_serial_bytes(fitted, tmp_path, capsys, stage):
    serial = _run(fitted, tmp_path / "serial", stage, 1, capsys)
    assert serial[0] == 0 and serial[3] == 0
    for cpus in (2, 16):
        forked = _run(fitted, tmp_path / f"cpus{cpus}", stage, cpus, capsys)
        assert forked == serial[:3] + (min(cpus, UNITS[stage]) - 1,)
        assert os.sched_getaffinity(0) == CPU_MASK  # the placement hint is undone
        assert (_outputs(tmp_path / f"cpus{cpus}" / "out")
                == _outputs(tmp_path / "serial" / "out"))
    timings = load_manifest(tmp_path / "cpus2" / "out" / f"manifest_{stage.replace('-', '_')}"
                            ".json").timings
    assert len(timings) == UNITS[stage] + 1  # each unit's wall time, and the total


#: stage -> (the function its units call, a unit that calls it fails when this holds)
_FAILING = {
    "simulate": ("simulate_flights", lambda model, *_: model.order == 2),
    "evaluate": ("predict_series", lambda net, rec: rec.flight_id == "smk05"),
    "retrain-experiment": ("_train_one", lambda cfg, kind, *_: kind == "lstm"),
}


@pytest.mark.parametrize("where", ["child", "everywhere"])
@pytest.mark.parametrize("stage", sorted(UNITS))
def test_a_failing_unit_fails_as_a_serial_run(fitted, tmp_path, capsys, monkeypatch,
                                              stage, where):
    """A unit that fails only in a child has its share redone; one that always fails
    ends the run with the serial exit code, stdout and stderr."""
    name, fails = _FAILING[stage]
    real, parent = getattr(cli, name), os.getpid()

    def failing(*args):
        if (where == "everywhere" or os.getpid() != parent) and fails(*args):
            raise ComputationError(f"{name} failed")
        return real(*args)

    monkeypatch.setattr(cli, name, failing)
    runs = {cpus: _run(fitted, tmp_path / f"cpus{cpus}", stage, cpus, capsys)
            for cpus in (1, 2)}
    assert runs[2] == runs[1][:3] + (1,)
    code, _, err, _ = runs[1]
    if where == "everywhere":
        assert code == ComputationError.exit_code
        assert f"{name} failed" in err
        assert not (tmp_path / "cpus2" / "out" / f"manifest_{stage.replace('-', '_')}.json"
                    ).exists()
    else:
        assert code == 0
        assert _outputs(tmp_path / "cpus2" / "out") == _outputs(tmp_path / "cpus1" / "out")


def test_a_net_with_a_non_finite_prediction_gets_no_new_report_or_overlay(
        fitted, tmp_path, capsys, monkeypatch):
    good = _copy(fitted, tmp_path / "good")
    assert run_cli("evaluate", "--config", good) == 0
    real = cli.predict_series

    def predict_series(net, rec):
        pred = real(net, rec)
        return np.full_like(pred, np.nan) if net.kind == "lstm" and rec.flight_id == "smk05" \
            else pred

    monkeypatch.setattr(cli, "predict_series", predict_series)
    runs = {}
    for cpus in (1, 2):
        dest = tmp_path / f"cpus{cpus}"
        shutil.copytree(tmp_path / "good", dest)
        cfg = make_run(dest, "smoke")
        capsys.readouterr()
        with usable_cpus(cpus):
            code = run_cli("evaluate", "--config", cfg)
        captured = capsys.readouterr()
        assert_no_child_left()
        runs[cpus] = code, captured.out, captured.err, _outputs(dest / "out")
    assert runs[2] == runs[1]
    code, out, err, outputs = runs[1]
    assert code == ComputationError.exit_code
    assert "'lstm'" in err and "'smk05'" in err and "not finite" in err
    # the models scored before the net have their new report; the net keeps its old files
    assert [line.split(":")[0] for line in out.splitlines()] == ["sindy1", "sindy2", "ffnn"]
    old = _outputs(tmp_path / "good" / "out")
    lstm_files = [rel for rel in old if rel == "eval_lstm.txt" or rel.startswith("overlays/lstm/")]
    assert len(lstm_files) > 1
    assert {rel: outputs[rel] for rel in lstm_files} == {rel: old[rel] for rel in lstm_files}
    assert not [rel for rel in outputs if rel.endswith(".staged")]


def test_fork_after_blas_work_with_default_threads_finishes(fitted, tmp_path):
    """The parent's BLAS has started its threads before the fork; the run must not hang."""
    cfg = _copy(fitted, tmp_path)
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from tssid import cli
        a = np.random.default_rng(0).random((400, 400))
        assert np.isfinite(a @ a).all()
        cli._usable_cpus = lambda: 2
        sys.exit(cli.main(sys.argv[1:]))
    """)
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "VECLIB_MAXIMUM_THREADS"}
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-c", script, "retrain-experiment",
                           "--config", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("overall rMAE") == 4


def test_every_process_of_a_forked_run_uses_one_blas_thread():
    threads = cli._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS found in this process's mappings")
    get, _ = threads
    before = get()
    with usable_cpus(2) as forks:
        seen = list(cli._fork_units(lambda _: get(), {"a": 0, "b": 1}, [1, 1], {}))
    assert_no_child_left()
    assert len(forks) == 1
    assert seen == [1, 1]
    assert get() == before


def test_units_come_back_in_order_with_their_wall_times():
    timings: dict[str, float] = {}
    with usable_cpus(3) as forks:
        got = list(cli._fork_units(lambda x: x * x, {f"u{i}": i for i in range(7)},
                                   [1, 5, 2, 2, 9, 1, 3], timings))
    assert_no_child_left()
    assert got == [i * i for i in range(7)]
    assert len(forks) == 2
    assert list(timings) == [f"u{i}" for i in range(7)]


@pytest.mark.parametrize("error", [ComputationError, OSError, ValueError])
@pytest.mark.parametrize("cpus", [1, 3])
def test_results_before_the_first_failing_unit_are_yielded(cpus, error):
    def square_or_fail(x):
        if x in (2, 5):
            raise error(f"unit {x}")
        return x * x

    got = []
    with usable_cpus(cpus), pytest.raises(error, match="unit 2"):
        for result in cli._fork_units(square_or_fail, {str(i): i for i in range(7)},
                                      [1] * 7, {}):
            got.append(result)
    assert_no_child_left()
    assert got == [0, 1]


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("fault", ["pipe", "second_fork", "unpicklable_result", "killed_child",
                                   "parent_share"])
def test_a_parallel_attempt_that_goes_wrong_leaves_the_serial_results(fault):
    """Whatever the attempt fails to bring back, the parent computes, in order."""
    parent, raised = os.getpid(), []

    def square(x):
        if fault == "parent_share" and x == 4 and not raised:  # the parent's share is [4]
            raised.append(x)
            raise ValueError("only the first time")
        if os.getpid() != parent and x == 3:  # in the first child's share
            if fault == "killed_child":
                os.kill(os.getpid(), signal.SIGKILL)
            if fault == "unpicklable_result":
                return lambda: x
        return x * x

    def refuse():
        raise OSError(f"{fault} refused")

    timings: dict[str, float] = {}
    fds = _open_fds()
    with usable_cpus(3) as forks, pytest.MonkeyPatch.context() as m:
        if fault == "pipe":
            m.setattr(os, "pipe", refuse)
        if fault == "second_fork":
            fork = os.fork
            m.setattr(os, "fork", lambda: refuse() if forks else fork())
        got = list(cli._fork_units(square, {f"u{i}": i for i in range(7)},
                                   [1, 5, 2, 2, 9, 1, 3], timings))
    assert_no_child_left()
    assert got == [i * i for i in range(7)]
    assert list(timings) == [f"u{i}" for i in range(7)]
    assert len(forks) == {"pipe": 0, "second_fork": 1}.get(fault, 2)
    assert _open_fds() == fds
