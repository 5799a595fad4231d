"""`tssid generate` on every usable CPU: forked shares, the bytes of a serial run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CPU_MASK, REPO, assert_no_child_left, make_run, run_cli, usable_cpus
from tssid import cli
from tssid.config import load_config
from tssid.errors import ComputationError
from tssid.manifest import load_manifest
from tssid.synthgen import flight_segments


def _corpus_files(data: Path) -> dict[str, bytes]:
    """Every file under ``data`` but the manifest, whose timings differ run to run."""
    return {p.relative_to(data).as_posix(): p.read_bytes()
            for p in sorted(data.rglob("*"))
            if p.is_file() and p.name != "manifest_generate.json"}


def _generate(tmp: Path, cpus: int) -> tuple[int, int]:
    """Run ``generate`` on the smoke preset as if ``cpus`` CPUs were usable.

    Returns the exit code and the number of children forked.
    """
    tmp.mkdir(parents=True, exist_ok=True)
    with usable_cpus(cpus) as forks:
        code = run_cli("generate", "--config", make_run(tmp, "smoke"))
    return code, len(forks)


@pytest.mark.parametrize("cpus, forks", [(2, 1), (16, 4)])
def test_forked_shares_write_the_serial_bytes(tmp_path, cpus, forks):
    serial, forked = tmp_path / "serial", tmp_path / "forked"
    assert _generate(serial, 1) == (0, 0)
    # the smoke corpus has five flights, so sixteen CPUs make five shares
    assert _generate(forked, cpus) == (0, forks)
    assert_no_child_left()
    assert os.sched_getaffinity(0) == CPU_MASK  # the placement hint is undone
    assert _corpus_files(forked / "data") == _corpus_files(serial / "data")
    assert len(_corpus_files(serial / "data")) == 6
    assert (load_manifest(forked / "data" / "manifest_generate.json").stable_payload()
            == load_manifest(serial / "data" / "manifest_generate.json").stable_payload())


def test_shares_balance_sample_counts_deterministically():
    assert cli._balanced_shares([5, 9, 2, 7, 4], 2) == [[1, 4], [0, 2, 3]]
    assert cli._balanced_shares([3, 3, 3], 2) == [[0, 2], [1]]
    assert cli._balanced_shares([1, 2], 1) == [[0, 1]]


def _failing_generate(monkeypatch, fails):
    real = cli.generate_flight

    def generate_flight(spec):
        if fails(spec):
            raise ComputationError(f"cannot synthesize {spec.flight_id}")
        return real(spec)

    monkeypatch.setattr(cli, "generate_flight", generate_flight)


def _two_way_shares(tmp: Path) -> list[list[str]]:
    specs = load_config(make_run(tmp, "smoke")).corpus.build_specs()
    shares = cli._balanced_shares([flight_segments(s)[-1].end_index for s in specs], 2)
    return [[specs[i].flight_id for i in share] for share in shares]


@pytest.mark.parametrize("victims", ["one-in-the-child-share", "one-in-each-share",
                                     "every-flight"])
def test_a_failing_share_fails_as_a_serial_run(tmp_path, monkeypatch, capsys, victims):
    own, child = _two_way_shares(tmp_path)
    if victims == "every-flight":
        failing = set(own + child)
    elif victims == "one-in-each-share":
        # the parent's share fails on a later flight than the child's: a serial
        # run reports the child's, which fails first in corpus order
        failing = {child[0], min(fid for fid in own if fid > child[0])}
    else:
        failing = {child[-1]}
    runs = {}
    for cpus in (1, 2):
        tmp = tmp_path / f"cpus{cpus}"
        capsys.readouterr()
        with monkeypatch.context() as m:
            _failing_generate(m, lambda spec: spec.flight_id in failing)
            code, _ = _generate(tmp, cpus)
        captured = capsys.readouterr()
        runs[cpus] = (code, captured.out, captured.err)
        assert not (tmp / "data" / "manifest_generate.json").exists()
    assert_no_child_left()
    assert runs[2] == runs[1]
    code, _, err = runs[1]
    assert code == ComputationError.exit_code
    assert f"cannot synthesize {min(failing)}" in err
    assert "Traceback" not in err


def test_a_child_failure_the_parent_does_not_repeat_is_written_again(tmp_path,
                                                                     monkeypatch):
    parent = os.getpid()
    _failing_generate(monkeypatch, lambda spec: os.getpid() != parent)
    assert _generate(tmp_path / "forked", 2) == (0, 1)
    assert_no_child_left()
    monkeypatch.undo()
    assert _generate(tmp_path / "serial", 1) == (0, 0)
    assert _corpus_files(tmp_path / "forked" / "data") \
        == _corpus_files(tmp_path / "serial" / "data")


def test_generate_as_a_process_exits_0(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "tssid.cli", "generate", "--config", make_run(tmp_path, "smoke")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("generated 5 flights")
    assert len(_corpus_files(tmp_path / "data")) == 6
