"""Shared fixtures and helpers for the tssid test suite."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from tssid import cli
from tssid.flightdata import FlightRecord, ManeuverSegment

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
#: the CPU affinity mask the test process started with; a forked run must leave it so
CPU_MASK = os.sched_getaffinity(0)
_REAL_FORK = os.fork


def run_cli(*args) -> int:
    """Invoke the CLI in-process; returns the exit code."""
    return cli.main([str(a) for a in args])


@contextlib.contextmanager
def usable_cpus(cpus: int):
    """Run the CLI as if ``cpus`` CPUs were usable; yields the list of the children forked."""
    forks = []

    def counting_fork():
        pid = _REAL_FORK()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_usable_cpus", lambda: cpus)
        m.setattr(os, "fork", counting_fork)
        yield forks


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def make_run(tmp_dir: Path, preset: str, **overrides) -> Path:
    """Copy a preset config into tmp_dir with tmp-local data/out paths.

    ``overrides`` are merged into the top-level mapping (one level deep for
    dict values), so tests can tweak a preset without a second YAML file.
    """
    raw = yaml.safe_load((CONFIGS / f"{preset}.yaml").read_text(encoding="utf-8"))
    raw["paths"] = {"data_dir": str(tmp_dir / "data"),
                    "out_dir": str(tmp_dir / "out")}
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    cfg_path = tmp_dir / f"{preset}.yaml"
    cfg_path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return cfg_path


def toy_record(flight_id: str = "fl01", n: int = 60, fs: float = 10.0,
               seed: int = 0, segments=None) -> FlightRecord:
    """Small two-channel flight for unit tests."""
    rng = np.random.default_rng(seed)
    trq = 100.0 + 5.0 * np.sin(np.linspace(0.0, 4.0, n)) + rng.normal(0, 0.2, n)
    wf = 300.0 + 20.0 * np.cos(np.linspace(0.0, 3.0, n)) + rng.normal(0, 0.5, n)
    if segments is None:
        segments = (ManeuverSegment("hover", 0, n // 2),
                    ManeuverSegment("cruise", n // 2, n))
    return FlightRecord(flight_id, fs, ("TRQ", "WF"), (trq, wf), tuple(segments))


@pytest.fixture
def record():
    return toy_record()
