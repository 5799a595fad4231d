"""Run every stage of every preset from two source trees and compare what they write.

Usage::

    python3 scripts/compare_presets.py PARENT_TREE CHANGE_TREE

For each tree and preset, the preset's config is copied from the tree's
``configs/`` into a fresh temporary directory, so its ``../runs/<preset>``
data and out directories land there too, and every stage runs in pipeline
order as ``python3 -m tssid.cli <stage> --config <copy>`` with
``PYTHONPATH=<tree>/src``.  A failing stage does not stop the run.

The two runs of a preset are then compared: each stage's exit code, stdout
and stderr (with the temporary directory and the tree masked), and every
file written under the temporary directory, byte for byte, except that
manifests are compared without their ``timings``.  The differences are
printed, and the exit code is 1 if there is any, else 0.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("smoke", "recovery", "cascade", "miso", "shifted")
STAGES = ("generate", "ingest", "correlate", "split", "fit-sindy", "train", "simulate",
          "evaluate", "retrain-experiment", "report")


def run_preset(tree: Path, preset: str) -> tuple[list[tuple], dict[str, bytes]]:
    """Each stage's (name, exit code, stdout, stderr), and the bytes of every file written."""
    with tempfile.TemporaryDirectory(prefix=f"compare-{preset}-") as tmp:
        root = Path(tmp)
        config = root / "configs" / f"{preset}.yaml"
        config.parent.mkdir()
        shutil.copyfile(tree / "configs" / f"{preset}.yaml", config)
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        stages = []
        for stage in STAGES:
            proc = subprocess.run([sys.executable, "-m", "tssid.cli", stage, "--config",
                                   str(config)], cwd=root, env=env, capture_output=True,
                                  text=True, check=False)
            stages.append((stage, proc.returncode,
                           *(text.replace(tmp, "<TMP>").replace(str(tree), "<TREE>")
                             for text in (proc.stdout, proc.stderr))))
        files = {p.relative_to(root).as_posix(): p.read_bytes()
                 for p in sorted((root / "runs").rglob("*")) if p.is_file()}
    return stages, files


def comparable(rel: str, blob: bytes) -> object:
    """A manifest's JSON without ``timings``; any other file's bytes."""
    if not Path(rel).name.startswith("manifest_"):
        return blob
    payload = json.loads(blob)
    payload.pop("timings", None)
    return payload


def compare(preset: str, parent: tuple, change: tuple) -> list[str]:
    """One line per stage result or file that differs between the two runs."""
    diffs = []
    for (stage, *a), (_, *b) in zip(parent[0], change[0]):
        for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                diffs.append(f"{preset} {stage}: {what} differs")
    for rel in sorted(set(parent[1]) | set(change[1])):
        if rel not in parent[1] or rel not in change[1]:
            diffs.append(f"{rel}: written by one tree only")
        elif comparable(rel, parent[1][rel]) != comparable(rel, change[1][rel]):
            diffs.append(f"{rel}: differs")
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="the source tree to compare against")
    parser.add_argument("change", type=Path, help="the source tree of the change")
    args = parser.parse_args(argv)
    differ = False
    for preset in PRESETS:
        parent, change = (run_preset(tree.resolve(), preset)
                          for tree in (args.parent, args.change))
        diffs = compare(preset, parent, change)
        codes = " ".join(f"{stage}={code}" for stage, code, *_ in parent[0])
        print(f"{preset}: {len(parent[1])} files, {len(diffs)} differ; exit codes {codes}")
        for line in diffs:
            print(f"  {line}")
        differ = differ or bool(diffs)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
