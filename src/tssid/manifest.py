"""Run manifests: a JSON receipt for every CLI command.

Each command writes ``manifest_<command>.json`` into its output directory,
recording the command name, the configuration fingerprint, the seed, the
tool version, the sorted relative paths of every file it wrote, and the
corpus files it read (``inputs``: each path relative to data_dir with the
sha256 of its bytes).  Wall clock timings are recorded too but live in
their own key so that determinism checks can compare everything else byte
for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import IoError


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_fingerprint: str
    seed: int
    outputs: tuple[str, ...]
    inputs: tuple[dict[str, str], ...] = ()
    timings: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    tool_version: str = __version__

    def stable_payload(self) -> dict:
        """Everything except timings, for determinism comparisons."""
        return {
            "command": self.command,
            "config_fingerprint": self.config_fingerprint,
            "seed": self.seed,
            "outputs": list(self.outputs),
            "inputs": list(self.inputs),
            "extra": self.extra,
            "tool_version": self.tool_version,
        }


def manifest_path(out_dir: str | Path, command: str) -> Path:
    return Path(out_dir) / f"manifest_{command.replace('-', '_')}.json"


def write_manifest(out_dir: str | Path, manifest: RunManifest) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = dict(manifest.stable_payload())
    payload["timings"] = {k: round(float(v), 6) for k, v in sorted(manifest.timings.items())}
    target = manifest_path(out_dir, manifest.command)
    tmp = target.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(target)
    return target


def load_manifest(path: str | Path) -> RunManifest:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"corrupt manifest {path}: {exc}") from exc
    return RunManifest(
        command=str(payload["command"]),
        config_fingerprint=str(payload["config_fingerprint"]),
        seed=int(payload["seed"]),
        outputs=tuple(str(p) for p in payload["outputs"]),
        inputs=tuple(dict(i) for i in payload.get("inputs", ())),
        timings={str(k): float(v) for k, v in payload.get("timings", {}).items()},
        extra=dict(payload.get("extra", {})),
        tool_version=str(payload.get("tool_version", "")),
    )
