"""Run manifests and artifact fingerprints.

Each command writes ``manifest_<command>.json`` into its output directory,
recording the command name, the seed, the tool version, the sorted relative
paths of every file it wrote, the corpus files it read (``inputs``: each
path relative to data_dir with the sha256 of its bytes), and the
``fingerprints`` of the artifacts it wrote or checked.  Wall clock timings
are recorded too but live in their own key so that determinism checks can
compare everything else byte for byte.

A fingerprint names exactly what produced one artifact: the tool version,
the resolved settings the artifact depends on, and the fingerprints or
flight ids of its own inputs (:func:`fingerprint`).  Resolved values are
hashed, never configuration text, so key order, a spelled-out default or
the ``paths`` section cannot change one.  A stage that reads an artifact
compares its recorded stamp with the one the current configuration gives
(:func:`check_fingerprint`); a different stamp, or none, refuses it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import FingerprintMismatch, IoError


def fingerprint(*parts) -> str:
    """SHA-256 of the tool version and ``parts``, as sorted-key JSON.

    ``parts`` are what produced one artifact: an artifact kind, resolved
    config dataclasses, flight ids and the fingerprints of input artifacts.
    """
    blob = json.dumps([__version__, *parts], sort_keys=True, separators=(",", ":"),
                      default=dataclasses.asdict)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_fingerprint(path: str | Path, recorded: str, expected: str, stage: str) -> None:
    """Refuse an artifact whose stamp is not the configuration's, or is missing."""
    if recorded == expected:
        return
    found = (f"was made under fingerprint {recorded[:12]}..." if recorded
             else "carries no fingerprint")
    raise FingerprintMismatch(
        f"{path} {found}, the current configuration gives {expected[:12]}...; "
        f"re-run `tssid {stage}`"
    )


@dataclass(frozen=True)
class RunManifest:
    command: str
    seed: int
    outputs: tuple[str, ...]
    inputs: tuple[dict[str, str], ...] = ()
    fingerprints: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    tool_version: str = __version__

    def stable_payload(self) -> dict:
        """Everything except timings, for determinism comparisons."""
        return {
            "command": self.command,
            "seed": self.seed,
            "outputs": list(self.outputs),
            "inputs": list(self.inputs),
            "fingerprints": dict(self.fingerprints),
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IoError(f"corrupt manifest {path}: {exc}") from exc
    try:
        return RunManifest(
            command=str(payload["command"]),
            seed=int(payload["seed"]),
            outputs=tuple(str(p) for p in payload["outputs"]),
            inputs=tuple(dict(i) for i in payload.get("inputs", ())),
            fingerprints={str(k): str(v)
                          for k, v in payload.get("fingerprints", {}).items()},
            timings={str(k): float(v) for k, v in payload.get("timings", {}).items()},
            extra=dict(payload.get("extra", {})),
            tool_version=str(payload.get("tool_version", "")),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise IoError(f"corrupt manifest {path}: {exc!r}") from exc
