"""Run configuration: one YAML file drives the whole pipeline.

Top-level keys: ``seed`` (required), ``paths``, ``corpus``, ``maneuvers``,
``split``, ``features``, ``sindy``, ``ffnn``, ``lstm``, ``retrain``,
``evaluate``.  Unknown top-level keys are rejected so typos fail loudly.

The configuration fingerprint is the SHA-256 of the canonical JSON of the
resolved configuration minus the ``paths`` section; it ties artifacts
(weights files, manifests) to the exact settings and seed that produced
them, while letting the same experiment live in different directories.

Stage seeds (corpus generation, splitting, each training run) are derived
from the global seed with :func:`tssid.seeding.derive_seed`, so stages are
decoupled: adding a flight or re-running one stage never shifts another
stage's random stream.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from .errors import ConfigError, IoError
from .flightdata import DEFAULT_FEATURES, FeatureRules
from .neural import LSTMConfig, MLPConfig, TrainConfig
from .seeding import derive_seed
from .sindy import LibrarySpec, SINDyConfig
from .synthgen import (
    FlightTemplate,
    GroundTruthParams,
    ManeuverProfile,
    SyntheticFlightSpec,
    expand_template,
)

_TOP_KEYS = {
    "seed", "paths", "corpus", "maneuvers", "split", "features",
    "sindy", "ffnn", "lstm", "retrain", "evaluate",
}

MODEL_IDS = ("sindy1", "sindy2", "ffnn", "lstm")


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _as_mapping(value, context: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{context}: expected a mapping, got {type(value).__name__}")
    return dict(value)


@dataclass(frozen=True)
class CorpusConfig:
    """Synthetic corpus description (templates and/or explicit flights)."""

    sample_rate_hz: float
    ground_truth: GroundTruthParams
    templates: tuple[tuple[FlightTemplate, GroundTruthParams], ...]
    explicit: tuple[SyntheticFlightSpec, ...]
    exclude_labels: tuple[str, ...]

    def build_specs(self) -> list[SyntheticFlightSpec]:
        specs: list[SyntheticFlightSpec] = []
        for tpl, params in self.templates:
            specs.extend(expand_template(tpl, params, self.sample_rate_hz,
                                         self.exclude_labels))
        specs.extend(self.explicit)
        ids = [s.flight_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"corpus produces duplicate flight ids: {ids}")
        return specs

    @property
    def flight_ids(self) -> tuple[str, ...]:
        return tuple(s.flight_id for s in self.build_specs())


@dataclass(frozen=True)
class FeaturesConfig:
    target: str = "TRQ"
    inputs: tuple[str, ...] = ()
    rules: FeatureRules = field(default_factory=FeatureRules)


@dataclass(frozen=True)
class NeuralSection:
    ffnn_hidden: tuple[int, ...]
    ffnn_train: TrainConfig
    lstm_hidden_size: int
    lstm_num_layers: int
    lstm_lookback: int
    lstm_stride: int
    lstm_train: TrainConfig


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one pipeline run."""

    seed: int
    data_dir: Path
    out_dir: Path
    corpus: CorpusConfig | None
    exclude_labels: tuple[str, ...]
    split_explicit: Mapping[str, tuple[str, ...]] | None
    split_fractions: tuple[float, float, float] | None
    features: FeaturesConfig
    sindy_first: SINDyConfig
    sindy_second: SINDyConfig
    neural: NeuralSection
    retrain_augment_ids: tuple[str, ...]
    evaluate_models: tuple[str, ...]
    fingerprint: str

    def sindy_config(self, order: int) -> SINDyConfig:
        if order == 1:
            return self.sindy_first
        if order == 2:
            return self.sindy_second
        raise ConfigError(f"order must be 1 or 2, got {order}")

    def mlp_config(self, input_dim: int) -> MLPConfig:
        return MLPConfig(input_dim, self.neural.ffnn_hidden)

    def lstm_config(self, input_dim: int) -> LSTMConfig:
        return LSTMConfig(input_dim, self.neural.lstm_hidden_size,
                          self.neural.lstm_num_layers, self.neural.lstm_lookback)


def _parse_ground_truth(raw: Mapping, seed_default: int, context: str) -> GroundTruthParams:
    raw = dict(raw)
    known = {"order", "a", "b", "c", "mu", "tau1", "tau2", "noise_sigma", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{context}: unknown ground_truth keys {sorted(unknown)}")
    noise = _as_mapping(raw.get("noise_sigma"), f"{context}.noise_sigma")
    kwargs: dict[str, Any] = {
        "order": raw.get("order", "first"),
        "noise_sigma": {str(k): float(v) for k, v in noise.items()},
        "seed": int(raw.get("seed", seed_default)),
    }
    for k in ("a", "b", "c", "mu", "tau1", "tau2"):
        if k in raw:
            kwargs[k] = float(raw[k])
    return GroundTruthParams(**kwargs)


def _parse_profile(raw: Mapping, context: str) -> ManeuverProfile:
    raw = dict(raw)
    kind = str(_require(raw, "kind", context))
    duration = float(_require(raw, "duration_s", context))
    kwargs = {"kind": kind, "duration_s": duration}
    for k in ("label",):
        if k in raw:
            kwargs[k] = str(raw[k])
    for k in ("level", "start", "end", "center", "amplitude", "f0_hz", "f1_hz"):
        if k in raw:
            kwargs[k] = float(raw[k])
    extra = set(raw) - set(kwargs) - {"kind", "duration_s"}
    if extra:
        raise ConfigError(f"{context}: unknown maneuver keys {sorted(extra)}")
    return ManeuverProfile(**kwargs)


def _parse_template(raw: Mapping, gt: GroundTruthParams,
                    context: str) -> tuple[FlightTemplate, GroundTruthParams]:
    raw = dict(raw)
    gt_over = raw.pop("ground_truth", None)
    params = gt if gt_over is None else replace(
        gt, **{k: (float(v) if k != "order" else str(v))
               for k, v in _as_mapping(gt_over, f"{context}.ground_truth").items()
               if k in ("order", "a", "b", "c", "mu", "tau1", "tau2")}
    )
    known = {"count", "id_prefix", "duration_s", "wf_low", "wf_high", "taxi_s",
             "taxi_level", "chirp_s", "chirp_f0_hz", "chirp_f1_hz",
             "chirp_amplitude", "seed_salt"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{context}: unknown template keys {sorted(unknown)}")
    try:
        tpl = FlightTemplate(
            count=int(_require(raw, "count", context)),
            id_prefix=str(_require(raw, "id_prefix", context)),
            duration_s=float(_require(raw, "duration_s", context)),
            wf_low=float(_require(raw, "wf_low", context)),
            wf_high=float(_require(raw, "wf_high", context)),
            taxi_s=float(raw.get("taxi_s", 0.0)),
            taxi_level=(float(raw["taxi_level"]) if "taxi_level" in raw else None),
            chirp_s=float(raw.get("chirp_s", 0.0)),
            chirp_f0_hz=float(raw.get("chirp_f0_hz", 0.08)),
            chirp_f1_hz=float(raw.get("chirp_f1_hz", 0.4)),
            chirp_amplitude=(float(raw["chirp_amplitude"])
                             if "chirp_amplitude" in raw else None),
            seed_salt=str(raw.get("seed_salt", "")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    return tpl, params


def _parse_corpus(raw: Mapping, seed: int, exclude_labels: tuple[str, ...]) -> CorpusConfig:
    raw = dict(raw)
    known = {"sample_rate_hz", "ground_truth", "templates", "flights"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"corpus: unknown keys {sorted(unknown)}")
    fs = float(_require(raw, "sample_rate_hz", "corpus"))
    if fs <= 0:
        raise ConfigError(f"corpus.sample_rate_hz must be positive, got {fs}")
    gt = _parse_ground_truth(
        _as_mapping(_require(raw, "ground_truth", "corpus"), "corpus.ground_truth"),
        derive_seed(seed, "corpus"), "corpus.ground_truth",
    )
    templates = tuple(
        _parse_template(_as_mapping(t, f"corpus.templates[{i}]"), gt,
                        f"corpus.templates[{i}]")
        for i, t in enumerate(raw.get("templates") or ())
    )
    explicit = []
    for i, fl in enumerate(raw.get("flights") or ()):
        fl = _as_mapping(fl, f"corpus.flights[{i}]")
        ctx = f"corpus.flights[{i}]"
        fid = str(_require(fl, "id", ctx))
        profiles = tuple(
            _parse_profile(_as_mapping(p, f"{ctx}.maneuvers[{j}]"),
                           f"{ctx}.maneuvers[{j}]")
            for j, p in enumerate(_require(fl, "maneuvers", ctx))
        )
        gt_over = fl.get("ground_truth")
        params = gt if gt_over is None else _parse_ground_truth(
            {**{"order": gt.order, "a": gt.a, "b": gt.b, "c": gt.c, "mu": gt.mu,
                "tau1": gt.tau1, "tau2": gt.tau2, "noise_sigma": gt.noise_sigma,
                "seed": gt.seed},
             **_as_mapping(gt_over, f"{ctx}.ground_truth")},
            gt.seed, f"{ctx}.ground_truth",
        )
        explicit.append(SyntheticFlightSpec(
            flight_id=fid,
            sample_rate_hz=fs,
            profiles=profiles,
            params=params,
            initial_trq=(float(fl["initial_trq"]) if fl.get("initial_trq") is not None
                         else None),
            excluded_labels=exclude_labels,
        ))
    if not templates and not explicit:
        raise ConfigError("corpus: needs templates and/or flights")
    return CorpusConfig(fs, gt, templates, tuple(explicit), exclude_labels)


def _parse_sindy(raw: Mapping, context: str,
                 base: SINDyConfig | None = None) -> SINDyConfig:
    raw = dict(raw)
    known = {"threshold", "max_iterations", "ridge_lambda", "derivative_method",
             "library", "first", "second"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    if base is None:
        base = SINDyConfig()
    lib = base.library
    if "library" in raw:
        lraw = _as_mapping(raw["library"], f"{context}.library")
        lunknown = set(lraw) - {"degree", "cross_terms", "trig", "bias"}
        if lunknown:
            raise ConfigError(f"{context}.library: unknown keys {sorted(lunknown)}")
        lib = LibrarySpec(
            degree=int(lraw.get("degree", lib.degree)),
            cross_terms=bool(lraw.get("cross_terms", lib.cross_terms)),
            trig=bool(lraw.get("trig", lib.trig)),
            bias=bool(lraw.get("bias", lib.bias)),
        )
    return SINDyConfig(
        threshold=float(raw.get("threshold", base.threshold)),
        max_iterations=int(raw.get("max_iterations", base.max_iterations)),
        ridge_lambda=float(raw.get("ridge_lambda", base.ridge_lambda)),
        derivative_method=str(raw.get("derivative_method", base.derivative_method)),
        library=lib,
    )


def _parse_train(raw: Mapping, default_seed: int, context: str,
                 defaults: TrainConfig) -> TrainConfig:
    raw = dict(raw)
    known = {"optimizer", "learning_rate", "batch_size", "epochs", "seed", "shuffle"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    return TrainConfig(
        optimizer=str(raw.get("optimizer", defaults.optimizer)),
        learning_rate=float(raw.get("learning_rate", defaults.learning_rate)),
        batch_size=int(raw.get("batch_size", defaults.batch_size)),
        epochs=int(raw.get("epochs", defaults.epochs)),
        seed=int(raw.get("seed", default_seed)),
        shuffle=bool(raw.get("shuffle", True)),
    )


def _canonical(value):
    """YAML-loaded value -> canonical JSON-compatible structure."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _reject_non_finite(value, key: str) -> None:
    """Raise ConfigError naming the first ``.inf`` or ``.nan`` under ``key``."""
    if isinstance(value, Mapping):
        for k, v in value.items():
            _reject_non_finite(v, f"{key}.{k}" if key else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _reject_non_finite(v, f"{key}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value}")


def compute_fingerprint(resolved: Mapping) -> str:
    semantic = {k: v for k, v in resolved.items() if k != "paths"}
    blob = json.dumps(_canonical(semantic), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path: str | Path, seed_override: int | None = None,
                out_override: str | Path | None = None) -> RunConfig:
    """Read, validate and resolve a YAML run configuration."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    raw = _as_mapping(raw, str(path))
    _reject_non_finite(raw, "")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown)}")
    if "seed" not in raw:
        raise ConfigError(f"{path}: missing required key 'seed'")
    seed = int(raw["seed"]) if seed_override is None else int(seed_override)

    paths = _as_mapping(raw.get("paths"), "paths")
    punknown = set(paths) - {"data_dir", "out_dir"}
    if punknown:
        raise ConfigError(f"paths: unknown keys {sorted(punknown)}")
    base = path.parent
    data_dir = Path(paths.get("data_dir", "data"))
    out_dir = Path(paths.get("out_dir", "out"))
    if not data_dir.is_absolute():
        data_dir = base / data_dir
    if out_override is not None:
        out_dir = Path(out_override)
    elif not out_dir.is_absolute():
        out_dir = base / out_dir
    # lexical normalization so "configs/../runs" and "runs" are one location
    data_dir = Path(os.path.normpath(data_dir))
    out_dir = Path(os.path.normpath(out_dir))

    man = _as_mapping(raw.get("maneuvers"), "maneuvers")
    munknown = set(man) - {"exclude_labels"}
    if munknown:
        raise ConfigError(f"maneuvers: unknown keys {sorted(munknown)}")
    exclude_labels = tuple(str(x) for x in (man.get("exclude_labels") or ()))

    corpus = None
    if raw.get("corpus") is not None:
        corpus = _parse_corpus(_as_mapping(raw["corpus"], "corpus"), seed, exclude_labels)

    sp = _as_mapping(raw.get("split"), "split")
    sunknown = set(sp) - {"train", "val", "test", "fractions"}
    if sunknown:
        raise ConfigError(f"split: unknown keys {sorted(sunknown)}")
    split_explicit = None
    split_fractions = None
    if any(k in sp for k in ("train", "val", "test")):
        split_explicit = {
            "train": tuple(str(x) for x in (sp.get("train") or ())),
            "val": tuple(str(x) for x in (sp.get("val") or ())),
            "test": tuple(str(x) for x in (sp.get("test") or ())),
        }
    elif "fractions" in sp:
        fr = sp["fractions"]
        if not isinstance(fr, Sequence) or len(fr) != 3:
            raise ConfigError("split.fractions must be a list of three numbers")
        split_fractions = (float(fr[0]), float(fr[1]), float(fr[2]))

    fe = _as_mapping(raw.get("features"), "features")
    funknown = set(fe) - {"target", "inputs", "exclude", "min_abs_corr", "max_abs_corr"}
    if funknown:
        raise ConfigError(f"features: unknown keys {sorted(funknown)}")
    features = FeaturesConfig(
        target=str(fe.get("target", "TRQ")),
        inputs=tuple(str(x) for x in (fe.get("inputs") or ())),
        rules=FeatureRules(
            exclude=tuple(str(x) for x in (fe.get("exclude") or ())),
            min_abs_corr=(float(fe["min_abs_corr"]) if "min_abs_corr" in fe else None),
            max_abs_corr=(float(fe["max_abs_corr"]) if "max_abs_corr" in fe else None),
        ),
    )

    sindy_raw = _as_mapping(raw.get("sindy"), "sindy")
    first_over = _as_mapping(sindy_raw.pop("first", None), "sindy.first")
    second_over = _as_mapping(sindy_raw.pop("second", None), "sindy.second")
    sindy_base = _parse_sindy(sindy_raw, "sindy")
    sindy_first = _parse_sindy(first_over, "sindy.first", sindy_base)
    sindy_second = _parse_sindy(second_over, "sindy.second", sindy_base)

    ff = _as_mapping(raw.get("ffnn"), "ffnn")
    ffunknown = set(ff) - {"hidden_layers", "train"}
    if ffunknown:
        raise ConfigError(f"ffnn: unknown keys {sorted(ffunknown)}")
    ffnn_hidden = tuple(int(h) for h in (ff.get("hidden_layers") or (24, 24, 24, 24)))
    ffnn_train = _parse_train(
        _as_mapping(ff.get("train"), "ffnn.train"),
        derive_seed(seed, "train", "ffnn"), "ffnn.train",
        TrainConfig(optimizer="rmsprop", learning_rate=1e-4, batch_size=64, epochs=500),
    )

    ls = _as_mapping(raw.get("lstm"), "lstm")
    lsunknown = set(ls) - {"hidden_size", "num_layers", "lookback", "stride", "train"}
    if lsunknown:
        raise ConfigError(f"lstm: unknown keys {sorted(lsunknown)}")
    lookback = int(ls.get("lookback", 20))
    stride = int(ls.get("stride", max(1, lookback // 2)))
    if stride < 1:
        raise ConfigError("lstm.stride must be >= 1")
    lstm_train = _parse_train(
        _as_mapping(ls.get("train"), "lstm.train"),
        derive_seed(seed, "train", "lstm"), "lstm.train",
        TrainConfig(optimizer="adam", learning_rate=5e-4, batch_size=64, epochs=100),
    )
    neural = NeuralSection(
        ffnn_hidden=ffnn_hidden,
        ffnn_train=ffnn_train,
        lstm_hidden_size=int(ls.get("hidden_size", 6)),
        lstm_num_layers=int(ls.get("num_layers", 3)),
        lstm_lookback=lookback,
        lstm_stride=stride,
        lstm_train=lstm_train,
    )

    rt = _as_mapping(raw.get("retrain"), "retrain")
    rtunknown = set(rt) - {"augment_ids"}
    if rtunknown:
        raise ConfigError(f"retrain: unknown keys {sorted(rtunknown)}")
    augment_ids = tuple(str(x) for x in (rt.get("augment_ids") or ()))

    ev = _as_mapping(raw.get("evaluate"), "evaluate")
    evunknown = set(ev) - {"models"}
    if evunknown:
        raise ConfigError(f"evaluate: unknown keys {sorted(evunknown)}")
    models = tuple(str(m) for m in (ev.get("models") or ("sindy1", "sindy2", "ffnn", "lstm")))
    for m in models:
        if m not in MODEL_IDS:
            raise ConfigError(f"evaluate.models: unknown model id {m!r}")

    resolved = dict(raw)
    resolved["seed"] = seed
    fingerprint = compute_fingerprint(resolved)

    return RunConfig(
        seed=seed,
        data_dir=data_dir,
        out_dir=out_dir,
        corpus=corpus,
        exclude_labels=exclude_labels,
        split_explicit=split_explicit,
        split_fractions=split_fractions,
        features=features,
        sindy_first=sindy_first,
        sindy_second=sindy_second,
        neural=neural,
        retrain_augment_ids=augment_ids,
        evaluate_models=models,
        fingerprint=fingerprint,
    )
