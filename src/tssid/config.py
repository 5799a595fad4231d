"""Run configuration: one YAML file drives the whole pipeline.

The top-level keys are the fields of :class:`RunConfig`.  Each section is
read into its dataclass by :func:`tssid.settings.read`, so a section
admits only its class's fields, each value is checked by the rule declared
next to its field, and every refusal names its dotted key.

The result is resolved: every default is filled in and every derived seed
drawn.  Artifact fingerprints (:func:`tssid.manifest.fingerprint`) hash
these resolved sections, never the YAML text, so key order, a spelled-out
default or the ``paths`` section do not change them.  Stage seeds derive
from the global seed (:func:`tssid.seeding.derive_seed`), so adding a
flight or re-running one stage never shifts another stage's random stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import yaml

from .errors import ConfigError, IoError
from .flightdata import FeatureRules
from .neural import LSTMConfig, MLPConfig, TrainConfig
from .seeding import derive_seed
from .settings import as_mapping, check, num, read, setting
from .sindy import SINDyConfig
from .synthgen import (
    FlightTemplate,
    GroundTruthParams,
    ManeuverProfile,
    SyntheticFlightSpec,
    expand_template,
)

MODEL_IDS = ("sindy1", "sindy2", "ffnn", "lstm")


class _YamlLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader (libyaml's when built with it) that refuses a key
    given twice in one mapping instead of keeping the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


@dataclass(frozen=True)
class CorpusConfig:
    """Synthetic corpus description (templates and/or explicit flights)."""

    sample_rate_hz: float
    ground_truth: GroundTruthParams
    templates: tuple[tuple[FlightTemplate, GroundTruthParams], ...]
    explicit: tuple[SyntheticFlightSpec, ...]
    exclude_labels: tuple[str, ...]

    def build_specs(self) -> list[SyntheticFlightSpec]:
        self.flight_ids  # refuses duplicate ids before any flight is drawn
        specs: list[SyntheticFlightSpec] = []
        for tpl, params in self.templates:
            specs.extend(expand_template(tpl, params, self.sample_rate_hz,
                                         self.exclude_labels))
        specs.extend(self.explicit)
        return specs

    @cached_property
    def flight_ids(self) -> tuple[str, ...]:
        """Every flight's id in corpus order, from the templates' counts; draws nothing."""
        ids = tuple(fid for tpl, _ in self.templates for fid in tpl.flight_ids)
        ids += tuple(spec.flight_id for spec in self.explicit)
        if len(set(ids)) != len(ids):
            raise ConfigError(f"corpus produces duplicate flight ids: {list(ids)}")
        return ids


@dataclass(frozen=True)
class _CorpusSection:
    """The ``corpus`` keys; each template and flight is read over ``ground_truth``."""

    sample_rate_hz: float = setting(above=0)
    ground_truth: GroundTruthParams
    templates: list = field(default_factory=list)
    flights: list = field(default_factory=list)

    def __post_init__(self):
        check(self, ConfigError)
        if not self.templates and not self.flights:
            raise ConfigError("templates: the corpus needs templates and/or flights")


@dataclass(frozen=True)
class _FlightEntry:
    """One of ``corpus.flights``."""

    id: str
    maneuvers: tuple[ManeuverProfile, ...]
    ground_truth: GroundTruthParams = field(default_factory=GroundTruthParams)
    initial_trq: float | None = None


@dataclass(frozen=True)
class Paths:
    """Where the corpus and the artifacts live, resolved against the config's directory."""

    data_dir: Path = Path("data")
    out_dir: Path = Path("out")


@dataclass(frozen=True)
class Maneuvers:
    exclude_labels: tuple[str, ...] = ()

    def __post_init__(self):
        check(self, ConfigError)


@dataclass(frozen=True)
class SplitConfig:
    """The ``train``/``val``/``test`` lists, or ``fractions`` (else 0.8/0.1/0.1)."""

    train: tuple[str, ...] | None = None
    val: tuple[str, ...] | None = None
    test: tuple[str, ...] | None = None
    fractions: tuple[float, ...] | None = setting(None, lo=0)

    def __post_init__(self):
        check(self, ConfigError)
        listed = [k for k in ("train", "val", "test") if getattr(self, k) is not None]
        fr = self.fractions
        if fr is not None and listed:
            raise ConfigError(f"fractions: give either fractions or the {'/'.join(listed)} "
                              "lists, not both")
        if fr is not None and (len(fr) != 3 or abs(sum(fr) - 1.0) > 1e-9):
            raise ConfigError(f"fractions: expected three numbers that sum to 1, got {list(fr)}")

    @property
    def explicit(self) -> dict[str, tuple[str, ...]] | None:
        lists = {"train": self.train, "val": self.val, "test": self.test}
        if all(ids is None for ids in lists.values()):
            return None
        return {k: ids or () for k, ids in lists.items()}


@dataclass(frozen=True)
class FeaturesConfig:
    """The target and its inputs: listed, or chosen by the selection rules."""

    target: str = "TRQ"
    inputs: tuple[str, ...] = ()
    rules: FeatureRules = setting(factory=FeatureRules, inline=True)

    def __post_init__(self):
        check(self, ConfigError)
        given = [f.name for f in fields(FeatureRules) if getattr(self.rules, f.name) != f.default]
        if self.inputs and given:
            raise ConfigError(f"inputs: give either inputs or the {'/'.join(given)} rules, "
                              "not both")
        if self.target in self.inputs or self.target in self.rules.exclude:
            key = "inputs" if self.target in self.inputs else "exclude"
            raise ConfigError(f"{key}: {self.target!r} is the prediction target")


_FFNN_TRAIN = TrainConfig("rmsprop", 1e-4, 64, 500)
_LSTM_TRAIN = TrainConfig("adam", 5e-4, 64, 100)


@dataclass(frozen=True)
class FfnnSection:
    """The FFNN's hidden widths (an empty list means the default) and recipe."""

    hidden_layers: tuple[int, ...] = (24, 24, 24, 24)
    train: TrainConfig = _FFNN_TRAIN

    def __post_init__(self):
        if not self.hidden_layers:
            object.__setattr__(self, "hidden_layers", FfnnSection.hidden_layers)
        MLPConfig(1, self.hidden_layers)  # the width rules


@dataclass(frozen=True)
class LstmSection:
    """The LSTM's architecture, window stride (else half the lookback) and recipe."""

    hidden_size: int = 6
    num_layers: int = 3
    lookback: int = 20
    stride: int | None = setting(None, lo=1)
    train: TrainConfig = _LSTM_TRAIN

    def __post_init__(self):
        LSTMConfig(1, self.hidden_size, self.num_layers, self.lookback)  # the size rules
        check(self, ConfigError)
        if self.stride is None:
            object.__setattr__(self, "stride", max(1, self.lookback // 2))


@dataclass(frozen=True)
class Retrain:
    augment_ids: tuple[str, ...] = ()

    def __post_init__(self):
        check(self, ConfigError)


@dataclass(frozen=True)
class Evaluate:
    """The models ``evaluate`` and ``report`` cover; an empty list means all."""

    models: tuple[str, ...] = setting(MODEL_IDS, choices=MODEL_IDS)

    def __post_init__(self):
        check(self, ConfigError)
        if not self.models:
            object.__setattr__(self, "models", MODEL_IDS)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one pipeline run: one field per top-level key."""

    seed: int
    paths: Paths
    corpus: CorpusConfig | None
    maneuvers: Maneuvers
    split: SplitConfig
    features: FeaturesConfig
    sindy: tuple[SINDyConfig, SINDyConfig]  # first order, second order
    ffnn: FfnnSection
    lstm: LstmSection
    retrain: Retrain
    evaluate: Evaluate

    def sindy_config(self, order: int) -> SINDyConfig:
        if order not in (1, 2):
            raise ConfigError(f"order must be 1 or 2, got {order}")
        return self.sindy[order - 1]

    def mlp_config(self, input_dim: int) -> MLPConfig:
        return MLPConfig(input_dim, self.ffnn.hidden_layers)

    def lstm_config(self, input_dim: int) -> LSTMConfig:
        ls = self.lstm
        return LSTMConfig(input_dim, ls.hidden_size, ls.num_layers, ls.lookback)


def _corpus(value, seed: int, exclude_labels: tuple[str, ...]) -> CorpusConfig:
    """The corpus; a template's or flight's ``ground_truth`` replaces only the
    keys it names of the corpus's, and ``noise_sigma`` is replaced whole."""
    sec = read(_CorpusSection, value, "corpus",
               ground_truth=GroundTruthParams(seed=derive_seed(seed, "corpus")))
    gt, fs = sec.ground_truth, sec.sample_rate_hz
    templates = []
    for i, raw in enumerate(sec.templates):
        context = f"corpus.templates[{i}]"
        raw = as_mapping(raw, context)
        params = read(GroundTruthParams, raw.pop("ground_truth", None),
                      f"{context}.ground_truth", **vars(gt))
        templates.append((read(FlightTemplate, raw, context), params))
    flights = (read(_FlightEntry, fl, f"corpus.flights[{i}]", ground_truth=gt)
               for i, fl in enumerate(sec.flights))
    explicit = tuple(SyntheticFlightSpec(fl.id, fs, fl.maneuvers, fl.ground_truth,
                                         fl.initial_trq, exclude_labels) for fl in flights)
    return CorpusConfig(fs, gt, tuple(templates), explicit, exclude_labels)


def load_config(path: str | Path, seed_override: int | None = None,
                out_override: str | Path | None = None) -> RunConfig:
    """Read, validate and resolve a YAML run configuration."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_YamlLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    raw = as_mapping(raw, str(path), [f.name for f in fields(RunConfig)])
    if "seed" not in raw:
        raise ConfigError(f"{path}: missing required key 'seed'")
    seed = num(int, raw["seed"] if seed_override is None else seed_override, "seed")

    paths = read(Paths, raw.get("paths"), "paths")
    out_dir = Path(out_override) if out_override is not None else path.parent / paths.out_dir
    # lexical normalization so "configs/../runs" and "runs" are one location
    paths = Paths(*(Path(os.path.normpath(d)) for d in (path.parent / paths.data_dir, out_dir)))

    maneuvers = read(Maneuvers, raw.get("maneuvers"), "maneuvers")
    corpus = (None if raw.get("corpus") is None
              else _corpus(raw["corpus"], seed, maneuvers.exclude_labels))
    split = read(SplitConfig, raw.get("split"), "split")
    features = read(FeaturesConfig, raw.get("features"), "features")

    # per-order overrides exist only at the top of the section: sindy.second.first is a typo
    sindy = as_mapping(raw.get("sindy"), "sindy")
    per_order = {k: sindy.pop(k, None) for k in ("first", "second")}
    shared = read(SINDyConfig, sindy, "sindy")
    sindy = tuple(read(SINDyConfig, v, f"sindy.{k}", **vars(shared)) for k, v in per_order.items())
    ffnn = read(FfnnSection, raw.get("ffnn"), "ffnn",
                train=replace(_FFNN_TRAIN, seed=derive_seed(seed, "train", "ffnn")))
    lstm = read(LstmSection, raw.get("lstm"), "lstm",
                train=replace(_LSTM_TRAIN, seed=derive_seed(seed, "train", "lstm")))
    return RunConfig(seed, paths, corpus, maneuvers, split, features, sindy, ffnn, lstm,
                     read(Retrain, raw.get("retrain"), "retrain"),
                     read(Evaluate, raw.get("evaluate"), "evaluate"))
