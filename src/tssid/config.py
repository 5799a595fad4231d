"""Run configuration: one YAML file drives the whole pipeline.

Top-level keys: ``seed`` (required), ``paths``, ``corpus``, ``maneuvers``,
``split``, ``features``, ``sindy``, ``ffnn``, ``lstm``, ``retrain``,
``evaluate``.  Every section names the keys it allows in its one
:func:`_as_mapping` call, so a typo anywhere fails loudly; a list-valued
key takes only a YAML list (:func:`_list`), a string-valued one no list or
mapping (:func:`_str`), and a key with fixed choices one of them
(:func:`_choice`); and a value of the wrong type is a
:class:`ConfigError` naming its dotted key.

The result is a :class:`RunConfig` of resolved dataclasses: every default
is filled in and every derived seed drawn.  Artifact fingerprints
(:func:`tssid.manifest.fingerprint`) hash these resolved sections, never
the YAML text, so key order, a spelled-out default or the ``paths``
section do not change them.

Stage seeds (corpus generation, splitting, each training run) are derived
from the global seed with :func:`tssid.seeding.derive_seed`, so stages are
decoupled: adding a flight or re-running one stage never shifts another
stage's random stream.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Collection, Mapping

import yaml

from .errors import ConfigError, IoError
from .flightdata import FeatureRules
from .neural import OPTIMIZERS, LSTMConfig, MLPConfig, TrainConfig
from .seeding import derive_seed
from .sindy import DERIVATIVE_METHODS, LibrarySpec, SINDyConfig
from .synthgen import (
    ODE_ORDERS,
    PROFILE_KINDS,
    FlightTemplate,
    GroundTruthParams,
    ManeuverProfile,
    SyntheticFlightSpec,
    expand_template,
)

_TOP_KEYS = (
    "seed", "paths", "corpus", "maneuvers", "split", "features",
    "sindy", "ffnn", "lstm", "retrain", "evaluate",
)
_PROFILE_NUMBERS = ("level", "start", "end", "center", "amplitude", "f0_hz", "f1_hz")
_SINDY_KEYS = ("threshold", "max_iterations", "ridge_lambda", "derivative_method", "library")

MODEL_IDS = ("sindy1", "sindy2", "ffnn", "lstm")


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _num(cast, value, key: str):
    """``value`` as an ``int`` or a ``float``; else a ConfigError naming ``key``.

    A bool is neither.  An integer key takes only a whole number (``3`` or
    ``3.0``), never a string or a fraction it would truncate; a number key
    also takes a numeric string, since YAML reads ``1e-4`` as one.
    """
    if cast is int:
        if (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer()):
            return int(value)
    elif not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    kind = "an integer" if cast is int else "a number"
    raise ConfigError(f"{key}: expected {kind}, got {value!r}")


def _bool(value, key: str) -> bool:
    """A YAML boolean; anything else (``"false"``, ``0``) is a ConfigError naming ``key``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected a boolean (true or false), got {value!r}")
    return value


def _as_mapping(value, context: str, keys: Collection[str] | None) -> dict:
    """``value`` as a dict whose keys all lie in ``keys``; ``None`` reads as ``{}``.

    This is the only unknown-key check: each section lists its keys here
    once.  ``keys=None`` admits any key, for a mapping keyed by data (the
    channel names of ``noise_sigma``).
    """
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{context}: expected a mapping, got {type(value).__name__}")
    if keys is not None:
        unknown = set(value) - set(keys)
        if unknown:
            raise ConfigError(f"{context}: unknown keys {sorted(unknown, key=str)}")
    return dict(value)


def _list(value, key: str) -> list:
    """A YAML list; ``None`` reads as ``[]``, and a scalar or mapping is a ConfigError.

    A scalar is refused rather than iterated, so ``exclude_labels: taxiing``
    does not become the labels ``t``, ``a``, ``x``, ...
    """
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list, got {value!r}")
    return value


def _str(value, key: str) -> str:
    """A scalar as a string; a list or mapping is a ConfigError naming ``key``.

    A number is taken as its text (YAML reads ``id: 7`` as an integer), but
    a collection is refused rather than taken as its repr, so
    ``target: [TRQ]`` does not become the channel ``"['TRQ']"``.
    """
    if isinstance(value, (list, Mapping)):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return str(value)


def _choice(value, choices: tuple[str, ...], key: str) -> str:
    """``value`` if it is one of ``choices``; else a ConfigError naming ``key`` and the value."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{key}: expected one of {', '.join(choices)}, got {value!r}")
    return value


def _strings(value, key: str) -> tuple[str, ...]:
    return tuple(_str(x, f"{key}[{i}]") for i, x in enumerate(_list(value, key)))


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


def _parse_ground_truth(raw, context: str, base: GroundTruthParams) -> GroundTruthParams:
    """``base`` with each key that ``raw`` names replaced.

    The only ``ground_truth`` parser: the corpus reads its own over the
    defaults and the derived corpus seed, and each template or explicit
    flight reads its own over the corpus's.  ``noise_sigma`` is replaced
    whole.
    """
    over: dict[str, Any] = {}
    for k, v in _as_mapping(raw, context, ("order", "a", "b", "c", "mu", "tau1", "tau2",
                                           "noise_sigma", "seed")).items():
        key = f"{context}.{k}"
        if k == "order":
            over[k] = _choice(v, ODE_ORDERS, key)
        elif k == "seed":
            over[k] = _num(int, v, key)
        elif k == "noise_sigma":
            over[k] = {str(ch): _num(float, s, f"{key}.{ch}")
                       for ch, s in _as_mapping(v, key, None).items()}
        else:
            over[k] = _num(float, v, key)
    return replace(base, **over)


def _parse_profile(value, context: str) -> ManeuverProfile:
    raw = _as_mapping(value, context, ("kind", "duration_s", "label") + _PROFILE_NUMBERS)
    kind = _choice(_require(raw, "kind", context), PROFILE_KINDS, f"{context}.kind")
    duration = _num(float, _require(raw, "duration_s", context), f"{context}.duration_s")
    kwargs = {k: _num(float, raw[k], f"{context}.{k}") for k in _PROFILE_NUMBERS if k in raw}
    if "label" in raw:
        label = kwargs["label"] = _str(raw["label"], f"{context}.label")
        if any(c in label for c in ',"\t\r\n'):
            # maneuvers.csv and the eval reports hold a label unquoted
            raise ConfigError(f"{context}.label: {label!r} holds a comma, quote, tab or line break")
    return ManeuverProfile(kind=kind, duration_s=duration, **kwargs)


def _parse_template(value, gt: GroundTruthParams,
                    context: str) -> tuple[FlightTemplate, GroundTruthParams]:
    raw = _as_mapping(value, context, (
        "count", "id_prefix", "duration_s", "wf_low", "wf_high", "taxi_s", "taxi_level",
        "chirp_s", "chirp_f0_hz", "chirp_f1_hz", "chirp_amplitude", "seed_salt",
        "ground_truth"))

    def number(key: str, cast=float, default=None):
        value = _require(raw, key, context) if default is None else raw.get(key, default)
        return _num(cast, value, f"{context}.{key}")

    tpl = FlightTemplate(
        count=number("count", int),
        id_prefix=_str(_require(raw, "id_prefix", context), f"{context}.id_prefix"),
        duration_s=number("duration_s"),
        wf_low=number("wf_low"),
        wf_high=number("wf_high"),
        taxi_s=number("taxi_s", default=0.0),
        taxi_level=number("taxi_level") if "taxi_level" in raw else None,
        chirp_s=number("chirp_s", default=0.0),
        chirp_f0_hz=number("chirp_f0_hz", default=0.08),
        chirp_f1_hz=number("chirp_f1_hz", default=0.4),
        chirp_amplitude=number("chirp_amplitude") if "chirp_amplitude" in raw else None,
        seed_salt=_str(raw.get("seed_salt", ""), f"{context}.seed_salt"),
    )
    return tpl, _parse_ground_truth(raw.get("ground_truth"), f"{context}.ground_truth", gt)


def _parse_corpus(value, seed: int, exclude_labels: tuple[str, ...]) -> CorpusConfig:
    raw = _as_mapping(value, "corpus", ("sample_rate_hz", "ground_truth", "templates", "flights"))
    fs = _num(float, _require(raw, "sample_rate_hz", "corpus"), "corpus.sample_rate_hz")
    if fs <= 0:
        raise ConfigError(f"corpus.sample_rate_hz must be positive, got {fs}")
    gt = _parse_ground_truth(_require(raw, "ground_truth", "corpus"), "corpus.ground_truth",
                             GroundTruthParams(seed=derive_seed(seed, "corpus")))
    templates = tuple(
        _parse_template(t, gt, f"corpus.templates[{i}]")
        for i, t in enumerate(_list(raw.get("templates"), "corpus.templates"))
    )
    explicit = []
    for i, fl in enumerate(_list(raw.get("flights"), "corpus.flights")):
        ctx = f"corpus.flights[{i}]"
        fl = _as_mapping(fl, ctx, ("id", "maneuvers", "ground_truth", "initial_trq"))
        fid = _str(_require(fl, "id", ctx), f"{ctx}.id")
        profiles = tuple(
            _parse_profile(p, f"{ctx}.maneuvers[{j}]")
            for j, p in enumerate(_list(_require(fl, "maneuvers", ctx), f"{ctx}.maneuvers"))
        )
        explicit.append(SyntheticFlightSpec(
            flight_id=fid,
            sample_rate_hz=fs,
            profiles=profiles,
            params=_parse_ground_truth(fl.get("ground_truth"), f"{ctx}.ground_truth", gt),
            initial_trq=(_num(float, fl["initial_trq"], f"{ctx}.initial_trq")
                         if fl.get("initial_trq") is not None else None),
            excluded_labels=exclude_labels,
        ))
    if not templates and not explicit:
        raise ConfigError("corpus: needs templates and/or flights")
    return CorpusConfig(fs, gt, templates, tuple(explicit), exclude_labels)


def _parse_sindy(raw: Mapping, context: str, base: SINDyConfig) -> SINDyConfig:
    """``base`` with the settings of one ``sindy`` section (keys checked by the caller)."""
    lib = base.library
    if "library" in raw:
        lraw = _as_mapping(raw["library"], f"{context}.library",
                           ("degree", "cross_terms", "trig", "bias"))
        lib = LibrarySpec(
            degree=_num(int, lraw.get("degree", lib.degree), f"{context}.library.degree"),
            cross_terms=_bool(lraw.get("cross_terms", lib.cross_terms),
                              f"{context}.library.cross_terms"),
            trig=_bool(lraw.get("trig", lib.trig), f"{context}.library.trig"),
            bias=_bool(lraw.get("bias", lib.bias), f"{context}.library.bias"),
        )
    return SINDyConfig(
        threshold=_num(float, raw.get("threshold", base.threshold), f"{context}.threshold"),
        max_iterations=_num(int, raw.get("max_iterations", base.max_iterations),
                            f"{context}.max_iterations"),
        ridge_lambda=_num(float, raw.get("ridge_lambda", base.ridge_lambda),
                          f"{context}.ridge_lambda"),
        derivative_method=_choice(raw.get("derivative_method", base.derivative_method),
                                  DERIVATIVE_METHODS, f"{context}.derivative_method"),
        library=lib,
    )


def _parse_train(value, context: str, defaults: TrainConfig) -> TrainConfig:
    raw = _as_mapping(value, context, ("optimizer", "learning_rate", "batch_size", "epochs",
                                       "seed", "shuffle"))
    return TrainConfig(
        optimizer=_choice(raw.get("optimizer", defaults.optimizer), OPTIMIZERS,
                          f"{context}.optimizer"),
        learning_rate=_num(float, raw.get("learning_rate", defaults.learning_rate),
                           f"{context}.learning_rate"),
        batch_size=_num(int, raw.get("batch_size", defaults.batch_size),
                        f"{context}.batch_size"),
        epochs=_num(int, raw.get("epochs", defaults.epochs), f"{context}.epochs"),
        seed=_num(int, raw.get("seed", defaults.seed), f"{context}.seed"),
        shuffle=_bool(raw.get("shuffle", defaults.shuffle), f"{context}.shuffle"),
    )


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
    raw = _as_mapping(raw, str(path), _TOP_KEYS)
    _reject_non_finite(raw, "")
    if "seed" not in raw:
        raise ConfigError(f"{path}: missing required key 'seed'")
    seed = _num(int, raw["seed"] if seed_override is None else seed_override, "seed")

    paths = _as_mapping(raw.get("paths"), "paths", ("data_dir", "out_dir"))
    base = path.parent
    data_dir = Path(_str(paths.get("data_dir", "data"), "paths.data_dir"))
    out_dir = Path(_str(paths.get("out_dir", "out"), "paths.out_dir"))
    if not data_dir.is_absolute():
        data_dir = base / data_dir
    if out_override is not None:
        out_dir = Path(out_override)
    elif not out_dir.is_absolute():
        out_dir = base / out_dir
    # lexical normalization so "configs/../runs" and "runs" are one location
    data_dir = Path(os.path.normpath(data_dir))
    out_dir = Path(os.path.normpath(out_dir))

    man = _as_mapping(raw.get("maneuvers"), "maneuvers", ("exclude_labels",))
    exclude_labels = _strings(man.get("exclude_labels"), "maneuvers.exclude_labels")

    corpus = None
    if raw.get("corpus") is not None:
        corpus = _parse_corpus(raw["corpus"], seed, exclude_labels)

    sp = _as_mapping(raw.get("split"), "split", ("train", "val", "test", "fractions"))
    split_explicit = None
    split_fractions = None
    listed = [k for k in ("train", "val", "test") if k in sp]
    if listed and "fractions" in sp:
        raise ConfigError(f"split: give either fractions or the {'/'.join(listed)} "
                          "lists, not both")
    if listed:
        split_explicit = {k: _strings(sp.get(k), f"split.{k}") for k in ("train", "val", "test")}
    elif "fractions" in sp:
        fr = _list(sp["fractions"], "split.fractions")
        if len(fr) != 3:
            raise ConfigError("split.fractions must be a list of three numbers")
        split_fractions = tuple(_num(float, f, f"split.fractions[{i}]")
                                for i, f in enumerate(fr))

    fe = _as_mapping(raw.get("features"), "features",
                     ("target", "inputs", "exclude", "min_abs_corr", "max_abs_corr"))
    features = FeaturesConfig(
        target=_str(fe.get("target", "TRQ"), "features.target"),
        inputs=_strings(fe.get("inputs"), "features.inputs"),
        rules=FeatureRules(
            exclude=_strings(fe.get("exclude"), "features.exclude"),
            min_abs_corr=(_num(float, fe["min_abs_corr"], "features.min_abs_corr")
                          if "min_abs_corr" in fe else None),
            max_abs_corr=(_num(float, fe["max_abs_corr"], "features.max_abs_corr")
                          if "max_abs_corr" in fe else None),
        ),
    )

    # per-order overrides exist only at the top of the section: sindy.second.first is a typo
    sindy = _as_mapping(raw.get("sindy"), "sindy", _SINDY_KEYS + ("first", "second"))
    shared = _parse_sindy(sindy, "sindy", SINDyConfig())
    sindy_first, sindy_second = (
        _parse_sindy(_as_mapping(sindy.get(k), f"sindy.{k}", _SINDY_KEYS), f"sindy.{k}", shared)
        for k in ("first", "second")
    )

    ff = _as_mapping(raw.get("ffnn"), "ffnn", ("hidden_layers", "train"))
    hidden = _list(ff.get("hidden_layers"), "ffnn.hidden_layers") or [24, 24, 24, 24]
    ffnn_hidden = tuple(_num(int, h, f"ffnn.hidden_layers[{i}]") for i, h in enumerate(hidden))
    ffnn_train = _parse_train(ff.get("train"), "ffnn.train", TrainConfig(
        optimizer="rmsprop", learning_rate=1e-4, batch_size=64, epochs=500,
        seed=derive_seed(seed, "train", "ffnn")))

    ls = _as_mapping(raw.get("lstm"), "lstm",
                     ("hidden_size", "num_layers", "lookback", "stride", "train"))
    lookback = _num(int, ls.get("lookback", 20), "lstm.lookback")
    stride = _num(int, ls.get("stride", max(1, lookback // 2)), "lstm.stride")
    if stride < 1:
        raise ConfigError("lstm.stride must be >= 1")
    lstm_train = _parse_train(ls.get("train"), "lstm.train", TrainConfig(
        optimizer="adam", learning_rate=5e-4, batch_size=64, epochs=100,
        seed=derive_seed(seed, "train", "lstm")))
    neural = NeuralSection(
        ffnn_hidden=ffnn_hidden,
        ffnn_train=ffnn_train,
        lstm_hidden_size=_num(int, ls.get("hidden_size", 6), "lstm.hidden_size"),
        lstm_num_layers=_num(int, ls.get("num_layers", 3), "lstm.num_layers"),
        lstm_lookback=lookback,
        lstm_stride=stride,
        lstm_train=lstm_train,
    )

    rt = _as_mapping(raw.get("retrain"), "retrain", ("augment_ids",))
    augment_ids = _strings(rt.get("augment_ids"), "retrain.augment_ids")

    ev = _as_mapping(raw.get("evaluate"), "evaluate", ("models",))
    models = _strings(ev.get("models"), "evaluate.models") or MODEL_IDS
    for m in models:
        if m not in MODEL_IDS:
            raise ConfigError(f"evaluate.models: unknown model id {m!r}")

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
    )
