"""Setting rules: each config field says once what it admits, and one reader builds it.

A config dataclass declares each field's rule next to the field with
:func:`setting` (a range or a choice set; the type is the annotation) and
enforces the rules in ``__post_init__`` with :func:`check`, so a library
caller meets the same refusal as a config file.  A list of names
(``tuple[str, ...]``) admits no name twice.  Checks that span fields stay
in that ``__post_init__`` and name the field they refuse.

:func:`read` builds a dataclass from a mapping: it admits the class's
fields as keys, coerces each value by its annotation, and names the dotted
key in every refusal.  Its coercion has one mode per source: YAML, the JSON
of a weights header, and the ``key: value`` text of a model file.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, field, fields
from functools import cache
from pathlib import Path
from typing import Any, Collection, Mapping

from .errors import ConfigError, TssidError

# Size bounds, far above every preset and far below what numpy can allocate
MAX_EPOCHS = 1_000_000
MAX_WIDTH = 4096
MAX_LAYERS = 64
MAX_LOOKBACK = 10_000
MAX_FLIGHTS = 10_000
MAX_FLIGHT_SAMPLES = 10_000_000  # 56 h at 50 Hz; 1.1 GB of float64 over 14 channels


def setting(default=MISSING, *, factory=MISSING, lo=None, above=None, hi=None, choices=(),
            inline=False):
    """A dataclass field with its rule.  ``inline`` reads a nested dataclass's
    keys from its parent's mapping rather than from a key of its own."""
    return field(default=default, default_factory=factory,
                 metadata={"rule": (lo, above, hi, tuple(choices)), "inline": inline})


_NO_RULE = (None, None, None, ())


@cache
def _checked(cls) -> tuple:
    """(name, rule) of each field of ``cls`` that has a rule or lists names."""
    return tuple((f.name, f.metadata.get("rule", _NO_RULE)) for f in fields(cls)
                 if "rule" in f.metadata or f.type.startswith("tuple[str"))


def _problem(rule: tuple, value, key: str) -> str | None:
    if value is None:
        return None
    if isinstance(value, tuple):
        for i, v in enumerate(value):
            if isinstance(v, str) and v in value[:i]:
                return f"{key}: {v!r} is listed twice"
            if (found := _problem(rule, v, f"{key}[{i}]")) is not None:
                return found
        return None
    lo, above, hi, choices = rule
    if choices:
        if not (isinstance(value, str) and value in choices):
            return f"{key}: expected one of {', '.join(choices)}, got {value!r}"
    elif isinstance(value, Mapping):
        return next((p for k, v in value.items()
                     if (p := _problem(rule, v, f"{key}.{k}")) is not None), None)
    elif lo is not None and not value >= lo:
        return f"{key}: must be >= {lo}, got {value}"
    elif above is not None and not value > above:
        return f"{key}: must be > {above}, got {value}"
    elif hi is not None and not value <= hi:
        return f"{key}: must be <= {hi}, got {value}"
    return None


def check(obj, error: type[TssidError]) -> None:
    """Raise ``error`` naming the first field of ``obj`` that its rule refuses."""
    for name, rule in _checked(type(obj)):
        problem = _problem(rule, getattr(obj, name), name)
        if problem is not None:
            raise error(problem)


# --- coercion -------------------------------------------------------------------

def num(cast, value, key: str):
    """``value`` as an ``int`` or a finite ``float``; else a ConfigError naming ``key``.

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
            value = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(value):
                return value
            raise ConfigError(f"{key}: expected a finite number, got {value}")
    kind = "an integer" if cast is int else "a number"
    raise ConfigError(f"{key}: expected {kind}, got {value!r}")


def _bool(value, key: str) -> bool:
    """A YAML boolean; anything else (``"false"``, ``0``) is a ConfigError naming ``key``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected a boolean (true or false), got {value!r}")
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


def as_mapping(value, context: str, keys: Collection[str] | None = None) -> dict:
    """``value`` as a dict whose keys all lie in ``keys``; ``None`` reads as ``{}``.

    ``keys=None`` admits any key, for a mapping keyed by data (the channel
    names of ``noise_sigma``).
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


def _exact(test, kind: str):
    def coerce(value, key: str):
        if not test(value):
            raise ConfigError(f"{key}: expected {kind}, got {value!r}")
        return value
    return coerce


def _text(cast):
    def coerce(value, key: str):
        try:
            return cast(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{key}: cannot read {value!r}") from None
    return coerce


# The coercer of each scalar annotation, per source.  A JSON value must have
# its field's JSON type (``type`` and not ``isinstance``, since a bool is an int).
YAML = {"int": lambda v, k: num(int, v, k), "float": lambda v, k: num(float, v, k),
        "bool": _bool, "str": _str, "Path": lambda v, k: Path(_str(v, k)), "list": _list}
JSON = {"int": _exact(lambda v: type(v) is int, "an integer"),
        "float": _exact(lambda v: type(v) in (int, float), "a number"),
        "bool": _exact(lambda v: type(v) is bool, "a boolean"),
        "str": _exact(lambda v: type(v) is str, "a string"),
        "list": _exact(lambda v: type(v) is list, "a list")}
TEXT = {"int": _text(int), "float": _text(float), "str": _text(str),
        "bool": _text({"0": False, "1": True}.__getitem__)}


def _coerce(ann: str, value, key: str, mode: Mapping, owner: type, base) -> Any:
    if ann.endswith(" | None"):
        return None if value is None else _coerce(ann[:-7], value, key, mode, owner, base)
    if ann.startswith("tuple[") and ann.endswith(", ...]"):
        return tuple(_coerce(ann[6:-6], v, f"{key}[{i}]", mode, owner, None)
                     for i, v in enumerate(mode["list"](value, key)))
    if ann.startswith("Mapping[str, "):
        return {str(k): _coerce(ann[13:-1], v, f"{key}.{k}", mode, owner, None)
                for k, v in as_mapping(value, key).items()}
    if ann in mode:
        return mode[ann](value, key)
    if base is None:  # a dataclass named in its owner's module
        return read(vars(sys.modules[owner.__module__])[ann], value, key, mode)
    return read(type(base), value, key, mode, **vars(base))


@cache
def _key_names(cls) -> tuple[str, ...]:
    names = ()
    for f in fields(cls):
        names += _key_names(f.default_factory) if f.metadata.get("inline") else (f.name,)
    return names


def read(cls, raw, context: str, mode: Mapping = YAML, **defaults):
    """``cls`` built from the mapping ``raw``; every refusal names its dotted key.

    ``raw`` may hold only keys of ``cls`` (an ``inline`` field's class's
    keys in place of its own).  A field not given takes ``defaults[name]``,
    else its class default; one with no class default must be given, and
    so must every field in the header modes.  A nested dataclass is read
    over its entry in ``defaults``, so it keeps each value its mapping does
    not name.
    """
    given = as_mapping(raw, context, _key_names(cls))
    values = {}
    for f in fields(cls):
        if f.metadata.get("inline"):
            sub = {k: given[k] for k in _key_names(f.default_factory) if k in given}
            values[f.name] = read(f.default_factory, sub, context, mode)
        elif f.name in given:
            # a choice field takes its value as given, for its rule to name the choices
            choices = f.metadata.get("rule", _NO_RULE)[3]
            scalars = {**mode, "str": lambda v, k: v} if choices else mode
            values[f.name] = _coerce(f.type, given[f.name], f"{context}.{f.name}", scalars,
                                     cls, defaults.get(f.name))
        elif mode is not YAML or f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{context}: missing required key {f.name!r}")
        elif f.name in defaults:
            values[f.name] = defaults[f.name]
    try:
        return cls(**values)
    except TssidError as exc:
        raise type(exc)(f"{context}.{exc}") from None
