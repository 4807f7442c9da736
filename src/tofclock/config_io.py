"""Plain-text experiment configuration: one `key = value` per line,
grouped into sections.  The emitted form round-trips through load_config."""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
import types
import typing
from collections.abc import Iterable

from .core import ExperimentConfig


class ConfigError(ValueError):
    pass


def _keys(cls) -> dict[str, tuple[type, bool]]:
    """key -> (type, required) for each field of a dataclass; a field is
    required when it has no default, and `T | None` reads as T."""
    hints = typing.get_type_hints(cls)
    keys = {}
    for f in dataclasses.fields(cls):
        typ = hints[f.name]
        if isinstance(typ, types.UnionType):
            typ = next(a for a in typing.get_args(typ) if a is not type(None))
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        keys[f.name] = (typ, required)
    return keys


# one section per nested spec of ExperimentConfig; [run] holds its scalar fields
_FIELDS = _keys(ExperimentConfig)
_SPECS = {name: typ for name, (typ, _) in _FIELDS.items() if dataclasses.is_dataclass(typ)}
_SCHEMA = {
    "run": {k: v for k, v in _FIELDS.items() if k not in _SPECS},
    **{name: _keys(cls) for name, cls in _SPECS.items()},
}


def _convert(section: str, key: str, raw: str):
    typ, _ = _SCHEMA[section][key]
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}"
        ) from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _convert(section, key, raw)

    for section, keys in _SCHEMA.items():
        for key, (_typ, required) in keys.items():
            if required and key not in values.get(section, {}):
                raise ConfigError(f"missing mandatory key [{section}] {key}")

    try:
        specs = {name: cls(**values.get(name, {})) for name, cls in _SPECS.items()}
        return ExperimentConfig(**specs, **values.get("run", {}))
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def key_value_lines(entries: Iterable[tuple[str, object]]) -> str:
    """One `key = value` line per entry: a float as %.17g, which reads back
    bit for bit, anything else by str."""
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in entries)


def emit_config(config: ExperimentConfig) -> str:
    """Serialize a config so that load_config reproduces it exactly."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        source = config if section == "run" else getattr(config, section)
        out.write(f"[{section}]\n")
        out.write(key_value_lines((key, getattr(source, key)) for key in keys
                                  if getattr(source, key) is not None))
        out.write("\n")
    return out.getvalue()
