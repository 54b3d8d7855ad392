"""Flat key = value configuration files with strict schemas.

Format: optional ``[section]`` headers, one ``key = value`` per line, ``#``
comments, UTF-8.  Unknown keys are hard errors naming the offender; every
subcommand validates its section against a declared schema: each key has a
typed caster, a default and a :class:`Domain`, and a value outside its domain
is refused with the key named.  Rules that tie two keys together are single
:func:`need` calls in the command that reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = ["ConfigError", "Domain", "need", "parse_config", "apply_schema"]


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, malformed line."""


@dataclass(frozen=True)
class Domain:
    """The values one key accepts: ``ok(value)`` holds inside it, and ``what`` says which, for errors and the README."""

    ok: Callable[[Any], bool]
    what: str


ANY = Domain(lambda v: True, "any")
POSITIVE = Domain(lambda v: 0 < v < math.inf, "a positive finite value")
NONNEGATIVE = Domain(lambda v: 0 <= v < math.inf, "a finite value >= 0")
REPLICAS = Domain(lambda v: v >= 2, "at least two replicas")
BETA = Domain(lambda v: 0 < v <= 1, "beta in (0, 1]")
GAMMA = Domain(lambda v: 0 < v < math.inf, "a finite gamma > 0: the checks read the branching law")


def need(section: str, key: str, ok: bool, what: str) -> None:
    """Raise a config error naming ``key`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"bad value for {key!r} in section [{section}]: need {what}")


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """Parse sectioned key = value text into nested string dicts."""
    sections: dict[str, dict[str, str]] = {}
    current = ""
    sections[current] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{current}]")
        sections[current][key] = value.strip()
    return sections


def load_config(path: str | Path) -> dict[str, dict[str, str]]:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _cast_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _cast_floats(raw: str) -> tuple[float, ...]:
    values = tuple(float(part.strip()) for part in raw.split(",") if part.strip())
    if not values:
        raise ValueError("need at least one value")
    return values


CASTERS = {
    "float": float,
    "int": int,
    "bool": _cast_bool,
    "str": str,
    "floats": _cast_floats,
}


def apply_schema(section_name: str, raw: dict[str, str], schema: dict[str, tuple[str, object, Domain]]) -> dict[str, object]:
    """Validate one section against ``schema`` (key -> (type name, default, domain)).

    Unknown keys raise with the key named; missing keys take the default.  A
    value read from ``raw`` must lie in its key's domain; so must each element
    of a ``floats`` list.
    """
    out = {key: default for key, (_, default, _) in schema.items()}
    for key, raw_value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} in section [{section_name}]")
        type_name, _, domain = schema[key]
        try:
            value = CASTERS[type_name](raw_value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r} in section [{section_name}]: {exc}") from exc
        need(section_name, key, all(map(domain.ok, value if type_name == "floats" else (value,))), domain.what)
        out[key] = value
    return out
