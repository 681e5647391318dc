"""One declarative rule per config field, kept beside the field.

A config field is declared as ``tau: float = rule(0.5, lo=0.0, lo_open=True)``.
Its annotation (``int``, ``float`` or ``str``; the config modules postpone
annotations, so ``Field.type`` is that text) is its JSON type, and its
:class:`Rule` holds its bounds and choices.  Floats must be finite, and a
bool is never an int.  Each config calls :func:`check` on itself when it is
built, and :func:`parse` reads a command-line string for one field.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import NamedTuple

from .exceptions import ConfigValidationError

# Declared type -> (what the messages call it, command-line parser, accepted values).
_TYPES = {
    "int": ("an int", int, (int,)),
    "float": ("a finite number", float, (int, float)),
    "str": ("a string", str, (str,)),
}


class Rule(NamedTuple):
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    choices: tuple | None = None


def rule(default, **bounds):
    """A dataclass field with ``default`` whose values must satisfy ``Rule(**bounds)``."""
    return dataclasses.field(default=default, metadata={"rule": Rule(**bounds)})


def _problem(f: dataclasses.Field, value) -> str | None:
    """Why ``value`` breaks the rule of field ``f``, or None if it does not."""
    noun, _, types = _TYPES[f.type]
    if isinstance(value, bool) or not isinstance(value, types) or (
        f.type == "float" and not abs(value) <= sys.float_info.max
    ):
        return f"must be {noun}, got {value!r}"
    r = f.metadata["rule"]
    if r.choices is not None and value not in r.choices:
        return f"must be one of {r.choices}, got {value!r}"
    low = r.lo is not None and (value <= r.lo if r.lo_open else value < r.lo)
    high = r.hi is not None and (value >= r.hi if r.hi_open else value > r.hi)
    if low or high:
        bounds = [f"{'>' if r.lo_open else '>='} {r.lo}"] if r.lo is not None else []
        bounds += [f"{'<' if r.hi_open else '<='} {r.hi}"] if r.hi is not None else []
        return f"must be {' and '.join(bounds)}, got {value!r}"
    return None


def check(obj, section: str, error: type) -> None:
    """Raise ``error`` naming ``section.field`` for the first field of ``obj`` off its rule."""
    for f in dataclasses.fields(obj):
        problem = _problem(f, getattr(obj, f.name)) if "rule" in f.metadata else None
        if problem:
            raise error(f"{section}.{f.name} {problem}")


def parse(cls, key: str, raw: str, name: str):
    """Read ``raw`` by the declared type of field ``key`` of ``cls`` and check its rule.

    A failure is a ConfigValidationError naming ``name``.
    """
    f = next(f for f in dataclasses.fields(cls) if f.name == key)
    noun, parser, _ = _TYPES[f.type]
    try:
        value = parser(raw)
    except ValueError:
        raise ConfigValidationError(f"{name} must be {noun}, got {raw!r}") from None
    problem = _problem(f, value)
    if problem:
        raise ConfigValidationError(f"{name} {problem}")
    return value
