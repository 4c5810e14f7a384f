"""The one declared field check behind the config dataclasses.

A config dataclass calls :func:`check_fields` first in ``__post_init__``.
Each value must fit its field's declared type: a float is finite (an
int is accepted and kept as given, so stored configs keep their
hashes), an int or float is no bool, a ``tuple``/``list`` is non-empty.
A field made with :func:`checked` may name ``choices``, an ``interval``
such as ``"(0, 1]"`` (each item of a sequence must fit them) and the
``error`` class to raise (default :class:`ConfigurationError`); the
error names the field, what was expected and what was given.
"""

from __future__ import annotations

import math
import types
from dataclasses import field, fields
from functools import cache
from numbers import Integral, Real
from typing import Any, Union, get_args, get_origin, get_type_hints

from repro.errors import ConfigurationError

_NAMES = {float: "finite float", type(None): "None", Any: "any"}


@cache
def _field_types(cls: type) -> tuple:
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _fits(value: Any, hint: Any) -> bool:
    origin, args = get_origin(hint), get_args(hint)
    if hint is Any:
        return True
    if origin in (Union, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    if origin in (tuple, list):
        return isinstance(value, (list, tuple)) and len(value) > 0 and all(
            _fits(item, args[0]) for item in value
        )
    if origin is dict:
        return isinstance(value, dict) and all(
            isinstance(key, str) and _fits(item, args[1])
            for key, item in value.items()
        )
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, Real) and (
            isinstance(value, Integral) or math.isfinite(value)
        )
    return isinstance(value, Integral if hint is int else hint)


def _describe(hint: Any) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        return " | ".join(map(_describe, args))
    if origin in (tuple, list):
        return f"non-empty list[{_describe(args[0])}]"
    if origin is dict:
        return f"dict[str, {_describe(args[1])}]"
    return _NAMES.get(hint) or hint.__name__


def _within(value: Any, interval: str) -> bool:
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above = value >= low if interval[0] == "[" else value > low
    return above and (value <= high if interval[-1] == "]" else value < high)


def checked(default: Any, **metadata: Any) -> Any:
    """A dataclass field with :func:`check_fields` metadata."""
    return field(default=default, metadata=metadata)


def check_fields(config: Any) -> None:
    """Refuse any field of the dataclass instance ``config`` whose value
    does not fit its declared type, choices or interval."""
    for f, hint in _field_types(type(config)):
        value = getattr(config, f.name)
        error = f.metadata.get("error", ConfigurationError)
        if not _fits(value, hint):
            raise error(f"{f.name} must be {_describe(hint)}, got {value!r}")
        if value is None:
            continue
        choices, interval = f.metadata.get("choices"), f.metadata.get("interval")
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if choices is not None and item not in choices:
                raise error(f"{f.name} must be one of {choices}, got {item!r}")
            if interval is not None and not _within(item, interval):
                raise error(f"{f.name} must lie in {interval}, got {item!r}")
