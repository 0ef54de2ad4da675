"""Strict value converters, shared by every configuration edge.

Grid entries, tuning knobs and the ``k=v`` items of controller and
strategy specs (read by :func:`parse_text` first) all coerce through
these, so one spelling means one thing everywhere: a bool is never a
number, a fractional number never a count (JSON's ``2.0`` is 2), and a
string neither a number nor a bool.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Callable
from typing import Any

__all__ = [
    "NotA", "as_bool", "as_float", "as_floats", "as_int", "as_str", "convert_named", "parse_text",
]


class NotA(ValueError):
    """A value of the wrong kind: reads ``expected <what>, got <value>``."""

    def __init__(self, what: str, value: object) -> None:
        super().__init__(f"expected {what}, got {value!r}")
        self.what, self.value = what, value


def convert_named(name: str, convert: Callable[[object], object], value: object) -> Any:
    """``convert(value)``, its error restated about the entry ``name``."""
    try:
        return convert(value)
    except NotA as exc:
        raise ValueError(f"{name} must be {exc.what}, got {exc.value!r}") from None
    except ValueError as exc:
        raise ValueError(f"{name}={value!r}: {exc}") from None


def as_int(value: object) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise NotA("an integer", value)
    return int(value)


def as_float(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise NotA("a number", value)
    return float(value)


def as_bool(value: object) -> bool:
    if not isinstance(value, bool):
        raise NotA("a boolean (expected true/false)", value)
    return value


def as_str(value: object) -> str:
    if not isinstance(value, str):
        raise NotA("a string", value)
    return value


def as_floats(value: object) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise NotA("a list of numbers", value)
    return tuple(as_float(v) for v in value)


def parse_text(text: str) -> object:
    """The value a ``k=v`` item's text spells: JSON for ``[...]``/``{...}``,
    else an integer, a number or ``true``/``false``; other text stays a
    string, which the key's converter then rejects by name."""
    text = text.strip()
    if text[:1] in ("[", "{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return {"true": True, "false": False}.get(text.lower(), text)
