"""Checked access to parsed JSON input.

Every ``from_json`` reads its fields through these helpers, so a missing
key or a value of the wrong type raises ``DomainError`` naming the path
to it (``terms[0].coeff: missing``) instead of a bare ``KeyError`` or
``TypeError`` from deep inside the library.
"""

from __future__ import annotations

from .errors import DomainError
from .scalars import GaussRat

_MISSING = object()
_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def json_check(value, kind: type, path: str):
    """``value`` itself, checked to be of type ``kind``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DomainError(
            f"{path or 'top level'}: expected {_NAMES[kind]}, got {type(value).__name__}"
        )
    return value


def json_field(obj: dict, key: str, kind: type, path: str, default=_MISSING):
    """``obj[key]`` checked to be of type ``kind`` (``default`` if absent
    and given)."""
    if key not in obj:
        if default is _MISSING:
            raise DomainError(f"{_at(path, key)}: missing")
        return default
    return json_check(obj[key], kind, _at(path, key))


def json_ints(value, path: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple."""
    json_check(value, list, path)
    return tuple(json_check(x, int, f"{path}[{i}]") for i, x in enumerate(value))


def json_coeff(entry: dict, path: str) -> GaussRat:
    """The scalar string ``entry["coeff"]``, parsed."""
    text = json_field(entry, "coeff", str, path)
    try:
        return GaussRat.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{_at(path, 'coeff')}: {exc}") from None
