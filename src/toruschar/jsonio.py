"""Checked access to parsed JSON input.

Every ``from_json`` reads its fields through these helpers, so a missing
key or a value of the wrong type raises ``DomainError`` naming the path
to it (``terms[0].coeff: missing``) instead of a bare ``KeyError`` or
``TypeError`` from deep inside the library.  The Laurent and generator
readers, which read documents of many thousand terms, test the exact
JSON types of their containers and exponents inline (``type(x) is
list``) and call a helper, with the path formatted, only when that test
fails: it raises, or accepts a subclass.
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
    for x in value:
        if type(x) is not int:  # bool, or not an int: check each with its path
            return tuple(json_check(x, int, f"{path}[{i}]") for i, x in enumerate(value))
    return tuple(value)


def parse_scalar(parse, text: str, path: str = "", key: str = ""):
    """``parse(text)``, the scalar text at ``key`` under ``path`` (no key:
    a flag).  Text it refuses raises DomainError naming that place, the
    path formatted only then.  Fraction's ZeroDivisionError names only its
    repr (``Fraction(1, 0)``), so that one is told in words."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        why = f"zero denominator in {text!r}" if isinstance(exc, ZeroDivisionError) else exc
        raise DomainError(f"{_at(path, key)}: {why}" if key else str(why)) from None


def json_coeff(entry: dict, path: str) -> GaussRat:
    """The scalar string ``entry["coeff"]``, parsed."""
    return parse_scalar(GaussRat.parse, json_field(entry, "coeff", str, path), path, "coeff")


def json_term_coeff(entry: dict, k: int, coeffs: dict) -> GaussRat:
    """``json_coeff(entry, "terms[k]")`` through ``coeffs``, the caller's
    map from coefficient text to value for one document, so each distinct
    text is parsed once; the path is formatted only on a miss."""
    text = entry.get("coeff")
    coeff = coeffs.get(text) if type(text) is str else None
    if coeff is None:
        coeff = coeffs[text] = json_coeff(entry, f"terms[{k}]")
    return coeff
