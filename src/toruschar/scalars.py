"""Exact Gaussian-rational scalars.

A ``GaussRat`` is a complex number ``(a + b*i)/d`` stored as three Python
ints: a Gaussian-integer numerator ``a + b*i`` over one denominator
``d > 0`` with ``gcd(a, b, d) == 1``.  This is the usual num/den normal
form of a rational (as in FLINT's ``fmpq``) extended to Q(i), so equal
values have equal fields and equality is a field comparison.  Arithmetic
works on the ints directly and skips the gcd step when the result's
denominator is 1.  ``parse`` reads the forms ``str`` writes (``a``,
``a/b``, ``a/b+c/di``, ``-c/di``) with one ASCII regex and int
arithmetic; other text goes through ``read_rational``, the one reader of
outside rational text: ``Fraction``, with the same values and errors,
except that a decimal exponent of four or more digits is refused.  ``re``
and ``im`` are read-only ``Fraction`` views.
These scalars are the coefficient field of every symbolic object in the
library; floats appear only in the numeric oracle.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd

Rational = int | Fraction

_SEGMENT = _re.compile(r"[+-]?[^+-]+")
# A decimal exponent of four or more digits (underscores between them
# allowed, as Fraction reads them).
_HUGE_EXPONENT = _re.compile(r"[eE][+-]?(?:_?\d){4}")
# The forms ``str`` writes, ASCII only: a[/b] with an optional signed
# [c][/d]i after it (c only left out without d), or that imaginary part
# alone, its sign optional.
_CANONICAL = _re.compile(
    r"([+-]?[0-9]+)(?:/([0-9]+))?(?:([+-])(?:([0-9]+)(?:/([0-9]+))?)?[iI])?"
    r"|([+-]?)(?:([0-9]+)(?:/([0-9]+))?)?[iI]"
)


def read_rational(text: str) -> Fraction:
    """``Fraction(text)`` for text from outside the library.  An exponent
    of four or more digits is refused with ``ValueError`` first: Fraction
    builds ``10**k`` in full, so ``"1e1000000000"`` would not finish."""
    if _HUGE_EXPONENT.search(text):
        raise ValueError(f"exponent too large in {text!r}")
    return Fraction(text)


def to_fraction(value) -> Fraction:
    """``Fraction(value)``, with text read by ``read_rational``."""
    return read_rational(value) if isinstance(value, str) else Fraction(value)


def _rat_str(n: int, d: int) -> str:
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


class GaussRat:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        if type(re) is int and type(im) is int:
            self._a = re
            self._b = im
            self._d = 1
            return
        re = to_fraction(re)
        im = to_fraction(im)
        q = re.denominator
        s = im.denominator
        # d = lcm(q, s); both parts in lowest terms make gcd(a, b, d) == 1
        d = q // gcd(q, s) * s
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def parse(text: str) -> "GaussRat":
        """Parse strings like ``"3/2+1/2i"``, ``"-2"``, ``"i"``, ``"-1/3i"``.

        A trailing ``i`` marks an imaginary segment; the imaginary numerator
        of 1 may be omitted.  Unicode minus signs are accepted.  The forms
        ``str`` writes are read with int arithmetic; any other text, and a
        zero denominator, goes through ``read_rational``.
        """
        if not isinstance(text, str):
            raise ValueError(f"scalar must be a string, not {type(text).__name__}")
        m = _CANONICAL.fullmatch(text)
        if m is not None:
            a, q, sign, c, d, *imaginary = m.groups()
            if a is None:
                a = "0"
                sign, c, d = imaginary
            try:  # int() refuses over-long digit strings, like Fraction
                q = int(q) if q else 1
                d = int(d) if d else 1
                if q and d:
                    b = 0 if sign is None else int(c) if c else 1
                    if sign == "-":
                        b = -b
                    return _reduced(int(a) * d, b * q, q * d)
            except ValueError:
                pass
        s = text.replace("−", "-").replace(" ", "")
        if not s:
            raise ValueError("empty scalar string")
        re_part = Fraction(0)
        im_part = Fraction(0)
        consumed = 0
        for seg in _SEGMENT.findall(s):
            consumed += len(seg)
            if seg.endswith(("i", "I")):
                body = seg[:-1]
                if body in ("", "+"):
                    im_part += 1
                elif body == "-":
                    im_part -= 1
                else:
                    im_part += read_rational(body)
            else:
                re_part += read_rational(seg)
        if consumed != len(s):
            raise ValueError(f"cannot parse scalar {text!r}")
        return GaussRat(re_part, im_part)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "GaussRat":
        if type(other) is not GaussRat:
            other = _coerce(other)
        d = self._d
        f = other._d
        if d == f:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "GaussRat":
        if type(other) is not GaussRat:
            other = _coerce(other)
        d = self._d
        f = other._d
        if d == f:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other) -> "GaussRat":
        return _coerce(other) - self

    def __mul__(self, other) -> "GaussRat":
        if type(other) is not GaussRat:
            other = _coerce(other)
        a = self._a
        b = self._b
        c = other._a
        e = other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussRat":
        if type(other) is not GaussRat:
            other = _coerce(other)
        c = other._a
        e = other._b
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero GaussRat")
        a = self._a
        b = self._b
        f = other._d
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other) -> "GaussRat":
        return _coerce(other) / self

    def __pow__(self, k: int) -> "GaussRat":
        if not isinstance(k, int):
            raise TypeError("exponent must be int")
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "GaussRat":
        return _reduced(self._a, -self._b, self._d)

    # -- predicates / conversions ---------------------------------------

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        if type(other) is GaussRat:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                self._b == 0
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # Agree with __eq__: a real value hashes like its int or Fraction.
        if self._d == 1:
            return hash(self._a) if self._b == 0 else hash((self._a, self._b))
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def is_rational(self) -> bool:
        return self._b == 0

    def as_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError("scalar is not real")
        return Fraction(self._a, self._d)

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return _rat_str(a, d)
        im_str = _rat_str(abs(b), d) + "i"
        if a == 0:
            return im_str if b > 0 else "-" + im_str
        return _rat_str(a, d) + ("+" if b > 0 else "-") + im_str

    def __repr__(self) -> str:
        return f"GaussRat({self})"


_alloc = object.__new__


def _reduced(a: int, b: int, d: int) -> GaussRat:
    """A GaussRat from ``(a + b*i)/d`` with ``d > 0``, brought to normal form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _alloc(GaussRat)
    z._a = a
    z._b = b
    z._d = d
    return z


def _coerce(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
