"""Reference Gaussian-rational scalar for differential tests.

This is the library's former ``GaussRat``: ``re + im*i`` with both parts
stored as ``fractions.Fraction``.  It is slow but obviously correct, and
``test_scalars_reference.py`` checks that ``toruschar.scalars.GaussRat``
(one Gaussian-integer numerator over one int denominator) gives the same
result for every operation.  It is not part of the package.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

Rational = int | Fraction

_SEGMENT = _re.compile(r"[+-]?[^+-]+")


def _rat_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class GaussRat:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def parse(text: str) -> "GaussRat":
        """Parse strings like ``"3/2+1/2i"``, ``"-2"``, ``"i"``, ``"-1/3i"``.

        A trailing ``i`` marks an imaginary segment; the imaginary numerator
        of 1 may be omitted.  Unicode minus signs are accepted.
        """
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
                    im_part += Fraction(body)
            else:
                re_part += Fraction(seg)
        if consumed != len(s):
            raise ValueError(f"cannot parse scalar {text!r}")
        return GaussRat(re_part, im_part)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "GaussRat":
        other = _coerce(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other) -> "GaussRat":
        other = _coerce(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussRat":
        return _coerce(other) - self

    def __mul__(self, other) -> "GaussRat":
        other = _coerce(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussRat":
        other = _coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other) -> "GaussRat":
        return _coerce(other) / self

    def __pow__(self, k: int) -> "GaussRat":
        if not isinstance(k, int):
            raise TypeError("exponent must be int")
        if k < 0:
            return (GaussRat(1) / self) ** (-k)
        out = GaussRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    # -- predicates / conversions ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def is_rational(self) -> bool:
        return self.im == 0

    def as_fraction(self) -> Fraction:
        if self.im != 0:
            raise ValueError("scalar is not real")
        return self.re

    def __str__(self) -> str:
        if self.im == 0:
            return _rat_str(self.re)
        im_str = _rat_str(abs(self.im)) + "i"
        if self.re == 0:
            return im_str if self.im > 0 else "-" + im_str
        sign = "+" if self.im > 0 else "-"
        return _rat_str(self.re) + sign + im_str

    def __repr__(self) -> str:
        return f"GaussRat({self})"


def _coerce(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)
