"""Arithmetic on sparse polynomials stored as ``dict[key, GaussRat]``
(or ``dict[key, int]``), and the one polynomial class around it.

``LaurentPoly``, ``GeneratorPoly`` and ``TauPoly`` keep their terms in such
a dict, and so do a few internal accumulators.  The stored form is the
same for all of them: no zero coefficient is ever stored, and every key is
already in its owner's canonical form.  These functions are the one
implementation of add, negate, scale and multiply on that form.  They
treat keys as opaque: ``mul`` takes a ``combine`` function that returns the
canonical key of the product of two keys.  They use only ``+``, ``*``,
unary ``-`` and truth of the coefficients, so the same functions also run
on plain int coefficients, as in the int kernel of ``generators.expand``.
``mul`` inlines the ``add_term`` step, so each term pair costs one dict
lookup and no extra Python call.

``SparsePoly`` is the shell all three polynomial classes share: the ring
operations, equality, ``len``, ``sorted_terms``, ``str`` and the float
terms kept for ``evaluate``.  A subclass supplies three hooks: ``_ring()``,
the fields two operands must share (``()``, ``(group,)`` or ``(group,
c)``); ``_wrap(terms)``, a new instance of the same ring around terms
already in stored form; and ``_factors(key)``, the text of one monomial
("" for the constant).  Products multiply keys with ``merge_keys`` unless
the subclass overrides ``_product``.  Instances are treated as immutable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructureError
from .scalars import GaussRat


def add_term(terms: dict, key, coeff) -> None:
    """Add ``coeff`` to ``terms[key]`` in place, dropping the key if the
    sum is zero."""
    acc = terms.get(key)
    if acc is None:
        if coeff:
            terms[key] = coeff
        return
    acc = acc + coeff
    if acc:
        terms[key] = acc
    else:
        del terms[key]


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, coeff in b.items():
        add_term(out, key, coeff)
    return out


def neg(a: dict) -> dict:
    return {key: -coeff for key, coeff in a.items()}


def scale(a: dict, factor) -> dict:
    if not factor:
        return {}
    return {key: coeff * factor for key, coeff in a.items()}


def mul(a: dict, b: dict, combine, out: dict | None = None) -> dict:
    """The product of two polynomials; ``combine(k1, k2)`` is the canonical
    key of the product of the monomials ``k1`` and ``k2``.  With ``out``
    the product is added into that dict in place, which is returned."""
    if out is None:
        out = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            # add_term(out, combine(k1, k2), c1 * c2), inlined
            key = combine(k1, k2)
            acc = get(key)
            acc = c1 * c2 if acc is None else acc + c1 * c2
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def merge_keys(k1: tuple, k2: tuple) -> tuple:
    """``combine`` for monomials stored as sorted tuples of factors."""
    return tuple(sorted(k1 + k2))


class SparsePoly:
    """A polynomial with GaussRat coefficients in ``terms``, in stored
    form; see the module docstring for the hooks a subclass supplies."""

    __slots__ = ("terms", "_float_terms")

    def _require_same_ring(self, other: "SparsePoly") -> None:
        if self._ring() != other._ring():
            a, b = (f"{type(p).__name__}[{', '.join(map(str, p._ring()))}]" for p in (self, other))
            raise StructureError(f"ring mismatch: {a} vs {b}")

    def __add__(self, other):
        self._require_same_ring(other)
        return self._wrap(add(self.terms, other.terms))

    def __neg__(self):
        return self._wrap(neg(self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.scaled(other)
        self._require_same_ring(other)
        return self._wrap(self._product(other))

    __rmul__ = __mul__

    def _product(self, other: "SparsePoly") -> dict:
        return mul(self.terms, other.terms, merge_keys)

    def scaled(self, factor):
        if not isinstance(factor, GaussRat):
            factor = GaussRat(factor)
        return self._wrap(scale(self.terms, factor))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._ring() == other._ring()
            and self.terms == other.terms
        )

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def _float_sorted(self) -> tuple:
        """The sorted ``(key, complex)`` terms, built on first use and kept
        in ``_float_terms`` for the life of the instance."""
        terms = self._float_terms
        if terms is None:
            terms = self._float_terms = tuple(
                (key, complex(c)) for key, c in self.sorted_terms()
            )
        return terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*{self._factors(key) or '1'}" for key, c in self.sorted_terms()
        )
