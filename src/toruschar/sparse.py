"""Arithmetic on sparse polynomials stored as ``dict[key, GaussRat]``
(or ``dict[key, int]``).

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
"""

from __future__ import annotations


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
