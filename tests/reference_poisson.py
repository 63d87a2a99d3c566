"""Reference symbol bracket for differential tests.

These are the library's former bodies of ``poisson.bracket_symbols`` and
``poisson.bracket_poly``.  Every symbol pair re-reads c, builds
``Fraction`` constants and a validated ``TauPoly`` that re-normalizes its
keys, and ``bracket_poly`` reads one such ``TauPoly`` per pair of factors.
It is slow but obviously the formula, and ``test_poisson_reference.py``
checks that the library's one rule per (group, c), which adds its terms
straight into the accumulator, gives the same terms exactly.  It is not
part of the package.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from toruschar import sparse
from toruschar.errors import DomainError, NoGLFormulaError
from toruschar.groups import GroupSpec
from toruschar.poisson import TauPoly
from toruschar.scalars import GaussRat, to_fraction


def bracket_symbols(
    a,
    b,
    group: GroupSpec,
    c: Fraction = Fraction(1),
    extrapolated_gl: bool = False,
) -> TauPoly:
    """Poisson bracket of two trace symbols, each a pair of integers
    (``operator.index``: a float or a Fraction raises TypeError)."""
    c = to_fraction(c)
    if c == 0:
        raise DomainError("c must be nonzero")
    if len(a) != 2 or len(b) != 2:
        raise DomainError(f"a trace symbol takes 2 entries, got {len(a)} and {len(b)}")
    p, q = index(a[0]), index(a[1])
    r, s = index(b[0]), index(b[1])
    det = p * s - q * r
    out = TauPoly.zero(group, c)
    if det == 0:
        return out
    plus = (p + r, q + s)
    if group.family == "SL":
        n = group.rank
        scale = GaussRat(Fraction(det) / c)
        return TauPoly(
            group,
            c,
            {
                (plus,): scale,
                ((p, q), (r, s)): -scale * GaussRat(Fraction(1, n)),
            },
        )
    if group.family == "GL":
        if not extrapolated_gl:
            raise NoGLFormulaError(
                "no GL bracket formula; pass extrapolated_gl=True for the "
                "oracle-validated extrapolation"
            )
        scale = GaussRat(Fraction(det) / c)
        return TauPoly(group, c, {(plus,): scale})
    minus = (p - r, q - s)
    scale = GaussRat(Fraction(det) / (2 * c))
    return TauPoly(group, c, {(plus,): scale, (minus,): -scale})


def bracket_poly(
    f: TauPoly, h: TauPoly, extrapolated_gl: bool = False
) -> TauPoly:
    """Bilinear, Leibniz extension of the symbol bracket."""
    f._require_same_ring(h)
    group, c = f.group, f.c
    terms: dict[tuple, GaussRat] = {}
    for k1, v1 in f.terms.items():
        for k2, v2 in h.terms.items():
            scale = v1 * v2
            for i1 in range(len(k1)):
                rest1 = k1[:i1] + k1[i1 + 1 :]
                for i2 in range(len(k2)):
                    rest2 = k2[:i2] + k2[i2 + 1 :]
                    br = bracket_symbols(k1[i1], k2[i2], group, c, extrapolated_gl)
                    extra = rest1 + rest2
                    for key, v in br.terms.items():
                        sparse.add_term(terms, sparse.merge_keys(key, extra), v * scale)
    return f._wrap(terms)
