"""Reference symbol bracket for differential tests.

These are the library's former bodies of ``poisson.bracket_symbols`` and
``poisson.bracket_poly``.  Every symbol pair re-reads c, builds
``Fraction`` constants and a validated ``TauPoly`` that re-normalizes its
keys, and ``bracket_poly`` reads one such ``TauPoly`` per pair of factors.
It is slow but obviously the formula, and ``test_poisson_reference.py``
checks that the library's one rule per (group, c), with integer weights,
one rational scale and one reduction per output key, gives the same terms
exactly.

``torus_bracket`` is the Goldman form itself on the torus, monomial by
monomial, and ``laurent_image`` reads a ``TauPoly`` as a Laurent
polynomial; ``test_bracket_exact.py`` proves each family's symbol rule
with them.  None of this is part of the package.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, index, mul

from toruschar import sparse
from toruschar.errors import DomainError
from toruschar.generators import tau_image
from toruschar.groups import GroupSpec
from toruschar.laurent import LaurentPoly
from toruschar.lie import cartan_metric, cartan_projection
from toruschar.poisson import TauPoly
from toruschar.scalars import GaussRat, ONE, to_fraction


def bracket_symbols(
    a,
    b,
    group: GroupSpec,
    c: Fraction = Fraction(1),
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
        scale = GaussRat(Fraction(det) / c)
        return TauPoly(group, c, {(plus,): scale})
    minus = (p - r, q - s)
    scale = GaussRat(Fraction(det) / (2 * c))
    return TauPoly(group, c, {(plus,): scale, (minus,): -scale})


def bracket_poly(f: TauPoly, h: TauPoly) -> TauPoly:
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
                    br = bracket_symbols(k1[i1], k2[i2], group, c)
                    extra = rest1 + rest2
                    for key, v in br.terms.items():
                        sparse.add_term(terms, sparse.merge_keys(key, extra), v * scale)
    return f._wrap(terms)


def random_poly(group: GroupSpec, c: Fraction, rng) -> TauPoly:
    """Like ``perfbench/inputs._random_taupoly``: one to three terms of
    zero to two factors, so constants and repeated symbols occur."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 2)))
        coeff = GaussRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-2, 2), 2))
        terms[key] = coeff or ONE
    return TauPoly(group, c, terms)


def _columns(group: GroupSpec, m) -> tuple:
    """The projected exponent columns P m_1, P m_2 of a stored key, as true
    exponents (the stored entries halved)."""
    return tuple(cartan_projection(group, [Fraction(row[j], 2) for row in m]) for j in (0, 1))


def torus_bracket(F: LaurentPoly, H: LaurentPoly, c: Fraction) -> LaurentPoly:
    """The Goldman form on the torus of ``F.group`` with two factors:
    {x^m, x^k} = w(m, k) x^(m+k), where w(m, k) = (P m_1 . P k_2 -
    P m_2 . P k_1) / ``cartan_metric(group, c)``, m_j is column j of the
    true exponents and P is ``cartan_projection``; extended bilinearly.
    The sum is built through ``LaurentPoly(group, terms)``, so SL keys
    are canonicalised."""
    group = F.group
    if H.group != group:
        raise ValueError(f"group mismatch: {group} vs {H.group}")
    metric = cartan_metric(group, c)
    h_terms = [(k, ck, *_columns(group, k)) for k, ck in H.terms.items()]
    terms: dict = {}
    for m, cm in F.terms.items():
        m1, m2 = _columns(group, m)
        for k, ck, k1, k2 in h_terms:
            w = (sum(map(mul, m1, k2)) - sum(map(mul, m2, k1))) / metric
            if w:
                key = tuple(tuple(map(add, r, s)) for r, s in zip(m, k))
                sparse.add_term(terms, key, cm * ck * GaussRat(w))
    return LaurentPoly(group, terms)


def laurent_image(p: TauPoly) -> LaurentPoly:
    """``p`` on the torus: each tau(a) read as ``tau_image(group, a)``."""
    total = LaurentPoly.zero(p.group)
    for key, v in p.terms.items():
        term = LaurentPoly.constant(p.group, v)
        for a in key:
            term = term * tau_image(p.group, a)
        total = total + term
    return total
