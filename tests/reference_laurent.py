"""Reference Laurent multiply and ``expand`` on nested-tuple keys.

These are the bodies ``toruschar.laurent`` and ``toruschar.generators``
used before monomials were packed into ints: the product adds exponent
matrices entry by entry for every term pair (canonicalizing each SL sum
on the spot), and ``expand`` multiplies every generator term out on its
own.  They are kept as the oracle for the packed multiply and the
prefix-shared ``expand``.
"""

from toruschar import sparse
from toruschar.generators import symbol_image
from toruschar.laurent import LaurentPoly, canonical_mod_relations


def add_exponents(m1, m2):
    return tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2))


def mul(p, q):
    """The product of two LaurentPolys of one group, pair by pair."""
    group = p.group
    if group.family == "SL":
        def combine(m1, m2):
            return canonical_mod_relations(add_exponents(m1, m2), group)
    else:
        combine = add_exponents
    return LaurentPoly._trusted(group, sparse.mul(p.terms, q.terms, combine))


def power(p, k):
    """``p ** k`` by repeated squaring through ``mul``."""
    out = LaurentPoly.constant(p.group, 1)
    base = p
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def expand(gp, group):
    """Substitute generator images and multiply out each term on its own."""
    total = LaurentPoly.zero(group)
    for key, coeff in gp.sorted_terms():
        part = LaurentPoly.constant(group, coeff)
        for sym in key:
            part = mul(part, symbol_image(group, sym))
        total = total + part
    return total
