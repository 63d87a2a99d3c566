"""Reference Laurent multiply and ``expand`` on nested-tuple keys.

``mul`` is the per-pair product: it adds exponent matrices entry by entry
for every term pair and canonicalizes each SL sum on the spot (the
library canonicalizes once per result key, so its terms are the same but
their order may differ).  ``expand`` substitutes each generator's Laurent
image (``symbol_image``) and multiplies every term out on its own.  The
images are built here, independently of ``generators.expand``: tau(alpha)
row by row (``tau_image``) and Q by the signed-group walk of
``reference_weyl.q_image``.
``expand_shared`` is the prefix-shared Laurent multiply-out that
``generators.expand`` ran before it moved to the Weyl orbit-sum basis,
with ``GaussRat`` coefficients on every term pair.  Both ``expand``
bodies build the Laurent image of every generator, so they are the oracle
for ``generators.expand`` and ``generators.orbit_coefficients``, which
build none.  All three multiply through ``reference_sparse.mul``, the
per-pair ``add_term`` body.
"""

from functools import lru_cache

import reference_sparse
import reference_weyl
from toruschar import sparse
from toruschar.laurent import LaurentPoly, canonical_mod_relations, zero_exponents
from toruschar.scalars import ONE


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
    return LaurentPoly._trusted(group, reference_sparse.mul(p.terms, q.terms, combine))


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


def tau_image(group, alpha):
    """Laurent image of tau(alpha), one row at a time: the sum over rows i
    of x_i^alpha, and of x_i^-alpha too where traces are symmetric (Sp,
    SO), plus the constant 1 of odd SO."""
    n, N = group.rank, group.factors
    doubled = tuple(2 * a for a in alpha)
    neg = tuple(-e for e in doubled)
    zero_row = (0,) * N
    terms = {}
    for i in range(n):
        rows = [zero_row] * n
        rows[i] = doubled
        sparse.add_term(terms, tuple(rows), ONE)
        if group.signed:
            rows[i] = neg
            sparse.add_term(terms, tuple(rows), ONE)
    poly = LaurentPoly(group, terms)  # canonicalizes the SL keys
    if group.family == "SOodd":
        poly = poly + LaurentPoly.constant(group, 1)
    return poly


@lru_cache(maxsize=None)
def symbol_image(group, sym):
    """The Laurent image of one generator symbol."""
    kind, payload = sym
    if kind == "tau":
        return tau_image(group, payload)
    return reference_weyl.q_image(group, payload)


def expand(gp, group):
    """Substitute generator images and multiply out each term on its own."""
    total = LaurentPoly.zero(group)
    for key, coeff in gp.sorted_terms():
        part = LaurentPoly.constant(group, coeff)
        for sym in key:
            part = mul(part, symbol_image(group, sym))
        total = total + part
    return total


def expand_shared(gp, group):
    """Prefix products shared between adjacent sorted terms, ``GaussRat``
    coefficients throughout, and SL keys canonicalized once at the end."""
    syms = dict.fromkeys(sym for key in gp.terms for sym in key)
    images = {sym: symbol_image(group, sym).terms for sym in syms}
    one = zero_exponents(group)
    chain = [{one: ONE}]  # chain[d]: product of the first d symbols of ``prev``
    prev = ()
    total = {}
    for key, coeff in gp.sorted_terms():
        head = key[:-1]
        shared = 0
        while shared < min(len(head), len(prev)) and head[shared] == prev[shared]:
            shared += 1
        del chain[shared + 1:]
        for sym in head[shared:]:
            chain.append(reference_sparse.mul(chain[-1], images[sym], add_exponents))
        prev = head
        last = sparse.scale(images[key[-1]], coeff) if key else {one: coeff}
        reference_sparse.mul(chain[-1], last, add_exponents, total)
    return LaurentPoly(group, total)
