"""Reference sums that enumerate the whole group.

These are the sums ``toruschar.weyl`` and ``toruschar.generators`` used to
compute by walking every element, kept as the oracle for the orbit-sized
construction: the orbit and pattern sums, the product of one
level-reduction step, and the Q image.  They are built from the public
``weyl_elements`` and ``act_monomial`` only; the signed pattern group is
the Weyl group of Sp, the full signed group.

``images`` is the loop ``weyl._images`` ran before it took
``itertools.product`` over the choices of each row: one image per
arrangement and sign-flip pattern, filtered by flip parity, with the
arrangements from ``itertools.permutations``.  It is the oracle for the
order as well as the set of the images.  It takes a monomial and finds
its orbit key itself; ``weyl._images`` takes the key.
"""

import itertools
import math
from collections import Counter

from toruschar.errors import ResourceLimitError
from toruschar.groups import GroupSpec
from toruschar.laurent import LaurentPoly, canonical_mod_relations
from toruschar.scalars import GaussRat, I, ONE
from toruschar.sparse import add_term
from toruschar.weyl import act_monomial, orbit_rep, weyl_elements


def pattern_elements(group):
    """The pattern group: the symmetric group for GL/SL, the full signed
    group for the other families."""
    if group.signed:
        return weyl_elements(GroupSpec("Sp", group.rank, group.factors))
    return weyl_elements(group)


def pattern_order(group):
    """The order of the pattern group."""
    if group.family == "SOeven":
        return math.factorial(group.rank) << group.rank
    return group.weyl_order


def images_sum(m, group, elements):
    """Sum of w . m over ``elements``, multiplicities included."""
    (key,) = LaurentPoly(group, {m: ONE}).terms
    counts = {}
    for w in elements:
        k = act_monomial(w, key)
        counts[k] = counts.get(k, 0) + 1
    return LaurentPoly(group, {k: GaussRat(v) for k, v in counts.items()})


def orbit_sum(m, group):
    return images_sum(m, group, weyl_elements(group))


def pattern_sum(m, group):
    return images_sum(m, group, pattern_elements(group))


def step_product(m_sub, doubled, group):
    """tau(alpha) * pattern_sum(m_sub), less the constant of odd SO, one
    term per pattern element, row and sign, as (top, lower): the new
    variable on an empty row of w . m_sub, or on an occupied one.
    ``doubled`` is alpha as a stored row."""
    deltas = (1, -1) if group.signed else (1,)
    top, lower = {}, {}
    for w in pattern_elements(group):
        mw = act_monomial(w, m_sub)
        for k, row in enumerate(mw):
            terms = lower if any(row) else top
            for delta in deltas:
                rows = list(mw)
                rows[k] = tuple(e + delta * d for e, d in zip(row, doubled))
                add_term(terms, canonical_mod_relations(tuple(rows), group), ONE)
    return LaurentPoly(group, top), LaurentPoly(group, lower)


def q_image(group, alphas):
    """i^n * sum over permutations s and signs delta of
    prod_i delta_i * x_{s(i)}^{delta_i * alpha_i}, from the raw arguments."""
    m = tuple(tuple(2 * a for a in alpha) for alpha in alphas)
    terms = {}
    for w in pattern_elements(group):
        sign = -1 if w.sign_change_count() % 2 else 1
        add_term(terms, act_monomial(w, m), GaussRat(sign))
    return LaurentPoly(group, terms).scaled(I ** group.rank)


def images(m, group, even_flips, cap):
    """The distinct images of ``m`` under row permutations and, if
    ``group`` is signed, sign changes of rows (an even number of them when
    ``even_flips``), in the order of ``weyl._images``: arrangements of the
    orbit key's rows in lexicographic order, then the flip patterns of the
    nonzero rows in ``itertools.product`` order."""
    if not any(map(any, m)):
        return [m]
    base, parity = orbit_rep(m, group)
    nonzero = sum(1 for row in base if any(row)) if group.signed else 0
    if not (even_flips and nonzero == len(m)):
        parity = None
    size = math.factorial(len(m)) << nonzero
    for k in Counter(base).values():
        size //= math.factorial(k)
    if parity is not None:
        size >>= 1
    if size > cap:
        raise ResourceLimitError(f"orbit of {size} monomials exceeds cap {cap}")
    negated = {row: tuple(-e for e in row) for row in base}
    out = []
    for arr in sorted(set(itertools.permutations(base))):
        where = [i for i, row in enumerate(arr) if any(row)]
        for flips in itertools.product((False, True), repeat=nonzero):
            if parity is not None and sum(flips) % 2 != parity:
                continue
            rows = list(arr)
            for i, flip in zip(where, flips):
                if flip:
                    rows[i] = negated[rows[i]]
            out.append(tuple(rows))
    return out
