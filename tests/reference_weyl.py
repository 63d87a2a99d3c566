"""Reference orbit sums that enumerate the whole group.

These are the sums ``toruschar.weyl`` used to compute by walking every
element, kept as the oracle for the orbit-sized construction.  They are
built from the public ``weyl_elements`` and ``act_monomial`` only; the
signed pattern group is the Weyl group of Sp, the full signed group.
"""

from toruschar.groups import GroupSpec
from toruschar.laurent import LaurentPoly
from toruschar.scalars import GaussRat, ONE
from toruschar.weyl import act_monomial, weyl_elements


def pattern_elements(group):
    """The pattern group: the symmetric group for GL/SL, the full signed
    group for the other families."""
    if group.signed:
        return weyl_elements(GroupSpec("Sp", group.rank, group.factors))
    return weyl_elements(group)


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
