"""Reference ``decompose`` with a separate invariance pass.

This is the body ``toruschar.generators.decompose`` used before the peel
itself proved invariance: every Weyl generator is tried on the input
first, and the peel then takes the orbits in descending (level, key)
order, subtracting each orbit sum from one working dict with
``add_term``.  It is kept as the oracle for the two-phase peel, whose
results and error messages must be the same.

``reduce_pattern_poly`` is the matching body of the lower-level peel; a
test patches it over ``generators._reduce_pattern_poly`` so that every
level runs the reference peel.
"""

from functools import partial

from toruschar import generators, sparse
from toruschar.errors import DomainError, InternalCheckError, UnsupportedInputError
from toruschar.generators import GeneratorPoly, expand
from toruschar.weyl import invariance_violation, level_of_monomial, orbit_sum, pattern_sum


def decompose(f, group):
    if f.group != group:
        raise DomainError("polynomial belongs to a different group")
    if f.has_half_weights():
        raise UnsupportedInputError(
            "decomposition supports integer-weight invariants only"
        )
    witness = invariance_violation(f, group)
    if witness is not None:
        raise DomainError(f"input is not W-invariant; moved by {witness.describe()}")
    result = peel(f, group, orbit_sum, generators._reduce_orbit)
    if expand(result, group) != f:
        raise InternalCheckError("decomposition failed its expand round trip")
    return result


def reduce_pattern_poly(f, group, bound):
    return peel(f, group, pattern_sum,
                partial(generators._reduce_pattern_monomial, bound=bound))


def peel(f, group, group_sum, reduce):
    work = dict(f.terms)
    result = {}
    for _, m in sorted(((level_of_monomial(m, group), m) for m in work), reverse=True):
        c = work.get(m)
        if c is None:
            continue
        psum = group_sum(m, group).terms
        coeff = c / psum[m]
        for k, v in psum.items():
            sparse.add_term(work, k, -(v * coeff))
        for k, v in reduce(m, group).terms.items():
            sparse.add_term(result, k, v * coeff)
    if work:
        raise InternalCheckError("orbit peeling left terms it could not cancel")
    return GeneratorPoly(result)
