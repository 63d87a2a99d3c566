"""The symbol bracket, built once per (group, c), against its former
per-pair bodies in ``reference_poisson``.

The library's ``bracket_symbols`` and ``bracket_poly`` read one rule per
(group, c) that holds the family's constants and returns terms already
in stored form; ``bracket_poly`` builds no ``TauPoly`` per pair of
factors.  Their terms must equal the reference's exactly, key for key and
coefficient for coefficient, on every ordered pair of a window, on random
polynomials with constants and repeated symbols, and in each cyclic term
of the Jacobi defect.
"""

import random
from fractions import Fraction

import pytest

import reference_poisson as ref
from toruschar.groups import GroupSpec
from toruschar.poisson import TauPoly, bracket_poly, bracket_symbols, jacobi_defect

GROUPS = [
    GroupSpec("SL", 2, 2),
    GroupSpec("SL", 3, 2),
    GroupSpec("GL", 2, 2),
    GroupSpec("Sp", 2, 2),
    GroupSpec("SOodd", 2, 2),
    GroupSpec("SOeven", 3, 2),
]
GROUP_IDS = [str(g) for g in GROUPS]
CS = [Fraction(1), Fraction(2, 7), Fraction(-3, 2)]
# every integer pair of the window |p|, |q| <= 2, so the signed groups
# also meet symbols that are not normalized
WINDOW = [(p, q) for p in range(-2, 3) for q in range(-2, 3)]


@pytest.mark.parametrize("c", CS, ids=str)
@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_bracket_symbols_on_every_window_pair(group, c):
    for a in WINDOW:
        for b in WINDOW:
            got = bracket_symbols(a, b, group, c)
            want = ref.bracket_symbols(a, b, group, c)
            assert got.terms == want.terms, (a, b)
            assert (got.group, got.c) == (want.group, want.c)


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_bracket_poly_on_random_polynomials(group):
    rng = random.Random(f"bracket_poly:{group}")
    for c in CS:
        for _ in range(40):
            f, h = ref.random_poly(group, c, rng), ref.random_poly(group, c, rng)
            got = bracket_poly(f, h)
            assert got.terms == ref.bracket_poly(f, h).terms, (f, h)
            assert (got.group, got.c) == (group, c)


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_jacobi_defect_term_by_term(group):
    # The defect is zero on every group, so each cyclic term is compared too.
    rng = random.Random(f"jacobi:{group}")
    for c in CS:
        for _ in range(15):
            a, b, c3 = ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
            want = TauPoly.zero(group, c)
            for x, y, z in ((a, b, c3), (b, c3, a), (c3, a, b)):
                sym = TauPoly.symbol(group, c, z)
                term = bracket_poly(bracket_symbols(x, y, group, c), sym)
                ref_term = ref.bracket_poly(ref.bracket_symbols(x, y, group, c), sym)
                assert term.terms == ref_term.terms, (x, y, z)
                want = want + ref_term
            assert jacobi_defect(a, b, c3, group, c).terms == want.terms
