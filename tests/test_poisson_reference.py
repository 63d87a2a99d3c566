"""The symbol bracket, built once per (group, c), against its former
per-pair bodies in ``reference_poisson``.

The library's ``bracket_symbols`` and ``bracket_poly`` read one rule per
(group, c) whose terms carry integer weights and one rational scale;
``bracket_poly`` works on Gaussian integers over the lcm of each
operand's denominators and reduces once per output key.  Their terms must
equal the reference's exactly, key for key and coefficient for
coefficient, on every ordered pair of a window, on random polynomials with
constants and repeated symbols, on products of two of them, on hand-made
cases that stress the common denominator, and in each cyclic term of the
Jacobi defect.
"""

import random
from fractions import Fraction

import pytest

import reference_poisson as ref
from toruschar.groups import GroupSpec
from toruschar.poisson import TauPoly, bracket_poly, bracket_symbols, jacobi_defect
from toruschar.scalars import GaussRat

GROUPS = [
    GroupSpec("SL", 2, 2),
    GroupSpec("SL", 3, 2),
    GroupSpec("GL", 2, 2),
    GroupSpec("Sp", 2, 2),
    GroupSpec("SOodd", 2, 2),
    GroupSpec("SOeven", 3, 2),
]
GROUP_IDS = [str(g) for g in GROUPS]
CS = [Fraction(1), Fraction(2, 7), Fraction(-3, 2), Fraction(10**20, 3)]
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
def test_bracket_poly_on_products_of_random_polynomials(group):
    # The worker's Leibniz check brackets with g * h, up to 9 terms.
    rng = random.Random(f"bracket_poly:products:{group}")
    for c in CS:
        for _ in range(15):
            f, g, h = (ref.random_poly(group, c, rng) for _ in range(3))
            for x, y in ((f, g * h), (g * h, f)):
                got = bracket_poly(x, y)
                assert got.terms == ref.bracket_poly(x, y).terms, (x, y)
                assert (got.group, got.c) == (group, c)


BIG = 10**29 + 7  # 30 digits, like 10**29 + 3, 10**29 + 11 and 3 * BIG below
# Coefficient tables: denominators whose lcm exceeds each one (4, 6, 10),
# 30-digit parts, purely real, purely imaginary and mixed values.
CASES = {
    "unequal_denominators": (
        {((1, 0),): GaussRat(Fraction(1, 4)), ((0, 1), (1, 1)): GaussRat(Fraction(-5, 6))},
        {((2, 1),): GaussRat(Fraction(3, 10), Fraction(1, 4)), ((1, -1),): GaussRat(Fraction(7, 6))},
    ),
    "thirty_digits": (
        {((1, 2),): GaussRat(Fraction(BIG, 10**29 + 3), Fraction(-(10**29) - 11, BIG)),
         ((1, 0), (0, 1)): GaussRat(Fraction(3 * BIG, 10**29 + 9))},
        {((-1, 1),): GaussRat(Fraction(-(10**29) - 17, BIG)),
         ((2, 3), (0, -1)): GaussRat(0, Fraction(BIG, 13))},
    ),
    "imaginary": (
        {((1, 0),): GaussRat(0, Fraction(2, 3)), ((0, 2),): GaussRat(0, -1)},
        {((0, 1), (1, 1)): GaussRat(0, Fraction(-5, 4)), ((1, -2),): GaussRat(0, Fraction(1, 6))},
    ),
    "mixed": (
        {((1, 1),): GaussRat(Fraction(1, 2), Fraction(-3, 5)), ((2, -1), (2, -1)): GaussRat(3, 1)},
        {((0, 1),): GaussRat(Fraction(-2, 7), Fraction(4, 3)),
         ((1, 0), (1, 2)): GaussRat(0, Fraction(1, 9))},
    ),
    "empty": ({}, {((1, 0),): GaussRat(Fraction(1, 3), 2), ((0, 1), (1, 1)): GaussRat(5)}),
    "constant": (
        {(): GaussRat(Fraction(7, 3), -1)},
        {((1, 0),): GaussRat(Fraction(1, 3), 2), (): GaussRat(Fraction(-1, 2))},
    ),
}


@pytest.mark.parametrize("case", CASES, ids=str)
@pytest.mark.parametrize("c", CS, ids=str)
@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_bracket_poly_on_hand_made_coefficients(group, c, case):
    f, h = (TauPoly(group, c, terms) for terms in CASES[case])
    for x, y in ((f, h), (h, f)):
        got = bracket_poly(x, y)
        assert got.terms == ref.bracket_poly(x, y).terms, (x, y)
        assert (got.group, got.c) == (group, c)
    for x in (f, h):
        # Every key of {x, x} cancels; none may stay with a zero coefficient.
        assert bracket_poly(x, x).terms == ref.bracket_poly(x, x).terms == {}
    if case in ("empty", "constant"):
        assert bracket_poly(f, h).terms == {} and bracket_poly(h, f).terms == {}


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
