"""Every family's symbol bracket, proved by exact torus expansion.

``reference_poisson.torus_bracket`` is the Goldman form on the torus of
the group, {x^m, x^k} = w(m, k) x^(m+k), applied monomial by monomial.
With each tau(a) read as its Laurent image (``laurent_image``), the
library's rule of every family must give exactly that bracket on every
pair of the window |p|, |q| <= 2, at two values of c, and so must its
Leibniz extension on random polynomials.  The rule of GL is proved here
like the others: det(a, b)/c * tau_{a+b} is what the form gives.

The proof discriminates: a rule read at 2c fails on exactly the pairs
with det(a, b) != 0, the pairs whose bracket is not 0.
"""

import random
from fractions import Fraction

import pytest

import reference_poisson as ref
from toruschar.generators import tau_image
from toruschar.groups import GroupSpec
from toruschar.poisson import TauPoly, bracket_poly, bracket_symbols, symbol_window
from toruschar.scalars import ONE

GROUPS = [
    GroupSpec(family, rank, 2)
    for family, rank in (("SL", 2), ("SL", 3), ("GL", 2), ("GL", 3), ("Sp", 1), ("Sp", 2),
                         ("SOodd", 1), ("SOodd", 2), ("SOeven", 2), ("SOeven", 3))
]
CS = [Fraction(1), Fraction(2, 7)]
# (group, window pairs, pairs with det != 0) for the rule read at 2c
DOUBLED = [(GroupSpec("GL", 2, 2), 325, 248), (GroupSpec("SL", 2, 2), 325, 248),
           (GroupSpec("Sp", 2, 2), 91, 62)]


def _window_pairs(group):
    """Every unordered pair of distinct or equal symbols of the window 2."""
    syms = symbol_window(group, 2)
    return [(a, b) for i, a in enumerate(syms) for b in syms[i:]]


def _mismatches(group, c, rule_c):
    """The window pairs where the rule at ``rule_c`` differs from the torus
    bracket at ``c``."""
    images = {a: tau_image(group, a) for a in symbol_window(group, 2)}
    return [
        (a, b) for a, b in _window_pairs(group)
        if ref.torus_bracket(images[a], images[b], c)
        != ref.laurent_image(bracket_symbols(a, b, group, rule_c))
    ]


@pytest.mark.parametrize("c", CS, ids=str)
@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_symbol_rule_is_the_torus_bracket(group, c):
    assert _mismatches(group, c, c) == []


@pytest.mark.parametrize("group, pairs, moving", DOUBLED, ids=[str(g) for g, _, _ in DOUBLED])
def test_a_rule_at_twice_c_fails_exactly_the_det_nonzero_pairs(group, pairs, moving):
    c = Fraction(1)
    window = _window_pairs(group)
    det_nonzero = [(a, b) for a, b in window if a[0] * b[1] != a[1] * b[0]]
    assert len(window) == pairs and len(det_nonzero) == moving
    assert _mismatches(group, c, 2 * c) == det_nonzero


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_leibniz_extension_is_the_torus_bracket(group):
    # Ten random polynomials per c (constants, repeated symbols and
    # products among them), then one of each kind by name.
    rng = random.Random(f"leibniz:{group}")

    def poly(c, terms):
        return TauPoly(group, c, terms)

    for c in CS:
        polys = [ref.random_poly(group, c, rng) for _ in range(10)]
        polys += [poly(c, {(): 3, ((1, 0), (1, 0)): ONE}),
                  poly(c, {((1, 0), (0, 1)): ONE, ((2, -1),): -ONE})]
        for f, h in zip(polys, polys[1:] + polys[:1]):
            want = ref.torus_bracket(ref.laurent_image(f), ref.laurent_image(h), c)
            assert ref.laurent_image(bracket_poly(f, h)) == want, (f, h)
