import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from toruschar import weyl
from toruschar.errors import ResourceLimitError
from toruschar.groups import FAMILIES, GroupSpec
from toruschar.laurent import LaurentPoly, exponents
from toruschar.scalars import GaussRat
from toruschar.weyl import (
    SignedPerm,
    act,
    act_monomial,
    invariance_violation,
    is_invariant,
    level_of_monomial,
    level_of_poly,
    orbit_rep,
    orbit_sum,
    weyl_elements,
)


def test_weyl_sizes():
    assert len(list(weyl_elements(GroupSpec("GL", 2, 1)))) == 2
    assert len(list(weyl_elements(GroupSpec("Sp", 2, 1)))) == 8
    assert len(list(weyl_elements(GroupSpec("SOeven", 2, 1)))) == 4
    assert len(list(weyl_elements(GroupSpec("SL", 3, 1)))) == 6
    assert len(list(weyl_elements(GroupSpec("SOodd", 3, 1)))) == 48
    assert len(list(weyl_elements(GroupSpec("SOeven", 3, 1)))) == 24


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(weyl, "WEYL_CAP", 10)
    with pytest.raises(ResourceLimitError, match="exceeds enumeration cap 10"):
        list(weyl_elements(GroupSpec("Sp", 3, 1)))


def test_orbit_cap_counts_orbit_not_group(monkeypatch):
    sp9 = GroupSpec("Sp", 9, 1)
    orb = orbit_sum(exponents([[1]] + [[0]] * 8), sp9)  # |W| = 9! 2^9 is over the cap
    assert len(orb) == 18
    assert set(orb.terms.values()) == {GaussRat(math.factorial(9) * 2 ** 9 // 18)}
    with pytest.raises(ResourceLimitError):
        orbit_sum(exponents([[k] for k in range(1, 10)]), sp9)
    monkeypatch.setattr(weyl, "WEYL_CAP", 5)
    with pytest.raises(ResourceLimitError, match="orbit of 6 monomials exceeds cap 5"):
        orbit_sum(exponents([[1], [0], [0]]), GroupSpec("Sp", 3, 1))


def test_group_axioms_small():
    g = GroupSpec("Sp", 2, 1)
    elems = list(weyl_elements(g))
    ident = SignedPerm.identity(2)
    for w in elems:
        assert (w @ w.inverse()) == ident
        assert (w.inverse() @ w) == ident


@settings(max_examples=50)
@given(st.data())
def test_action_is_group_action(data):
    g = GroupSpec("Sp", 2, 2)
    elems = list(weyl_elements(g))
    w1 = data.draw(st.sampled_from(elems))
    w2 = data.draw(st.sampled_from(elems))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=2, max_size=2),
            min_size=2,
            max_size=2,
        )
    )
    f = LaurentPoly.monomial(g, exponents(rows))
    assert act(w1, act(w2, f)) == act(w1 @ w2, f)


def test_act_is_ring_homomorphism():
    g = GroupSpec("Sp", 2, 1)
    w = SignedPerm((1, 0), (1, -1))
    rng = random.Random(1)
    for _ in range(10):
        f = _rand(g, rng)
        h = _rand(g, rng)
        assert act(w, f * h) == act(w, f) * act(w, h)
        assert act(w, f + h) == act(w, f) + act(w, h)


def _rand(group, rng):
    out = LaurentPoly.zero(group)
    for _ in range(3):
        rows = [
            [rng.randint(-2, 2) for _ in range(group.factors)]
            for _ in range(group.rank)
        ]
        out = out + LaurentPoly.monomial(group, exponents(rows), GaussRat(rng.randint(1, 4)))
    return out


def test_act_examples():
    g = GroupSpec("Sp", 2, 1)
    x11 = LaurentPoly.variable(g, 1, 1)
    ident = SignedPerm.identity(2)
    assert act(ident, x11) == x11
    swap = SignedPerm((1, 0), (1, 1))
    assert act(swap, x11) == LaurentPoly.variable(g, 2, 1)
    flip = SignedPerm((0, 1), (-1, 1))
    assert act(flip, x11) == LaurentPoly.variable(g, 1, 1, -1)


def test_orbit_sum_examples():
    gl2 = GroupSpec("GL", 2, 1)
    assert orbit_sum(exponents([[1], [0]]), gl2) == (
        LaurentPoly.variable(gl2, 1, 1) + LaurentPoly.variable(gl2, 2, 1)
    )
    sp1 = GroupSpec("Sp", 1, 1)
    assert orbit_sum(exponents([[1]]), sp1) == (
        LaurentPoly.variable(sp1, 1, 1) + LaurentPoly.variable(sp1, 1, 1, -1)
    )
    # stabilized monomial accumulates multiplicity
    assert orbit_sum(exponents([[1], [1]]), gl2) == LaurentPoly.monomial(
        gl2, exponents([[1], [1]]), GaussRat(2)
    )


def test_orbit_sums_are_invariant():
    rng = random.Random(5)
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        for n in (1, 2, 3, 4):
            for N in (1, 2, 3):
                g = GroupSpec(fam, n, N)
                rows = [[rng.randint(-2, 2) for _ in range(N)] for _ in range(n)]
                assert is_invariant(orbit_sum(exponents(rows), g), g)


def test_orbit_stabilizer():
    rng = random.Random(9)
    for fam in ("GL", "Sp", "SOeven"):
        g = GroupSpec(fam, 3, 1)
        for _ in range(8):
            rows = [[rng.randint(-2, 2)] for _ in range(3)]
            orb = orbit_sum(exponents(rows), g)
            stab_sizes = {int(c.re) for c in orb.terms.values()}
            assert len(stab_sizes) == 1
            stab = stab_sizes.pop()
            assert stab * len(orb) == g.weyl_order


def test_invariance_examples():
    gl2 = GroupSpec("GL", 2, 1)
    assert is_invariant(
        LaurentPoly.variable(gl2, 1, 1) + LaurentPoly.variable(gl2, 2, 1), gl2
    )
    assert not is_invariant(LaurentPoly.variable(gl2, 1, 1), gl2)
    w = invariance_violation(LaurentPoly.variable(gl2, 1, 1), gl2)
    assert w is not None and "perm" in w.describe()
    so3 = GroupSpec("SOodd", 1, 1)
    f = (
        LaurentPoly.variable(so3, 1, 1)
        + LaurentPoly.variable(so3, 1, 1, -1)
        + LaurentPoly.constant(so3, 1)
    )
    assert is_invariant(f, so3)


def test_sl_invariance_uses_relations():
    sl2 = GroupSpec("SL", 2, 1)
    # x1 + x1^{-1} equals x1 + x2 modulo the relation, hence invariant.
    f = LaurentPoly.variable(sl2, 1, 1) + LaurentPoly.variable(sl2, 1, 1, -1)
    assert is_invariant(f, sl2)


def test_level_examples():
    gl2 = GroupSpec("GL", 2, 1)
    gl2_2 = GroupSpec("GL", 2, 2)
    assert level_of_monomial(exponents([[1, 0], [0, 0]]), gl2_2) == 1
    sl2 = GroupSpec("SL", 2, 1)
    assert level_of_monomial(exponents([[1], [1]]), sl2) == 0
    sl3 = GroupSpec("SL", 3, 1)
    assert level_of_monomial(exponents([[2], [1], [1]]), sl3) == 1
    f = LaurentPoly.variable(gl2, 1, 1) + LaurentPoly.variable(gl2, 2, 1)
    assert level_of_poly(f, gl2) == 1
    f2 = LaurentPoly.monomial(gl2, exponents([[1], [1]]), GaussRat(2))
    assert level_of_poly(f2, gl2) == 2
    assert level_of_poly(LaurentPoly.constant(gl2, 5), gl2) == 0


def test_level_weyl_invariant_and_shift_invariant():
    rng = random.Random(2)
    sl3 = GroupSpec("SL", 3, 2)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
        m = exponents(rows)
        lvl = level_of_monomial(m, sl3)
        for w in weyl_elements(sl3):
            assert level_of_monomial(act_monomial(w, m), sl3) == lvl
        shift = [rng.randint(-2, 2) for _ in range(2)]
        shifted = exponents([[r + s for r, s in zip(row, shift)] for row in rows])
        assert level_of_monomial(shifted, sl3) == lvl


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("rank, factors", [(1, 2), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_orbit_rep_keys_each_orbit_once(family, rank, factors):
    # Every monomial of a box of entries (half weights for even SO), keyed
    # by orbit_rep: all images of one orbit share one key, and no key is
    # shared by two orbits.
    group = GroupSpec(family, rank, factors)
    entries = (-1, 0, 1) if group.allows_half_weights else (-2, 0, 2)
    rows = list(itertools.product(entries, repeat=factors))
    keys = {k for m in itertools.product(rows, repeat=rank)
            for k in LaurentPoly.monomial(group, m).terms}  # SL keys canonical
    orbits = {}
    for m in keys:
        images = frozenset(orbit_sum(m, group).terms)
        assert {orbit_rep(y, group) for y in images} == {orbit_rep(m, group)}
        assert orbits.setdefault(orbit_rep(m, group), images) == images
