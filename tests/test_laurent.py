import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruschar.errors import DomainError, StructureError
from toruschar.groups import GroupSpec
from toruschar.laurent import (
    LaurentPoly,
    canonical_mod_relations,
    exponents,
    exponents_from_json,
)
from toruschar.points import TorusPoint
from toruschar.scalars import GaussRat, ONE
from toruschar.weyl import orbit_sum

GL21 = GroupSpec("GL", 2, 1)
SL21 = GroupSpec("SL", 2, 1)
SL31 = GroupSpec("SL", 3, 1)


def x(group, i, j=1, p=1):
    return LaurentPoly.variable(group, i, j, p)


def test_add_examples():
    assert x(GL21, 1) + x(GL21, 1).scaled(-1) == LaurentPoly.zero(GL21)
    s = x(GL21, 1) + x(GL21, 2)
    assert len(s) == 2
    half = GaussRat(Fraction(1, 2))
    assert x(GL21, 1).scaled(half) + x(GL21, 1).scaled(half) == x(GL21, 1)


def test_mul_examples():
    assert x(GL21, 1) * x(GL21, 1, p=-1) == LaurentPoly.constant(GL21, 1)
    sq = (x(GL21, 1) + x(GL21, 2)) ** 2
    expected = (
        x(GL21, 1) * x(GL21, 1)
        + (x(GL21, 1) * x(GL21, 2)).scaled(2)
        + x(GL21, 2) * x(GL21, 2)
    )
    assert sq == expected


def test_mul_sl_relation():
    # (x1+x2)^2 - (x1^2+x2^2) = 2 x1 x2, which collapses to 2 modulo x1 x2 = 1
    f = (x(SL21, 1) + x(SL21, 2)) ** 2 - (x(SL21, 1, p=2) + x(SL21, 2, p=2))
    expected = LaurentPoly.monomial(SL21, exponents([[1], [1]]), GaussRat(2))
    assert f == expected
    assert f == LaurentPoly.constant(SL21, 2)


def test_group_mismatch():
    with pytest.raises(StructureError):
        x(GL21, 1) + x(SL21, 1)


@pytest.mark.parametrize("m, got", [
    (((0, 0), (0,)), "got row 1 of length 1"),
    (((0, 0, 0), (0, 0)), "got row 0 of length 3"),
    (((0, 0),), "got row count 1"),
    (((0, 0), (0, 0), (0, 0)), "got row count 3"),
])
def test_shape_error_names_the_shape(m, got):
    group = GroupSpec("GL", 2, 2)
    want = re.escape(f"exponent matrix shape does not match {group}: expected 2x2, {got}")
    with pytest.raises(StructureError, match=want):
        LaurentPoly(group, {m: 1})
    doc = {"group": group.to_json(), "terms": [{"coeff": "1", "exps": [list(r) for r in m]}]}
    with pytest.raises(StructureError, match=want):
        LaurentPoly.from_json(doc)


def test_eval_examples():
    pt = TorusPoint(GL21, [[2 + 0j, 3 + 0j]])
    assert x(GL21, 1).evaluate(pt) == 2
    assert x(GL21, 1, p=-1).evaluate(pt) == 0.5
    assert (x(GL21, 1) + x(GL21, 2)).evaluate(pt) == 5


def test_eval_zero_coordinate_rejected():
    with pytest.raises(DomainError):
        TorusPoint(GL21, [[0 + 0j, 1 + 0j]])


def test_eval_is_homomorphism_float():
    rng = random.Random(7)
    g = GroupSpec("Sp", 2, 2)
    for _ in range(20):
        pt = TorusPoint(
            g,
            [
                [rng.uniform(0.3, 2.0) + rng.uniform(-1, 1) * 1j for _ in range(2)]
                for _ in range(2)
            ],
        )
        f = _random_poly(g, rng)
        h = _random_poly(g, rng)
        lhs = (f * h).evaluate(pt)
        rhs = f.evaluate(pt) * h.evaluate(pt)
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_eval_is_homomorphism_exact_sl():
    # For SL, evaluation respects the quotient only on the SL torus, so
    # sample points with unit coordinate product.
    rng = random.Random(11)
    for _ in range(10):
        a = GaussRat(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        pt = TorusPoint(SL21, [[a, ONE / a]])
        f = _random_poly(SL21, rng)
        h = _random_poly(SL21, rng)
        assert (f * h).evaluate(pt) == f.evaluate(pt) * h.evaluate(pt)


def _random_poly(group, rng, terms=3, span=2):
    out = LaurentPoly.zero(group)
    for _ in range(terms):
        rows = [
            [rng.randint(-span, span) for _ in range(group.factors)]
            for _ in range(group.rank)
        ]
        coeff = GaussRat(rng.randint(-3, 3), rng.randint(-1, 1))
        out = out + LaurentPoly.monomial(group, exponents(rows), coeff if coeff else ONE)
    return out


def test_partial_examples():
    assert x(GL21, 1, p=2).partial(1, 1) == x(GL21, 1, p=2).scaled(2)
    assert x(GL21, 1, p=-1).partial(1, 1) == x(GL21, 1, p=-1).scaled(-1)
    assert LaurentPoly.constant(GL21, 5).partial(1, 1) == LaurentPoly.zero(GL21)


def test_partial_leibniz_exact():
    rng = random.Random(3)
    g = GroupSpec("GL", 2, 2)
    for _ in range(15):
        f = _random_poly(g, rng)
        h = _random_poly(g, rng)
        for i, j in ((1, 1), (2, 2)):
            lhs = (f * h).partial(i, j)
            rhs = f.partial(i, j) * h + f * h.partial(i, j)
            assert lhs == rhs


def test_partial_half_integer_weight():
    g = GroupSpec("SOeven", 2, 1)
    m = tuple(tuple(r) for r in [[1], [1]])  # doubled: both exponents 1/2
    f = LaurentPoly(g, {m: ONE})
    df = f.partial(1, 1)
    assert df == f.scaled(GaussRat(Fraction(1, 2)))


def test_canonical_examples():
    assert canonical_mod_relations(exponents([[1], [1]]), SL21) == exponents([[0], [0]])
    assert canonical_mod_relations(exponents([[3], [1]]), SL21) == exponents([[2], [0]])
    assert canonical_mod_relations(exponents([[1], [0], [0]]), SL31) == exponents(
        [[1], [0], [0]]
    )
    # identity for other families
    assert canonical_mod_relations(exponents([[5], [5]]), GL21) == exponents([[5], [5]])


@given(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    st.integers(-4, 4),
)
def test_canonical_idempotent_and_coset_constant(rows, shift):
    m = exponents([[r] for r in rows])
    c1 = canonical_mod_relations(m, SL31)
    assert canonical_mod_relations(c1, SL31) == c1
    shifted = exponents([[r + shift] for r in rows])
    assert canonical_mod_relations(shifted, SL31) == c1


@settings(max_examples=40)
@given(st.data())
def test_ring_axioms(data):
    g = GroupSpec("Sp", 2, 1)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    f, h, k = (_random_poly(g, rng) for _ in range(3))
    assert (f + h) + k == f + (h + k)
    assert f * h == h * f
    assert (f * h) * k == f * (h * k)
    assert f * (h + k) == f * h + f * k


def test_half_weights_rejected_outside_soeven():
    for fam in ("GL", "SL", "Sp", "SOodd"):
        g = GroupSpec(fam, 2, 1)
        with pytest.raises(DomainError):
            LaurentPoly(g, {((1,), (0,)): ONE})
    g = GroupSpec("SOeven", 2, 1)
    assert LaurentPoly(g, {((1,), (1,)): ONE}).has_half_weights()


def test_half_weights_refused_by_constructor_and_json_outside_soeven():
    # decompose scans for half weights only where the family allows them;
    # every other family must refuse an odd doubled entry on the way in.
    for fam in ("GL", "SL", "Sp", "SOodd"):
        g = GroupSpec(fam, 2, 2)
        with pytest.raises(DomainError):
            LaurentPoly(g, {((0, 2), (1, 0)): ONE})
        blob = {"group": g.to_json(), "terms": [{"coeff": "1", "exps": [[0, 1], [0.5, 0]]}]}
        with pytest.raises(DomainError):
            LaurentPoly.from_json(blob)


def test_json_round_trip():
    g = GroupSpec("SL", 2, 2)
    f = LaurentPoly(
        g,
        {
            exponents([[1, 0], [-1, 0]]): GaussRat(Fraction(3, 2), Fraction(1, 2)),
            exponents([[0, 2], [0, 0]]): GaussRat(-2),
        },
    )
    blob = json.dumps(f.to_json())
    back = LaurentPoly.from_json(json.loads(blob))
    assert back == f


def test_eval_half_weights_exact_sqrt_branch():
    g = GroupSpec("SOeven", 2, 1)
    pt = TorusPoint.from_sqrt(g, [[GaussRat(2), GaussRat(3)]])
    assert pt.coords == ((GaussRat(4), GaussRat(9)),)
    # (x11 x21)^(1/2) evaluates through the stored branch: 2 * 3
    half_half = LaurentPoly(g, {((1,), (1,)): ONE})
    assert half_half.evaluate(pt) == GaussRat(6)
    # a negated branch flips the sign of odd powers only
    pt_neg = TorusPoint.from_sqrt(g, [[GaussRat(-2), GaussRat(3)]])
    assert half_half.evaluate(pt_neg) == GaussRat(-6)
    whole = LaurentPoly(g, {((2,), (2,)): ONE})
    assert whole.evaluate(pt) == whole.evaluate(pt_neg) == GaussRat(36)


def test_eval_half_weights_exact_without_branch_rejected():
    g = GroupSpec("SOeven", 2, 1)
    pt = TorusPoint(g, [[GaussRat(4), GaussRat(9)]])
    with pytest.raises(DomainError):
        LaurentPoly(g, {((1,), (1,)): ONE}).evaluate(pt)


@pytest.mark.parametrize(
    "coords, sqrts",
    [
        ([[4, 9]], [[2]]),  # a short row
        ([[4, 9]], [[2, 3, 5]]),  # a long row
        ([[4, 9]], []),  # no rows
        ([[4, 9]], [[2, 3], [2, 3]]),  # an extra row
        ([[4.0, 9.0]], [[2.0]]),  # float points too
    ],
)
def test_point_refuses_sqrts_of_another_shape(coords, sqrts):
    with pytest.raises(StructureError, match="square-root vectors"):
        TorusPoint(GroupSpec("SOeven", 2, 1), coords, sqrts=sqrts)


def test_eval_half_weights_float_principal_branch():
    g = GroupSpec("SOeven", 2, 1)
    pt = TorusPoint(g, [[4.0 + 0j, 9.0 + 0j]])
    val = LaurentPoly(g, {((1,), (-1,)): ONE}).evaluate(pt)
    assert abs(val - 2 / 3) < 1e-12


def test_orbit_sum_of_half_weight_monomial_is_invariant():
    from toruschar.weyl import is_invariant, level_of_monomial, orbit_sum

    g = GroupSpec("SOeven", 2, 1)
    m = ((1,), (-1,))  # exponents (1/2, -1/2)
    f = orbit_sum(m, g)
    assert is_invariant(f, g)
    assert level_of_monomial(m, g) == 2


@pytest.mark.parametrize(
    "rows, halves", [([[Fraction(3, 2)]], False), ([[0.5]], True), ([[1.5], [0]], False), ([[2.0]], False)]
)
def test_exponents_refuse_entries_that_are_not_integers(rows, halves):
    # Truncated, each would read as another exponent.
    with pytest.raises(TypeError):
        exponents(rows, halves=halves)


def test_exponents_take_integer_types():
    assert exponents([[np.int64(2), True, -1]]) == ((4, 2, -2),)
    assert exponents([[np.int32(3)]], halves=True) == ((3,),)


@pytest.mark.parametrize("entry", [True, False, 2.5, 2.0, Fraction(2)], ids=repr)
@pytest.mark.parametrize("family", ["GL", "SL", "Sp", "SOodd", "SOeven"])
def test_stored_keys_refuse_entries_that_are_not_ints(family, entry):
    # Even SO, which allows odd entries, refuses these too.
    g = GroupSpec(family, 2, 1)
    m = ((entry,), (2,))
    for build in (lambda: LaurentPoly(g, {m: ONE}), lambda: LaurentPoly.monomial(g, m), lambda: orbit_sum(m, g)):
        with pytest.raises(DomainError, match=re.escape(f"exponent entry {entry!r} is not an int")):
            build()


def test_json_half_integer_exponents():
    g = GroupSpec("SOeven", 2, 1)
    f = LaurentPoly(g, {((1,), (1,)): ONE})
    obj = f.to_json()
    assert obj["terms"][0]["exps"] == [[0.5], [0.5]]
    assert LaurentPoly.from_json(obj) == f


def test_exponents_from_json_matches_fraction_path():
    rows = [[3, -(2 ** 70), 0], [0.5, "1/2", "1e5"], [-7, "-3/2", 2.0]]
    doubled = exponents_from_json(rows, "exps")
    assert doubled == tuple(tuple(int(2 * Fraction(e)) for e in row) for row in rows)
    assert all(type(e) is int for row in doubled for e in row)


@settings(max_examples=60)
@given(st.data())
def test_from_json_matches_constructor(data):
    """Raw (non-canonical SL) keys, repeated keys and cancelling terms:
    ``from_json`` stores what the constructor stores."""
    family = data.draw(st.sampled_from(["SL", "GL", "Sp"]))
    group = GroupSpec(family, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)))
    row = st.lists(st.integers(-1, 1), min_size=group.factors, max_size=group.factors)
    entries = data.draw(st.lists(
        st.tuples(st.lists(row, min_size=group.rank, max_size=group.rank), st.integers(-1, 1)),
        max_size=8,
    ))
    doc = {
        "group": group.to_json(),
        "terms": [{"coeff": str(c), "exps": rows} for rows, c in entries],
    }
    expected = {}
    for rows, c in entries:
        m = exponents(rows)
        expected[m] = expected.get(m, GaussRat(0)) + c
    f = LaurentPoly.from_json(doc)
    assert f == LaurentPoly(group, expected)
    assert all(c for c in f.terms.values())
    assert all(canonical_mod_relations(m, group) == m for m in f.terms)


def test_from_json_checks_terms_that_cancel():
    doc = {
        "group": {"family": "GL", "rank": 1, "factors": 1},
        "terms": [{"coeff": "1", "exps": [[0.5]]}, {"coeff": "-1", "exps": [[0.5]]}],
    }
    with pytest.raises(DomainError, match="half-integer"):
        LaurentPoly.from_json(doc)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_evaluate_rejects_a_point_of_another_group(exact):
    # Same shape (rank 3, N = 2) or a smaller one: without the check the
    # first would evaluate silently, the second read only part of the point.
    pt = TorusPoint(GroupSpec("SL", 3, 2),
                    [[2, Fraction(1, 3), Fraction(3, 2)], [-1, 5, Fraction(-1, 5)]])
    if not exact:
        pt = TorusPoint(pt.group, [[complex(v) for v in row] for row in pt.coords])
    for group in (GroupSpec("GL", 3, 2), GroupSpec("SL", 2, 2)):
        with pytest.raises(StructureError):
            x(group, 1, 2).evaluate(pt)
        with pytest.raises(StructureError):
            LaurentPoly.zero(group).evaluate(pt)
