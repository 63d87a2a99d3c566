import json
import random
from fractions import Fraction

import numpy as np
import pytest

from toruschar.errors import DomainError, StructureError
from toruschar.groups import GroupSpec
from toruschar.lie import numeric_bracket, random_torus_point
from toruschar.generators import tau_image
from toruschar.laurent import LaurentPoly
from toruschar.points import TorusPoint
from toruschar.poisson import (
    TauPoly,
    bracket_poly,
    bracket_symbols,
    jacobi_defect,
    structure_constants,
    symbol_window,
)
from toruschar.scalars import GaussRat, ONE
from toruschar.verify import _image, random_taupoly
from toruschar.weyl import _sum_orbits

SL2 = GroupSpec("SL", 2, 2)
SP1 = GroupSpec("Sp", 1, 2)
ONE_C = Fraction(1)


def test_bracket_sl2_example():
    br = bracket_symbols((1, 0), (0, 1), SL2, ONE_C)
    assert br.terms == {
        (((1, 1)),): ONE,
        ((0, 1), (1, 0)): GaussRat(Fraction(-1, 2)),
    }


def test_bracket_sp1_example():
    br = bracket_symbols((1, 0), (0, 1), SP1, ONE_C)
    half = GaussRat(Fraction(1, 2))
    assert br.terms == {((1, 1),): half, ((1, -1),): -half}


def test_bracket_diagonal_zero():
    for g in (SL2, SP1):
        assert not bracket_symbols((2, 3), (2, 3), g, ONE_C)


def test_bracket_gl_gated():
    # GL is no longer gated: det = 1 gives tau(1,1) with no flag, and the
    # old flag is an unknown keyword.
    gl = GroupSpec("GL", 2, 2)
    assert bracket_symbols((1, 0), (0, 1), gl, ONE_C).terms == {((1, 1),): ONE}
    with pytest.raises(TypeError):
        bracket_symbols((1, 0), (0, 1), gl, ONE_C, extrapolated_gl=True)


def test_gl_without_the_flag_brackets_only_det_zero_pairs():
    # A det = 0 pair is 0 on GL; a det != 0 pair now brackets too.
    gl = GroupSpec("GL", 2, 2)
    assert bracket_symbols((1, 0), (2, 0), gl, ONE_C) == TauPoly.zero(gl, ONE_C)

    def sym(a):
        return TauPoly.symbol(gl, ONE_C, a)

    assert bracket_poly(sym((1, 0)), sym((2, 0))) == TauPoly.zero(gl, ONE_C)
    assert bracket_poly(sym((1, 0)), sym((0, 1))) == bracket_symbols(
        (1, 0), (0, 1), gl, ONE_C
    )
    assert bracket_poly(sym((1, 0)), sym((0, 1)))


def test_gl_rule_matches_oracle():
    gl = GroupSpec("GL", 2, 2)
    rng = random.Random(3)
    for _ in range(20):
        pt = random_torus_point(gl, rng, exact=True)
        a = (rng.randint(-2, 2), rng.randint(-2, 2))
        b = (rng.randint(-2, 2), rng.randint(-2, 2))
        sym = bracket_symbols(a, b, gl, ONE_C).evaluate(pt)
        num = numeric_bracket(tau_image(gl, a), tau_image(gl, b), pt)
        assert sym == num


def test_symbol_normalization_so_like():
    t = TauPoly.symbol(SP1, ONE_C, (-1, -2))
    assert t == TauPoly.symbol(SP1, ONE_C, (1, 2))
    t_sl = TauPoly.symbol(SL2, ONE_C, (-1, -2))
    assert t_sl != TauPoly.symbol(SL2, ONE_C, (1, 2))


@pytest.mark.parametrize(
    "a, b", [((1, 2, 3), (0, 1)), ((1, 0, 7), (0, 1, 9)), ((1,), (0, 1)), ((1, 0), (1,))]
)
def test_trace_symbols_take_two_entries(a, b):
    with pytest.raises(DomainError, match="a trace symbol takes 2 entries"):
        bracket_symbols(a, b, SL2, ONE_C)
    for vec in (a, b):
        if len(vec) != 2:
            with pytest.raises(DomainError, match="a trace symbol takes 2 entries"):
                TauPoly.symbol(SL2, ONE_C, vec)


@pytest.mark.parametrize("bad", [Fraction(3, 5), 0.6, 1.0])
def test_tau_poly_keys_refuse_entries_that_are_not_integers(bad):
    # Truncated, the key (0.6, 1) would read as tau(0,1).
    with pytest.raises(TypeError):
        TauPoly(SL2, ONE_C, {((bad, 1),): ONE})
    assert TauPoly(SP1, ONE_C, {((np.int64(-1), True),): ONE}) == TauPoly.symbol(SP1, ONE_C, (1, -1))


@pytest.mark.parametrize("bad", [Fraction(3, 5), 0.6, 1.0])
def test_bracket_symbols_refuse_entries_that_are_not_integers(bad):
    for a, b in (((bad, 1), (1, 0)), ((1, 0), (0, bad))):
        with pytest.raises(TypeError):
            bracket_symbols(a, b, SL2, ONE_C)
    assert bracket_symbols((np.int64(1), 0), (False, True), SL2, ONE_C) == bracket_symbols((1, 0), (0, 1), SL2, ONE_C)


def test_antisymmetry_bilinearity_leibniz():
    rng = random.Random(5)
    for g in (GroupSpec("SL", 3, 2), GroupSpec("Sp", 2, 2), GroupSpec("SOodd", 2, 2)):
        for _ in range(25):
            f = random_taupoly(g, ONE_C, rng)
            h = random_taupoly(g, ONE_C, rng)
            k = random_taupoly(g, ONE_C, rng)
            assert bracket_poly(f, h) == -bracket_poly(h, f)
            assert bracket_poly(f + h, k) == bracket_poly(f, k) + bracket_poly(h, k)
            assert bracket_poly(f * h, k) == f * bracket_poly(h, k) + h * bracket_poly(f, k)


def test_bracket_with_constant_vanishes():
    one = TauPoly.constant(SL2, ONE_C, 1)
    f = TauPoly.symbol(SL2, ONE_C, (1, 2))
    assert not bracket_poly(f, one)
    assert not bracket_poly(one, f)


def test_bracket_poly_matches_symbols_on_degree_one():
    a, b = (2, 0), (0, 1)
    lhs = bracket_poly(TauPoly.symbol(SL2, ONE_C, a), TauPoly.symbol(SL2, ONE_C, b))
    assert lhs == bracket_symbols(a, b, SL2, ONE_C)
    # explicit Leibniz expansion example
    fa, fb, fc = (TauPoly.symbol(SL2, ONE_C, v) for v in ((1, 0), (0, 1), (1, 1)))
    lhs = bracket_poly(fa * fb, fc)
    rhs = fa * bracket_poly(fb, fc) + fb * bracket_poly(fa, fc)
    assert lhs == rhs


def test_determinant_scaling():
    a, b = (1, 0), (0, 1)
    for k in (2, 3):
        ka = (k * a[0], k * a[1])
        br = bracket_symbols(ka, b, SL2, ONE_C)
        det = k  # det(ka, b) = k for these vectors
        assert br.terms[((k, 1),)] == GaussRat(det)
        sp = bracket_symbols(ka, b, SP1, ONE_C)
        assert sp.terms[((k, 1),)] == GaussRat(Fraction(det, 2))


def test_c_scaling():
    a, b = (2, 1), (1, -1)
    for g in (SL2, SP1):
        c = Fraction(5, 3)
        scaled = bracket_symbols(a, b, g, c)
        base = bracket_symbols(a, b, g, ONE_C)
        assert scaled.terms == base.scaled(GaussRat(Fraction(1, 1) / c)).terms


def test_mismatched_c_or_group():
    f = TauPoly.symbol(SL2, ONE_C, (1, 0))
    h = TauPoly.symbol(SL2, Fraction(2), (0, 1))
    with pytest.raises(StructureError):
        bracket_poly(f, h)
    h2 = TauPoly.symbol(SP1, ONE_C, (0, 1))
    with pytest.raises(StructureError):
        f + h2


_C_ENTRY_POINTS = {
    "TauPoly": lambda c: TauPoly(SL2, c),
    "TauPoly.symbol": lambda c: TauPoly.symbol(SL2, c, (1, 0)),
    "TauPoly.from_json": lambda c: TauPoly.from_json({**_GOOD_TAU, "c": str(c)}),
    "bracket_symbols": lambda c: bracket_symbols((1, 0), (0, 1), SL2, c),
    "jacobi_defect": lambda c: jacobi_defect((1, 0), (0, 1), (1, 1), SL2, c),
    "structure_constants": lambda c: structure_constants(SL2, c, 1),
}


@pytest.mark.parametrize("entry", _C_ENTRY_POINTS, ids=str)
@pytest.mark.parametrize("zero", [0, Fraction(0), "0", "-0/5"], ids=repr)
def test_every_entry_point_refuses_c_zero_as_a_domain_error(entry, zero):
    with pytest.raises(DomainError, match="c must be nonzero"):
        _C_ENTRY_POINTS[entry](zero)


@pytest.mark.parametrize("entry", sorted(set(_C_ENTRY_POINTS) - {"TauPoly.from_json"}), ids=str)
def test_every_entry_point_names_a_zero_denominator_in_c(entry):
    # Fraction("1/0") raises a bare ZeroDivisionError naming Fraction(1, 0).
    with pytest.raises(DomainError, match=r"^zero denominator in '1/0'$"):
        _C_ENTRY_POINTS[entry]("1/0")
    assert _C_ENTRY_POINTS[entry]("2/7") == _C_ENTRY_POINTS[entry](Fraction(2, 7))


def test_tau_eval_examples():
    pt = TorusPoint(SL2, [[GaussRat(2), GaussRat(Fraction(1, 2))],
                          [GaussRat(3), GaussRat(Fraction(1, 3))]])
    t10 = TauPoly.symbol(SL2, ONE_C, (1, 0))
    assert t10.evaluate(pt) == GaussRat(Fraction(5, 2))
    t11 = TauPoly.symbol(SL2, ONE_C, (1, 1))
    assert t11.evaluate(pt) == GaussRat(Fraction(37, 6))  # 6 + 1/6
    pt_sp = TorusPoint(SP1, [[GaussRat(2)], [GaussRat(3)]])
    t1m1 = TauPoly.symbol(SP1, ONE_C, (1, -1))
    assert t1m1.evaluate(pt_sp) == GaussRat(Fraction(2, 3) + Fraction(3, 2))


def test_jacobi_identically_zero():
    rng = random.Random(7)
    for g in (
        GroupSpec("SL", 2, 2),
        GroupSpec("SL", 3, 2),
        GroupSpec("Sp", 2, 2),
        GroupSpec("SOodd", 2, 2),
        GroupSpec("SOeven", 2, 2),
    ):
        for _ in range(15):
            vecs = [
                (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)
            ]
            assert not jacobi_defect(*vecs, g, ONE_C)


def test_jacobi_repeated_argument():
    a = (1, 2)
    assert not jacobi_defect(a, a, (0, 1), SL2, ONE_C)


@pytest.mark.parametrize(
    "group",
    [SL2, GroupSpec("SL", 3, 2), SP1, GroupSpec("Sp", 2, 2), GroupSpec("SOodd", 2, 2),
     GroupSpec("SOeven", 2, 2), GroupSpec("SOeven", 3, 2)],
    ids=str,
)
def test_image_matches_the_product_of_tau_images(group):
    # The orbit-basis image written out equals the Laurent product of the
    # tau images, multiplied without orbit_coefficients.
    rng = random.Random(11)
    for _ in range(8):
        p = bracket_poly(random_taupoly(group, ONE_C, rng), random_taupoly(group, ONE_C, rng))
        want = LaurentPoly.zero(group)
        for key, coeff in p.terms.items():
            term = LaurentPoly.constant(group, coeff)
            for a in key:
                term = term * tau_image(group, a)
            want = want + term
        assert _sum_orbits(_image(p), group) == want
    assert _image(TauPoly.symbol(group, ONE_C, (1, 0)))


def test_structure_constants_table():
    table = structure_constants(SL2, ONE_C, 1)
    assert len(table["entries"]) == 36  # C(9, 2) distinct pairs
    # antisymmetry of the bracket itself
    for entry in table["entries"][:6]:
        a, b = tuple(entry["a"]), tuple(entry["b"])
        forward = bracket_symbols(a, b, SL2, ONE_C)
        backward = bracket_symbols(b, a, SL2, ONE_C)
        assert forward == -backward
    sp_table = structure_constants(SP1, ONE_C, 1)
    target = next(
        e
        for e in sp_table["entries"]
        if tuple(e["a"]) == (0, 1) and tuple(e["b"]) == (1, 0)
    )
    br = TauPoly.from_json(target["bracket"])
    half = GaussRat(Fraction(1, 2))
    # entry ((0,1),(1,0)) = -{(1,0),(0,1)} = -(tau(1,1) - tau(1,-1))/2
    assert br.terms == {((1, 1),): -half, ((1, -1),): half}


def test_structure_constants_deterministic_and_json():
    t1 = structure_constants(SP1, ONE_C, 2)
    t2 = structure_constants(SP1, ONE_C, 2)
    assert json.dumps(t1, sort_keys=True) == json.dumps(t2, sort_keys=True)
    for e in t1["entries"][:3]:
        assert TauPoly.from_json(e["bracket"]).group == SP1


def test_taupoly_json_round_trip():
    f = bracket_symbols((2, 1), (1, -1), SP1, Fraction(3, 2))
    back = TauPoly.from_json(json.loads(json.dumps(f.to_json())))
    assert back == f


_GOOD_TAU = {
    "group": {"family": "Sp", "rank": 1, "factors": 2},
    "c": "3/2",
    "terms": [{"coeff": "1", "factors": [[1, 0]]}],
}


@pytest.mark.parametrize(
    "doc, where",
    [
        ({**_GOOD_TAU, "terms": [{"factors": [[1, 0]]}]}, "terms[0].coeff: missing"),
        ({**_GOOD_TAU, "terms": [{"coeff": 1, "factors": []}]}, "terms[0].coeff: expected a string"),
        ({**_GOOD_TAU, "terms": [{"coeff": "1/x", "factors": []}]}, "terms[0].coeff: "),
        ({**_GOOD_TAU, "terms": [{"coeff": "1", "factors": [[1, "a"]]}]},
         "terms[0].factors[0][1]: expected an integer"),
        ({**_GOOD_TAU, "terms": [{"coeff": "1", "factors": [[1]]}]},
         "terms[0].factors[0]: expected 2 entries"),
        ({**_GOOD_TAU, "terms": [{"coeff": "1", "factors": [1, 0]}]},
         "terms[0].factors[0]: expected a list"),
        ({**_GOOD_TAU, "terms": [{"coeff": "1", "factors": "tau"}]}, "terms[0].factors: expected a list"),
        ({**_GOOD_TAU, "terms": ["x"]}, "terms[0]: expected an object"),
        ({**_GOOD_TAU, "terms": {}}, "terms: expected a list"),
        ({**_GOOD_TAU, "c": 2}, "c: expected a string"),
        ({**_GOOD_TAU, "c": "two"}, "c: "),
        ({**_GOOD_TAU, "c": "1/0"}, "c: "),
        ({"c": "1", "terms": []}, "group: missing"),
        ({**_GOOD_TAU, "group": {"family": "Sp", "rank": 1}}, "group.factors: missing"),
        ([_GOOD_TAU], "top level: expected an object"),
        ({**_GOOD_TAU, "c": "1e1000000000"}, "c: exponent too large"),
        ({**_GOOD_TAU, "c": "3/0"}, "c: zero denominator in '3/0'"),
        ({**_GOOD_TAU, "terms": [{"coeff": "1/0i", "factors": []}]},
         "terms[0].coeff: zero denominator in '1/0i'"),
    ],
)
def test_taupoly_from_json_malformed(doc, where):
    with pytest.raises(DomainError) as exc:
        TauPoly.from_json(doc)
    assert str(exc.value).startswith(where)


def test_symbol_window_counts():
    assert len(symbol_window(SL2, 1)) == 9
    assert len(symbol_window(SP1, 1)) == 5


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_evaluate_rejects_a_point_of_another_group(exact):
    pt = random_torus_point(GroupSpec("SL", 3, 2), random.Random(5), exact=exact)
    for p in (TauPoly.symbol(SL2, 1, (1, 0)), TauPoly.constant(SL2, 1, 3),
              TauPoly.symbol(GroupSpec("GL", 3, 2), 1, (1, 0))):
        with pytest.raises(StructureError):
            p.evaluate(pt)
