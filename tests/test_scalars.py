import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from toruschar.groups import GroupSpec
from toruschar.lie import cartan_metric
from toruschar.poisson import TauPoly, bracket_symbols
from toruschar.scalars import GaussRat, I, ONE, ZERO

SL22 = GroupSpec("SL", 2, 2)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
gauss = st.builds(GaussRat, rationals, rationals)


def test_basic_arithmetic():
    a = GaussRat(Fraction(3, 2), Fraction(1, 2))
    b = GaussRat(1, -1)
    assert a + b == GaussRat(Fraction(5, 2), Fraction(-1, 2))
    assert a * b == GaussRat(2, -1)
    assert (a / a) == ONE
    assert I * I == GaussRat(-1)
    assert I ** 4 == ONE
    assert GaussRat(2) ** -2 == GaussRat(Fraction(1, 4))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_str_and_parse_round_trip():
    cases = [
        GaussRat(Fraction(3, 2), Fraction(1, 2)),
        GaussRat(-2),
        GaussRat(0, 1),
        GaussRat(0, -1),
        GaussRat(0, Fraction(-1, 3)),
        GaussRat(Fraction(2, 7), Fraction(-5, 3)),
        ZERO,
    ]
    for x in cases:
        assert GaussRat.parse(str(x)) == x


def test_parse_variants():
    assert GaussRat.parse("3/2+1/2i") == GaussRat(Fraction(3, 2), Fraction(1, 2))
    assert GaussRat.parse("i") == I
    assert GaussRat.parse("-i") == -I
    assert GaussRat.parse("2-i") == GaussRat(2, -1)
    # unicode minus accepted
    assert GaussRat.parse("−2") == GaussRat(-2)


@given(gauss, gauss, gauss)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gauss)
def test_parse_round_trip_property(a):
    assert GaussRat.parse(str(a)) == a


@given(gauss)
def test_inverse(a):
    if a:
        assert a * (ONE / a) == ONE


def test_complex_conversion():
    assert complex(GaussRat(Fraction(1, 2), Fraction(-3, 4))) == 0.5 - 0.75j


def test_hash_agrees_with_eq():
    assert GaussRat(3) == 3 and hash(GaussRat(3)) == hash(3)
    half = Fraction(1, 2)
    assert GaussRat(half) == half and hash(GaussRat(half)) == hash(half)
    assert {GaussRat(3): "x"}[3] == "x"
    assert {half: "y"}[GaussRat.parse("2/4")] == "y"
    assert len({GaussRat(3), 3, Fraction(3), GaussRat.parse("6/2")}) == 1
    assert hash(GaussRat(1, 2)) == hash((Fraction(1), Fraction(2)))
    assert hash(GaussRat(half, 2)) == hash((half, Fraction(2)))


@given(gauss, gauss)
def test_equal_values_hash_equal(a, b):
    for x, y in ((a, GaussRat.parse(str(a))), (a * b, b * a), (a + b - b, a)):
        assert x == y and hash(x) == hash(y)
    if a.is_rational():
        assert a == a.as_fraction() and hash(a) == hash(a.as_fraction())


def test_parse_rejects_non_strings():
    for bad in (5, 1.5, None, ["1"], {"re": 1}):
        with pytest.raises(ValueError):
            GaussRat.parse(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda text: GaussRat(text),
        lambda text: GaussRat(0, text),
        lambda text: TauPoly.zero(SL22, text).c,
        lambda text: bracket_symbols((1, 0), (0, 1), SL22, text),
        lambda text: cartan_metric(SL22, text),
    ],
    ids=["GaussRat re", "GaussRat im", "TauPoly c", "bracket_symbols c", "cartan_metric c"],
)
def test_library_text_goes_through_read_rational(build):
    assert build("1/2") == build(Fraction(1, 2))
    started = time.perf_counter()
    with pytest.raises(ValueError, match="exponent too large"):
        build("1e1000000000")
    assert time.perf_counter() - started < 2.0
