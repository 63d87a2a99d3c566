"""Differential tests: the int-backed GaussRat against the Fraction-pair
reference in ``reference_scalars.py``."""

import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reference_scalars import GaussRat as RefGaussRat
from toruschar.scalars import GaussRat

rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(max_denominator=10**12),
)
ints = st.one_of(st.just(0), st.integers(-50, 50), st.integers())

# An operand spec: a GaussRat (re, im), a plain int or a plain Fraction.
gauss_specs = st.tuples(st.just("g"), st.one_of(rationals, ints), st.one_of(rationals, ints))
specs = st.one_of(
    gauss_specs,
    st.tuples(st.just("int"), ints),
    st.tuples(st.just("frac"), rationals),
)


def build(spec, cls):
    kind, *vals = spec
    if kind == "g":
        return cls(*vals)
    return vals[0] if kind == "int" else Fraction(vals[0])


def outcome(fn):
    """The result of fn() in a form both implementations can be compared
    by: value and text for a scalar, the exception type for a failure."""
    try:
        r = fn()
    except (ZeroDivisionError, ValueError, TypeError) as exc:
        return type(exc)
    if isinstance(r, (GaussRat, RefGaussRat)):
        return ("GaussRat", r.re, r.im, str(r), repr(r))
    return r


def same(fn_of_cls, *spec_args):
    new = outcome(lambda: fn_of_cls(GaussRat, *[build(s, GaussRat) for s in spec_args]))
    ref = outcome(lambda: fn_of_cls(RefGaussRat, *[build(s, RefGaussRat) for s in spec_args]))
    assert new == ref


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv, operator.eq, operator.ne]


@pytest.mark.parametrize("op", BINARY, ids=lambda op: op.__name__)
@given(x=specs, y=specs)
def test_binary_ops_match_reference(op, x, y):
    same(lambda cls, a, b: op(a, b), x, y)


small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
small_specs = st.one_of(
    st.tuples(st.just("g"), small, st.sampled_from([0, 0, 1])),
    st.tuples(st.just("int"), st.integers(-3, 3)),
    st.tuples(st.just("frac"), small),
)


@pytest.mark.parametrize("op", [operator.eq, operator.sub], ids=lambda op: op.__name__)
@given(x=small_specs, y=small_specs)
def test_near_equal_values_match_reference(op, x, y):
    """Values that share a numerator or a denominator, where a wrong
    equality or a missed reduction would show."""
    same(lambda cls, a, b: op(a, b), x, y)


@given(x=gauss_specs, k=st.integers(-5, 7))
def test_pow_matches_reference(x, k):
    same(lambda cls, a: a ** k, x)


@given(x=gauss_specs)
def test_unary_ops_match_reference(x):
    same(lambda cls, a: -a, x)
    same(lambda cls, a: a.conj(), x)
    same(lambda cls, a: bool(a), x)
    same(lambda cls, a: str(a), x)
    same(lambda cls, a: complex(a), x)
    same(lambda cls, a: a.is_rational(), x)
    same(lambda cls, a: a.as_fraction(), x)
    same(lambda cls, a: cls.parse(str(a)), x)


# An exponent of four or more digits ("1e9999999999") would make Fraction
# build an int of that many digits, so such texts are left out, looked
# at as parse sees them (spaces dropped, Unicode minus as "-").
_HUGE_EXPONENT = re.compile(r"[eE][+-]?[\d_]{4}")


@given(
    st.text(alphabet="0123456789/+-iI .−\t_eE٣", max_size=14).filter(
        lambda text: not _HUGE_EXPONENT.search(text.replace("−", "-").replace(" ", ""))
    )
)
def test_parse_matches_reference_on_any_text(text):
    """Around the boundary of the int fast path: underscores, exponents,
    decimal points and non-ASCII digits are Fraction syntax it leaves to
    the general body."""
    same(lambda cls: cls.parse(text))


def error_of(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "text", ["1/0", "1/0i", "/2i", "+", "i+1", "-1/3i", "1/2+0/3i", "-/2i", "12i", "٣"]
)
def test_parse_values_and_errors_match_reference(text):
    same(lambda cls: cls.parse(text))
    assert error_of(lambda: GaussRat.parse(text)) == error_of(lambda: RefGaussRat.parse(text))


@given(x=gauss_specs)
def test_parse_of_str_is_normal_form(x):
    value = build(x, GaussRat)
    back = GaussRat.parse(str(value))
    assert (back._a, back._b, back._d) == (value._a, value._b, value._d)


def test_division_and_pow_by_zero():
    for cls in (GaussRat, RefGaussRat):
        with pytest.raises(ZeroDivisionError):
            cls(1, 2) / 0
        with pytest.raises(ZeroDivisionError):
            cls(Fraction(1, 3)) / cls(0)
        with pytest.raises(ZeroDivisionError):
            cls(0) ** -1
        with pytest.raises(ValueError):
            cls(Fraction(1, 2), 1).as_fraction()


def test_normal_form():
    x = GaussRat(Fraction(2, 6), Fraction(-4, 9))
    assert (x._a, x._b, x._d) == (3, -4, 9)
    y = GaussRat.parse("1/2+1/2i") + GaussRat.parse("1/2-1/2i")
    assert (y._a, y._b, y._d) == (1, 0, 1)
    assert GaussRat.parse("4/6-2/6i") == GaussRat(Fraction(2, 3), Fraction(-1, 3))


def test_parts_are_read_only():
    x = GaussRat(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        x.re = Fraction(1)
    with pytest.raises(AttributeError):
        x.im = Fraction(1)
    with pytest.raises(AttributeError):
        x.other = 1
    assert x.re == Fraction(1, 2) and x.im == 3
