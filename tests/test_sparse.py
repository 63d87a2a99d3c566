"""Ring axioms and the stored form for the three polynomial classes that
share ``toruschar.sparse``: no zero coefficient is stored, SL Laurent keys
are canonical, and generator and trace-symbol keys are sorted (Sp symbols
also sign-normalized)."""

import random
from fractions import Fraction
from operator import add

from hypothesis import given, settings, strategies as st

import reference_sparse
from toruschar import sparse
from toruschar.generators import GeneratorPoly
from toruschar.groups import GroupSpec
from toruschar.laurent import LaurentPoly, canonical_mod_relations, exponents
from toruschar.poisson import TauPoly
from toruschar.scalars import GaussRat

SL31 = GroupSpec("SL", 3, 1)
SP12 = GroupSpec("Sp", 1, 2)
SL22 = GroupSpec("SL", 2, 2)
C = Fraction(3, 2)
_SYMBOLS = [("tau", (1, 0)), ("tau", (0, 1)), ("tau", (1, -1)), ("q", ((1, 0), (0, 1)))]


def _coeff(rng):
    # Small values, so that sums and products often cancel to zero.
    return GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))


def _random_laurent(rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        rows = [[rng.randint(-2, 2)] for _ in range(SL31.rank)]
        terms[exponents(rows)] = _coeff(rng)
    return LaurentPoly(SL31, terms)


def _random_generator(rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = tuple(sorted(rng.choice(_SYMBOLS) for _ in range(rng.randint(0, 2))))
        terms[key] = _coeff(rng)
    return GeneratorPoly(terms)


def _random_tau(group):
    def make(rng):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            key = tuple((rng.randint(-2, 2), rng.randint(-2, 2))
                        for _ in range(rng.randint(0, 2)))
            terms[key] = _coeff(rng)
        return TauPoly(group, C, terms)
    return make


def _laurent_keys_ok(p):
    return all(canonical_mod_relations(m, p.group) == m for m in p.terms)


def _sorted_keys_ok(p):
    return all(list(k) == sorted(k) for k in p.terms)


def _sp_keys_ok(p):
    return _sorted_keys_ok(p) and all(
        a[0] > 0 or (a[0] == 0 and a[1] >= 0) for k in p.terms for a in k
    )


def _check_ring(make, keys_ok, rng):
    f, h, k = make(rng), make(rng), make(rng)
    i = GaussRat(0, 1)
    pairs = [
        ((f + h) + k, f + (h + k)),
        (f * h, h * f),
        ((f * h) * k, f * (h * k)),
        (f * (h + k), f * h + f * k),
        ((f - h) + h, f),
        (f.scaled(2), f + f),
        (f.scaled(i).scaled(-i), f),
        (f - f, f.scaled(0)),
    ]
    assert not f.scaled(0)
    for left, right in pairs:
        assert left == right
        for p in (left, right):
            assert all(isinstance(c, GaussRat) and c for c in p.terms.values())
            assert keys_ok(p)


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_laurent_sl_ring_axioms_and_stored_form(seed):
    _check_ring(_random_laurent, _laurent_keys_ok, random.Random(seed))


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_generator_ring_axioms_and_stored_form(seed):
    _check_ring(_random_generator, _sorted_keys_ok, random.Random(seed))


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_taupoly_sp_ring_axioms_and_stored_form(seed):
    _check_ring(_random_tau(SP12), _sp_keys_ok, random.Random(seed))


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_taupoly_sl_ring_axioms_and_stored_form(seed):
    _check_ring(_random_tau(SL22), _sorted_keys_ok, random.Random(seed))


def test_add_term_drops_cancelled_and_zero_terms():
    terms = {}
    sparse.add_term(terms, "a", GaussRat(0))
    assert terms == {}
    sparse.add_term(terms, "a", GaussRat(2))
    sparse.add_term(terms, "a", GaussRat(-2))
    assert terms == {}


# Few keys under ``add``, so that term pairs often meet and cancel.
_int_coeffs = st.integers(-2, 2)
_gauss_coeffs = st.builds(
    lambda a, b, d: GaussRat(Fraction(a, d), b), st.integers(-2, 2), st.integers(-1, 1),
    st.integers(1, 2),
)


def _polys(coeffs):
    return st.dictionaries(st.integers(-3, 3), coeffs, max_size=5)


@settings(max_examples=200)
@given(st.data())
def test_mul_matches_per_pair_reference(data):
    """``sparse.mul`` against the per-pair ``add_term`` body: the same dict
    in the same insertion order, fresh and accumulated into ``out`` over
    several calls."""
    coeffs = data.draw(st.sampled_from([_int_coeffs, _gauss_coeffs]))
    pairs = data.draw(st.lists(st.tuples(_polys(coeffs), _polys(coeffs)), min_size=1, max_size=4))
    out, ref_out = {}, {}
    for a, b in pairs:
        assert list(sparse.mul(a, b, add).items()) == list(reference_sparse.mul(a, b, add).items())
        assert sparse.mul(a, b, add, out) is out
        reference_sparse.mul(a, b, add, ref_out)
        assert list(out.items()) == list(ref_out.items())
        assert all(out.values())


@settings(max_examples=100)
@given(st.data())
def test_mul_into_out_cancels_to_empty(data):
    """Accumulating a product into the negation of itself leaves ``{}``."""
    coeffs = data.draw(st.sampled_from([_int_coeffs, _gauss_coeffs]))
    a, b = data.draw(_polys(coeffs)), data.draw(_polys(coeffs))
    out = sparse.neg(reference_sparse.mul(a, b, add))
    assert sparse.mul(a, b, add, out) == {}
    # (x + 1)(x - 1) - (x**2 - 1): the cross terms cancel inside one call.
    one = GaussRat(1) if coeffs is _gauss_coeffs else 1
    out = {2: -one, 0: one}
    assert sparse.mul({1: one, 0: one}, {1: one, 0: -one}, add, out) == {}
