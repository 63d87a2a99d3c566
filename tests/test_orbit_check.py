"""``orbit_coefficients`` multiplies a generator polynomial out in the
Weyl orbit-sum basis; it closes ``decompose`` and ``expand`` is built on
it.  Against the Laurent multiply-out of ``reference_laurent.expand``:
the orbit coefficients sum back to it for every P, Q * Q keys included,
and the check accepts P exactly when it gives f, also for P perturbed
away from the decomposition."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_laurent as ref
from toruschar import generators
from toruschar.errors import InternalCheckError
from toruschar.generators import (
    GeneratorPoly,
    decompose,
    expand,
    orbit_coefficients,
    q_image,
    q_symbol,
    tau_symbol,
)
from toruschar.groups import FAMILIES, GroupSpec
from toruschar.laurent import LaurentPoly, exponents
from toruschar.scalars import GaussRat
from toruschar.weyl import orbit_sum

coeffs = st.builds(
    lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3),
).filter(bool)


def rows_of(group, draw):
    """Rank-many true-exponent rows that repeat, vanish and come in r, -r
    pairs."""
    fresh = st.tuples(*[st.integers(-2, 2)] * group.factors)
    rows = []
    for _ in range(group.rank):
        kinds = ("new", "new", "zero", "repeat", "negate") if rows else ("new", "zero")
        kind = draw(st.sampled_from(kinds))
        if kind == "new":
            rows.append(draw(fresh))
        elif kind == "zero":
            rows.append((0,) * group.factors)
        else:
            row = draw(st.sampled_from(rows))
            rows.append(row if kind == "repeat" else tuple(-e for e in row))
    return rows


@st.composite
def invariants(draw, family):
    """A group of rank 1-4 with N = 1-2 and a GaussRat combination of
    orbit sums, plus a Q image for even SO."""
    group = GroupSpec(family, draw(st.integers(1, 4)), draw(st.integers(1, 2)))
    f = LaurentPoly.zero(group)
    for _ in range(draw(st.integers(1, 3))):
        f = f + orbit_sum(exponents(rows_of(group, draw)), group).scaled(draw(coeffs))
    if family == "SOeven" and draw(st.booleans()):
        f = f + q_image(group, rows_of(group, draw)).scaled(draw(coeffs))
    return group, f


def tau_symbols(group):
    return st.tuples(*[st.integers(-2, 2)] * group.factors).map(lambda a: tau_symbol(group, a))


def perturbed(p: GeneratorPoly, group, data) -> GeneratorPoly:
    """``p`` with one coefficient changed, one tau symbol swapped for
    another or one tau factor added, or ``p`` itself."""
    terms = dict(p.terms)
    kind = data.draw(st.sampled_from(("none", "coeff", "swap", "factor") if terms else ("coeff",)))
    if kind == "none":
        return p
    key = data.draw(st.sampled_from(sorted(terms))) if terms else ()
    if kind == "coeff":
        terms[key] = terms.get(key, GaussRat(0)) + data.draw(coeffs)
        return GeneratorPoly(terms)
    coeff = terms.pop(key)
    if kind == "swap" and any(kind == "tau" for kind, _ in key):
        k = data.draw(st.sampled_from([i for i, (kind, _) in enumerate(key) if kind == "tau"]))
        key = key[:k] + (data.draw(tau_symbols(group)),) + key[k + 1:]
    else:
        key = key + (data.draw(tau_symbols(group)),)
    terms[key] = terms.get(key, GaussRat(0)) + coeff
    return GeneratorPoly(terms)


def from_orbits(coefficients: dict, group) -> LaurentPoly:
    """The sum of c * S(m) over ``{orbit key: c}``: m the key's rows, the
    first negated when the parity is odd."""
    total = LaurentPoly.zero(group)
    for (rows, parity), c in coefficients.items():
        m = ((tuple(-e for e in rows[0]),) + rows[1:]) if parity else rows
        total = total + orbit_sum(m, group).scaled(c)
    return total


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_orbit_check_accepts_exactly_the_expand_round_trips(family, data):
    group, f = data.draw(invariants(family))
    p, want = generators._peel(f, group)  # {orbit key: c}, f = sum of c * S(m)
    assert from_orbits(want, group) == f
    q = perturbed(p, group, data)
    got = orbit_coefficients(q, group)
    back = ref.expand(q, group)
    assert from_orbits(got, group) == back == expand(q, group)
    assert (got == want) == (back == f)
    if q is p:
        assert got == want and decompose(f, group) == p


@st.composite
def q_products(draw):
    """Even SO of rank 1-4 with N = 1-2, and a sum of Q * Q and
    Q * Q * tau terms.  Q arguments come from a pool of one to three rows,
    each taken as it is or negated, so they repeat and pair up as r, -r."""
    group = GroupSpec("SOeven", draw(st.integers(1, 4)), draw(st.integers(1, 2)))
    pool = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * group.factors).filter(any),
                         min_size=1, max_size=3))
    row = st.sampled_from(pool).flatmap(lambda r: st.sampled_from((r, tuple(-e for e in r))))
    qs = st.lists(row, min_size=group.rank, max_size=group.rank).map(
        lambda rows: GeneratorPoly.symbol(*q_symbol(group, rows)))
    p = GeneratorPoly.zero()
    for _ in range(draw(st.integers(1, 2))):
        term = draw(qs) * draw(qs) * draw(coeffs)
        if draw(st.booleans()):
            term = term * GeneratorPoly.symbol(draw(tau_symbols(group)))
        p = p + term
    return group, p


@settings(max_examples=40, deadline=None)
@given(q_products())
def test_q_times_q_matches_the_laurent_reference(case):
    group, p = case
    got = orbit_coefficients(p, group)
    assert from_orbits(got, group) == expand(p, group) == ref.expand(p, group)


def test_a_generator_relation_multiplies_out_to_nothing():
    # Newton's identity for the eigenvalues x1, x2 and their inverses on
    # Sp(2), where e3 = e1: p3 = 3/2 p1 p2 - 1/2 p1^3 + 3 p1.
    group = GroupSpec("Sp", 2, 1)
    t1, t2, t3 = (tau_symbol(group, (a,)) for a in (1, 2, 3))
    p = GeneratorPoly({
        (t3,): 1, (t1, t2): Fraction(-3, 2), (t1, t1, t1): Fraction(1, 2), (t1,): -3,
    })
    assert len(p) == 4
    assert orbit_coefficients(p, group) == {}
    assert expand(p, group) == ref.expand(p, group) == LaurentPoly.zero(group)


def test_a_failed_check_still_names_the_round_trip(monkeypatch):
    group = GroupSpec("Sp", 2, 1)
    f = orbit_sum(exponents([[1], [2]]), group)
    monkeypatch.setattr(generators, "orbit_coefficients", lambda p, g: {})
    with pytest.raises(InternalCheckError, match="decomposition failed its expand round trip"):
        decompose(f, group)


def test_full_level_decompose_builds_no_laurent_image(monkeypatch):
    def built(*args):
        raise AssertionError("a generator image was built")

    group = GroupSpec("SOeven", 4, 2)
    f = orbit_sum(exponents([[1, 0], [0, 1], [1, 1], [2, -1]]), group)
    monkeypatch.setattr(generators, "tau_image", built)
    monkeypatch.setattr(generators, "q_image", built)
    with monkeypatch.context() as m:
        m.setattr(generators, "expand", built)
        p = decompose(f, group)
    got = expand(p, group)
    monkeypatch.undo()
    assert got == f == ref.expand(p, group)
