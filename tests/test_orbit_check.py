"""``orbit_coefficients`` multiplies a generator polynomial out in the
Weyl orbit-sum basis; it closes ``decompose`` and ``expand`` is built on
it.  Against the Laurent multiply-out of ``reference_laurent.expand``:
the orbit coefficients sum back to it for every P, Q * Q keys included,
and the check accepts P exactly when it gives f, also for P perturbed
away from the decomposition.  Against the prefix chain it replaced,
``reference_decompose.orbit_coefficients``: the same coefficients for
every P, with one step per node of the prefix trie, and at the edges of
the packed Gaussian integers (a real part at the bound, a real part that
cancels, negative imaginary parts, a 3000-factor term)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_decompose
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
from toruschar.scalars import GaussRat, I
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


parts = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
gauss_coeffs = st.builds(
    lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)), parts, parts, st.integers(1, 6),
).filter(bool)


def q_symbols(group):
    rows = st.tuples(*[st.integers(-2, 2)] * group.factors).filter(any)
    return st.lists(rows, min_size=group.rank, max_size=group.rank).map(
        lambda alphas: q_symbol(group, alphas)[0])


@st.composite
def generator_polys(draw, family):
    """A group of rank 1-4 with N = 1-2 and up to five terms over a pool of
    one to three tau symbols and, for even SO, one or two Q symbols, so
    keys share prefixes and repeat factors (tau(a)^3).  A key has up to
    three tau factors and up to three Q factors (one from rank 3 on, where
    a Q step costs |W| per key); coefficients have parts of either sign,
    up to 10^30.  The constant term and the empty polynomial come up."""
    group = GroupSpec(family, draw(st.integers(1, 4)), draw(st.integers(1, 2)))
    taus = draw(st.lists(tau_symbols(group), min_size=1, max_size=3, unique=True))
    qs = draw(st.lists(q_symbols(group), min_size=1, max_size=2)) if family == "SOeven" else []
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = [draw(st.sampled_from(taus)) for _ in range(draw(st.integers(0, 3)))]
        if qs:
            count = draw(st.integers(0, 3 if group.rank < 3 else 1))
            key += [draw(st.sampled_from(qs)) for _ in range(count)]
        terms[tuple(key)] = draw(gauss_coeffs)
    return group, GeneratorPoly(terms)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trie_walk_matches_the_prefix_chain(family, data):
    group, p = data.draw(generator_polys(family))
    assert orbit_coefficients(p, group) == reference_decompose.orbit_coefficients(p, group)


def trie_nodes(p: GeneratorPoly) -> int:
    """The number of distinct nonempty prefixes of the keys of ``p``."""
    return len({key[:d] for key in p.terms for d in range(1, len(key) + 1)})


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_expand_steps_once_per_trie_node(family, data):
    group, p = data.draw(generator_polys(family))
    steps = []
    with pytest.MonkeyPatch.context() as m:
        for name in ("_times_tau", "_times_q"):
            def counted(*args, real=getattr(generators, name)):
                steps.append(args[1])
                real(*args)
            m.setattr(generators, name, counted)
        expand(p, group)
    assert len(steps) == trie_nodes(p)


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("count", range(5))
def test_every_unit_of_i_matches_the_prefix_chain(rank, count):
    # Q is i^n times its orbit step, so count Q factors rotate the
    # coefficient by i^(n * count): every unit at rank 1, and at rank 3.
    group = GroupSpec("SOeven", rank, 1)
    q = q_symbol(group, [(k,) for k in range(1, rank + 1)])[0]
    t = tau_symbol(group, (1,))
    p = GeneratorPoly({(q,) * count: GaussRat(2, -3), (t,) + (q,) * count: GaussRat(-1, 4)})
    got = orbit_coefficients(p, group)
    assert got == reference_decompose.orbit_coefficients(p, group)
    assert from_orbits(got, group) == ref.expand(p, group)


@pytest.mark.parametrize("c", [7, -7])
def test_a_real_part_at_the_bound_unpacks(c):
    # tau(0) is 2n + 1 on odd SO, so c * tau(0)^3 has |A| = |c| * 5^3, the
    # bound on the real parts, with B = 0.
    group = GroupSpec("SOodd", 2, 1)
    p = GeneratorPoly({(tau_symbol(group, (0,)),) * 3: c})
    got = orbit_coefficients(p, group)
    assert got == {(((0,), (0,)), 0): GaussRat(Fraction(125 * c, group.weyl_order))}
    assert got == reference_decompose.orbit_coefficients(p, group)


def test_a_real_part_that_cancels_keeps_its_imaginary_part():
    # tau(1)^2 = tau(2) + 2 on Sp(1), so the real parts of S(2) cancel.
    group = GroupSpec("Sp", 1, 1)
    t1, t2 = tau_symbol(group, (1,)), tau_symbol(group, (2,))
    p = GeneratorPoly({(t1, t1): 1, (t2,): GaussRat(-1, 1)})
    got = orbit_coefficients(p, group)
    assert got == {(((4,),), 0): I, (((0,),), 0): GaussRat(1)}
    assert got == reference_decompose.orbit_coefficients(p, group)


@pytest.mark.parametrize("family, rank", [("Sp", 2), ("SOeven", 1), ("SOeven", 2)])
def test_negative_imaginary_parts_unpack(family, rank):
    group = GroupSpec(family, rank, 1)
    t1, t2 = tau_symbol(group, (1,)), tau_symbol(group, (2,))
    terms = {(t1, t2): GaussRat(3, -5), (t1,): GaussRat(-2, -9), (): GaussRat(Fraction(1, 3), -1)}
    if family == "SOeven":
        q = q_symbol(group, [(k,) for k in range(1, rank + 1)])[0]
        terms[(t1, q)] = GaussRat(2, -3)  # times i^n: 3 + 2i at rank 1, -2 + 3i at rank 2
        terms[(q,)] = GaussRat(-4, 1)
    p = GeneratorPoly(terms)
    got = orbit_coefficients(p, group)
    assert any(c._b < 0 for c in got.values())
    assert got == reference_decompose.orbit_coefficients(p, group)
    assert from_orbits(got, group) == ref.expand(p, group)


def test_a_3000_factor_term_walks_without_recursion():
    group = GroupSpec("Sp", 2, 1)
    t0, t1, t2 = (tau_symbol(group, (a,)) for a in (0, 1, 2))
    p = GeneratorPoly({(t0,) * 2998 + (t1, t2): GaussRat(1, -1)})
    got = orbit_coefficients(p, group)
    assert got == reference_decompose.orbit_coefficients(p, group)
    # tau(0) is 2n = 4 on Sp(2).
    tail = orbit_coefficients(GeneratorPoly({(t1, t2): GaussRat(1, -1)}), group)
    assert got == {k: c * 4 ** 2998 for k, c in tail.items()}


def test_the_constant_and_the_empty_polynomial():
    for family in FAMILIES:
        group = GroupSpec(family, 2, 1)
        assert orbit_coefficients(GeneratorPoly.zero(), group) == {}
        p = GeneratorPoly.constant(GaussRat(-3, 5))
        got = orbit_coefficients(p, group)
        assert got == reference_decompose.orbit_coefficients(p, group)
        assert from_orbits(got, group) == LaurentPoly.constant(group, GaussRat(-3, 5))
