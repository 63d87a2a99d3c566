"""``decompose``, whose peel proves invariance, against the reference in
``reference_decompose``, which checks every Weyl generator first, peels
in (level, key) order and reduces each orbit from its presentation with
the orbit-sized step (by presentations from rank 4 on):
equal results on invariant inputs, the same exception class and message
(witness included) on perturbed ones.  ``_times_tau`` against the earlier
body there: the same dict in the same insertion order.  The closed-form
reduction against the recursions it replaced, on orbit keys and on
presentations: the same result on the drawn key and on every key the
recursion cached on the way there.  Each gives one result over all the
presentations of a pattern orbit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_decompose as ref
from toruschar import generators
from toruschar.errors import DomainError
from toruschar.groups import FAMILIES, GroupSpec
from toruschar.laurent import LaurentPoly, canonical_mod_relations, exponents
from toruschar.scalars import GaussRat
from toruschar.weyl import is_invariant, level_of_monomial, orbit_rep, orbit_sum

coeffs = st.builds(
    lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3),
).filter(bool)


def rows_of(group, entry):
    row = st.tuples(*[entry] * group.factors)
    return st.lists(row, min_size=group.rank, max_size=group.rank)


@st.composite
def invariants(draw):
    """A group of rank 1-4 with N = 1-2 and a GaussRat combination of
    orbit sums (raw SL rows, canonicalised by ``orbit_sum``), with a full
    level orbit and Q images likely for even SO."""
    family = draw(st.sampled_from(FAMILIES))
    group = GroupSpec(family, draw(st.integers(1, 4)), draw(st.integers(1, 2)))
    f = LaurentPoly.zero(group)
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(rows_of(group, st.integers(-2, 2)))
        f = f + orbit_sum(exponents(rows), group).scaled(draw(coeffs))
    if family == "SOeven" and draw(st.booleans()):
        alphas = draw(rows_of(group, st.integers(-2, 2)))
        f = f + generators.q_image(group, alphas).scaled(draw(coeffs))
    return group, f


def outcome(decompose, f, group):
    """The result, or the class and message of the exception raised, with
    the reference's cache cleared first so every level is computed again."""
    ref.CACHE.clear()
    try:
        return decompose(f, group)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    finally:
        ref.CACHE.clear()


def reference(f, group):
    """The reference ``decompose``: orbit-sized reductions up to rank 3,
    which cost up to 0.8 s per rank-4 key and 20 s per rank-5 one, then
    reductions by presentation."""
    reduce = ref.reduce_pattern_monomial if group.rank <= 3 else ref.reduce_by_presentation
    return outcome(lambda f, group: ref.decompose(f, group, reduce), f, group)


@settings(max_examples=150, deadline=None)
@given(invariants())
def test_invariant_inputs_match_reference(case):
    group, f = case
    fast = outcome(generators.decompose, f, group)
    assert isinstance(fast, generators.GeneratorPoly)
    assert fast == reference(f, group)


@settings(max_examples=150, deadline=None)
@given(invariants(), st.data())
def test_perturbed_inputs_fail_like_reference(case, data):
    group, f = case
    kind = data.draw(st.sampled_from(("add", "rescale", "drop") if f else ("add",)))
    if kind == "add":
        # Odd stored entries are half weights, allowed only for even SO.
        entry = st.integers(-4, 4) if group.allows_half_weights else st.integers(-2, 2).map(lambda e: 2 * e)
        m = tuple(map(tuple, data.draw(rows_of(group, entry))))
        g = f + LaurentPoly.monomial(group, m, data.draw(coeffs))
    else:
        m = data.draw(st.sampled_from(sorted(f.terms)))
        terms = dict(f.terms)
        if kind == "drop":
            del terms[m]
        else:
            terms[m] = terms[m] * data.draw(coeffs.filter(lambda c: c != 1))
        g = LaurentPoly(group, terms)
    fast = outcome(generators.decompose, g, group)
    assert fast == reference(g, group)
    if not g.has_half_weights() and not is_invariant(g, group):
        assert fast[0] is DomainError
        assert fast[1].startswith("input is not W-invariant; moved by perm")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_times_tau_matches_reference_in_order(data):
    # One tau step against the earlier body: the same dict in the same
    # insertion order, added into an ``out`` that already holds some keys.
    # Rows come from a small pool with the zero row in it, so keys repeat
    # rows and have zero rows; random signs give both even-SO parities.
    family = data.draw(st.sampled_from(FAMILIES))
    group = GroupSpec(family, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)))
    row = st.tuples(*[st.integers(-2, 2)] * group.factors)
    pool = [(0,) * group.factors] + data.draw(st.lists(row, min_size=1, max_size=3))
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        m = []
        for _ in range(group.rank):
            sign = data.draw(st.sampled_from((2, -2)))
            m.append(tuple(sign * e for e in data.draw(st.sampled_from(pool))))
        key = orbit_rep(canonical_mod_relations(tuple(m), group), group)
        terms[key] = data.draw(st.integers(-3, 3).filter(bool))
    alpha = data.draw(row)
    factor = data.draw(st.sampled_from((1, -1, 2, 7, -(2 ** 65))))
    seed = {k: 5 for k in list(terms)[:data.draw(st.integers(0, len(terms)))]}
    got, want = dict(seed), dict(seed)
    generators._times_tau(terms, alpha, group, factor, got)
    ref.times_tau(terms, alpha, group, factor, want)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize(
    "family, keys, alpha",
    [
        ("SOeven", [[[0]]], (0,)),  # tau(0) on SOeven(1)
        ("SOeven", [[[0], [0]]], (0,)),
        ("SOeven", [[[0], [1]]], (0,)),
        ("SOeven", [[[0], [1], [2]]], (1,)),  # one zero row: both parities
        ("SOeven", [[[0], [0], [1]]], (1,)),  # two zero rows: one step
        ("SOeven", [[[0, 0], [1, 0]]], (-1, 2)),  # alpha's first entry negative
        ("SOeven", [[[0, 0], [0, 0], [1, 0]]], (0, -1)),
        # A key after one whose nonzero rows were stepped.
        ("SOeven", [[[0], [0], [1]], [[0], [1], [1]]], (-1,)),
        ("Sp", [[[0], [1], [2]]], (1,)),
        ("Sp", [[[0, 0], [0, 0], [1, 1]]], (-1, 1)),
        ("SOodd", [[[0], [1]]], (1,)),  # the constant term comes first
        ("SOodd", [[[0], [0], [2]], [[0], [1], [2]]], (-2,)),
    ],
)
def test_times_tau_steps_a_zero_row_block_as_the_reference(family, keys, alpha):
    # The block of zero rows is stepped once: the same dict in the same
    # insertion order as the reference, which shifts it by +alpha and
    # -alpha, into an empty ``out`` and into one holding each key already.
    group = GroupSpec(family, len(keys[0]), len(alpha))
    terms = {orbit_rep(exponents(rows), group): 3 - k for k, rows in enumerate(keys)}
    want = {}
    ref.times_tau(terms, alpha, group, -2, want)
    for seed in ({}, {k: 5 for k in reversed(want)}):
        got, expected = dict(seed), dict(seed)
        generators._times_tau(terms, alpha, group, -2, got)
        ref.times_tau(terms, alpha, group, -2, expected)
        assert list(got.items()) == list(expected.items())


def keyed(m, group):
    """The library's reduction of m's pattern orbit, in closed form from
    its orbit key."""
    return generators._reduce_pattern(orbit_rep(m, group)[0], group)


def by_presentation(m, group):
    return ref.reduce_by_presentation(m, group, bound=group.rank + 1)


def reduction(reduce, m, group):
    """The result of ``reduce(m, group)``, or the class and message of its
    exception, from a cleared cache, and the reference cache it leaves."""
    ref.CACHE.clear()
    try:
        result = reduce(m, group)
    except Exception as exc:  # compared, not swallowed
        result = type(exc), str(exc)
    cache = dict(ref.CACHE)
    ref.CACHE.clear()
    return result, cache


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_keyed_reduction_matches_reference(data):
    # The closed form on orbit keys against the recursion by presentations,
    # which re-derives every key from its presentation: the same result,
    # and the closed form's result on every key that recursion caches on
    # the way.  Stored keys mix rows with their negatives (negated rows of
    # signed keys, both even-SO parities), zero and repeated rows, GL rows
    # whose nonzero entries are all negative (the zero row is then not the
    # smallest) and SL keys shifted by a row; odd entries of even SO are
    # half weights, which both refuse.
    family = data.draw(st.sampled_from(FAMILIES))
    group = GroupSpec(family, data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)))
    row = st.tuples(*[st.integers(-2, 2)] * group.factors)
    negative = st.tuples(*[st.integers(-2, 0)] * group.factors)
    pool = [(0,) * group.factors] + data.draw(
        st.lists(negative if family == "GL" and data.draw(st.booleans()) else row, min_size=1, max_size=3))
    scale = data.draw(st.sampled_from((2, 1))) if family == "SOeven" else 2
    m = []
    for _ in range(group.rank):
        sign = scale * data.draw(st.sampled_from((1, -1) if group.signed else (1,)))
        m.append(tuple(sign * e for e in data.draw(st.sampled_from(pool))))
    if family == "SL":
        shift = data.draw(row)
        m = [tuple(e + 2 * c for e, c in zip(r, shift)) for r in m]
    m = canonical_mod_relations(tuple(m), group)
    want, cache = reduction(by_presentation, m, group)
    assert reduction(keyed, m, group)[0] == want
    for (g, rows), ints in cache.items():
        assert generators._reduce_pattern(rows, g) == ints


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closed_form_matches_the_recursion(data):
    # The closed form against the keyed recursion it replaced: the same
    # result on the drawn key and on every key the recursion cached on the
    # way there (each m_sub and each orbit of A), and up to rank 3 the
    # orbit-sized reduction's result, with the Q term of even SO from the
    # orbit-sized ``reduce_orbit``.  Rows come from a pool of up to three,
    # with the zero row in it (half the even-SO draws have none, so both
    # parities occur), are negated at random and SL keys are shifted.
    family = data.draw(st.sampled_from(FAMILIES))
    group = GroupSpec(family, data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)))
    row = st.tuples(*[st.integers(-2, 2)] * group.factors)
    pool = data.draw(st.lists(row, min_size=1, max_size=3))
    if not (family == "SOeven" and data.draw(st.booleans())):
        pool.append((0,) * group.factors)
    m = []
    for _ in range(group.rank):
        sign = 2 * data.draw(st.sampled_from((1, -1) if group.signed else (1,)))
        m.append(tuple(sign * e for e in data.draw(st.sampled_from(pool))))
    if family == "SL":
        shift = data.draw(row)
        m = [tuple(e + 2 * c for e, c in zip(r, shift)) for r in m]
    m = canonical_mod_relations(tuple(m), group)
    key = orbit_rep(m, group)
    level = level_of_monomial(m, group)
    want, cache = reduction(lambda m, group: ref.reduce_rows(key[0], level, group), m, group)
    assert generators._reduce_pattern(key[0], group) == want
    for (g, rows), ints in cache.items():
        assert generators._reduce_pattern(rows, g) == ints
    if group.rank <= 3:
        assert reduction(lambda m, group: ref.reduce_pattern_monomial(m, group, level + 1), m, group)[0] == want
        ref.CACHE.clear()
        try:
            assert generators._reduce_orbit(key, group) == ref.reduce_orbit(m, group)
        finally:
            ref.CACHE.clear()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduction_does_not_depend_on_the_presentation(data):
    # P(m) is symmetric in the rows of m and in their signs (Macdonald, I.2
    # and I.6), so its reduction is one generator polynomial for the whole
    # pattern orbit: the reduction on presentations gives one result over
    # random row orders and sign patterns, and so does the keyed one, which
    # reduces the orbit key alone.  Rows come from a pool with the zero row
    # in it, so they repeat and some are zero.
    family = data.draw(st.sampled_from(FAMILIES))
    group = GroupSpec(family, data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)))
    row = st.tuples(*[st.integers(-2, 2)] * group.factors)
    pool = [(0,) * group.factors] + data.draw(st.lists(row, min_size=1, max_size=3))
    rows = [tuple(2 * e for e in data.draw(st.sampled_from(pool))) for _ in range(group.rank)]
    base = canonical_mod_relations(tuple(rows), group)
    presentations = []
    for _ in range(data.draw(st.integers(2, 4))):
        m = data.draw(st.permutations(base))
        if group.signed:
            m = [tuple(-e for e in r) if data.draw(st.booleans()) else r for r in m]
        presentations.append(tuple(m))
    for reduce in (by_presentation, keyed):
        results = [reduction(reduce, m, group)[0] for m in presentations]
        assert all(r == results[0] for r in results)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_orbit_reduction_from_the_key_matches_the_presentation(data):
    # ``_reduce_orbit`` takes the level, the Q symbol and its sign from the
    # orbit key; the reference takes them from a presentation m, through
    # ``q_symbol``, and reduces the pattern sum of m by presentations (the
    # orbit-sized step takes 20 s on one rank-5 Sp key).  Half the even-SO
    # keys have no zero row (full level, so a Q term) and rows negated at
    # random, so both parities occur; rows repeat and SL keys are shifted.
    family = data.draw(st.sampled_from(FAMILIES))
    group = GroupSpec(family, data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)))
    row = st.tuples(*[st.integers(-2, 2)] * group.factors)
    if family == "SOeven" and data.draw(st.booleans()):
        pool = data.draw(st.lists(row.filter(any), min_size=1, max_size=3))
    else:
        pool = [(0,) * group.factors] + data.draw(st.lists(row, min_size=1, max_size=3))
    m = []
    for _ in range(group.rank):
        sign = 2 * data.draw(st.sampled_from((1, -1) if group.signed else (1,)))
        m.append(tuple(sign * e for e in data.draw(st.sampled_from(pool))))
    if family == "SL":
        shift = data.draw(row)
        m = [tuple(e + 2 * c for e, c in zip(r, shift)) for r in m]
    m = canonical_mod_relations(tuple(m), group)
    fast = generators._reduce_orbit(orbit_rep(m, group), group)
    ref.CACHE.clear()
    try:
        assert fast == ref.reduce_orbit(m, group, ref.reduce_by_presentation)
    finally:
        ref.CACHE.clear()
