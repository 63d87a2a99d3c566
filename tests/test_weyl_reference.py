"""The orbit-sized Weyl sums, the orbit images, the counted
level-reduction step and the Q image against the references in
``reference_weyl``, the arrangements against the sorted distinct
permutations, and the level reduction against the orbit-sized body in
``reference_decompose`` (the body by presentation from rank 4 on)."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_decompose
import reference_laurent
import reference_weyl as ref
from toruschar import generators, weyl
from toruschar.generators import expand, q_image
from toruschar.errors import ResourceLimitError
from toruschar.groups import FAMILIES, GroupSpec
from toruschar.laurent import LaurentPoly, canonical_mod_relations, check_exponents, exponents
from toruschar.scalars import ONE, GaussRat
from toruschar.weyl import (
    level_of_monomial,
    orbit_rep,
    orbit_sum,
    pattern_sum,
)


@st.composite
def monomials(draw, integer_weights=False, max_rank=4, group=None):
    """A group of rank 1 to ``max_rank`` with N = 1-2, unless ``group`` is
    given, and an exponent matrix whose rows repeat, vanish, come in r, -r
    pairs, carry half weights (SOeven) and, for SL, are shifted off the
    canonical presentation."""
    if group is None:
        family = draw(st.sampled_from(FAMILIES))
        group = GroupSpec(family, draw(st.integers(1, max_rank)), draw(st.integers(1, 2)))
    family = group.family
    if family == "SOeven" and not integer_weights:
        entry = st.integers(-4, 4)  # stored doubled: odd means half weight
    else:
        entry = st.integers(-2, 2).map(lambda e: 2 * e)
    fresh = st.tuples(*[entry] * group.factors)
    rows = []
    for _ in range(group.rank):
        kinds = ("new", "new", "zero", "repeat", "negate") if rows else ("new", "new", "zero")
        kind = draw(st.sampled_from(kinds))
        if kind == "new":
            rows.append(draw(fresh))
        elif kind == "zero":
            rows.append((0,) * group.factors)
        else:
            row = draw(st.sampled_from(rows))
            rows.append(row if kind == "repeat" else tuple(-e for e in row))
    if family == "SL":
        shift = draw(fresh)
        rows = [tuple(e + s for e, s in zip(row, shift)) for row in rows]
    return group, tuple(rows)


@settings(max_examples=300, deadline=None)
@given(monomials())
def test_orbit_sums_match_enumeration(case):
    group, m = case
    assert orbit_sum(m, group) == ref.orbit_sum(m, group)
    assert pattern_sum(m, group) == ref.pattern_sum(m, group)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_orbits_matches_enumeration(data):
    # A few orbits of one group, each with a nonzero Gaussian coefficient:
    # SL keys off their canonical shift, even-SO keys of both parities and
    # with zero rows come from ``monomials``.
    group, raw = data.draw(monomials())
    raws = [raw] + [m for _, m in data.draw(st.lists(monomials(group=group), max_size=3))]
    parts = st.fractions(-3, 3, max_denominator=4)
    coeffs, want = {}, LaurentPoly.zero(group)
    for raw in raws:
        (m,) = LaurentPoly.monomial(group, raw).terms
        key = orbit_rep(m, group)
        if key in coeffs:
            continue
        c = data.draw(st.tuples(parts, parts).map(lambda p: GaussRat(*p)).filter(bool))
        coeffs[key] = c
        want = want + ref.orbit_sum(m, group).scaled(c)
    assert weyl._sum_orbits(coeffs, group) == want


def _orbit_sum_by_the_key_rule(m, group):
    """``orbit_sum`` as it read ``m`` before it took the key straight,
    through ``LaurentPoly(group, {m: ONE})``, whose constructor then
    hashed the key (``dict``), ran ``check_exponents`` and canonicalised
    SL keys.  The rule is spelled out here, not taken from
    ``laurent.stored_key``, which now holds it for both callers."""
    (key,) = {m: ONE}
    check_exponents(key, group)
    key = canonical_mod_relations(key, group)
    return weyl._sum_orbits({orbit_rep(key, group): ONE}, group)


def _orbit_sum_through_a_laurent_poly(m, group):
    (key,) = LaurentPoly(group, {m: ONE}).terms
    return weyl._sum_orbits({orbit_rep(key, group): ONE}, group)


def _outcome(fn, m, group):
    """The terms ``fn(m, group)`` returns, in order, or the type and
    message of what it raises."""
    try:
        return list(fn(m, group).terms.items())
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_orbit_sum_accepts_and_refuses_as_through_a_laurent_poly(data):
    # Stored keys, SL keys off their canonical shift and even-SO half
    # weights come from ``monomials``; then an entry may become a bool, a
    # float or an odd int (a half weight outside even SO), the shape may
    # lose or gain a row or an entry, and rows may be given as lists
    # (unhashable, which a bare ``check_exponents`` would accept).
    group, m = data.draw(monomials())
    rows = [list(row) for row in m]
    odd = st.integers(-4, 4).map(lambda e: 2 * e + 1)
    entry = st.one_of(st.booleans(), st.floats(-4, 4), odd)
    for _ in range(data.draw(st.integers(0, 2))):
        row = data.draw(st.sampled_from(rows))
        if row:
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(entry)
    shape = data.draw(st.sampled_from(["same", "same", "row less", "row more", "entry less", "entry more"]))
    if shape == "row less":
        rows.pop()
    elif shape == "row more":
        rows.append([0] * group.factors)
    elif shape == "entry less":
        rows[-1].pop()
    elif shape == "entry more":
        rows[-1].append(0)
    as_list = data.draw(st.sampled_from(["none", "none", "one row", "every row", "outer"]))
    key = tuple(row if as_list == "every row" else tuple(row) for row in rows)
    if as_list == "one row" and key:
        key = key[:-1] + (rows[-1],)
    elif as_list == "outer":
        key = list(key)
    want = _outcome(_orbit_sum_by_the_key_rule, key, group)
    assert _outcome(orbit_sum, key, group) == want
    assert _outcome(_orbit_sum_through_a_laurent_poly, key, group) == want


@settings(max_examples=300, deadline=None)
@given(monomials(max_rank=5))
def test_images_match_the_flip_loop_in_order(case):
    group, raw = case
    (m,) = LaurentPoly.monomial(group, raw).terms  # orbits are built on stored keys
    stab, images = weyl._images(orbit_rep(m, group), group)
    images = list(images)
    assert stab * len(images) == group.weyl_order
    assert images == ref.images(m, group, group.family == "SOeven", weyl.WEYL_CAP)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_arrangements_are_the_sorted_distinct_permutations(data):
    # Rows from a small pool with the zero row in it: all distinct (the
    # ``itertools.permutations`` path), equal rows and several zero rows.
    factors = data.draw(st.integers(1, 2))
    row = st.tuples(*[st.integers(-2, 2)] * factors)
    pool = [(0,) * factors] + data.draw(st.lists(row, min_size=1, max_size=6))
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    assert list(weyl._arrangements(rows)) == sorted(set(itertools.permutations(rows)))


def test_soeven_sign_pair_and_zero_row():
    g = GroupSpec("SOeven", 2, 1)
    # rows (r, -r): W keeps the parity class, the pattern group reaches both
    pair = exponents([[1], [-1]])
    orb, pat = orbit_sum(pair, g), pattern_sum(pair, g)
    assert len(orb) == 2 and set(orb.terms.values()) == {GaussRat(2)}
    assert set(orb.terms) == {pair, exponents([[-1], [1]])}
    assert len(pat) == 4 and set(pat.terms.values()) == {GaussRat(2)}
    assert orb == ref.orbit_sum(pair, g) and pat == ref.pattern_sum(pair, g)
    # rows (r, 0): flipping the zero row joins the two sign classes
    with_zero = exponents([[1], [0]])
    orb = orbit_sum(with_zero, g)
    assert set(orb.terms) == {
        exponents([[1], [0]]), exponents([[-1], [0]]),
        exponents([[0], [1]]), exponents([[0], [-1]]),
    }
    assert orb == ref.orbit_sum(with_zero, g)


def test_pattern_sum_caps_each_weyl_orbit(monkeypatch):
    # Rows (1), (-1), (2) on even SO(6): the pattern orbit has 24
    # monomials, two W-orbits of 12.  A cap of 12 passes, 11 is refused
    # before any arrangement of the rows is asked for.
    g = GroupSpec("SOeven", 3, 1)
    m = exponents([[1], [-1], [2]])
    want = ref.pattern_sum(m, g)  # it enumerates W, under the real cap
    monkeypatch.setattr(weyl, "WEYL_CAP", 12)
    got = pattern_sum(m, g)
    assert len(got) == 24 and got == want

    def arranged(rows):
        raise AssertionError("an orbit over the cap was built")

    monkeypatch.setattr(weyl, "_arrangements", arranged)
    monkeypatch.setattr(weyl, "WEYL_CAP", 11)
    with pytest.raises(ResourceLimitError, match="orbit of 12 monomials exceeds cap 11"):
        pattern_sum(m, g)


def step(m_sub, alpha, group):
    """``m_sub`` canonicalised, and ``{orbit key: count}`` of tau(alpha) *
    pattern_sum(m_sub) by the one ``_times_tau`` call the reduction makes,
    over the pattern group: the Weyl group of Sp for even SO, the group
    itself otherwise."""
    (m_sub,) = LaurentPoly.monomial(group, m_sub).terms  # canonical for SL
    pattern = GroupSpec("Sp", group.rank, group.factors) if group.family == "SOeven" else group
    counts = {}
    generators._times_tau({orbit_rep(m_sub, pattern): 1}, alpha, pattern, 1, counts)
    return m_sub, counts


def counted(counts, group):
    """The sum of count * pattern_sum(rows) over ``{(rows, parity): count}``."""
    total = LaurentPoly.zero(group)
    for (rows, _), count in counts.items():
        total = total + pattern_sum(rows, group).scaled(count)
    return total


@settings(max_examples=150, deadline=None)
@given(monomials(integer_weights=True))
def test_lower_terms_match_enumeration(case):
    """One step of the recursion ``reference_decompose.reduce_rows``: m_sub
    is m less its largest row alpha.  The orbits one level above m_sub are
    the enumerated top, m's orbit alone; the rest are the enumerated lower
    part (with P(m_sub) once more for the constant 1 of odd SO)."""
    group, raw = case
    (m,) = LaurentPoly.monomial(group, raw).terms
    level = level_of_monomial(m, group)
    assume(level > 0)
    pos, doubled = max(((i, row) for i, row in enumerate(m) if any(row)), key=lambda t: t[1])
    m_sub = m[:pos] + ((0,) * group.factors,) + m[pos + 1:]
    m_sub, counts = step(m_sub, generators._true_row(doubled), group)
    top = {k: c for k, c in counts.items() if level_of_monomial(k[0], group) == level}
    lower = {k: c for k, c in counts.items() if k not in top}
    assert [rows for rows, _ in top] == [orbit_rep(m, group)[0]]
    want_top, want_lower = ref.step_product(m_sub, doubled, group)
    if group.family == "SOodd":
        want_lower = want_lower + pattern_sum(m_sub, group)
    assert (counted(top, group), counted(lower, group)) == (want_top, want_lower)


@settings(max_examples=150, deadline=None)
@given(monomials(integer_weights=True), st.data())
def test_step_product_splits_the_packed_product(case, data):
    group, m_sub = case
    alpha = data.draw(st.tuples(*[st.integers(-2, 2)] * group.factors))
    m_sub, counts = step(m_sub, alpha, group)
    want = reference_laurent.tau_image(group, alpha) * pattern_sum(m_sub, group)
    assert counted(counts, group) == want


@settings(max_examples=200, deadline=None)
@given(monomials(integer_weights=True))
def test_reduction_matches_orbit_sum_and_reference(case):
    group, raw = case
    (m,) = LaurentPoly.monomial(group, raw).terms  # decompose peels canonical keys
    key = orbit_rep(m, group)
    assert expand(generators._reduce_orbit(key, group), group) == orbit_sum(m, group)
    fast = generators._reduce_pattern(key[0], group)
    # The orbit-sized body costs up to 0.8 s per rank-4 key: count by
    # presentation from rank 4 on, as the reference ``decompose`` does.
    reduce = reference_decompose.reduce_by_presentation
    if group.rank <= 3:
        reduce = reference_decompose.reduce_pattern_monomial
    reference_decompose.CACHE.clear()
    try:
        level = level_of_monomial(m, group)
        assert reduce(m, group, level + 1) == fast
    finally:
        reference_decompose.CACHE.clear()


@st.composite
def q_arguments(draw):
    """An even SO group of rank 1-4 with N = 1-2 and n arguments that
    repeat, come in alpha, -alpha pairs or vanish."""
    group = GroupSpec("SOeven", draw(st.integers(1, 4)), draw(st.integers(1, 2)))
    fresh = st.tuples(*[st.integers(-2, 2)] * group.factors)
    alphas = []
    for _ in range(group.rank):
        kinds = ("new", "new", "zero", "repeat", "negate") if alphas else ("new", "zero")
        kind = draw(st.sampled_from(kinds))
        if kind == "new":
            alphas.append(draw(fresh))
        elif kind == "zero":
            alphas.append((0,) * group.factors)
        else:
            alpha = draw(st.sampled_from(alphas))
            alphas.append(alpha if kind == "repeat" else tuple(-a for a in alpha))
    return group, tuple(alphas)


@settings(max_examples=150, deadline=None)
@given(q_arguments())
def test_q_image_matches_signed_walk(case):
    group, alphas = case
    assert q_image(group, alphas) == ref.q_image(group, alphas)
