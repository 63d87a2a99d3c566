"""The hoisted bracket oracle against the per-call reference in
``reference_oracle``.

``LaurentPoly`` keeps one table per point kind, exact or float, with
the coefficients of its terms and of its log-partials, and one body of
``evaluate`` and of ``log_gradient_values`` sums it at both kinds; the
tables of ``TorusPoint`` keep monomial values, gradients, tau values and
the bracket's divisor once per point.  Neither may change a single bit:
float results are compared by the hex form of their real and imaginary
parts, exact results by equality.  The exact path builds no partial
polynomial, and a polynomial met at exact and float points in turn reads
the table of each point's kind.  The sampler of random points is
compared with its GaussRat body the same way.
"""

import gc
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_oracle as ref
from toruschar.generators import tau_image
from toruschar.errors import StructureError
from toruschar.groups import GroupSpec
from toruschar.groups import FAMILIES
from toruschar.laurent import LaurentPoly, exponents, zero_exponents
from toruschar.lie import (
    cartan_metric,
    log_gradient,
    numeric_bracket,
    omega_prime,
    random_eigenvalues,
    random_torus_point,
)
from toruschar.points import TorusPoint
from toruschar.poisson import TauPoly, bracket_poly, bracket_symbols, symbol_window
from toruschar.scalars import GaussRat
from toruschar.verify import BRACKET_GROUPS

SEEDS = (1101, 1102, 1103)


def _bits(z):
    if isinstance(z, complex):
        return (z.real.hex(), z.imag.hex())
    return z


def _window(group):
    syms = symbol_window(group, 2)
    pairs = [(a, b) for i, a in enumerate(syms) for b in syms[i:]]
    return syms, pairs, {a: tau_image(group, a) for a in syms}


def _fresh(point):
    return TorusPoint(point.group, point.coords, point.sqrts)


def _check_point(group, syms, pairs, images, pt, c=Fraction(1)):
    for a, b in pairs:
        got = numeric_bracket(images[a], images[b], pt, c)
        want = ref.numeric_bracket(images[a], images[b], pt, c)
        assert _bits(got) == _bits(want), (a, b)
    for a in syms:
        for j in (1, 2):
            got = [_bits(v) for v in log_gradient(images[a], pt, j)]
            assert got == [_bits(v) for v in ref.log_gradient(images[a], pt, j)], (a, j)


@pytest.mark.parametrize("group", BRACKET_GROUPS, ids=str)
def test_float_oracle_is_bitwise_the_reference(group):
    syms, pairs, images = _window(group)
    for seed in SEEDS:
        pt = random_torus_point(group, random.Random(seed), exact=False)
        _check_point(group, syms, pairs, images, pt)


@pytest.mark.parametrize("group", BRACKET_GROUPS, ids=str)
def test_exact_oracle_equals_the_reference(group):
    syms, pairs, images = _window(group)
    pt = random_torus_point(group, random.Random(SEEDS[0]), exact=True)
    _check_point(group, syms, pairs, images, pt, c=Fraction(3, 2))


@pytest.mark.parametrize("group", BRACKET_GROUPS, ids=str)
def test_exact_oracle_builds_no_partial(group, monkeypatch):
    # The exact gradients and bracket sum the exact table, as the float
    # ones sum the float table: with ``partial`` refused they still equal
    # the reference, which is computed first.
    syms, pairs, images = _window(group)
    pt = random_torus_point(group, random.Random(SEEDS[2]), exact=True)
    want_grads = [ref.log_gradient(images[a], pt, j) for a in syms for j in (1, 2)]
    want = [ref.numeric_bracket(images[a], images[b], pt) for a, b in pairs]

    def refuse(*args):
        raise AssertionError("the exact oracle built a partial polynomial")

    monkeypatch.setattr(LaurentPoly, "partial", refuse)
    pt = _fresh(pt)
    assert [log_gradient(images[a], pt, j) for a in syms for j in (1, 2)] == want_grads
    assert [numeric_bracket(images[a], images[b], pt) for a, b in pairs] == want


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_half_weights_through_from_sqrt(exact):
    group = GroupSpec("SOeven", 2, 2)
    halves = LaurentPoly(group, {
        exponents([[1, 3], [1, -1]], halves=True): GaussRat(2, 1),
        exponents([[-1, 1], [3, 1]], halves=True): GaussRat(Fraction(-3, 2)),
        exponents([[2, 0], [0, -2]], halves=True): 5,
    })
    polys = [halves, halves * tau_image(group, (1, 1)), tau_image(group, (1, -1))]
    sqrts = [[GaussRat(2), GaussRat(Fraction(-3, 5), 1)],
             [GaussRat(Fraction(1, 3)), GaussRat(-7)]]
    if not exact:
        sqrts = [[complex(v) for v in row] for row in sqrts]
    pt = TorusPoint.from_sqrt(group, sqrts)
    assert pt.exact is exact
    for f in polys:
        for h in polys:
            assert _bits(numeric_bracket(f, h, pt)) == _bits(ref.numeric_bracket(f, h, pt))
        for j in (1, 2):
            assert [_bits(v) for v in log_gradient(f, pt, j)] == [
                _bits(v) for v in ref.log_gradient(f, pt, j)
            ]
        assert _bits(f.evaluate(pt)) == _bits(ref.evaluate(f, pt))


@pytest.mark.parametrize("group", BRACKET_GROUPS, ids=str)
def test_tau_values_at_a_reused_point_match_a_fresh_point(group):
    syms, pairs, _ = _window(group)
    pt = random_torus_point(group, random.Random(SEEDS[1]), exact=False)
    for a, b in pairs:
        br = bracket_symbols(a, b, group, Fraction(1))
        got = _bits(br.evaluate(pt))
        assert got == _bits(br.evaluate(_fresh(pt))), (a, b)
        assert got == _bits(ref.tau_evaluate(br, pt)), (a, b)


def test_memo_entries_never_cross_polynomials():
    group = GroupSpec("SL", 3, 2)
    syms, _, images = _window(group)
    pt = random_torus_point(group, random.Random(SEEDS[2]), exact=False)
    # Distinct polynomials of one group with the same number of terms, each
    # a new object that is dropped after use, so a memo keyed by anything
    # coarser than the object, or by a reused id, returns a stale vector
    # or stale monomial values.  The value comes before the gradients on
    # even k and after them on odd k, so each fills the "values" entry.
    for k, a in enumerate(syms):
        f = images[a].scaled(k + 2)
        if k % 2 == 0:
            assert _bits(f.evaluate(pt)) == _bits(ref.evaluate(f, _fresh(pt))), a
        for j in (1, 2):
            assert [_bits(v) for v in log_gradient(f, pt, j)] == [
                _bits(v) for v in ref.log_gradient(f, pt, j)
            ], (a, j)
        if k % 2 == 1:
            assert _bits(f.evaluate(pt)) == _bits(ref.evaluate(f, _fresh(pt))), a
        assert pt.values[id(f)][0] is f
        del f
        gc.collect()
    for a, b in zip(syms, syms[1:]):
        f, h = images[a], images[b]
        assert _bits(numeric_bracket(f, h, pt)) == _bits(ref.numeric_bracket(f, h, pt))
        assert _bits(numeric_bracket(h, f, pt)) == _bits(ref.numeric_bracket(h, f, pt))
    # Two tau polynomials at one point: each sees only its own value.
    p = TauPoly(group, 1, {((1, 0), (0, 1)): 2, ((1, 1),): GaussRat(0, 1)})
    q = TauPoly(group, 1, {((1, 0),): 1, ((-1, 2), (2, -1)): -3})
    for poly in (p, q, p, q):
        assert _bits(poly.evaluate(pt)) == _bits(ref.tau_evaluate(poly, _fresh(pt)))


def test_point_tables_die_with_the_point():
    group = GroupSpec("SL", 3, 2)
    pt = random_torus_point(group, random.Random(SEEDS[0]), exact=False)
    # Fresh objects seen by this point only.  The metric for c is cached
    # before the counts are taken, so only the point can hold c.
    f = tau_image(group, (1, 1)) * tau_image(group, (2, -1))
    h = tau_image(group, (0, 1)).scaled(3)
    c = Fraction(2, 7)
    cartan_metric(group, Fraction(2, 7))
    before = [sys.getrefcount(x) for x in (f, h, c)]
    f.evaluate(pt)
    numeric_bracket(f, h, pt, c)
    assert pt.values[id(f)][0] is f and pt.scales[id(c)][0] is c
    assert pt.grads[id(f)][0] is f and pt.grads[id(h)][0] is h
    assert [sys.getrefcount(x) for x in (f, h, c)] != before
    del pt
    gc.collect()
    assert [sys.getrefcount(x) for x in (f, h, c)] == before


@pytest.mark.parametrize("family", FAMILIES)
def test_sampler_is_the_reference(family):
    # One factor above rank 10 draws from [-n, n]; several columns per
    # generator, and the generator state must end where the reference's
    # does, so later draws of a suite do not shift.
    for rank in range(1, 13):
        for factors in (1, 2):
            group = GroupSpec(family, rank, factors)
            for exact in (True, False):
                for seed in SEEDS:
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    for _ in range(3):
                        got = random_eigenvalues(group, rng, exact)
                        want = ref.random_eigenvalues(group, ref_rng, exact)
                        assert [type(v) for v in got] == [type(v) for v in want]
                        assert [_bits(v) for v in got] == [_bits(v) for v in want], group
                    assert rng.getstate() == ref_rng.getstate()


def test_metric_memo_follows_c():
    # SL too: its projected gradients are memoised per point and must not
    # carry c.
    for group in (GroupSpec("Sp", 2, 2), GroupSpec("SL", 3, 2)):
        syms, pairs, images = _window(group)
        pt = random_torus_point(group, random.Random(SEEDS[0]), exact=False)
        for c in (Fraction(1), Fraction(2, 7), 3, Fraction(1)):
            for a, b in pairs[:20]:
                got = numeric_bracket(images[a], images[b], pt, c)
                assert _bits(got) == _bits(ref.numeric_bracket(images[a], images[b], pt, c))


@pytest.mark.parametrize("family", FAMILIES)
def test_omega_prime_off_exact_input_is_the_reference(family):
    # Complex and int vectors take the float of c * multiplier, as the
    # former ``CartanMetric.pair`` did; GaussRat ones the Fraction.
    rng = random.Random(SEEDS[1])
    group = GroupSpec(family, 3, 1)

    def vectors(kind):
        if kind is complex:
            return [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
        return [kind(rng.randint(-5, 5)) for _ in range(3)]

    for c in (Fraction(1), Fraction(2, 7), Fraction(-3, 2)):
        for kind in (complex, int, GaussRat):
            for _ in range(20):
                pair1 = (vectors(kind), vectors(kind))
                pair2 = (vectors(kind), vectors(kind))
                got = omega_prime(group, c, pair1, pair2)
                want = ref.omega_prime(group, c, pair1, pair2)
                assert type(got) is type(want)
                if isinstance(got, float):
                    got, want = got.hex(), want.hex()
                assert _bits(got) == _bits(want), (c, pair1, pair2)


def _float_twin(point):
    """The point with its exact coordinates converted to complex."""
    return TorusPoint(point.group, [[complex(v) for v in row] for row in point.coords])


@pytest.mark.parametrize("group", BRACKET_GROUPS, ids=str)
def test_float_term_tables_never_reach_exact_points(group):
    exact_pt = random_torus_point(group, random.Random(SEEDS[1]), exact=True)
    float_pt = _float_twin(exact_pt)
    tau = bracket_symbols((1, 0), (1, 2), group, Fraction(1)) + TauPoly(
        group, 1, {((0, 1), (1, 1)): GaussRat(Fraction(-2, 3), 1), (): 5}
    )
    laurent = tau_image(group, (1, 1)) * tau_image(group, (2, -1))
    for poly, want in ((tau, ref.tau_evaluate), (laurent, ref.evaluate)):
        for pt in (exact_pt, float_pt, exact_pt):
            got = poly.evaluate(pt)
            assert isinstance(got, GaussRat if pt.exact else complex)
            assert _bits(got) == _bits(want(poly, _fresh(pt)))
    # The Laurent gradients, too, read the table of each point's kind.
    for pt in (exact_pt, float_pt, exact_pt):
        for j in (1, 2):
            got = log_gradient(laurent, _fresh(pt), j)
            assert all(isinstance(v, GaussRat if pt.exact else complex) for v in got)
            assert [_bits(v) for v in got] == [
                _bits(v) for v in ref.log_gradient(laurent, _fresh(pt), j)
            ]


def test_trusted_tau_polys_match_the_reference():
    group = GroupSpec("SL", 3, 2)
    c = Fraction(1)
    p = TauPoly(group, c, {((1, 0), (0, 1)): 2, ((1, 1),): GaussRat(0, 1)})
    q = bracket_symbols((1, 0), (-1, 2), group, c)
    built = [p + q, p - q, p * q, q.scaled(GaussRat(Fraction(3, 4), -1)), bracket_poly(p, q)]
    for exact in (False, True):
        pt = random_torus_point(group, random.Random(SEEDS[2]), exact=exact)
        for poly in built:
            assert _bits(poly.evaluate(pt)) == _bits(ref.tau_evaluate(poly, _fresh(pt)))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_group_checks_take_equal_groups_and_refuse_others(exact):
    group = GroupSpec("SL", 3, 2)
    twin = GroupSpec("SL", 3, 2)
    assert twin == group and twin is not group
    images = _window(group)[2]
    pt = random_torus_point(group, random.Random(SEEDS[0]), exact=exact)
    twin_pt = TorusPoint(twin, pt.coords)
    tau = bracket_symbols((1, 0), (1, 2), group, Fraction(1))
    f, h = images[(1, 0)], images[(1, 1)] * images[(0, 1)]
    assert _bits(tau.evaluate(twin_pt)) == _bits(ref.tau_evaluate(tau, pt))
    assert _bits(f.evaluate(twin_pt)) == _bits(ref.evaluate(f, pt))
    assert _bits(numeric_bracket(f, h, twin_pt)) == _bits(ref.numeric_bracket(f, h, pt))
    gl = GroupSpec("GL", 3, 2)
    gl_pt = TorusPoint(gl, pt.coords)
    for call in (
        lambda: tau.evaluate(gl_pt),
        lambda: f.evaluate(gl_pt),
        lambda: log_gradient(f, gl_pt, 1),
        lambda: numeric_bracket(f, h, gl_pt),
    ):
        with pytest.raises(StructureError):
            call()


# Parts of float square roots of coordinates; the signed zeros reach
# products whose zero parts differ only in sign.
_PARTS = (-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 3.0)


@st.composite
def _float_point_and_polys(draw):
    """A float point from square roots and a few polynomials of its group:
    zero, a constant, and random ones (SL keys canonicalized by the
    constructor, odd stored exponents for SOeven)."""
    group = GroupSpec(draw(st.sampled_from(FAMILIES)), draw(st.integers(1, 3)),
                      draw(st.integers(1, 2)))
    sqrts = []
    for _ in range(group.factors):
        row = []
        for _ in range(group.rank):
            z = complex(draw(st.sampled_from(_PARTS)), draw(st.sampled_from(_PARTS)))
            row.append(z if z else 1 + 0j)
        sqrts.append(row)
    pt = TorusPoint.from_sqrt(group, sqrts)
    coeff = st.builds(GaussRat, st.fractions(-3, 3, max_denominator=12),
                      st.fractions(-2, 2, max_denominator=12))
    step = 1 if group.allows_half_weights else 2
    entry = st.integers(-3, 3).map(lambda e: e * step)
    row = st.tuples(*[entry] * group.factors)
    key = st.tuples(*[row] * group.rank)
    polys = [LaurentPoly.zero(group), LaurentPoly(group, {zero_exponents(group): draw(coeff)})]
    polys += [LaurentPoly(group, draw(st.dictionaries(key, coeff, max_size=6)))
              for _ in range(draw(st.integers(1, 4)))]
    order = draw(st.permutations(range(len(polys))))
    value_first = draw(st.lists(st.booleans(), min_size=len(polys), max_size=len(polys)))
    return pt, [(polys[k], value_first[k]) for k in order]


@settings(max_examples=60)
@given(_float_point_and_polys())
def test_random_polys_share_a_float_point_bitwise(case):
    pt, polys = case
    factors = range(1, pt.group.factors + 1)
    for f, value_first in polys:
        value = _bits(ref.evaluate(f, _fresh(pt)))
        grads = [[_bits(v) for v in ref.log_gradient(f, _fresh(pt), j)] for j in factors]
        if value_first:
            assert _bits(f.evaluate(pt)) == value
        assert [[_bits(v) for v in log_gradient(f, pt, j)] for j in factors] == grads
        if not value_first:
            assert _bits(f.evaluate(pt)) == value
