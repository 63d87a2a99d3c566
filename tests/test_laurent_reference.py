"""The Laurent multiply against the per-pair body in ``reference_laurent``,
and ``expand``, which multiplies out in the Weyl orbit-sum basis, against
both Laurent multiply-outs there: the per-term ``expand`` and the
prefix-shared ``expand_shared``, and ``tau_image`` against the row-by-row
image there.  All by exact equality; one SL product also pins the
library's term order, which ``decompose`` sees.

Exponent entries include values around 2**7, 2**15, 2**31, 2**63 and
2**64, so exponent sums cross every machine-word width, with no cap.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_laurent as ref
from toruschar import generators
from toruschar.generators import GeneratorPoly, expand, q_symbol, tau_image, tau_symbol
from toruschar.groups import FAMILIES, GroupSpec
from toruschar.laurent import LaurentPoly, exponents
from toruschar.scalars import GaussRat, ONE

EDGES = tuple(
    sorted({s * (2 ** k + d) for k in (6, 7, 14, 15, 30, 31, 62, 63, 64)
            for d in (-1, 0, 1) for s in (1, -1)})
)

# Denominators 7, 11 and the prime 2**64 - 59 make the common denominator
# of a generator polynomial a real lcm, which the int accumulators of
# ``expand`` must divide back out of each result coefficient.
coeffs = st.builds(
    lambda a, b, d: GaussRat(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-2, 2),
    st.one_of(st.integers(1, 3), st.sampled_from((7, 11, 2 ** 64 - 59))),
)


@st.composite
def groups(draw, max_rank):
    family = draw(st.sampled_from(FAMILIES))
    return GroupSpec(family, draw(st.integers(1, max_rank)), draw(st.integers(1, 3)))


def stored_entries(group):
    """Doubled exponents: odd (half weights) only for SOeven."""
    raw = st.one_of(st.integers(-6, 6), st.sampled_from(EDGES))
    if group.allows_half_weights:
        return raw
    return raw.map(lambda e: e - (e & 1))


@st.composite
def laurent_polys(draw, group, max_terms=5):
    row = st.tuples(*[stored_entries(group)] * group.factors)
    key = st.tuples(*[row] * group.rank)
    return LaurentPoly(group, draw(st.dictionaries(key, coeffs, max_size=max_terms)))


@st.composite
def generator_polys(draw, group):
    """Keys are sorted multisets drawn from a pool of 1-4 symbols, so many
    terms share a prefix; SOeven adds a Q symbol, whose image is i^n
    times an integer polynomial (n = 3 gives the unit -i)."""
    entry = st.one_of(st.integers(-2, 2), st.sampled_from(EDGES))
    alpha = st.tuples(*[entry] * group.factors)
    pool = [tau_symbol(group, draw(alpha)) for _ in range(draw(st.integers(1, 4)))]
    if group.family == "SOeven":
        alphas = [draw(alpha.filter(any)) for _ in range(group.rank)]
        pool.append(q_symbol(group, alphas)[0])
    key = st.lists(st.sampled_from(pool), max_size=3).map(lambda syms: tuple(sorted(syms)))
    return GeneratorPoly(draw(st.dictionaries(key, coeffs, max_size=6)))


@settings(max_examples=300)
@given(st.data())
def test_mul_matches_reference(data):
    group = data.draw(groups(max_rank=4))
    a = data.draw(laurent_polys(group))
    b = data.draw(laurent_polys(group))
    assert a * b == ref.mul(a, b)
    # (a + b)(a - b): the cross terms cancel pair by pair.
    assert (a + b) * (a - b) == ref.mul(a + b, a - b)


@settings(max_examples=100)
@given(st.data())
def test_pow_matches_reference(data):
    group = data.draw(groups(max_rank=3))
    a = data.draw(laurent_polys(group, max_terms=3))
    k = data.draw(st.integers(0, 3))
    assert a ** k == ref.power(a, k)


@settings(max_examples=150)
@given(st.data())
def test_expand_matches_reference(data):
    group = data.draw(groups(max_rank=3))
    p = data.draw(generator_polys(group))
    assert expand(p, group) == ref.expand_shared(p, group) == ref.expand(p, group)


@settings(max_examples=30)
@given(st.data())
def test_expand_rank3_q_matches_reference(data):
    # groups() rarely draws rank 3, where Q carries the unit -i.
    group = GroupSpec("SOeven", 3, data.draw(st.integers(1, 2)))
    p = data.draw(generator_polys(group))
    assert expand(p, group) == ref.expand_shared(p, group) == ref.expand(p, group)


@settings(max_examples=100)
@given(st.data())
def test_expand_real_parts_cancel(data):
    # Each term c * K is paired with ((-re c + yi) / size) * K * tau(0), and
    # tau(0) is the constant matrix size, so the real parts of the term
    # coefficients cancel and their imaginary parts add up to im c + y.
    # One int accumulator of ``expand`` then cancels and the other does
    # not: the real one for real images, the imaginary one under a Q image
    # of odd rank (a unit +-i).
    group = data.draw(groups(max_rank=3))
    p = data.draw(generator_polys(group))
    ys = st.integers(-3, 3).map(lambda y: y or 1)
    zero_tau = tau_symbol(group, (0,) * group.factors)
    size = GaussRat(group.matrix_size)
    q = p
    imag = GeneratorPoly.zero()
    for key, c in p.terms.items():
        y = GaussRat(0, data.draw(ys))
        q = q + GeneratorPoly({tuple(sorted(key + (zero_tau,))): (y - c.re) / size})
        imag = imag + GeneratorPoly({key: GaussRat(0, c.im) + y})
    out = expand(q, group)
    assert out == ref.expand_shared(q, group) == expand(imag, group)
    if not any(sym[0] == "q" for key in p.terms for sym in key):
        assert all(not c.re for c in out.terms.values())


@settings(max_examples=50)
@given(st.data())
def test_expand_cancelling_to_zero(data):
    # tau(0) is the constant matrix size, so (tau(0) - size) * p is zero.
    group = data.draw(groups(max_rank=3))
    p = data.draw(generator_polys(group))
    zero_tau = tau_symbol(group, (0,) * group.factors)
    size = GaussRat(group.matrix_size)
    q = GeneratorPoly({tuple(sorted(key + (zero_tau,))): c for key, c in p.terms.items()})
    q = q - p.scaled(size)
    out = expand(q, group)
    assert out == ref.expand_shared(q, group) == ref.expand(q, group) == LaurentPoly.zero(group)


def test_expand_rank3_q_with_large_denominators():
    # Q at rank 3 carries the unit i^3 = -i; tau images carry 1.  The
    # coefficient denominators have lcm 7 * 11 * (2**64 - 59), and the
    # result coefficients must come back in lowest terms.
    group = GroupSpec("SOeven", 3, 2)
    big = 2 ** 64 - 59
    q = q_symbol(group, [(1, 0), (0, -1), (2, 1)])[0]
    t1 = tau_symbol(group, (1, 1))
    t2 = tau_symbol(group, (0, 3))
    p = GeneratorPoly({
        (q,): GaussRat(Fraction(1, 7), Fraction(2, 7)),
        tuple(sorted((q, t1))): GaussRat(Fraction(3, 11), Fraction(-1, 11)),
        tuple(sorted((q, t1, t2))): GaussRat(Fraction(5, big), 0),
        (t1, t2): GaussRat(0, Fraction(-1, big)),
        (): GaussRat(Fraction(1, 2), Fraction(1, 3)),
    })
    out = expand(p, group)
    assert out == ref.expand_shared(p, group) == ref.expand(p, group)
    assert {c._d for c in out.terms.values()} == {6, 7, 11, big}
    assert any(c._b for c in out.terms.values()) and any(c._a for c in out.terms.values())


@pytest.mark.parametrize("coeff", [
    GaussRat(3), GaussRat(0, -2), GaussRat(Fraction(3, 2), Fraction(-5, 7)), GaussRat(-1, 1),
], ids=["real", "imaginary", "mixed", "mixed-unit"])
@pytest.mark.parametrize("family, rank, alphas", [
    ("Sp", 2, ["t(1,0)", "t(1,1)"]),
    ("SL", 3, ["t(1,0)", "t(0,2)", "t(1,-1)"]),
    ("SOeven", 1, ["q(1,2)"]),  # Q's unit i swaps the parts in the last step
    ("SOeven", 3, ["q(1,0;0,1;1,1)", "t(0,1)"]),  # and -i in the prefix
    ("SOeven", 2, ["q(1,0;2,1)", "t(1,1)"]),
])
def test_each_term_makes_one_last_step(monkeypatch, coeff, family, rank, alphas):
    # A term A + Bi with both parts nonzero (after the unit of its Q
    # factors) is packed into one int, so its last step, from the seed
    # with the packed int as the factor, runs once for both parts: one
    # step per factor in all, whatever the coefficient.
    group = GroupSpec(family, rank, 2)
    key = []
    for text in alphas:
        args = [tuple(map(int, v.split(","))) for v in text[2:-1].split(";")]
        key.append(tau_symbol(group, args[0]) if text[0] == "t" else q_symbol(group, args)[0])
    p = GeneratorPoly({tuple(key): coeff})
    steps = []
    for name in ("_times_tau", "_times_q"):
        def counted(*args, real=getattr(generators, name)):
            steps.append(args[1])
            real(*args)
        monkeypatch.setattr(generators, name, counted)
    got = expand(p, group)
    assert len(steps) == len(key)
    assert got == ref.expand(p, group) == ref.expand_shared(p, group)


def test_empty_operands_and_width_edges():
    for family in FAMILIES:
        group = GroupSpec(family, 2, 2)
        zero = LaurentPoly.zero(group)
        one = LaurentPoly.constant(group, 1)
        assert zero * one == zero == one * zero
        assert expand(GeneratorPoly.zero(), group) == zero
        assert expand(GeneratorPoly.constant(3), group) == one.scaled(3)
        for e in EDGES:
            a = LaurentPoly.monomial(group, exponents([[e, -1], [0, 2]]), ONE) + one
            b = LaurentPoly.monomial(group, exponents([[e, 3], [-e, 0]]), ONE)
            assert a * b == ref.mul(a, b)
            t = GeneratorPoly.symbol(tau_symbol(group, (e, 1)))
            image = ref.tau_image(group, (e, 1))
            assert expand(t * t, group) == ref.mul(image, image)


def test_tau_image_matches_row_by_row_reference():
    # ``tau_image`` is ``expand`` of one symbol; the reference adds up the
    # rows one by one.  Float evaluation sums in sorted order, so equal
    # sorted terms keep every float value bit-identical.
    grid = range(-2, 3)
    for family in FAMILIES:
        for rank in range(1, 5):
            for n in (1, 2):
                group = GroupSpec(family, rank, n)
                for alpha in itertools.product(grid, repeat=n):
                    got, want = tau_image(group, alpha), ref.tau_image(group, alpha)
                    assert got == want and got.sorted_terms() == want.sorted_terms()


def test_sl_product_term_order_is_pinned():
    # Canonicalizing each pair's sum (ref.mul) gives the same terms in
    # another order.  The library canonicalizes the raw product once per
    # key, and ``decompose`` presents each orbit by the first key it meets,
    # so this order reaches its output.
    group = GroupSpec("SL", 2, 1)
    a = LaurentPoly(group, {((0,), (2,)): 1, ((0,), (8,)): 2, ((0,), (0,)): -1})
    b = LaurentPoly(group, {((0,), (4,)): 1, ((4,), (0,)): -1, ((0,), (2,)): 1})
    want = [
        (((0,), (6,)), GaussRat(1)), (((2,), (0,)), GaussRat(-1)),
        (((0,), (12,)), GaussRat(2)), (((0,), (4,)), GaussRat(-2)),
        (((0,), (10,)), GaussRat(2)), (((4,), (0,)), GaussRat(1)),
        (((0,), (2,)), GaussRat(-1)),
    ]
    assert list((a * b).terms.items()) == want
    per_pair = ref.mul(a, b)
    assert per_pair == a * b and list(per_pair.terms.items()) != want
