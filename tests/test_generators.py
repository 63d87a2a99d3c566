import gc
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import reference_decompose
import reference_laurent as ref
from toruschar.errors import (
    DomainError,
    InternalCheckError,
    ResourceLimitError,
    UnsupportedInputError,
)
from toruschar import generators, weyl
from toruschar.generators import (
    GeneratorPoly,
    decompose,
    expand,
    q_image,
    q_symbol,
    tau_image,
    tau_symbol,
)
from toruschar.groups import FAMILIES, GroupSpec
from toruschar.laurent import LaurentPoly, exponents
from toruschar.scalars import GaussRat, I, ONE
from toruschar.verify import random_invariant
from toruschar.weyl import is_invariant, level_of_monomial, orbit_rep, orbit_sum

SL22 = GroupSpec("SL", 2, 2)
SO3 = GroupSpec("SOodd", 1, 1)
SO4 = GroupSpec("SOeven", 2, 2)
SO2 = GroupSpec("SOeven", 1, 1)


def test_tau_image_examples():
    f = tau_image(SL22, (1, 0))
    expected = LaurentPoly(
        SL22,
        {
            exponents([[1, 0], [0, 0]]): ONE,
            exponents([[0, 0], [1, 0]]): ONE,
        },
    )
    assert f == expected
    g = tau_image(SO3, (1,))
    x = LaurentPoly.variable(SO3, 1, 1)
    assert g == x + LaurentPoly.variable(SO3, 1, 1, -1) + LaurentPoly.constant(SO3, 1)
    # alpha = 0 gives the matrix size
    for group, size in [
        (GroupSpec("GL", 3, 1), 3),
        (GroupSpec("Sp", 2, 1), 4),
        (GroupSpec("SOodd", 2, 1), 5),
        (GroupSpec("SOeven", 3, 1), 6),
    ]:
        assert tau_image(group, (0,)) == LaurentPoly.constant(group, size)


def test_tau_image_invariant():
    rng = random.Random(0)
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        for n in (1, 2, 3):
            g = GroupSpec(fam, n, 2)
            for _ in range(5):
                alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
                assert is_invariant(tau_image(g, alpha), g)


def test_q_image_rank_one():
    f = q_image(SO2, ((1,),))
    x = LaurentPoly.variable(SO2, 1, 1)
    assert f == (x - LaurentPoly.variable(SO2, 1, 1, -1)).scaled(I)


def test_q_image_invariant_and_alpha_symmetries():
    # Q is invariant (it lies in the image of the invariant ring), is
    # symmetric under permuting its arguments, changes sign when one
    # argument is negated, and vanishes when an argument is zero.
    rng = random.Random(4)
    for n, N in ((2, 2), (3, 1)):
        g = GroupSpec("SOeven", n, N)
        for _ in range(5):
            alphas = [
                tuple(rng.randint(-2, 2) for _ in range(N)) for _ in range(n)
            ]
            f = q_image(g, alphas)
            assert is_invariant(f, g)
            swapped = [alphas[1], alphas[0]] + list(alphas[2:])
            assert q_image(g, swapped) == f
            negated = [tuple(-a for a in alphas[0])] + list(alphas[1:])
            assert q_image(g, negated) == f.scaled(-1)
        zeroed = [(0,) * N] + [
            tuple(rng.randint(-2, 2) for _ in range(N)) for _ in range(n - 1)
        ]
        assert not q_image(g, zeroed)


def test_q_image_explicit_n2():
    # Direct expansion of the closed form for alpha1=(1,0), alpha2=(0,1):
    # i^2 [ (x1^(1,0)-x1^-(1,0))(x2^(0,1)-x2^-(0,1))
    #       + (x2^(1,0)-x2^-(1,0))(x1^(0,1)-x1^-(0,1)) ].
    # The two summands carry the same sign; an alternating sign would break
    # Weyl invariance (see the module docstring in generators.py).
    f = q_image(SO4, ((1, 0), (0, 1)))

    def diff(row_idx, vec):
        rows_pos = [[0, 0], [0, 0]]
        rows_pos[row_idx] = list(vec)
        rows_neg = [[0, 0], [0, 0]]
        rows_neg[row_idx] = [-a for a in vec]
        return LaurentPoly.monomial(SO4, exponents(rows_pos)) - LaurentPoly.monomial(
            SO4, exponents(rows_neg)
        )

    term_id = diff(0, (1, 0)) * diff(1, (0, 1))
    term_swap = diff(1, (1, 0)) * diff(0, (0, 1))
    assert f == (term_id + term_swap).scaled(I * I)


def test_q_symbol_canonicalization():
    sym, sign = q_symbol(SO4, ((0, 1), (1, 0)))
    sym2, sign2 = q_symbol(SO4, ((1, 0), (0, 1)))
    assert sym == sym2 and sign == sign2 == ONE
    sym3, sign3 = q_symbol(SO4, ((-1, 0), (0, 1)))
    assert sym3 == sym and sign3 == -ONE
    sym4, sign4 = q_symbol(SO4, ((0, 0), (0, 1)))
    assert sym4 is None and not sign4


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.6, 2.0])
def test_tau_symbol_refuses_entries_that_are_not_integers(bad):
    with pytest.raises(TypeError):
        tau_symbol(GroupSpec("GL", 1, 2), (1, bad))
    assert tau_symbol(SO4, (np.int64(-1), True)) == ("tau", (1, -1))


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.4, 1.9])
def test_q_symbol_refuses_entries_that_are_not_integers(bad):
    # Truncated, 0.4 would read as 0 and Q(1.9; 0.4) as the zero (None, 0).
    with pytest.raises(TypeError):
        q_symbol(GroupSpec("SOeven", 2, 1), ((1,), (bad,)))
    assert q_symbol(SO4, ((np.int64(-1), 0), (0, True))) == (("q", ((0, 1), (1, 0))), -ONE)


def test_q_image_wrong_family_or_count():
    with pytest.raises(DomainError):
        q_image(GroupSpec("Sp", 2, 1), ((1,), (1,)))
    with pytest.raises(DomainError):
        q_image(SO4, ((1, 0),))


def test_decompose_gl2_example():
    gl2 = GroupSpec("GL", 2, 1)
    f = LaurentPoly.monomial(gl2, exponents([[1], [1]]), GaussRat(2))
    p = decompose(f, gl2)
    t1 = tau_symbol(gl2, (1,))
    t2 = tau_symbol(gl2, (2,))
    assert p.terms == {(t1, t1): ONE, (t2,): -ONE}
    assert expand(p, gl2) == f


def test_decompose_tau_images_are_base_cases():
    rng = random.Random(8)
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        for n in (1, 2, 3):
            if fam == "SL" and n == 1:
                continue
            g = GroupSpec(fam, n, 2)
            alpha = (rng.randint(-2, 2), rng.randint(-2, 2))
            f = tau_image(g, alpha)
            p = decompose(f, g)
            assert expand(p, g) == f
            if any(alpha):
                # a single tau symbol with coefficient 1, plus at most an
                # explicit constant (the odd-SO "+1")
                tau_keys = [k for k in p.terms if k != ()]
                assert len(tau_keys) == 1
                (key,) = tau_keys
                assert len(key) == 1 and key[0][0] == "tau"
                assert p.terms[key] == ONE
                # the chosen representative has the same image (e.g. for
                # SL(2) the symbols tau(a) and tau(-a) coincide as functions)
                assert tau_image(g, key[0][1]) == f


def test_decompose_q_image_rank1():
    f = q_image(SO2, ((1,),))
    p = decompose(f, SO2)
    sym, _ = q_symbol(SO2, ((1,),))
    assert p.terms == {(sym,): ONE}


def test_decompose_rejects_non_invariant():
    gl2 = GroupSpec("GL", 2, 1)
    with pytest.raises(DomainError) as err:
        decompose(LaurentPoly.variable(gl2, 1, 1), gl2)
    assert "perm" in str(err.value)


def test_decompose_rejects_half_weights():
    g = GroupSpec("SOeven", 2, 1)
    f = orbit_sum(((1,), (1,)), g)  # doubled entries 1 encode exponent 1/2
    assert f.has_half_weights()
    with pytest.raises(UnsupportedInputError):
        decompose(f, g)


def test_decompose_linear():
    rng = random.Random(12)
    for fam in ("GL", "Sp", "SOeven"):
        g = GroupSpec(fam, 2, 2)
        for _ in range(5):
            f = random_invariant(g, rng)
            h = random_invariant(g, rng)
            lhs = decompose(f + h, g)
            rhs = decompose(f, g) + decompose(h, g)
            assert lhs == rhs


def test_roundtrip_all_families_small():
    rng = random.Random(13)
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        for _ in range(8):
            n = rng.randint(2 if fam == "SL" else 1, 3)
            g = GroupSpec(fam, n, rng.randint(1, 2))
            f = random_invariant(g, rng)
            if not f:
                continue
            p = decompose(f, g)
            assert expand(p, g) == f


def test_reduction_constant_convention():
    # The multiplicity constant in the level reduction, with orbit sums
    # taken over all group elements (stabilizers included), is n - l + 1
    # for the symmetric-group pattern and 2(n - l + 1) for the signed one.
    # Witnessed here directly: the product of a level-1 image with the
    # level-(l-1) sum minus that multiple of the level-l sum drops level.
    from toruschar.weyl import level_of_poly, pattern_sum

    gl3 = GroupSpec("GL", 3, 1)
    m_sub = exponents([[1], [0], [0]])
    m_full = exponents([[1], [2], [0]])
    lhs = tau_image(gl3, (2,)) * pattern_sum(m_sub, gl3)
    n_min_l_plus_1 = 2  # n = 3, l = 2
    diff = lhs - pattern_sum(m_full, gl3).scaled(GaussRat(n_min_l_plus_1))
    assert level_of_poly(diff, gl3) < 2

    sp2 = GroupSpec("Sp", 2, 1)
    m_sub = exponents([[1], [0]])
    m_full = exponents([[1], [2]])
    lhs = tau_image(sp2, (2,)) * pattern_sum(m_sub, sp2)
    doubled_const = 2 * (2 - 2 + 1)  # 2(n - l + 1), n = l = 2
    diff = lhs - pattern_sum(m_full, sp2).scaled(GaussRat(doubled_const))
    assert level_of_poly(diff, sp2) < 2


def test_soeven_top_level_uses_q():
    g = GroupSpec("SOeven", 2, 1)
    f = orbit_sum(exponents([[1], [2]]), g)
    p = decompose(f, g)
    assert any(sym[0] == "q" for key in p.terms for sym in key)
    assert expand(p, g) == f


def test_generator_poly_json_round_trip():
    g = SO4
    f = orbit_sum(exponents([[1, 0], [0, 1]]), g)
    p = decompose(f, g)
    blob = json.dumps(p.to_json(), sort_keys=True)
    back = GeneratorPoly.from_json(json.loads(blob), g)
    assert back == p
    assert expand(back, g) == f


def test_expand_examples():
    g = GroupSpec("Sp", 2, 2)
    t = tau_symbol(g, (1, 0))
    s = tau_symbol(g, (0, 1))
    p = GeneratorPoly.symbol(t)
    assert expand(p, g) == ref.tau_image(g, (1, 0))
    p2 = GeneratorPoly({(t, s): ONE})
    assert expand(p2, g) == ref.tau_image(g, (1, 0)) * ref.tau_image(g, (0, 1))
    assert expand(GeneratorPoly.zero(), g) == LaurentPoly.zero(g)


def test_peeling_reports_terms_it_cannot_cancel():
    # x_1 alone is not S_2-invariant: its orbit sum x_1 + x_2 finds no x_2
    # to cancel, which must not pass silently.
    group = GroupSpec("GL", 2, 1)
    f = LaurentPoly.variable(group, 1, 1)
    with pytest.raises(InternalCheckError, match="could not cancel"):
        generators._peel(f, group)


@pytest.mark.parametrize(
    "family, rank, factors, rows",
    [
        ("Sp", 6, 1, [[2], [2], [2], [2], [4], [6]]),
        ("SOodd", 5, 2, [[2, 0], [2, 0], [0, 2], [2, -2], [4, 2]]),
        ("SOeven", 5, 2, [[2, 0], [2, 0], [0, 2], [-2, 2], [4, 2]]),
    ],
)
def test_reduction_builds_no_orbit(monkeypatch, family, rank, factors, rows):
    def built(*args):
        raise AssertionError("the level reduction built an orbit")

    group = GroupSpec(family, rank, factors)
    (m,) = LaurentPoly.monomial(group, exponents(rows)).terms
    with monkeypatch.context() as patch:
        patch.setattr(weyl, "_images", built)
        patch.setattr(generators, "_images", built)
        reduced = generators._reduce_orbit(orbit_rep(m, group), group)
    assert expand(reduced, group) == orbit_sum(m, group)


def test_reduction_returns_nonzero_ints():
    for family in FAMILIES:
        group = GroupSpec(family, 3, 2)
        (m,) = LaurentPoly.monomial(group, exponents([[2, 0], [4, -2], [2, 2]])).terms
        key = orbit_rep(m, group)
        assert expand(generators._reduce_orbit(key, group), group) == orbit_sum(m, group)
        ints = generators._reduce_pattern(key[0], group)
        assert ints and all(type(v) is int and v for v in ints.values())


@pytest.mark.parametrize("family", ["GL", "Sp", "SOodd", "SOeven"])
def test_inexact_beta_quotient_is_an_internal_error(monkeypatch, family):
    # The recursion the closed form replaced (``reference_decompose``): on
    # rank 1 the step for x^2 has beta = |P| = R(0), 1 for GL and 2
    # otherwise, so the quotient is exact; doubled counts make it a half.
    real = generators._times_tau

    def doubled(terms, alpha, group, factor, out):
        real(terms, alpha, group, factor, out)
        for k in out:
            out[k] *= 2

    monkeypatch.setattr(generators, "_times_tau", doubled)
    group = GroupSpec(family, 1, 1)
    reference_decompose.CACHE.clear()
    with pytest.raises(InternalCheckError, match="reduction left a fraction"):
        reference_decompose.reduce_rows(orbit_rep(exponents([[2]]), group)[0], 1, group)
    assert not reference_decompose.CACHE


def _steps_then(monkeypatch, change):
    """Patch ``_times_tau`` to run and then apply ``change`` to its ``out``."""
    real = generators._times_tau

    def changed(terms, alpha, group, factor, out):
        real(terms, alpha, group, factor, out)
        change(out)

    monkeypatch.setattr(generators, "_times_tau", changed)


def test_reduction_guards_raise(monkeypatch):
    # Each guard of the recursion the closed form replaced
    # (``reference_decompose.reduce_rows``), at the top of a level-2 Sp key.
    group = GroupSpec("Sp", 2, 1)
    m = exponents([[1], [2]])

    def reduce(m, group):
        return reference_decompose.reduce_rows(orbit_rep(m, group)[0], level_of_monomial(m, group), group)

    reference_decompose.CACHE.clear()
    with monkeypatch.context() as patch:  # no beta: m's orbit is missing
        _steps_then(patch, lambda out: out.pop((m, 0), None))
        with pytest.raises(InternalCheckError, match="reduction constant mismatch"):
            reduce(m, group)
    with monkeypatch.context() as patch:  # an orbit of A at the level of m
        _steps_then(patch, lambda out: out.setdefault((exponents([[3], [5]]), 0), 1))
        with pytest.raises(InternalCheckError, match="reduction constant mismatch"):
            reduce(m, group)
    with pytest.raises(UnsupportedInputError, match="half-integer weight"):
        reduce(((2,), (3,)), GroupSpec("SOeven", 2, 1))
    # An SL key that is not canonical: zeroing its largest row leaves level 1.
    with pytest.raises(InternalCheckError, match="did not drop by one"):
        reduce(exponents([[1], [2]]), GroupSpec("SL", 2, 1))
    assert not reference_decompose.CACHE


def test_decompose_retains_no_state():
    # 300 decompose calls on distinct orbit sums (the five families at rank
    # 4, N = 2, exponents in [-8, 8]) leave under 0.5 MB allocated once
    # their inputs and results are dropped: the reduction keeps nothing
    # between calls, and the caches that remain are small or bounded.
    rng = random.Random(30)
    groups = [GroupSpec(family, 4, 2) for family in FAMILIES]
    cases: dict = {}
    while len(cases) < 300:
        group = groups[len(cases) % len(groups)]
        rows = [[rng.randint(-8, 8) for _ in range(2)] for _ in range(4)]
        (m,) = LaurentPoly.monomial(group, exponents(rows)).terms
        cases.setdefault((group, orbit_rep(m, group)), m)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for (group, _), m in cases.items():
            f = orbit_sum(m, group)
            assert decompose(f, group)
        del f
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 500_000, f"{retained} bytes retained"


def test_expand_streams_each_orbit_into_the_result():
    # One 3840-monomial orbit of Sp(5): streaming it into the result
    # peaks at the result itself (ratio 1.00); building the orbit as a
    # dict first and copying it peaked at 1.46 times the result.
    group = GroupSpec("Sp", 5, 1)
    f = orbit_sum(exponents([[k] for k in range(1, 6)]), group)
    p = decompose(f, group)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = expand(p, group)
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(got) == 3840
    assert peak < 1.2 * kept, f"peak {peak} bytes for a {kept}-byte result"


@pytest.mark.parametrize(
    "family, rows",
    [("GL", [[1]] * 20), ("Sp", [[1]] * 5 + [[2]] * 5)],
)
def test_repeated_rows_decompose_and_round_trip(family, rows):
    # Equal rows share the states of the closed form, so rank 10 and 20
    # reduce in a few hundredths of a second.
    group = GroupSpec(family, len(rows), 1)
    f = orbit_sum(exponents(rows), group)
    assert expand(decompose(f, group), group) == f


def test_step_constants_cache_is_bounded():
    info = generators._step_constants.cache_info()
    assert info.maxsize is not None
    group = GroupSpec("GL", 1, 1)
    for a in range(info.maxsize + 10):
        generators._times_tau({(exponents([[0]]), 0): 1}, (a,), group, 1, {})
    info = generators._step_constants.cache_info()
    assert info.currsize <= info.maxsize


def test_step_constants_tell_odd_so_from_sp():
    # Equal alphas, different steps: odd SO's tau has the constant 1.
    sp, so = GroupSpec("Sp", 2, 2), GroupSpec("SOodd", 2, 2)
    assert generators._step_constants((1, -1), "Sp") != generators._step_constants((1, -1), "SOodd")
    x = (exponents([[0, 0], [1, 2]]), 0)
    got_sp, got_so = {}, {}
    generators._times_tau({x: 3}, (1, -1), sp, 1, got_sp)
    generators._times_tau({x: 3}, (1, -1), so, 1, got_so)
    assert got_so.pop(x) == 3 and got_so == got_sp


def test_decompose_of_an_invariant_never_tries_the_generators(monkeypatch):
    def tried(f, group):
        raise AssertionError("invariance_violation called on the success path")

    monkeypatch.setattr(generators, "invariance_violation", tried)
    g = GroupSpec("Sp", 3, 2)
    f = random_invariant(g, random.Random(5), force_full_level=True)
    assert expand(decompose(f, g), g) == f


def test_non_invariant_input_fails_before_any_reduction(monkeypatch):
    def reduced(key, group):
        raise AssertionError("reduction started on a non-invariant input")

    monkeypatch.setattr(generators, "_reduce_orbit", reduced)
    g = GroupSpec("SOeven", 3, 1)
    f = orbit_sum(exponents([[1], [2], [3]]), g) + LaurentPoly.variable(g, 1, 1)
    with pytest.raises(DomainError, match="not W-invariant; moved by perm"):
        decompose(f, g)


def test_leftover_terms_without_a_moving_generator_are_a_bug(monkeypatch):
    monkeypatch.setattr(generators, "invariance_violation", lambda f, group: None)
    gl2 = GroupSpec("GL", 2, 1)
    with pytest.raises(InternalCheckError, match="could not cancel"):
        decompose(LaurentPoly.variable(gl2, 1, 1), gl2)


def test_non_invariant_input_beyond_the_orbit_cap_hits_the_cap():
    # Nine distinct nonzero rows: the orbit is all of |W(Sp(9))| =
    # 9! * 2^9 monomials, refused before it is built.  The peel meets the
    # cap before it could find that the single monomial is not invariant.
    g = GroupSpec("Sp", 9, 1)
    f = LaurentPoly.monomial(g, exponents([[k] for k in range(1, 10)]))
    with pytest.raises(ResourceLimitError, match="exceeds cap"):
        decompose(f, g)


def test_images_refuses_an_orbit_over_the_cap_at_the_call(monkeypatch):
    # The size is checked before any iterator exists: no arrangement of
    # the rows is asked for.
    def arranged(rows):
        raise AssertionError("an orbit over the cap was built")

    monkeypatch.setattr(weyl, "_arrangements", arranged)
    g = GroupSpec("Sp", 9, 1)
    key = orbit_rep(exponents([[k] for k in range(1, 10)]), g)
    with pytest.raises(ResourceLimitError, match="orbit of 185794560 monomials exceeds cap"):
        weyl._images(key, g)


def test_expand_refuses_an_orbit_over_the_cap_before_building_it(monkeypatch):
    # tau(1) + tau(1) tau(2) tau(3) on Sp(3): of its orbits only the top
    # one, rows (1), (2), (3) with 48 monomials, is over a cap of 47.
    # Orbits under the cap are built; the top one is refused unbuilt.
    g = GroupSpec("Sp", 3, 1)
    t1, t2, t3 = (tau_symbol(g, (a,)) for a in (1, 2, 3))
    p = GeneratorPoly({(t1,): 1, (t1, t2, t3): 1})
    built = []
    real = weyl._arrangements

    def arrangements(items):
        # A signed orbit arranges each row's sign choices, (row, -row) or
        # (row,), in place of the row: record the rows.
        built.append(tuple(i[0] if isinstance(i[0], tuple) else i for i in items))
        return real(items)

    monkeypatch.setattr(weyl, "_arrangements", arrangements)
    monkeypatch.setattr(weyl, "WEYL_CAP", 47)
    with pytest.raises(ResourceLimitError, match="orbit of 48 monomials exceeds cap 47"):
        expand(p, g)
    top = orbit_rep(exponents([[1], [2], [3]]), g)[0]
    assert built and top not in built


def test_generator_poly_constructor_coerces_and_sorts():
    sp2 = GroupSpec("Sp", 2, 1)
    t1, t2 = tau_symbol(sp2, (1,)), tau_symbol(sp2, (2,))
    p = GeneratorPoly({(t1,): 2})
    assert p.terms == {(t1,): GaussRat(2)}
    assert expand(p, sp2) == ref.tau_image(sp2, (1,)).scaled(2)
    assert GeneratorPoly({(t2, t1): 1}) == GeneratorPoly({(t1, t2): 1})
    assert GeneratorPoly({(t2, t1): 1}).terms == {(t1, t2): ONE}
    assert not GeneratorPoly({(t2, t1): 1, (t1, t2): -1})
