"""Differential tests: the sparse exact linear algebra of the Lie layer
against the dense reference in ``reference_linalg.py``, with exact
equality, and ``basis_coords`` against its closed form per family."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference_linalg import (
    closed_form_basis_coords,
    dense_ad_operator,
    dense_cocycle_space_dims,
    dense_mat_mul,
)
from toruschar.groups import GroupSpec
from toruschar.lie import (
    ad_operator,
    basis_coords,
    cocycle_space_dims,
    random_conjugator,
    random_group_element,
    random_torus_point,
    torus_matrix,
)
from toruschar.linalg import mat_inv, mat_mul
from toruschar.scalars import GaussRat

FAMILIES = ("GL", "SL", "Sp", "SOodd", "SOeven")

# Mostly zeros; the rest small ints or Gaussian rationals.
_entry = st.one_of(
    st.just(0),
    st.just(0),
    st.just(GaussRat(0)),
    st.integers(-3, 3),
    st.builds(
        GaussRat,
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
)


def _matrix(rows: int, cols: int):
    return st.lists(
        st.lists(_entry, min_size=cols, max_size=cols).map(tuple),
        min_size=rows,
        max_size=rows,
    ).map(tuple)


@st.composite
def _product_operands(draw):
    n, k, m = (draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    a = [list(row) for row in draw(_matrix(n, k))]
    b = [list(row) for row in draw(_matrix(k, m))]
    # Clear a random row of b and a random column of a now and then, so
    # all-zero rows and columns meet nonzero partners.
    if draw(st.booleans()):
        b[draw(st.integers(0, k - 1))] = [0] * m
    if n and draw(st.booleans()):
        col = draw(st.integers(0, k - 1))
        for row in a:
            row[col] = 0
    return tuple(map(tuple, a)), tuple(map(tuple, b))


@settings(max_examples=100, deadline=None)
@given(_product_operands())
def test_mat_mul_matches_dense_reference(operands):
    a, b = operands
    got = mat_mul(a, b)
    assert got == dense_mat_mul(a, b)
    assert len(got) == len(a)
    assert all(len(row) == len(b[0]) for row in got)
    assert all(type(v) is GaussRat for row in got for v in row)


_group = st.builds(
    GroupSpec, st.sampled_from(FAMILIES), st.integers(1, 4), st.integers(1, 3)
)


@settings(max_examples=40, deadline=None)
@given(_group, st.booleans(), st.integers(0, 10**6))
def test_ad_operator_matches_dense_reference(group, conjugate, seed):
    a = random_group_element(group, random.Random(seed), conjugate=conjugate)
    got = ad_operator(group, a)
    assert got == dense_ad_operator(group, a)
    assert all(type(v) is GaussRat for row in got for v in row)


@settings(max_examples=40, deadline=None)
@given(_group, st.booleans(), st.booleans(), st.integers(0, 10**6))
def test_cocycle_space_dims_matches_dense_reference(group, conjugate, coincident, seed):
    """Commuting generators from one torus point, either on the torus or
    all conjugated by one dense conjugator.  Coincident points draw their
    eigenvalues from a small set, so that many roots are trivial."""
    rng = random.Random(seed)
    if not coincident:
        point = random_torus_point(group, rng, exact=True, generic=False)
        columns = [point.column(j) for j in range(1, group.factors + 1)]
    else:
        columns = [_small_eigenvalues(group, rng) for _ in range(group.factors)]
    gens = [torus_matrix(group, col) for col in columns]
    if conjugate:
        g = random_conjugator(group, rng)
        ginv = mat_inv(g)
        gens = [mat_mul(g, mat_mul(t, ginv)) for t in gens]
    ads = [ad_operator(group, t) for t in gens]
    assert cocycle_space_dims(ads) == dense_cocycle_space_dims(ads)


def _small_eigenvalues(group: GroupSpec, rng) -> list[GaussRat]:
    """Eigenvalues from {1, -1, 2, 1/2}, so that many roots are trivial."""
    vals = [GaussRat(rng.choice((1, -1, 2, Fraction(1, 2)))) for _ in range(group.rank)]
    if group.family == "SL":
        prod = GaussRat(1)
        for v in vals[:-1]:
            prod = prod * v
        vals[-1] = GaussRat(1) / prod
    return vals


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_basis_coords_matches_closed_form(family, rank):
    """Random exact and complex entries, signed zeros among the complex
    ones; complex coordinates must agree bit for bit, so they are compared
    through ``repr``."""
    group = GroupSpec(family, rank, 1)
    m = group.matrix_size
    rng = random.Random(f"{family}{rank}")
    draws = (
        lambda: GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-2, 2)),
        lambda: rng.choice(
            (0j, complex(-0.0, -0.0), complex(rng.uniform(-2, 2), -0.0),
             complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        ),
    )
    for draw in draws:
        for _ in range(20):
            entries = [[draw() for _ in range(m)] for _ in range(m)]

            def entry(r, c):
                return entries[r][c]

            got = basis_coords(group, entry)
            assert len(got) == group.lie_dim
            assert list(map(repr, got)) == list(map(repr, closed_form_basis_coords(group, entry)))
