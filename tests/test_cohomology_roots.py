"""Root-count oracle for the twisted cohomology at torus points.

At a torus point with generator columns t_1..t_N, the tangent space of the
character variety is H^1(Z^N, Ad).  The semisimple operators Ad(t_j)
commute, so the Lie algebra splits into the Cartan (trivial action) and
the root lines.  A joint eigenline with some eigenvalue other than 1 has
no cohomology (Koszul), and a trivial line contributes N.  With k the
number of roots alpha (both signs) with alpha(t_j) = 1 for every j:

    dim B^1 = d - r - k,    dim H^1 = N * (r + k),

where d is the dimension and r the rank of the Lie algebra.  At generic
points k = 0.  ``cohomology_dims`` solves the linear systems exactly; this
formula is an independent derivation used only as an oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toruschar.groups import GroupSpec
from toruschar.lie import (
    cohomology_dims,
    positive_roots,
    random_torus_point,
    root_value,
    torus_matrix,
)
from toruschar.scalars import GaussRat, ONE

FAMILIES = ("GL", "SL", "Sp", "SOodd", "SOeven")


def _trivial_roots(group: GroupSpec, columns) -> int:
    """Roots of both signs that are 1 on every generator column."""
    trivial = [
        root for root in positive_roots(group)
        if all(root_value(root, col) == ONE for col in columns)
    ]
    return 2 * len(trivial)


def _predicted(group: GroupSpec, columns) -> tuple[int, int, int]:
    d, r, n = group.lie_dim, group.lie_rank, len(columns)
    k = _trivial_roots(group, columns)
    h1 = n * (r + k)
    b1 = d - r - k
    return h1 + b1, b1, h1


def _dims(group: GroupSpec, columns) -> tuple[int, int, int]:
    return cohomology_dims(group, [torus_matrix(group, col) for col in columns])


def _q(*vals):
    return [GaussRat(Fraction(v)) for v in vals]


# (family, rank, generator columns, (Z1, B1, H1)) worked out by hand.
CHOSEN = [
    ("GL", 3, [_q(1, 1, 1), _q(1, 1, 1)], (18, 0, 18)),  # every root trivial
    ("SL", 3, [_q(2, 2, "1/4"), _q(2, 2, "1/4")], (12, 4, 8)),  # e1 - e2
    ("Sp", 3, [_q(-1, 2, 3), _q(1, 5, 7)], (26, 16, 10)),  # 2 e1
    ("Sp", 3, [_q(1, -1, -1), _q(-1, 1, 1)], (34, 8, 26)),  # 2 e_i, e2 +- e3
    ("SOodd", 3, [_q(1, 2, 2), _q(1, 3, 3)], (28, 14, 14)),  # e1, e2 - e3
    ("SOeven", 3, [_q(-1, -1, 3)] * 3, (29, 8, 21)),  # e1 +- e2
]


@pytest.mark.parametrize("family,rank,columns,expected", CHOSEN)
def test_cohomology_at_chosen_non_generic_points(family, rank, columns, expected):
    group = GroupSpec(family, rank, len(columns))
    assert _predicted(group, columns) == expected
    assert _dims(group, columns) == expected


_group = st.builds(
    GroupSpec, st.sampled_from(FAMILIES), st.integers(1, 4), st.integers(1, 3)
)


@settings(max_examples=25, deadline=None)
@given(_group, st.integers(0, 10**6))
def test_cohomology_at_random_generic_points(group, seed):
    point = random_torus_point(group, random.Random(seed), exact=True)
    columns = [point.column(j) for j in range(1, group.factors + 1)]
    d, r, n = group.lie_dim, group.lie_rank, group.factors
    assert _trivial_roots(group, columns) == 0
    assert _dims(group, columns) == _predicted(group, columns) == (n * r + d - r, d - r, n * r)


@settings(max_examples=40, deadline=None)
@given(
    _group,
    st.lists(st.sampled_from([1, -1, 2, Fraction(1, 2), 3]), min_size=12, max_size=12),
)
def test_cohomology_at_random_coincident_points(group, pool):
    """Eigenvalues from a five-element set, so many roots are trivial."""
    vals = iter(pool)
    columns = []
    for _ in range(group.factors):
        col = _q(*(next(vals) for _ in range(group.rank)))
        if group.family == "SL":
            prod = ONE
            for v in col[:-1]:
                prod = prod * v
            col[-1] = ONE / prod
        columns.append(col)
    assert _dims(group, columns) == _predicted(group, columns)
