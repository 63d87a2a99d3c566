import random
from fractions import Fraction

import numpy as np
import pytest

from reference_linalg import exact_torus_matrix, to_numpy
from toruschar.errors import DomainError
from toruschar.generators import tau_image
from toruschar.groups import GroupSpec
from toruschar.laurent import LaurentPoly
from toruschar.lie import (
    _basis_forms,
    ad_operator,
    basis_coords,
    cartan_metric,
    cartan_projection,
    cartan_tangent,
    cocycle_space_dims,
    cohomology_dims,
    in_group,
    in_lie_algebra,
    is_generic_tuple,
    killing_ratio,
    lie_basis,
    log_gradient,
    numeric_bracket,
    numeric_bracket_size,
    omega_prime,
    positive_roots,
    random_conjugator,
    random_group_element,
    random_rational,
    random_torus_point,
    torus_matrix,
    variation,
)
from toruschar.linalg import identity, mat_eq, mat_from, mat_inv, mat_mul, trace
from toruschar.points import TorusPoint
from toruschar.poisson import _bracket_rule
from toruschar.scalars import GaussRat, ONE


def test_basis_dimensions_and_conditions():
    cases = [
        ("GL", 2, 4),
        ("SL", 2, 3),
        ("SL", 3, 8),
        ("Sp", 1, 3),
        ("Sp", 2, 10),
        ("SOodd", 1, 3),
        ("SOodd", 2, 10),
        ("SOeven", 2, 6),
        ("SOeven", 3, 15),
    ]
    for fam, n, dim in cases:
        g = GroupSpec(fam, n, 1)
        basis = lie_basis(g)
        assert len(basis) == dim == g.lie_dim
        assert all(in_lie_algebra(g, x) for x in basis)


def test_torus_matrix_examples():
    sl2 = GroupSpec("SL", 2, 1)
    m = torus_matrix(sl2, [GaussRat(2), GaussRat(Fraction(1, 2))])
    assert trace(m) == GaussRat(Fraction(5, 2))
    with pytest.raises(DomainError):
        torus_matrix(sl2, [GaussRat(2), GaussRat(2)])

    so3 = GroupSpec("SOodd", 1, 1)
    x = GaussRat(3)
    m3 = torus_matrix(so3, [x])
    assert len(m3) == 3 and m3[2][2] == ONE
    assert trace(m3) == x + ONE / x + ONE

    sp1 = GroupSpec("Sp", 1, 1)
    msp = torus_matrix(sp1, [GaussRat(2)])
    assert msp[0][0] == GaussRat(2) and msp[1][1] == GaussRat(Fraction(1, 2))


def test_torus_matrix_membership_and_trace():
    rng = random.Random(0)
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        for n in (1, 2, 3):
            if fam == "SL" and n == 1:
                continue
            g = GroupSpec(fam, n, 1)
            pt = random_torus_point(g, rng, exact=True, generic=False)
            m = torus_matrix(g, pt.column(1))
            assert in_group(g, m)
            assert trace(m) == tau_image(g, (1,)).evaluate(pt)


@pytest.mark.parametrize(
    "vals", [[1.5 + 0.5j, 2], [2, 0.5], [np.complex128(2), 1], [GaussRat(2), 0.5 + 0j]]
)
def test_torus_matrix_refuses_float_parameters(vals):
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        with pytest.raises(DomainError, match="must be exact"):
            torus_matrix(GroupSpec(fam, 2, 1), vals)


def test_torus_matrix_matches_former_bodies():
    """Exact entries equal the former exact body's."""
    rng = random.Random(5)
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        g = GroupSpec(fam, 2, 1)
        for _ in range(20):
            vals = [GaussRat(random_rational(rng), random_rational(rng)) for _ in range(2)]
            if fam == "SL":
                vals[1] = ONE / vals[0]
            assert torus_matrix(g, vals) == exact_torus_matrix(g, vals)


def test_killing_ratio_table():
    assert killing_ratio(GroupSpec("SL", 2, 1)) == 4
    assert killing_ratio(GroupSpec("SOodd", 2, 1)) == 3  # SO(5)
    assert killing_ratio(GroupSpec("Sp", 1, 1)) == 4
    # sp(1) = sl(2) consistency
    assert killing_ratio(GroupSpec("Sp", 1, 1)) == killing_ratio(GroupSpec("SL", 2, 1))


def test_killing_ratio_excluded_families():
    with pytest.raises(DomainError):
        killing_ratio(GroupSpec("GL", 3, 1))
    with pytest.raises(DomainError):
        killing_ratio(GroupSpec("SOeven", 1, 1))  # SO(2)


def test_variation_examples():
    sl2 = GroupSpec("SL", 2, 1)
    f = variation(sl2, identity(2))
    assert all(not v for row in f for v in row)
    sp1 = GroupSpec("Sp", 1, 1)
    f2 = variation(sp1, identity(2))
    assert all(not v for row in f2 for v in row)
    a = torus_matrix(sl2, [GaussRat(2), GaussRat(Fraction(1, 2))])
    f3 = variation(sl2, a)
    assert f3[0][0] == GaussRat(Fraction(3, 4))
    assert f3[1][1] == GaussRat(Fraction(-3, 4))
    assert trace(f3) == GaussRat(0)


def test_variation_is_exact_only():
    with pytest.raises(DomainError):
        variation(GroupSpec("SL", 2, 1), np.eye(2, dtype=complex))


def test_variation_contracts_random():
    rng = random.Random(1)
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        g = GroupSpec(fam, 2, 1)
        basis = lie_basis(g)
        for t in range(5):
            c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            a = random_group_element(g, rng, conjugate=(t % 2 == 0))
            f = variation(g, a, c)
            assert in_lie_algebra(g, f)
            assert mat_eq(mat_mul(a, f), mat_mul(f, a))
            inv_c = GaussRat(1 / c)
            for v in basis:
                assert trace(mat_mul(f, v)) == trace(mat_mul(a, v)) * inv_c


def test_ad_operator_identity_and_eigenvalues():
    sl2 = GroupSpec("SL", 2, 1)
    assert mat_eq(ad_operator(sl2, identity(2)), identity(3))
    t = GaussRat(3)
    a = torus_matrix(sl2, [t, ONE / t])
    ad = ad_operator(sl2, a)
    eig = sorted(np.linalg.eigvals(to_numpy(ad)).real)
    assert np.allclose(eig, sorted([1.0, 9.0, 1 / 9]))
    assert abs(np.linalg.det(to_numpy(ad)) - 1) < 1e-9


def test_ad_operator_float_matches_exact():
    """numpy's float A X A^{-1}, read off in basis coordinates, matches the
    exact operator."""
    g = GroupSpec("Sp", 2, 1)
    rng = random.Random(2)
    a = random_group_element(g, rng)
    fa = to_numpy(a)
    fa_inv = np.linalg.inv(fa)
    cols = []
    for x in lie_basis(g):
        y = fa @ to_numpy(x) @ fa_inv
        cols.append(basis_coords(g, lambda r, c: y[r, c]))
    flo = np.array(cols).T
    assert np.max(np.abs(to_numpy(ad_operator(g, a)) - flo)) < 1e-9


def test_cocycle_dims_trivial_action():
    for fam, n, N in (("SL", 2, 2), ("Sp", 2, 3)):
        g = GroupSpec(fam, n, N)
        d = g.lie_dim
        gens = [identity(g.matrix_size)] * N
        dims = cohomology_dims(g, gens)
        assert dims == (N * d, 0, N * d)


def test_cocycle_dims_psi_module():
    # scalar action psi(e1) = 2 on a one-dimensional space: H^1 vanishes
    dims = cocycle_space_dims([mat_from([[2]])])
    assert dims == (1, 1, 0)
    dims2 = cocycle_space_dims([mat_from([[2]]), mat_from([[5]])])
    assert dims2 == (1, 1, 0)
    # trivial action on one dimension: everything is a cocycle
    dims3 = cocycle_space_dims([mat_from([[1]]), mat_from([[1]])])
    assert dims3 == (2, 0, 2)


def test_cohomology_generic_sl2():
    rng = random.Random(3)
    g = GroupSpec("SL", 2, 2)
    pt = random_torus_point(g, rng, exact=True)
    gens = [torus_matrix(g, pt.column(j)) for j in (1, 2)]
    assert cohomology_dims(g, gens) == (4, 2, 2)


def test_cohomology_rejects_non_commuting():
    g = GroupSpec("SL", 2, 2)
    a = mat_from([[1, 1], [0, 1]])
    b = mat_from([[1, 0], [1, 1]])
    with pytest.raises(DomainError):
        cohomology_dims(g, [a, b])


def test_cohomology_conjugation_invariance():
    rng = random.Random(4)
    for fam in ("SL", "Sp", "SOodd"):
        g = GroupSpec(fam, 2, 2)
        pt = random_torus_point(g, rng, exact=True)
        gens = [torus_matrix(g, pt.column(j)) for j in (1, 2)]
        base = cohomology_dims(g, gens)
        h = random_conjugator(g, rng)
        hinv = mat_inv(h)
        conj = [mat_mul(h, mat_mul(x, hinv)) for x in gens]
        assert cohomology_dims(g, conj) == base


def test_cartan_metric_multipliers():
    assert cartan_metric(GroupSpec("GL", 2, 1)) == 1
    assert cartan_metric(GroupSpec("SL", 3, 1)) == 1
    assert cartan_metric(GroupSpec("Sp", 2, 1)) == 2
    assert cartan_metric(GroupSpec("SOodd", 2, 1)) == 2
    assert cartan_metric(GroupSpec("SOeven", 2, 1)) == 2
    assert cartan_metric(GroupSpec("Sp", 2, 2), Fraction(2, 7)) == Fraction(4, 7)


def test_cartan_tangents_live_in_algebra():
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        g = GroupSpec(fam, 2, 1)
        u = [GaussRat(1), GaussRat(-1)] if fam == "SL" else [GaussRat(1), GaussRat(2)]
        assert in_lie_algebra(g, cartan_tangent(g, u))


def test_sl_projection():
    assert cartan_projection(GroupSpec("SL", 2, 1), [GaussRat(1), GaussRat(0)]) == [
        GaussRat(Fraction(1, 2)),
        GaussRat(Fraction(-1, 2)),
    ]


def test_omega_prime_examples():
    gl1 = GroupSpec("GL", 1, 1)
    one = [GaussRat(1)]
    zero = [GaussRat(0)]
    assert omega_prime(gl1, Fraction(1), (one, zero), (zero, one)) == ONE
    # antisymmetry on a random pair
    g = GroupSpec("Sp", 2, 1)
    v = ([GaussRat(1), GaussRat(2)], [GaussRat(0), GaussRat(1)])
    assert omega_prime(g, Fraction(1), v, v) == GaussRat(0)


def test_omega_prime_bilinearity():
    g = GroupSpec("SOodd", 2, 1)
    rng = random.Random(5)

    def rvec():
        return [GaussRat(rng.randint(-3, 3)) for _ in range(2)]

    for _ in range(10):
        v1, w1, v2, w2, v3, w3 = (rvec() for _ in range(6))
        lhs = omega_prime(
            g, Fraction(1), ([a + b for a, b in zip(v1, v3)], [a + b for a, b in zip(w1, w3)]), (v2, w2)
        )
        rhs = omega_prime(g, Fraction(1), (v1, w1), (v2, w2)) + omega_prime(
            g, Fraction(1), (v3, w3), (v2, w2)
        )
        assert lhs == rhs


def test_numeric_bracket_reference_point():
    # Sign convention pinned against the SL(2) bracket formula at (2, 3).
    g = GroupSpec("SL", 2, 2)
    pt = TorusPoint(
        g,
        [[GaussRat(2), GaussRat(Fraction(1, 2))], [GaussRat(3), GaussRat(Fraction(1, 3))]],
    )
    f = tau_image(g, (1, 0))
    h = tau_image(g, (0, 1))
    t11 = tau_image(g, (1, 1)).evaluate(pt)
    expected = t11 - f.evaluate(pt) * h.evaluate(pt) * GaussRat(Fraction(1, 2))
    assert numeric_bracket(f, h, pt) == expected == GaussRat(2)


def test_numeric_bracket_antisymmetry_and_constants():
    g = GroupSpec("Sp", 2, 2)
    rng = random.Random(6)
    pt = random_torus_point(g, rng, exact=True)
    f = tau_image(g, (1, 0))
    h = tau_image(g, (1, -1))
    assert numeric_bracket(f, h, pt) == -numeric_bracket(h, f, pt)
    assert numeric_bracket(f, f, pt) == GaussRat(0)
    const = LaurentPoly.constant(g, 7)
    assert numeric_bracket(const, h, pt) == GaussRat(0)


def test_numeric_bracket_bilinear():
    g = GroupSpec("SOodd", 2, 2)
    rng = random.Random(10)
    pt = random_torus_point(g, rng, exact=True)
    f1 = tau_image(g, (1, 0))
    f2 = tau_image(g, (2, -1))
    h = tau_image(g, (0, 1))
    lhs = numeric_bracket(f1 + f2.scaled(GaussRat(3)), h, pt)
    rhs = numeric_bracket(f1, h, pt) + numeric_bracket(f2, h, pt) * GaussRat(3)
    assert lhs == rhs


def test_numeric_bracket_needs_two_factors():
    g = GroupSpec("SL", 2, 3)
    rng = random.Random(7)
    pt = random_torus_point(g, rng, exact=True, generic=False)
    f = tau_image(g, (1, 0, 0))
    with pytest.raises(DomainError):
        numeric_bracket(f, f, pt)


def test_log_gradient_matches_finite_differences():
    g = GroupSpec("SOodd", 2, 2)
    rng = random.Random(8)
    poly = tau_image(g, (2, -1)) * tau_image(g, (1, 1))
    pt = random_torus_point(g, rng, exact=False, generic=False)
    step = 1e-5
    for j in (1, 2):
        grad = log_gradient(poly, pt, j)
        for i in (1, 2):
            up = [list(col) for col in pt.coords]
            dn = [list(col) for col in pt.coords]
            up[j - 1][i - 1] *= np.exp(step)
            dn[j - 1][i - 1] *= np.exp(-step)
            fd = (
                poly.evaluate(TorusPoint(g, up)) - poly.evaluate(TorusPoint(g, dn))
            ) / (2 * step)
            assert abs(fd - grad[i - 1]) < 1e-6 * (1 + abs(grad[i - 1]))


def test_positive_root_counts():
    # the number of roots (both signs) is dim g - lie rank
    for fam, n in (("GL", 3), ("SL", 3), ("Sp", 2), ("SOodd", 3), ("SOeven", 3)):
        g = GroupSpec(fam, n, 1)
        assert 2 * len(positive_roots(g)) == g.lie_dim - g.lie_rank


def test_random_group_element_membership():
    rng = random.Random(9)
    for fam in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        g = GroupSpec(fam, 2, 1)
        for _ in range(3):
            assert in_group(g, random_group_element(g, rng))


@pytest.mark.parametrize("family", ["GL", "SL"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_torus_point_one_factor_rank_20(family, seed):
    # One column must separate all 190 roots on its own: 20 distinct
    # eigenvalues, more than the rank-10 pool reliably gives.
    group = GroupSpec(family, 20, 1)
    pt = random_torus_point(group, random.Random(seed))
    assert pt.exact and is_generic_tuple(group, pt.coords)


# Rows of SL(3) x SL(3) run 1..3 and factors 1..2; Python indexing would
# wrap 0 and negative indices to the last row or factor.
_BAD_POSITIONS = [(0, 1), (-1, 1), (4, 1), (1, 0), (1, -1), (1, 3)]


@pytest.mark.parametrize(
    "which, i, j",
    [(w, i, j) for w in ("partial", "variable", "coordinate_power") for i, j in _BAD_POSITIONS]
    + [(w, 1, j) for w in ("log_gradient", "column") for j in (0, -1, 3)],
)
def test_indices_outside_the_group_are_refused(which, i, j):
    group = GroupSpec("SL", 3, 2)
    f = tau_image(group, (1, 1))
    pt = random_torus_point(group, random.Random(0), exact=False)
    calls = {
        "partial": lambda i, j: f.partial(i, j),
        "variable": lambda i, j: LaurentPoly.variable(group, i, j),
        "coordinate_power": lambda i, j: pt.coordinate_power(i, j, 2),
        "log_gradient": lambda i, j: log_gradient(f, pt, j),
        "column": lambda i, j: pt.column(j),
    }
    calls[which](3, 2)  # the last row and factor are in range
    with pytest.raises(DomainError):
        calls[which](i, j)


@pytest.mark.parametrize(
    "cache, key",
    [
        (tau_image, lambda k: (GroupSpec("GL", 1, 1), (k,))),
        (cartan_metric, lambda k: (GroupSpec("Sp", 1, 2), Fraction(k + 1))),
        (_basis_forms, lambda k: (GroupSpec("GL", 1, k + 1),)),
        (_bracket_rule, lambda k: (GroupSpec("SL", 2, 2), k + 1, 1)),
    ],
    ids=["tau_image", "cartan_metric", "_basis_forms", "_bracket_rule"],
)
def test_module_caches_are_bounded(cache, key):
    bound = cache.cache_parameters()["maxsize"]
    assert bound is not None
    for k in range(bound + 5):
        cache(*key(k))
    assert cache.cache_info().currsize == bound


def test_numeric_bracket_size_bounds_the_rounding_of_a_zero_bracket():
    # {tau(7, -8), tau(-7, 8)} on SL(3) has det = 0, so its exact bracket
    # is 0; at the first window-8 point of seed 0 the float oracle reads
    # rounding noise from terms of size B.  A dot product of length 3 is
    # off by at most about 3 * 2^-53 * B.
    group = GroupSpec("SL", 3, 2)
    f, h = tau_image(group, (7, -8)), tau_image(group, (-7, 8))
    pt = random_torus_point(group, random.Random(0), exact=False)
    num = numeric_bracket(f, h, pt)
    size = numeric_bracket_size(f, h, pt)
    assert num != 0 and abs(num) <= 1e-15 * size
    scale = float(cartan_metric(group, Fraction(1)))
    grads = [[cartan_projection(group, log_gradient(p, pt, j)) for j in (1, 2)] for p in (f, h)]
    (f1, f2), (h1, h2) = grads
    terms = [x * y for x, y in zip(f1, h2)] + [x * y for x, y in zip(f2, h1)]
    assert size == pytest.approx(sum(map(abs, terms)) / abs(scale), rel=1e-12)
