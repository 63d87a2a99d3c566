"""Matrix models of the classical groups and the numeric oracle.

Everything the symbolic layers claim is independently checkable here:
explicit Lie-algebra bases, torus matrices (diagonal for GL/SL/Sp, the
2x2 rotation-like blocks over C for SO), Killing/trace form ratios,
variation functions, twisted Z^N cohomology dimensions, and the Poisson
bracket obtained from the two-form B(v1,w2) - B(v2,w1) on pairs of Cartan
vectors in eigenvalue coordinates.

The matrix models are exact: ``torus_matrix`` takes GaussRat, int or
Fraction parameters, and ``ad_operator``, ``cocycle_space_dims``,
``cohomology_dims`` and ``variation`` take a ``Mat``; float parameters
and any other matrix, such as a float array, are refused with
``DomainError``.  ``killing_ratio``, the membership checks and the random
group elements are exact too.  Only the bracket oracle also runs at
float points, in plain complex: where the formula is the same, one body
serves both scalars and picks them from its input, in ``omega_prime``,
``log_gradient`` and ``numeric_bracket`` (float torus points),
``root_value`` and ``is_generic_tuple``, and
``random_torus_point(exact=False)``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Sequence

from . import sparse
from .errors import DomainError, InternalCheckError, StructureError
from .groups import GroupSpec
from .laurent import LaurentPoly
from .linalg import (
    Mat,
    cayley,
    exact_rank,
    identity,
    mat_add,
    mat_det,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_sub,
    nonzero_rows,
    trace,
    transpose,
    zeros,
)
from .points import TorusPoint
from .scalars import GaussRat, I, ONE, ZERO, to_fraction

HALF = GaussRat(Fraction(1, 2))

# The largest Lie-algebra dimension the ``killing`` and ``cohomology``
# commands accept.  killing_ratio grows faster than lie_dim**2: at the cap,
# SL(20) (dimension 399) and SOeven(14) (378) take about 3 s on a 2-vCPU
# host, and cohomology of SL(20) with 10 factors about 1 s.
LIE_DIM_CAP = 400

# Draws of ``random_torus_point`` (generic) and ``random_conjugator``
# before they give up with InternalCheckError.
POINT_TRIES, CONJUGATOR_TRIES = 500, 100


def _require_mat(a, where: str) -> None:
    """Refuse anything but a ``Mat``, a tuple of tuples of GaussRat."""
    if not (isinstance(a, tuple) and all(
        isinstance(row, tuple) and all(isinstance(v, GaussRat) for v in row) for row in a
    )):
        raise DomainError(f"{where} takes an exact matrix, a tuple of tuples of GaussRat")


# ---------------------------------------------------------------------------
# Lie algebra bases
# ---------------------------------------------------------------------------

def _freeze(rows: list[list[GaussRat]]) -> Mat:
    return tuple(tuple(r) for r in rows)


# The cohomology and variation sweeps of the exact_algebra benchmark touch
# 25 groups, the killing table 11.
@lru_cache(maxsize=64)
def _basis_forms(group: GroupSpec) -> tuple[tuple[Mat, ...], tuple[tuple, ...], tuple]:
    """The Lie-algebra basis, built once per group: as dense matrices, as
    the ((row, col), value) pairs of each element's nonzero entries, and
    as each element's read-off position, its first entry.  No other
    element is nonzero at a read-off position except the SL diagonal
    elements, which ``basis_coords`` reads as running sums."""
    n = group.rank
    m = group.matrix_size
    if group.family == "GL":
        entries = [{(i, j): ONE} for i in range(n) for j in range(n)]
    elif group.family == "SL":
        entries = [{(i, j): ONE} for i in range(n) for j in range(n) if i != j]
        entries += [{(i, i): ONE, (i + 1, i + 1): -ONE} for i in range(n - 1)]
    elif group.family == "Sp":
        entries = [{(i, j): ONE, (n + j, n + i): -ONE} for i in range(n) for j in range(n)]
        entries += [{(i, n + j): ONE, (j, n + i): ONE} for i in range(n) for j in range(i, n)]
        entries += [{(n + i, j): ONE, (n + j, i): ONE} for i in range(n) for j in range(i, n)]
    else:  # SO(m)
        entries = [{(a, b): ONE, (b, a): -ONE} for a in range(m) for b in range(a + 1, m)]
    if len(entries) != group.lie_dim:
        raise InternalCheckError("basis size does not match the dimension formula")
    dense = []
    for x in entries:
        rows = [[ZERO] * m for _ in range(m)]
        for (r, c), v in x.items():
            rows[r][c] = v
        dense.append(_freeze(rows))
    return (
        tuple(dense),
        tuple(tuple(x.items()) for x in entries),
        tuple(next(iter(x)) for x in entries),
    )


def lie_basis(group: GroupSpec) -> tuple[Mat, ...]:
    """Basis of the Lie algebra in the defining matrix representation.

    GL: all units E_ij.  SL: off-diagonal units and E_ii - E_{i+1,i+1}.
    Sp: block matrices [[A, B], [C, -A^T]] with B, C symmetric.  SO: the
    antisymmetric units E_ab - E_ba.
    """
    return _basis_forms(group)[0]


def basis_coords(group: GroupSpec, entry: Callable[[int, int], object]) -> list:
    """Coordinates of a Lie-algebra element in lie_basis order, read off
    entrywise at each basis element's read-off position (no linear solve).

    The coordinate of E_ii - E_{i+1,i+1} in SL is the sum of the first
    i + 1 diagonal entries.  ``entry`` may return exact or complex scalars.
    """
    coords = [entry(r, c) for r, c in _basis_forms(group)[2]]
    if group.family == "SL":
        acc = 0
        for k in range(len(coords) - group.rank + 1, len(coords)):
            acc = coords[k] = acc + coords[k]
    return coords


def symplectic_form(n: int) -> Mat:
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = ONE
        rows[n + i][i] = -ONE
    return _freeze(rows)


def in_lie_algebra(group: GroupSpec, x: Mat) -> bool:
    """Exact defining-condition check for the family."""
    if group.family == "GL":
        return True
    if group.family == "SL":
        return trace(x) == ZERO
    if group.family == "Sp":
        j = symplectic_form(group.rank)
        return mat_eq(mat_mul(transpose(x), j), mat_scale(mat_mul(j, x), -1))
    return mat_eq(transpose(x), mat_scale(x, -1))


def in_group(group: GroupSpec, a: Mat) -> bool:
    """Exact membership check for the matrix model of the family."""
    m = group.matrix_size
    if group.family == "GL":
        return mat_det(a) != ZERO
    if group.family == "SL":
        return mat_det(a) == ONE
    if group.family == "Sp":
        j = symplectic_form(group.rank)
        return mat_eq(mat_mul(transpose(a), mat_mul(j, a)), j)
    return mat_eq(mat_mul(transpose(a), a), identity(m)) and mat_det(a) == ONE


# ---------------------------------------------------------------------------
# torus matrices
# ---------------------------------------------------------------------------

def torus_matrix(group: GroupSpec, eigvals: Sequence) -> Mat:
    """Exact torus element with the given eigenvalue parameters (GaussRat,
    int or Fraction; float and complex ones are refused).

    GL/SL: diag(x_1..x_n) with the SL product-one condition enforced.
    Sp: diag(x, x^{-1}).  SO: per-parameter 2x2 blocks [[(x+1/x)/2,
    i(x-1/x)/2], [-i(x-1/x)/2, (x+1/x)/2]], odd SO appending a fixed
    eigenvalue 1.
    """
    n = group.rank
    if len(eigvals) != n:
        raise DomainError(f"expected {n} eigenvalue parameters")
    if not all(isinstance(v, (GaussRat, int, Fraction)) for v in eigvals):
        raise DomainError("eigenvalue parameters must be exact: GaussRat, int or Fraction")
    vals = [v if isinstance(v, GaussRat) else GaussRat(v) for v in eigvals]
    if any(not v for v in vals):
        raise DomainError("eigenvalue parameters must be nonzero")
    if group.family == "SL" and math.prod(vals, start=ONE) != ONE:
        raise DomainError("SL eigenvalues must multiply to 1")
    m = group.matrix_size
    rows = [[ZERO] * m for _ in range(m)]
    if group.family in ("GL", "SL"):
        for i, v in enumerate(vals):
            rows[i][i] = v
    elif group.family == "Sp":
        for i, v in enumerate(vals):
            rows[i][i] = v
            rows[n + i][n + i] = ONE / v
    else:
        for j, v in enumerate(vals):
            w = ONE / v
            c = (v + w) / 2
            s = I * (v - w) / 2
            rows[2 * j][2 * j] = c
            rows[2 * j][2 * j + 1] = s
            rows[2 * j + 1][2 * j] = -s
            rows[2 * j + 1][2 * j + 1] = c
        if group.family == "SOodd":
            rows[m - 1][m - 1] = ONE
    return _freeze(rows)


# ---------------------------------------------------------------------------
# Killing / trace ratio
# ---------------------------------------------------------------------------

def _sparse_bracket(a: dict, b: dict) -> dict:
    out: dict[tuple[int, int], GaussRat] = {}

    def mul_into(x: dict, y: dict, sign: int):
        for (r, c), v in x.items():
            for (r2, c2), w in y.items():
                if c == r2:
                    sparse.add_term(out, (r, c2), v * w if sign > 0 else -(v * w))

    mul_into(a, b, 1)
    mul_into(b, a, -1)
    return out


def killing_ratio(group: GroupSpec) -> Fraction:
    """Ratio kappa / trace-form, computed from the adjoint representation
    and verified entrywise to be a single scalar."""
    if group.family == "GL":
        raise DomainError("GL is not semisimple; the Killing form degenerates")
    if group.family == "SL" and group.rank < 2:
        raise DomainError("SL(1) is trivial")
    if group.family == "SOeven" and group.rank < 2:
        raise DomainError("SO(2) is abelian; the Killing form vanishes")
    elements = [dict(x) for x in _basis_forms(group)[1]]
    d = len(elements)

    ad: list[dict[tuple[int, int], GaussRat]] = []
    for a in range(d):
        entries: dict[tuple[int, int], GaussRat] = {}
        for b in range(d):
            br = _sparse_bracket(elements[a], elements[b])
            if not br:
                continue
            coords = basis_coords(group, lambda r, c: br.get((r, c), ZERO))
            for cidx, v in enumerate(coords):
                if v:
                    entries[(cidx, b)] = v
        ad.append(entries)

    ratio: GaussRat | None = None
    pairs = []
    for a in range(d):
        for b in range(a, d):
            kappa = ZERO
            for (l, k), v in ad[a].items():
                w = ad[b].get((k, l))
                if w is not None:
                    kappa = kappa + v * w
            tr = ZERO
            for (r, c), v in elements[a].items():
                w = elements[b].get((c, r))
                if w is not None:
                    tr = tr + v * w
            pairs.append((kappa, tr))
            if ratio is None and tr:
                ratio = kappa / tr
    if ratio is None:
        raise InternalCheckError("trace form vanished identically")
    for kappa, tr in pairs:
        if kappa != ratio * tr:
            raise InternalCheckError("Killing form is not proportional to the trace form")
    if not ratio.is_rational():
        raise InternalCheckError("Killing ratio is not rational")
    return ratio.as_fraction()


# ---------------------------------------------------------------------------
# variation function
# ---------------------------------------------------------------------------

def variation(group: GroupSpec, a, c: Fraction = Fraction(1)):
    """Variation function for the bilinear form c * trace form, of an
    exact matrix ``a`` (anything but a ``Mat`` is refused).

    SL: (A - tr(A)/n * I)/c.  SO/Sp: (A - A^{-1})/(2c).  GL: A/c (the
    trace-form orthogonal projection onto gl is the identity).
    """
    if c == 0:
        raise DomainError("c must be nonzero")
    _require_mat(a, "variation")
    m = len(a)
    inv_c = GaussRat(Fraction(1, 1) / c)
    if group.family == "SL":
        t = trace(a) * GaussRat(Fraction(1, m))
        return mat_scale(mat_sub(a, mat_scale(identity(m), t)), inv_c)
    if group.family == "GL":
        return mat_scale(a, inv_c)
    return mat_scale(mat_sub(a, mat_inv(a)), inv_c * HALF)


# ---------------------------------------------------------------------------
# adjoint action and cohomology
# ---------------------------------------------------------------------------

def ad_operator(group: GroupSpec, a: Mat) -> Mat:
    """Matrix of X -> A X A^{-1} in lie_basis coordinates, for an exact
    ``Mat`` A (anything else is refused).

    A basis element with nonzero entries v at (r, c) maps to the sum of
    v * a[:, r] (x) a^{-1}[c, :], so only the nonzero entries of the
    element, of the columns of A and of the rows of A^{-1} are multiplied;
    ``basis_coords`` reads off the coordinates.  The element entries come
    from the per-group basis cache.
    """
    _require_mat(a, "ad_operator")
    a_cols = nonzero_rows(zip(*a))
    inv_nz = nonzero_rows(mat_inv(a))
    cols = []
    for x in _basis_forms(group)[1]:
        y: dict[tuple[int, int], GaussRat] = {}
        for (r, c), v in x:
            for i, u in a_cols[r]:
                uv = u * v
                for j, w in inv_nz[c]:
                    sparse.add_term(y, (i, j), uv * w)
        cols.append(basis_coords(group, lambda r, c: y.get((r, c), ZERO)))
    return tuple(zip(*cols))


def cocycle_space_dims(action_mats: Sequence[Mat]) -> tuple[int, int, int]:
    """(dim Z^1, dim B^1, dim H^1) for the Z^N module defined by commuting
    exact operators on a finite-dimensional space (each must be a ``Mat``).

    A cocycle is determined by its values u_1..u_N on the generators,
    constrained pairwise by (A_j - 1) u_i = (A_i - 1) u_j; coboundaries are
    the tuples ((A_i - 1) v)_i.
    """
    mats = list(action_mats)
    for m in mats:
        _require_mat(m, "cocycle_space_dims")
    return _cocycle_dims(mats)


def _cocycle_dims(mats: list[Mat]) -> tuple[int, int, int]:
    """``cocycle_space_dims`` of operators known to be ``Mat``s, such as the
    ``ad_operator`` results of ``cohomology_dims``, whose d^2 entries are
    not checked again.  They are read once into sparse rows of A_i - 1
    (their nonzeros, 1 subtracted on the diagonal), both constraint systems
    are built from those rows, and ``exact_rank`` ranks them."""
    if not mats:
        raise DomainError("need at least one generator")
    n_gen = len(mats)
    d = len(mats[0])
    diffs = []
    for m in mats:
        rows = [dict(nz) for nz in nonzero_rows(m)]
        for r, row in enumerate(rows):
            row[r] = row.get(r, ZERO) - ONE
        diffs.append(rows)
    b_rank = exact_rank([row for rows in diffs for row in rows])
    zrows = []
    for i, j in itertools.combinations(range(n_gen), 2):
        # (A_j - 1) u_i - (A_i - 1) u_j = 0; u_k sits in columns k*d..
        for row_j, row_i in zip(diffs[j], diffs[i]):
            row = {i * d + c: v for c, v in row_j.items()}
            for c, w in row_i.items():
                row[j * d + c] = -w
            zrows.append(row)
    z_rank = exact_rank(zrows)
    dim_z1 = n_gen * d - z_rank
    dim_b1 = b_rank
    return dim_z1, dim_b1, dim_z1 - dim_b1


def require_tol(tol: float) -> None:
    """Refuse a tol that is nan, infinite, zero or negative: it would fail
    or pass every comparison."""
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be a positive finite number, got {tol}")


def cohomology_dims(group: GroupSpec, generators: Sequence[Mat]) -> tuple[int, int, int]:
    """Twisted cohomology dimensions of Z^N acting on the Lie algebra
    through Ad of the given commuting exact group elements (each must be a
    ``Mat``), decided by exact ranks."""
    gens = list(generators)
    if not gens:
        raise DomainError("need at least one generator")
    for a in gens:
        _require_mat(a, "cohomology_dims")
    for a, b in itertools.combinations(gens, 2):
        if not mat_eq(mat_mul(a, b), mat_mul(b, a)):
            raise DomainError("generators do not commute")
    return _cocycle_dims([ad_operator(group, a) for a in gens])


# ---------------------------------------------------------------------------
# Cartan metric and the symplectic oracle
# ---------------------------------------------------------------------------

def cartan_projection(group: GroupSpec, vec):
    """Trace-form orthogonal projection of a coordinate vector onto the
    Cartan: the traceless part, as a new list, for SL; ``vec`` itself for
    the other families.  It does not depend on c."""
    if group.family != "SL":
        return vec
    mean = sum(vec) / len(vec)
    return [v - mean for v in vec]


def cartan_tangent(group: GroupSpec, u: Sequence) -> Mat:
    """Lie-algebra element generating the torus direction with coordinate
    vector u (exact)."""
    n = group.rank
    vals = [v if isinstance(v, GaussRat) else GaussRat(v) for v in u]
    m = group.matrix_size
    rows = [[ZERO] * m for _ in range(m)]
    if group.family in ("GL", "SL"):
        for i, v in enumerate(vals):
            rows[i][i] = v
    elif group.family == "Sp":
        for i, v in enumerate(vals):
            rows[i][i] = v
            rows[n + i][n + i] = -v
    else:
        for j, v in enumerate(vals):
            rows[2 * j][2 * j + 1] = v * I
            rows[2 * j + 1][2 * j] = -(v * I)
    return _freeze(rows)


# A command uses one (group, c); the oracle benchmark 7.
@lru_cache(maxsize=64)
def cartan_metric(group: GroupSpec, c: Fraction = Fraction(1)) -> Fraction:
    """c * trace form on the Cartan in eigenvalue coordinates, one number:
    c times the diagonal multiplier, derived by evaluating the trace form
    on the explicit Cartan tangent matrices (never assumed)."""
    c = to_fraction(c)
    if c == 0:
        raise DomainError("c must be nonzero")
    n = group.rank
    basis_vecs = [
        [ONE if k == i else ZERO for k in range(n)] for i in range(n)
    ]
    tangents = [cartan_tangent(group, v) for v in basis_vecs]
    mult: GaussRat | None = None
    for i in range(n):
        for j in range(i, n):
            val = trace(mat_mul(tangents[i], tangents[j]))
            if i == j:
                if mult is None:
                    mult = val
                elif val != mult:
                    raise InternalCheckError("Cartan metric is not a single multiple")
            elif val:
                raise InternalCheckError("Cartan metric is not diagonal")
    if mult is None or not mult or not mult.is_rational():
        raise InternalCheckError("degenerate Cartan metric")
    return c * mult.as_fraction()


def omega_prime(group: GroupSpec, c: Fraction, pair1, pair2):
    """The two-form B(v1, w2) - B(v2, w1) on pairs of Cartan vectors: B is
    the dot product of the ``cartan_projection``s times ``cartan_metric``,
    the Fraction for a GaussRat dot product and its float otherwise."""
    v1, w1 = pair1
    v2, w2 = pair2
    m = cartan_metric(group, c)

    def pair(u, v):
        dot = sum(map(mul, cartan_projection(group, list(u)), cartan_projection(group, list(v))))
        return dot * (m if isinstance(dot, GaussRat) else float(m))

    return pair(v1, w2) - pair(v2, w1)


def _gradient_entry(f: LaurentPoly, point: TorusPoint) -> tuple:
    """``(f, projected)``, memoised in ``point.grads[id(f)]``: the
    ``cartan_projection``s of ``f.log_gradient_values(point)``.  The entry
    holds ``f`` itself, so ``id(f)`` cannot be reused while it lives."""
    hit = point.grads.get(id(f))
    if hit is None:
        projected = tuple(cartan_projection(f.group, g) for g in f.log_gradient_values(point))
        hit = point.grads[id(f)] = (f, projected)
    return hit


def log_gradient(f: LaurentPoly, point: TorusPoint, j: int) -> list:
    """Vector of x_ij d f / d x_ij evaluated at the point (1-based j).

    The partials are not built: their coefficients are tabled once per
    polynomial and point kind and kept as long as ``f``, and they sum the
    monomial values of ``f`` that ``f.evaluate`` memoises at the point
    (see ``LaurentPoly.log_gradient_values``).  Each entry equals
    ``f.partial(i, j).evaluate(point)`` bit for bit.  A j outside 1..N is
    refused with ``DomainError``.
    """
    f.group.require_factor(j)
    return list(f.log_gradient_values(point)[j - 1])


def numeric_bracket(
    f: LaurentPoly, h: LaurentPoly, point: TorusPoint, c: Fraction = Fraction(1)
):
    """Poisson bracket of two invariant functions computed from the
    symplectic pairing in eigenvalue coordinates.

    The bracket is B^{-1}(d_1 f, d_2 h) - B^{-1}(d_2 f, d_1 h), where d_j
    is the logarithmic gradient along the j-th torus factor (projected to
    the traceless part for SL) and B^{-1}(u, v) is the dot product of the
    projected vectors divided by ``cartan_metric(group, c)``: by the
    Fraction at exact points, by its float at float points.
    The orientation is pinned once against the SL(2) bracket formula at
    the reference point (2, 3) and is part of the test suite.

    At an exact or a float point alike, the partials' coefficients are
    tabled once per polynomial and point kind and each monomial value
    computed once per (polynomial, point), shared with ``evaluate``; the
    gradients and their projections once per (polynomial, point) by
    ``_gradient_entry`` (the projection does not depend on c); and the
    divisor for ``c`` once per point.  The ``point.scales`` and
    ``point.grads`` tables are read inline by plain id, so a symbol pair
    costs three dict lookups, with no key tuple built, and two dot
    products.
    """
    group = f.group
    if (h.group is not group and h.group != group) or (
        point.group is not group and point.group != group
    ):
        raise StructureError("mismatched groups")
    if group.factors != 2:
        raise DomainError("the symplectic oracle needs exactly two factors")
    hit = point.scales.get(id(c))
    if hit is None:
        m = cartan_metric(group, c)
        hit = point.scales[id(c)] = (c, m if point.exact else float(m))  # holding c keeps id(c) unique
    scale = hit[1]
    grads = point.grads
    pf1, pf2 = (grads.get(id(f)) or _gradient_entry(f, point))[1]
    ph1, ph2 = (grads.get(id(h)) or _gradient_entry(h, point))[1]
    return sum(map(mul, pf1, ph2)) / scale - sum(map(mul, pf2, ph1)) / scale


def numeric_bracket_size(
    f: LaurentPoly, h: LaurentPoly, point: TorusPoint, c: Fraction = Fraction(1)
) -> float:
    """B, the size of the terms that ``numeric_bracket(f, h, point, c)``
    sums at a float point: the sum of ``|x_i * y_i|`` over both of its dot
    products, divided by ``|cartan_metric(group, c)|``.  A float dot product is off by at
    most a small multiple of the unit roundoff times this sum (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.1), so a
    bracket whose exact value is 0 may read as large as about 1e-16 * B."""
    pf1, pf2 = _gradient_entry(f, point)[1]
    ph1, ph2 = _gradient_entry(h, point)[1]
    terms = itertools.chain(map(mul, pf1, ph2), map(mul, pf2, ph1))
    return sum(map(abs, terms)) / abs(float(cartan_metric(f.group, c)))


# ---------------------------------------------------------------------------
# roots and random sampling
# ---------------------------------------------------------------------------

def positive_roots(group: GroupSpec) -> list[tuple[int, ...]]:
    """Positive roots as integer exponent vectors on eigenvalue
    coordinates; the root value at a torus point is prod_i x_i^{r_i}."""
    n = group.rank
    roots: list[tuple[int, ...]] = []

    def vec(pairs) -> tuple[int, ...]:
        out = [0] * n
        for idx, val in pairs:
            out[idx] += val
        return tuple(out)

    for i in range(n):
        for k in range(i + 1, n):
            roots.append(vec([(i, 1), (k, -1)]))
    if group.family in ("Sp", "SOodd", "SOeven"):
        for i in range(n):
            for k in range(i + 1, n):
                roots.append(vec([(i, 1), (k, 1)]))
    if group.family == "Sp":
        for i in range(n):
            roots.append(vec([(i, 2)]))
    if group.family == "SOodd":
        for i in range(n):
            roots.append(vec([(i, 1)]))
    return roots


def root_value(root: tuple[int, ...], coords: Sequence):
    acc = ONE if isinstance(coords[0], GaussRat) else (1 + 0j)
    for x, e in zip(coords, root):
        if e:
            acc = acc * x ** e
    return acc


def is_generic_tuple(group: GroupSpec, columns: Sequence[Sequence], tol: float = 1e-9) -> bool:
    """Each root must be nontrivial on at least one generator column."""
    for root in positive_roots(group):
        ok = False
        for col in columns:
            v = root_value(root, col)
            if isinstance(v, GaussRat):
                if v != ONE:
                    ok = True
                    break
            elif abs(v - 1) > tol:
                ok = True
                break
        if not ok:
            return False
    return True


def random_rational(rng, lo: int = -5, hi: int = 5) -> Fraction:
    """Nonzero random rational in [lo, hi] with small denominator."""
    while True:
        den = rng.randint(1, 3)
        num = rng.randint(lo * den, hi * den)
        if num:
            return Fraction(num, den)


def random_eigenvalues(group: GroupSpec, rng, exact: bool = True) -> list:
    """Random eigenvalues of one torus column.

    The default range [-5, 5] of ``random_rational`` holds about 40
    values.  A one-factor point must separate every root with its single
    column, which needs n values pairwise distinct (and, for Sp, not
    inverse to each other); draws from 40 values stop doing that reliably
    past rank 10.  One-factor groups above rank 10 therefore draw from
    [-n, n].  Everywhere else the default range suffices and is kept, so
    those draws stay the same for a seed.

    The values are drawn and the SL product taken as Fractions.  Exact
    columns hold their GaussRat; float columns divide the reduced
    numerator by the denominator, as ``complex(GaussRat(v))`` does.
    """
    n = group.rank
    hi = n if group.factors == 1 and n > 10 else 5
    vals = [random_rational(rng, -hi, hi) for _ in range(n)]
    if group.family == "SL":
        vals[-1] = 1 / math.prod(vals[:-1], start=Fraction(1))
    if exact:
        return [GaussRat(v) for v in vals]
    return [complex(v.numerator / v.denominator, 0.0) for v in vals]


def random_torus_point(group: GroupSpec, rng, exact: bool = True, generic: bool = True) -> TorusPoint:
    """Random torus point; with generic=True, resampled (up to POINT_TRIES
    draws) until every root is nontrivial on some factor."""
    for _ in range(POINT_TRIES):
        cols = [random_eigenvalues(group, rng, exact) for _ in range(group.factors)]
        if not generic or is_generic_tuple(group, cols):
            return TorusPoint(group, cols)
    raise InternalCheckError("failed to sample a generic torus point")


def random_conjugator(group: GroupSpec, rng) -> Mat:
    """Random exact element of the group, away from the torus: shear
    products for GL/SL, Cayley transforms of random algebra elements for
    Sp/SO (up to CONJUGATOR_TRIES draws)."""
    m = group.matrix_size
    if group.family in ("GL", "SL"):
        out = identity(m)
        for _ in range(3):
            i = rng.randrange(m)
            j = rng.randrange(m)
            if i == j:
                continue
            shear = [list(row) for row in identity(m)]
            shear[i][j] = GaussRat(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
            out = mat_mul(out, _freeze(shear))
        return out
    basis = lie_basis(group)
    for _ in range(CONJUGATOR_TRIES):
        s = zeros(m)
        for _ in range(3):
            x = basis[rng.randrange(len(basis))]
            lam = GaussRat(Fraction(rng.randint(-1, 1), rng.randint(2, 3)))
            s = mat_add(s, mat_scale(x, lam))
        try:
            cand = cayley(s)
        except DomainError:
            continue
        if in_group(group, cand):
            return cand
    raise InternalCheckError("failed to sample a conjugator")


def random_group_element(group: GroupSpec, rng, conjugate: bool = True) -> Mat:
    """Random exact group element: a torus matrix, optionally conjugated
    off the torus."""
    t = torus_matrix(group, random_eigenvalues(group, rng, exact=True))
    if not conjugate:
        return t
    g = random_conjugator(group, rng)
    return mat_mul(g, mat_mul(t, mat_inv(g)))
