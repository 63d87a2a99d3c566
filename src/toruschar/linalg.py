"""Small exact matrix toolkit over GaussRat, plus rank computations.

``Mat`` stays dense at the API: a tuple of tuples of GaussRat, immutable.
The matrices of the Lie layer are almost all zeros (Ad of a torus element
has 36 nonzeros out of 1296 entries for Sp(4)), so ``mat_mul`` walks
nonzeros only, and ``nonzero_rows`` gives the (column, value) lists the
Lie layer builds its sparse rows from.  Inverse and determinant are plain
Gauss-Jordan elimination.  ``exact_rank`` eliminates the sparse dict rows
of the cohomology constraint systems exactly.
"""

from __future__ import annotations

from typing import Any, Iterable

from .errors import DomainError
from .scalars import GaussRat, ONE, ZERO

Mat = tuple[tuple[GaussRat, ...], ...]


def mat_from(rows: Iterable[Iterable]) -> Mat:
    return tuple(
        tuple(v if isinstance(v, GaussRat) else GaussRat(v) for v in row)
        for row in rows
    )


def identity(n: int) -> Mat:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def zeros(n: int) -> Mat:
    return tuple((ZERO,) * n for _ in range(n))


def nonzero_rows(rows: Iterable[Iterable]) -> list[list[tuple[int, Any]]]:
    """The (column, value) pairs of the nonzero entries of each row."""
    return [[(c, v) for c, v in enumerate(row) if v] for row in rows]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product a*b, formed from nonzeros only: each nonzero a[i][k]
    meets the nonzero entries of row k of b, listed once per call."""
    width = len(b[0]) if b else 0
    b_rows = nonzero_rows(b)
    out = []
    for row in a:
        acc = [ZERO] * width
        for x, nonzeros in zip(row, b_rows):
            if x:
                for c, y in nonzeros:
                    acc[c] = acc[c] + x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_scale(a: Mat, c) -> Mat:
    c = c if isinstance(c, GaussRat) else GaussRat(c)
    return tuple(tuple(x * c for x in row) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def trace(a: Mat) -> GaussRat:
    acc = ZERO
    for i, row in enumerate(a):
        acc = acc + row[i]
    return acc


def mat_inv(a: Mat) -> Mat:
    """Gauss-Jordan inverse; raises DomainError on singular input."""
    n = len(a)
    work = [list(row) + list(unit) for row, unit in zip(a, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise DomainError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = ONE / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def mat_det(a: Mat) -> GaussRat:
    n = len(a)
    work = [list(row) for row in a]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = ONE / work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                factor = work[r][col] * inv
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return det


def mat_eq(a: Mat, b: Mat) -> bool:
    return all(x == y for r, s in zip(a, b) for x, y in zip(r, s))


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def exact_rank(rows: Iterable[dict[int, GaussRat]]) -> int:
    """Rank of a matrix given as sparse rows (column -> coefficient)."""
    pivots: dict[int, dict[int, GaussRat]] = {}
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = ONE / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            factor = row.pop(c)
            for k, v in piv.items():
                if k == c:
                    continue
                acc = row.get(k, ZERO) - factor * v
                if acc:
                    row[k] = acc
                else:
                    row.pop(k, None)
    return len(pivots)


def cayley(s: Mat) -> Mat:
    """(I - S)(I + S)^{-1}; maps skew/Hamiltonian matrices into the
    corresponding classical group when I + S is invertible."""
    n = len(s)
    return mat_mul(mat_sub(identity(n), s), mat_inv(mat_add(identity(n), s)))
