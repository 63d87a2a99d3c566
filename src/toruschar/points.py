"""Torus points: places where Laurent polynomials are evaluated.

A point assigns a nonzero value to every coordinate x_ij.  Points come in
two flavours: exact (GaussRat coordinates) and float (complex).  Half-
integer exponents need a square-root branch; exact points must therefore be
constructed from the square roots themselves when half weights will be
evaluated, while float points take the principal branch automatically.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .errors import DomainError, StructureError
from .groups import GroupSpec
from .scalars import GaussRat, ZERO


def _scalars(rows, exact: bool | None = None) -> tuple[tuple, bool]:
    """``rows`` as a tuple of tuples of GaussRat (exact) or complex, and
    whether they are exact.  With ``exact`` unset they are exact when every
    entry is a GaussRat, int or Fraction."""
    rows = tuple(tuple(row) for row in rows)
    if exact is None:
        exact = all(isinstance(v, (GaussRat, int, Fraction)) for row in rows for v in row)
    convert = (lambda v: v if isinstance(v, GaussRat) else GaussRat(v)) if exact else complex
    return tuple(tuple(map(convert, row)) for row in rows), exact


class TorusPoint:
    """Evaluation point on the N-fold product of the maximal torus.

    ``coords[j][i]`` is the value of x_{i+1, j+1}.  ``sqrts`` (same layout)
    optionally fixes the square-root branch used for half-integer weights;
    when absent, float points use the principal square root and exact
    points refuse odd exponents.

    A point caches what is derived from it and lives exactly as long as
    the point, so nothing outlives it and no cache is module-wide.  One
    dict per kind of value, keyed by the plain key:

    - ``powers[(i, j, doubled)]``: the coordinate power that
      ``coordinate_power`` computed (``LaurentPoly`` reads it directly);
    - ``values[id(f)] = (f, values)``: the value of each sorted monomial
      of the LaurentPoly ``f`` at the point, exact or float, which
      ``f.evaluate`` and ``f.log_gradient_values`` both sum with the
      table of ``f`` for the point's kind;
    - ``grads[id(f)] = (f, projected)``, stored by ``lie.numeric_bracket``:
      the logarithmic gradients of ``f``, one per factor, projected to
      their SL traceless parts (the gradients themselves for the other
      families), which the bracket pairs;
    - ``scales[id(c)] = (c, divisor)``, stored by ``lie.numeric_bracket``:
      the divisor of its dot products for the trace-form multiple ``c``,
      ``lie.cartan_metric`` at an exact point and its float at a float point;
    - ``taus[symbol] = value``, stored by ``TauPoly.evaluate`` (the point
      fixes the group).

    The id-keyed entries keep their object alive, so the id cannot be
    reused while the point lives.
    """

    __slots__ = ("group", "coords", "sqrts", "exact", "powers", "values", "grads", "scales", "taus")

    def __init__(self, group: GroupSpec, coords, sqrts=None):
        self.group = group
        n, N = group.rank, group.factors
        coords = tuple(tuple(row) for row in coords)
        if len(coords) != N or any(len(row) != n for row in coords):
            raise StructureError(f"expected {N} coordinate vectors of length {n}")
        coords, exact = _scalars(coords)
        if any(not v for row in coords for v in row):
            raise DomainError("torus point has a zero coordinate")
        if sqrts is not None:
            sqrts, _ = _scalars(sqrts, exact)
            if len(sqrts) != N or any(len(row) != n for row in sqrts):
                raise StructureError(f"expected {N} square-root vectors of length {n}")
            if exact:
                ok = all(
                    s * s == x
                    for xr, sr in zip(coords, sqrts)
                    for x, s in zip(xr, sr)
                )
            else:
                ok = all(
                    abs(s * s - x) <= 1e-9 * (1 + abs(x))
                    for xr, sr in zip(coords, sqrts)
                    for x, s in zip(xr, sr)
                )
            if not ok:
                raise DomainError("sqrts are not square roots of coords")
        self.coords = coords
        self.sqrts = sqrts
        self.exact = exact
        self.powers: dict = {}
        self.values: dict = {}
        self.grads: dict = {}
        self.scales: dict = {}
        self.taus: dict = {}

    @classmethod
    def from_sqrt(cls, group: GroupSpec, sqrts) -> "TorusPoint":
        """Build a point from square-root coordinates (fixes the branch)."""
        sq, _ = _scalars(sqrts)
        return cls(group, tuple(tuple(v * v for v in row) for row in sq), sq)

    # -- evaluation -----------------------------------------------------

    def zero_value(self):
        return ZERO if self.exact else 0j

    def _sqrt(self, j: int, i: int):
        if self.sqrts is not None:
            return self.sqrts[j][i]
        if self.exact:
            raise DomainError(
                "half-integer exponent at an exact point without sqrt data"
            )
        return cmath.sqrt(self.coords[j][i])

    def coordinate_power(self, i: int, j: int, doubled: int):
        """x_{ij}^(doubled/2) with 1-based i, j; an index outside the
        group is refused with ``DomainError`` (checked on a cache miss,
        as every cached key passed the check)."""
        key = (i, j, doubled)
        cached = self.powers.get(key)
        if cached is not None:
            return cached
        self.group.require_position(i, j)
        jj, ii = j - 1, i - 1
        if doubled % 2 == 0:
            base = self.coords[jj][ii]
            val = base ** (doubled // 2)
        else:
            val = self._sqrt(jj, ii) ** doubled
        self.powers[key] = val
        return val

    # -- structure -------------------------------------------------------

    def column(self, j: int):
        """Eigenvalue parameters of the j-th generator (1-based)."""
        self.group.require_factor(j)
        return self.coords[j - 1]

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"TorusPoint({self.group}, {mode}, {self.coords})"
