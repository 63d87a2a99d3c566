"""Sparse Laurent polynomials on products of maximal tori.

The coordinate ring worked in is C[x_ij^{+-1}] with 1 <= i <= n (torus rank)
and 1 <= j <= N (number of Z-factors).  A monomial is an n x N matrix of
exponents; row i is the exponent vector of the i-th eigenvalue coordinate.
Exponents are stored *doubled* so the half-integer weights that occur for
even special orthogonal groups remain plain hashable integers: a stored
entry 2k means exponent k, an odd entry 2k+1 means k + 1/2.  Odd entries are
rejected for every family except SOeven.

For SL the ring is the quotient by the relations prod_i x_ij = 1; monomial
keys are normalized by ``canonical_mod_relations`` at construction time, so
polynomial equality is equality in the quotient ring.

Keys are stored as these nested tuples everywhere.  Only inside a
multiply (``LaurentPoly.__mul__`` and ``generators.expand``) are they
packed into ints by a ``Packing`` (Kronecker substitution): the n*N
entries, read row by row, become the big-endian digits ``e + half`` of
width w bits, where ``half = 2**(w-1)`` exceeds the largest |e| any
product can reach (there is no cap on w).  The packed key itself is ``sum_k e_k * 2**(w*(L-1-k))``
(L = n*N), the digit form minus the constant ``bias = half * sum_k
2**(w*(L-1-k))``, so the key of a monomial product is the sum of the keys
and one multiply is one int addition per term pair.  Keys are unpacked
once per result term.  For SL the raw sums are canonicalized only then,
merging keys that meet through ``sparse.add_term``: shifting every row by
one vector commutes with addition, so this equals canonicalizing each
pair's sum.  Inside ``expand`` the packed coefficients are plain ints as
well (every generator image is i^k times an integer polynomial), and one
``GaussRat`` per result key is built just before unpacking.

``from_json`` doubles int exponents directly (only floats and strings go
through ``Fraction``, strings by way of ``scalars.read_rational``), checks
and canonicalizes each key once while reading, and wraps the merged terms
without a second pass.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from . import sparse
from .errors import DomainError, StructureError
from .groups import GroupSpec
from .jsonio import json_check, json_coeff, json_field
from .scalars import GaussRat, ONE, ZERO, read_rational

ExponentMatrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# exponent-matrix helpers
# ---------------------------------------------------------------------------

def exponents(rows: Iterable[Iterable[int]], halves: bool = False) -> ExponentMatrix:
    """Build a doubled-integer exponent matrix from true integer exponents.

    With ``halves=True`` the input entries are interpreted as already
    doubled (so odd values encode half-integers).
    """
    if halves:
        return tuple(tuple(int(e) for e in row) for row in rows)
    return tuple(tuple(2 * int(e) for e in row) for row in rows)


def exponents_from_json(rows, path: str) -> ExponentMatrix:
    """A doubled-integer exponent matrix from JSON rows of integer or
    half-integer exponents (``0.5``, ``"1/2"``).  Ints are doubled
    directly; floats go through ``Fraction`` and strings through
    ``read_rational``; booleans are refused."""
    doubled = []
    for i, row in enumerate(json_check(rows, list, path)):
        out = []
        for j, e in enumerate(json_check(row, list, f"{path}[{i}]")):
            if type(e) is int:
                out.append(2 * e)
                continue
            try:
                if isinstance(e, bool):  # Fraction would read True as 1
                    raise TypeError
                d = 2 * (read_rational(e) if isinstance(e, str) else Fraction(e))
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"{path}[{i}][{j}]: not a number: {e!r}") from None
            if d.denominator != 1:
                raise DomainError(f"{path}[{i}][{j}]: exponent {e} is not a half-integer")
            out.append(int(d))
        doubled.append(tuple(out))
    return tuple(doubled)


def check_exponents(m: ExponentMatrix, group: GroupSpec) -> None:
    if len(m) != group.rank or any(len(row) != group.factors for row in m):
        raise StructureError(
            f"exponent matrix shape {len(m)}x? does not match {group}"
        )
    if not group.allows_half_weights:
        for row in m:
            for e in row:
                if e & 1:
                    raise DomainError(
                        f"half-integer exponent not allowed for family {group.family}"
                    )


def true_exponents(m: ExponentMatrix) -> list[list]:
    """Exponents as true values: ints where integral, floats (k+0.5) otherwise."""
    out = []
    for row in m:
        out.append([e // 2 if e % 2 == 0 else e / 2 for e in row])
    return out


def canonical_mod_relations(m: ExponentMatrix, group: GroupSpec) -> ExponentMatrix:
    """Canonical representative of a monomial modulo the SL relations.

    The relations identify monomials differing by adding one vector c to
    every row.  The representative shifts the most frequent row value to
    zero; frequency ties are broken by the lexicographically smallest row
    value.  Families other than SL are returned unchanged.
    """
    if group.family != "SL":
        return m
    counts: dict[tuple[int, ...], int] = {}
    for row in m:
        counts[row] = counts.get(row, 0) + 1
    best = max(counts.values())
    c = min(row for row, k in counts.items() if k == best)
    if not any(c):
        return m
    return tuple(tuple(e - ce for e, ce in zip(row, c)) for row in m)


def zero_exponents(group: GroupSpec) -> ExponentMatrix:
    return tuple((0,) * group.factors for _ in range(group.rank))


def max_abs_exponent(terms) -> int:
    """The largest |e| over every entry of every key of ``terms``; 0 when
    there are none."""
    return max((abs(e) for m in terms for row in m for e in row), default=0)


class Packing:
    """Packs the exponent matrices of one group into ints, and back, for
    products whose entries all stay at most ``bound`` in absolute value
    (see the module docstring for the layout).  Packed keys multiply by
    int addition (``sparse.mul(a, b, operator.add)``) and the zero matrix
    packs to 0."""

    __slots__ = ("group", "width", "half", "mask", "shifts", "bias")

    def __init__(self, group: GroupSpec, bound: int):
        self.group = group
        self.width = bound.bit_length() + 1
        self.half = 1 << (self.width - 1)
        self.mask = (1 << self.width) - 1
        size = group.rank * group.factors
        self.shifts = tuple(self.width * k for k in reversed(range(size)))
        self.bias = sum(self.half << s for s in self.shifts)

    def pack_terms(self, terms: Mapping[ExponentMatrix, GaussRat]) -> dict[int, GaussRat]:
        width = self.width
        out = {}
        for m, c in terms.items():
            key = 0
            for row in m:
                for e in row:
                    key = (key << width) + e
            out[key] = c
        return out

    def unpack_terms(self, packed: Mapping[int, GaussRat]) -> dict[ExponentMatrix, GaussRat]:
        """Stored-form terms (SL keys canonicalized, equal keys merged)."""
        group, bias, mask, half, shifts = self.group, self.bias, self.mask, self.half, self.shifts
        n_cols = group.factors
        sl = group.family == "SL"
        out: dict[ExponentMatrix, GaussRat] = {}
        for key, c in packed.items():
            u = key + bias
            digits = [((u >> s) & mask) - half for s in shifts]
            m = tuple(zip(*[iter(digits)] * n_cols))  # consecutive digits as rows
            if sl:
                sparse.add_term(out, canonical_mod_relations(m, group), c)
            else:
                out[m] = c
        return out


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

def sum_terms(terms, point):
    """Sum of ``coeff * point.monomial_value(m)`` over ``(m, coeff)`` pairs,
    in the order given, starting from the first term; ``point.zero_value()``
    when there are none.  Coefficients must already be in the point's
    scalar type (GaussRat for exact points, complex for float points).

    This is the one evaluation loop of ``evaluate`` and
    ``log_gradient_values``, so both give bit-identical values.
    """
    total = None
    value = point.monomial_value
    for m, c in terms:
        term = c * value(m)
        total = term if total is None else total + term
    if total is None:
        return point.zero_value()
    return total


class LaurentPoly(sparse.SparsePoly):
    """Sparse exact Laurent polynomial over GaussRat coefficients.

    Instances are treated as immutable; every operation returns a new
    polynomial.  Zero coefficients are never stored and SL keys are always
    in canonical form.  The table of logarithmic partials and the sorted
    ``(m, complex)`` terms of float evaluation are built on first use and
    kept for the life of the instance (see ``log_gradient_values`` and
    ``evaluate``).
    """

    __slots__ = ("group", "_log_partials")

    def __init__(self, group: GroupSpec, terms: Mapping[ExponentMatrix, GaussRat] = ()):
        self.group = group
        clean: dict[ExponentMatrix, GaussRat] = {}
        for m, coeff in dict(terms).items():
            check_exponents(m, group)
            if not isinstance(coeff, GaussRat):
                coeff = GaussRat(coeff)
            sparse.add_term(clean, canonical_mod_relations(m, group), coeff)
        self.terms = clean
        self._log_partials = self._float_terms = None

    @classmethod
    def _trusted(cls, group: GroupSpec, terms: dict) -> "LaurentPoly":
        """Wrap ``terms`` without checks or copy; they must already be in
        the stored form (canonical keys, no zero coefficient)."""
        p = cls.__new__(cls)
        p.group, p.terms = group, terms
        p._log_partials = p._float_terms = None
        return p

    def _ring(self) -> tuple:
        return (self.group,)

    def _wrap(self, terms: dict) -> "LaurentPoly":
        return LaurentPoly._trusted(self.group, terms)

    def _factors(self, m: ExponentMatrix) -> str:
        factors = []
        for i, row in enumerate(m, start=1):
            for j, e in enumerate(row, start=1):
                if e:
                    p = e // 2 if e % 2 == 0 else f"{e}/2"
                    factors.append(f"x{i}{j}^{p}" if p != 1 else f"x{i}{j}")
        return "*".join(factors)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, group: GroupSpec) -> "LaurentPoly":
        return cls._trusted(group, {})

    @classmethod
    def constant(cls, group: GroupSpec, value) -> "LaurentPoly":
        return cls(group, {zero_exponents(group): GaussRat(value) if not isinstance(value, GaussRat) else value})

    @classmethod
    def monomial(cls, group: GroupSpec, m: ExponentMatrix, coeff=ONE) -> "LaurentPoly":
        return cls(group, {m: coeff if isinstance(coeff, GaussRat) else GaussRat(coeff)})

    @classmethod
    def variable(cls, group: GroupSpec, i: int, j: int, power: int = 1) -> "LaurentPoly":
        """The monomial x_ij^power (1-based indices, integer power)."""
        rows = [[0] * group.factors for _ in range(group.rank)]
        rows[i - 1][j - 1] = power
        return cls.monomial(group, exponents(rows))

    # -- ring operations -------------------------------------------------

    # Bound on the class itself so that perfbench/spans.py can wrap it.
    def __mul__(self, other) -> "LaurentPoly":
        return sparse.SparsePoly.__mul__(self, other)

    __rmul__ = __mul__

    def _product(self, other: "LaurentPoly") -> dict:
        """The packed multiply: keys packed into ints by one ``Packing``
        wide enough for the product, so a key product is an int sum."""
        packing = Packing(
            self.group, max_abs_exponent(self.terms) + max_abs_exponent(other.terms)
        )
        product = sparse.mul(
            packing.pack_terms(self.terms), packing.pack_terms(other.terms), add
        )
        return packing.unpack_terms(product)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise DomainError("negative polynomial powers are not defined")
        out = LaurentPoly.constant(self.group, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus / evaluation -------------------------------------------

    def _require_point_group(self, point) -> None:
        if point.group is not self.group and point.group != self.group:
            raise StructureError(f"group mismatch: {self.group} vs point of {point.group}")

    def partial(self, i: int, j: int) -> "LaurentPoly":
        """Logarithmic derivative x_ij * d/dx_ij (1-based indices), exact.

        Each term is multiplied by its true (possibly half-integer)
        exponent in variable (i, j).
        """
        out: dict[ExponentMatrix, GaussRat] = {}
        for m, c in self.terms.items():
            e = m[i - 1][j - 1]
            if e:
                out[m] = c * GaussRat(Fraction(e, 2))
        return LaurentPoly._trusted(self.group, out)

    def log_gradient_values(self, point) -> tuple:
        """Values of every logarithmic partial at a point of the same group:
        entry ``[j-1][i-1]`` equals ``self.partial(i, j).evaluate(point)``
        bit for bit (the same terms in the same order through
        ``sum_terms``).

        The exact work is done once per polynomial: on first use a table
        of the sorted terms of each ``partial(i, j)`` is built, as
        ``(m, GaussRat)`` and as ``(m, complex)`` pairs, and kept as long
        as the polynomial.  Instances are immutable, so it never goes
        stale.  Only the float (or exact) sums are left for each point.
        """
        self._require_point_group(point)
        table = self._log_partials
        if table is None:
            group = self.group
            table = []
            for j in range(1, group.factors + 1):
                row = []
                for i in range(1, group.rank + 1):
                    exact = tuple(self.partial(i, j).sorted_terms())
                    row.append((exact, tuple((m, complex(c)) for m, c in exact)))
                table.append(tuple(row))
            table = self._log_partials = tuple(table)
        mode = 0 if point.exact else 1
        return tuple(
            tuple(sum_terms(terms[mode], point) for terms in row) for row in table
        )

    def evaluate(self, point):
        """Substitution homomorphism at a torus point of the same group.

        ``point`` must provide ``group``, ``exact``,
        ``monomial_value(exponent_matrix)`` and ``zero_value()``; the
        result type follows the point (complex in float mode, GaussRat in
        exact mode).  Float points reuse the sorted ``(m, complex)`` terms
        kept from the first float evaluation; exact points sort the exact
        terms.
        """
        self._require_point_group(point)
        if point.exact:
            return sum_terms(self.sorted_terms(), point)
        # The slot is read first, as a method call costs the oracle ~3%.
        return sum_terms(self._float_terms or self._float_sorted(), point)

    # -- structure queries -------------------------------------------------

    def coefficient(self, m: ExponentMatrix) -> GaussRat:
        return self.terms.get(canonical_mod_relations(m, self.group), ZERO)

    def has_half_weights(self) -> bool:
        return any(e & 1 for m in self.terms for row in m for e in row)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "terms": [
                {"coeff": str(c), "exps": true_exponents(m)}
                for m, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        json_check(obj, dict, "")
        if "group" not in obj:
            raise DomainError("group: missing")
        group = GroupSpec.from_json(obj["group"])
        terms: dict[ExponentMatrix, GaussRat] = {}
        for k, entry in enumerate(json_field(obj, "terms", list, "", default=[])):
            where = f"terms[{k}]"
            json_check(entry, dict, where)
            m = exponents_from_json(json_field(entry, "exps", list, where), where + ".exps")
            check_exponents(m, group)  # also for terms that cancel
            sparse.add_term(terms, canonical_mod_relations(m, group), json_coeff(entry, where))
        return LaurentPoly._trusted(group, terms)

    def __repr__(self) -> str:
        return f"LaurentPoly[{self.group}]({self})"
