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

Keys are these nested tuples everywhere, inside a multiply too: the
product adds the exponent matrices of each term pair row by row.  For SL
the raw sums are canonicalized afterwards, once per result key, merging
keys that meet through ``sparse.add_term``.  Shifting every row by one
vector commutes with addition, so the terms are those of canonicalizing
each pair's sum, but not always in the same order; ``decompose`` sees
this order, as it presents each orbit by the first key it meets.

``from_json`` doubles int exponents directly (only floats and strings go
through ``Fraction``, strings by way of ``scalars.read_rational``), checks
and canonicalizes each key once while reading, parses each distinct
coefficient text once, and wraps the merged terms without a second pass.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, index, mul
from typing import Iterable, Mapping

from . import sparse
from .errors import DomainError, StructureError
from .groups import GroupSpec
from .jsonio import json_check, json_field, json_term_coeff
from .scalars import GaussRat, ONE, ZERO, read_rational

ExponentMatrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# exponent-matrix helpers
# ---------------------------------------------------------------------------

def exponents(rows: Iterable[Iterable[int]], halves: bool = False) -> ExponentMatrix:
    """Build a doubled-integer exponent matrix from true integer exponents.

    With ``halves=True`` the input entries are interpreted as already
    doubled (so odd values encode half-integers).  Entries must be
    integers (``operator.index``): a float or a Fraction raises TypeError.
    """
    if halves:
        return tuple(tuple(index(e) for e in row) for row in rows)
    return tuple(tuple(2 * index(e) for e in row) for row in rows)


def exponents_from_json(rows, path: str) -> ExponentMatrix:
    """A doubled-integer exponent matrix from JSON rows of integer or
    half-integer exponents (``0.5``, ``"1/2"``).  Ints are doubled
    directly; floats go through ``Fraction`` and strings through
    ``read_rational``; booleans are refused, and a zero denominator is
    named as one.  The path of a row or entry (``path[i][j]``) is
    formatted only to raise."""
    return _read_exponents(rows, path)[0]


def _read_exponents(rows, path: str) -> tuple[ExponentMatrix, bool]:
    """``exponents_from_json(rows, path)`` and whether all entries were ints
    (doubled, so even: only a float or string entry can be a half weight)."""
    doubled, ints = [], True
    for i, row in enumerate(json_check(rows, list, path)):
        if type(row) is not list:
            json_check(row, list, f"{path}[{i}]")
        out = []
        for j, e in enumerate(row):
            if type(e) is int:
                out.append(2 * e)
                continue
            ints = False
            try:
                if isinstance(e, bool):  # Fraction would read True as 1
                    raise TypeError
                d = 2 * (read_rational(e) if isinstance(e, str) else Fraction(e))
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"{path}[{i}][{j}]: not a number: {e!r}") from None
            except ZeroDivisionError:  # its message is Fraction's repr, Fraction(1, 0)
                raise DomainError(f"{path}[{i}][{j}]: zero denominator in {e!r}") from None
            if d.denominator != 1:
                raise DomainError(f"{path}[{i}][{j}]: exponent {e} is not a half-integer")
            out.append(int(d))
        doubled.append(tuple(out))
    return tuple(doubled), ints


def _check_shape(m: ExponentMatrix, group: GroupSpec) -> None:
    rank, factors = group.rank, group.factors
    if len(m) != rank or any(len(row) != factors for row in m):
        got = f"row count {len(m)}" if len(m) != rank else next(
            f"row {i} of length {len(row)}" for i, row in enumerate(m) if len(row) != factors
        )
        raise StructureError(
            f"exponent matrix shape does not match {group}: expected {rank}x{factors}, got {got}"
        )


def check_exponents(m: ExponentMatrix, group: GroupSpec) -> None:
    """Refuse a key of the wrong shape, an entry that is not an ``int``
    (a bool or a float too), and an odd entry outside even SO."""
    _check_shape(m, group)
    odd = not group.allows_half_weights
    for row in m:
        for e in row:
            if type(e) is not int:
                raise DomainError(f"exponent entry {e!r} is not an int")
            if odd and e & 1:
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


def stored_key(m: ExponentMatrix, group: GroupSpec) -> ExponentMatrix:
    """The key under which a polynomial of ``group`` stores the monomial
    ``m``: an unhashable ``m`` (rows given as lists) raises TypeError,
    then ``check_exponents`` runs, and SL keys are canonicalised."""
    hash(m)
    check_exponents(m, group)
    return canonical_mod_relations(m, group)


def zero_exponents(group: GroupSpec) -> ExponentMatrix:
    return ((0,) * group.factors,) * group.rank


def _add_exponents(m1: ExponentMatrix, m2: ExponentMatrix) -> ExponentMatrix:
    """The exponents of the product of two monomials (not canonicalized)."""
    return tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(m1, m2))


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

_NO_TABLES = (None, None)  # a LaurentPoly's tables before use, indexed by point.exact


class LaurentPoly(sparse.SparsePoly):
    """Sparse exact Laurent polynomial over GaussRat coefficients.

    Instances are treated as immutable; every operation returns a new
    polynomial.  Zero coefficients are never stored and SL keys are always
    in canonical form.  Evaluation keeps one table per point kind, exact
    or float, for the life of the instance, so it never goes stale: per
    sorted term the nonzero power keys ``(i, j, e)`` in row-major order
    and the coefficient in the point's scalars (``_table``).  The first
    ``log_gradient_values`` at a point kind adds, per log-partial
    ``(i, j)``, the ``(term index, coefficient)`` pairs of its terms in
    sorted order (``_partial_table``); a polynomial that is only
    evaluated never builds them.  At any point each polynomial then
    computes its monomial values once (``_point_values``), and its value
    and every log-partial sum them with one body for both kinds.
    """

    __slots__ = ("group", "_tables", "_partials")

    def __init__(self, group: GroupSpec, terms: Mapping[ExponentMatrix, GaussRat] = ()):
        self.group = group
        clean: dict[ExponentMatrix, GaussRat] = {}
        for m, coeff in dict(terms).items():
            key = stored_key(m, group)
            if not isinstance(coeff, GaussRat):
                coeff = GaussRat(coeff)
            sparse.add_term(clean, key, coeff)
        self.terms = clean
        self._tables = self._partials = _NO_TABLES

    @classmethod
    def _trusted(cls, group: GroupSpec, terms: dict) -> "LaurentPoly":
        """Wrap ``terms`` without checks or copy; they must already be in
        the stored form (canonical keys, no zero coefficient)."""
        p = cls.__new__(cls)
        p.group, p.terms = group, terms
        p._tables = p._partials = _NO_TABLES
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
        group.require_position(i, j)
        rows = [[0] * group.factors for _ in range(group.rank)]
        rows[i - 1][j - 1] = power
        return cls.monomial(group, exponents(rows))

    # -- ring operations -------------------------------------------------

    # Bound on the class itself so that perfbench/spans.py can wrap it.
    def __mul__(self, other) -> "LaurentPoly":
        return sparse.SparsePoly.__mul__(self, other)

    __rmul__ = __mul__

    def _product(self, other: "LaurentPoly") -> dict:
        """The product on nested-tuple keys; SL keys are canonicalized once
        per result key, not per pair (see the module docstring)."""
        terms = sparse.mul(self.terms, other.terms, _add_exponents)
        group = self.group
        if group.family != "SL":
            return terms
        out: dict[ExponentMatrix, GaussRat] = {}
        for m, c in terms.items():
            sparse.add_term(out, canonical_mod_relations(m, group), c)
        return out

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
        self.group.require_position(i, j)
        out: dict[ExponentMatrix, GaussRat] = {}
        for m, c in self.terms.items():
            e = m[i - 1][j - 1]
            if e:
                out[m] = c * GaussRat(Fraction(e, 2))
        return LaurentPoly._trusted(self.group, out)

    def _table(self, exact: bool) -> tuple:
        """Build ``(power keys, coefficients)`` for exact (``True``) or
        float points and keep it in ``_tables[exact]``.  Per sorted term:
        its nonzero power keys ``(i, j, e)`` in row-major order and its
        coefficient in the point's scalars (the GaussRat itself, or its
        complex)."""
        keys, coeffs = [], []
        for m, c in self.sorted_terms():
            keys.append(tuple((i + 1, j + 1, e) for i, row in enumerate(m) for j, e in enumerate(row) if e))
            coeffs.append(c if exact else complex(c))
        table = (tuple(keys), tuple(coeffs))
        self._tables = (self._tables[0], table) if exact else (table, self._tables[1])
        return table

    def _partial_table(self, exact: bool) -> tuple:
        """Build the log-partial table for exact (``True``) or float points
        and keep it in ``_partials[exact]``: ``[j-1][i-1]`` holds the
        ``(term index, c * e / 2)`` pairs of ``partial(i, j)`` in sorted
        term order, with ``c * e / 2`` in the point's scalars."""
        group = self.group
        partials = [[[] for _ in range(group.rank)] for _ in range(group.factors)]
        keys = (self._tables[exact] or self._table(exact))[0]
        for k, (key, (_, c)) in enumerate(zip(keys, self.sorted_terms())):
            for i, j, e in key:
                d = c * e / 2
                partials[j - 1][i - 1].append((k, d if exact else complex(d)))
        table = tuple(tuple(map(tuple, row)) for row in partials)
        self._partials = (self._partials[0], table) if exact else (table, self._partials[1])
        return table

    def _point_values(self, point) -> tuple:
        """The value of each sorted monomial at the point, memoised in
        ``point.values[id(self)]`` (the entry holds the polynomial, so its
        id is not reused while the point lives): the point's one (``ONE``
        or 1 + 0j) times the coordinate powers in row-major order.  Builds
        the table of the point's kind on first use; the slot is read
        first, so a polynomial already tabled costs no method call."""
        hit = point.values.get(id(self))
        if hit is not None:
            return hit[1]
        exact = point.exact
        one = ONE if exact else 1 + 0j
        get = point.powers.get
        values = []
        for keys in (self._tables[exact] or self._table(exact))[0]:
            v = one
            for key in keys:
                power = get(key)
                if power is None:
                    power = point.coordinate_power(*key)
                v = v * power
            values.append(v)
        values = tuple(values)
        point.values[id(self)] = (self, values)
        return values

    def log_gradient_values(self, point) -> tuple:
        """Values of every logarithmic partial at a point of the same group:
        entry ``[j-1][i-1]`` equals ``self.partial(i, j).evaluate(point)``
        bit for bit.  Each partial sums its tabled coefficients times the
        monomial values memoised at the point, in sorted term order from
        the first term; no partial polynomial is built.
        """
        self._require_point_group(point)
        values = self._point_values(point)  # builds the table on first use
        exact = point.exact
        grads = []
        for row in self._partials[exact] or self._partial_table(exact):
            vec = []
            for terms in row:
                total = None
                for k, c in terms:
                    term = c * values[k]
                    total = term if total is None else total + term
                vec.append(point.zero_value() if total is None else total)
            grads.append(tuple(vec))
        return tuple(grads)

    def evaluate(self, point):
        """Substitution homomorphism at a torus point of the same group.

        ``point`` is a ``TorusPoint``; the result type follows it (complex
        in float mode, GaussRat in exact mode).  The tabled coefficients
        of the point's kind times the monomial values memoised at the
        point, which ``log_gradient_values`` shares, are summed in sorted
        order from the first term.
        """
        self._require_point_group(point)
        values = self._point_values(point)  # builds the table on first use
        total = None
        for term in map(mul, self._tables[point.exact][1], values):
            total = term if total is None else total + term
        return point.zero_value() if total is None else total

    # -- structure queries -------------------------------------------------

    def coefficient(self, m: ExponentMatrix) -> GaussRat:
        return self.terms.get(canonical_mod_relations(m, self.group), ZERO)

    def has_half_weights(self) -> bool:
        return any(e & 1 for row in set().union(*self.terms) for e in row)

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
        """Read ``{"group": ..., "terms": [{"coeff": text, "exps": rows}]}``;
        a bad value raises DomainError naming its path, formatted only
        then, and terms that cancel are checked too.  Each distinct
        coefficient text (an orbit's monomials share one) is parsed once
        per call, through the local memo ``coeffs``."""
        json_check(obj, dict, "")
        if "group" not in obj:
            raise DomainError("group: missing")
        group = GroupSpec.from_json(obj["group"])
        terms: dict[ExponentMatrix, GaussRat] = {}
        coeffs: dict[str, GaussRat] = {}
        for k, entry in enumerate(json_field(obj, "terms", list, "", default=[])):
            if type(entry) is not dict:
                json_check(entry, dict, f"terms[{k}]")
            rows = entry.get("exps")
            if type(rows) is not list:
                rows = json_field(entry, "exps", list, f"terms[{k}]")
            try:
                m, ints = _read_exponents(rows, "exps")
            except DomainError as exc:
                raise DomainError(f"terms[{k}].{exc}") from None
            (_check_shape if ints else check_exponents)(m, group)
            sparse.add_term(terms, canonical_mod_relations(m, group), json_term_coeff(entry, k, coeffs))
        return LaurentPoly._trusted(group, terms)

    def __repr__(self) -> str:
        return f"LaurentPoly[{self.group}]({self})"
