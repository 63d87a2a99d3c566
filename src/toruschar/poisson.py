"""Symbolic Poisson algebra on torus trace symbols.

Polynomials in the symbols tau(p, q), (p, q) in Z^2, carry the bracket

    {tau_a, tau_b} = det(a, b)/c * (tau_{a+b} - tau_a tau_b / n)      (SL)
    {tau_a, tau_b} = det(a, b)/(2c) * (tau_{a+b} - tau_{a-b})         (Sp, SO)

extended to products by Leibniz and to sums bilinearly.  The scalar c is
the multiple of the trace form used for the underlying symplectic
structure.  For Sp/SO the symbols tau(-a) and tau(a) coincide and keys
are normalized accordingly at construction; no such identification is
made for GL/SL.

There is no GL formula in this scheme; an extrapolated rule
{tau_a, tau_b} = det(a,b)/c * tau_{a+b} is available behind an explicit
flag, validated only by agreement with the numeric oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Mapping

from . import sparse
from .errors import DomainError, NoGLFormulaError, ResourceLimitError, StructureError
from .generators import _normalize_vector, tau_image
from .groups import GroupSpec
from .jsonio import json_check, json_coeff, json_field, json_ints, parse_scalar
from .laurent import _NO_TABLES
from .scalars import GaussRat, ONE, read_rational, to_fraction

LatticeVec = tuple[int, int]

# A window of |p|, |q| <= 8 holds up to 289 symbols; its structure-constant
# table (about 42 000 brackets, 27 MB of JSON for SL(3)) takes 0.85-0.97 s
# to build and 2.7-3.3 s as the ``structure-constants`` command, JSON
# writing included, on a 2-vCPU host; the cost grows as the fourth power
# of the cutoff.
CUTOFF_CAP = 8


def _norm_symbol(group: GroupSpec, a) -> LatticeVec:
    if len(a) != 2:
        raise DomainError(f"a trace symbol takes 2 entries, got {len(a)}")
    a = (index(a[0]), index(a[1]))
    return _normalize_vector(a)[0] if group.signed else a


class TauPoly(sparse.SparsePoly):
    """Polynomial in trace symbols over GaussRat, tied to a group and a
    trace-form multiple c.  Instances are treated as immutable, so the
    tables that ``evaluate`` keeps, one per point kind, never go stale."""

    __slots__ = ("group", "c", "_tables")

    def __init__(self, group: GroupSpec, c: Fraction, terms: Mapping[tuple, GaussRat] = ()):
        if group.factors != 2:
            raise StructureError("trace symbols need exactly two factors")
        c = to_fraction(c)
        if c == 0:
            raise StructureError("c must be nonzero")
        self.group = group
        self.c = c
        clean: dict[tuple, GaussRat] = {}
        for key, coeff in dict(terms).items():
            if not isinstance(coeff, GaussRat):
                coeff = GaussRat(coeff)
            sparse.add_term(clean, tuple(sorted(_norm_symbol(group, a) for a in key)), coeff)
        self.terms = clean
        self._tables = _NO_TABLES

    def _ring(self) -> tuple:
        return (self.group, self.c)

    @classmethod
    def _trusted(cls, group: GroupSpec, c: Fraction, terms: dict) -> "TauPoly":
        """Wrap ``terms`` without checks or copy; they must already be in
        the stored form (normalized sorted keys, no zero coefficient)."""
        p = cls.__new__(cls)
        p.group, p.c, p.terms, p._tables = group, c, terms, _NO_TABLES
        return p

    def _wrap(self, terms: dict) -> "TauPoly":
        return TauPoly._trusted(self.group, self.c, terms)

    def _factors(self, key: tuple) -> str:
        return "*".join(f"tau({a[0]},{a[1]})" for a in key)

    def _table(self, exact: bool) -> tuple:
        """The sorted ``(key, coefficient)`` terms for exact (``True``) or
        float points, the coefficient in the point's scalars (the GaussRat
        itself, or its complex), kept in ``_tables[exact]``."""
        table = tuple((key, c if exact else complex(c)) for key, c in self.sorted_terms())
        self._tables = (self._tables[0], table) if exact else (table, self._tables[1])
        return table

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, group: GroupSpec, c: Fraction = Fraction(1)) -> "TauPoly":
        return cls(group, c)

    @classmethod
    def constant(cls, group: GroupSpec, c: Fraction, value) -> "TauPoly":
        return cls(group, c, {(): value})

    @classmethod
    def symbol(cls, group: GroupSpec, c: Fraction, a) -> "TauPoly":
        return cls(group, c, {(tuple(a),): ONE})

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point):
        """Substitute tau(a) by the trace of the corresponding torus
        element at the point (via the Laurent image of the generator).

        Each point kind reads its own table of sorted terms (``_table``),
        built on the first evaluation of that kind and kept as long as the
        polynomial.  The value of each tau(a) is memoised in
        ``point.taus[a]`` (the point fixes the group) and lives as long as
        the point, so every polynomial evaluated at one point shares it.
        """
        group = self.group
        if point.group is not group and point.group != group:
            raise StructureError(f"group mismatch: {group} vs point of {point.group}")
        if not self.terms:  # its empty table would be built again on every call
            return point.zero_value()
        # The slot is read first, as a method call costs the oracle ~3%.
        terms = self._tables[point.exact] or self._table(point.exact)
        taus = point.taus
        total = None
        for key, term in terms:
            for a in key:
                v = taus.get(a)
                if v is None:
                    v = taus[a] = tau_image(group, a).evaluate(point)
                term = term * v
            total = term if total is None else total + term
        return total

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "c": str(self.c),
            "terms": [
                {"coeff": str(v), "factors": [list(a) for a in k]}
                for k, v in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "TauPoly":
        json_check(obj, dict, "")
        group = GroupSpec.from_json(json_field(obj, "group", dict, ""))
        c = parse_scalar(read_rational, json_field(obj, "c", str, "", default="1"), "", "c")
        terms: dict[tuple, GaussRat] = {}
        for k, entry in enumerate(json_field(obj, "terms", list, "", default=[])):
            where = f"terms[{k}]"
            json_check(entry, dict, where)
            key = []
            for j, a in enumerate(json_field(entry, "factors", list, where, default=[])):
                fwhere = f"{where}.factors[{j}]"
                if len(json_ints(a, fwhere)) != 2:
                    raise DomainError(f"{fwhere}: expected 2 entries, got {len(a)}")
                key.append(tuple(a))
            sparse.add_term(terms, tuple(key), json_coeff(entry, where))
        return TauPoly(group, c, terms)

    def __repr__(self) -> str:
        return f"TauPoly[{self.group}, c={self.c}]({self})"


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _bracket_rule(group: GroupSpec, c: Fraction, extrapolated_gl: bool):
    """The symbol bracket of one (group, c) as a function of two integer
    pairs, with the family's constants built once as GaussRats.  It
    returns the bracket's ``(key, coefficient)`` terms in stored form (a
    det = 0 pair gives none): the a+b and a-b keys normalized on signed
    groups, the SL pair key sorted.  Without ``extrapolated_gl`` a GL
    pair raises NoGLFormulaError only when det != 0."""
    if group.factors != 2:
        raise StructureError("trace symbols need exactly two factors")
    family = group.family
    if family == "SL":
        inv_c = GaussRat(1 / c)
        unit_n = GaussRat(-1 / (group.rank * c))

        def rule(a, b):
            det = a[0] * b[1] - a[1] * b[0]
            if not det:
                return ()
            pair = (a, b) if a <= b else (b, a)
            return (((a[0] + b[0], a[1] + b[1]),), inv_c * det), (pair, unit_n * det)

    elif family == "GL":
        inv_c = GaussRat(1 / c)

        def rule(a, b):
            det = a[0] * b[1] - a[1] * b[0]
            if not det:
                return ()
            if not extrapolated_gl:
                raise NoGLFormulaError(
                    "no GL bracket formula; pass extrapolated_gl=True for the "
                    "oracle-validated extrapolation"
                )
            return (((a[0] + b[0], a[1] + b[1]),), inv_c * det),

    else:
        half_c = GaussRat(1 / (2 * c))

        def rule(a, b):
            det = a[0] * b[1] - a[1] * b[0]
            if not det:
                return ()
            scale = half_c * det
            plus = _normalize_vector((a[0] + b[0], a[1] + b[1]))[0]
            minus = _normalize_vector((a[0] - b[0], a[1] - b[1]))[0]
            return ((plus,), scale), ((minus,), -scale)

    return rule


def bracket_symbols(
    a,
    b,
    group: GroupSpec,
    c: Fraction = Fraction(1),
    extrapolated_gl: bool = False,
) -> TauPoly:
    """Poisson bracket of two trace symbols, each a pair of integers
    (``operator.index``: a float or a Fraction raises TypeError).  The
    rule and its constants are built once per (group, c)."""
    c = to_fraction(c)
    if c == 0:
        raise DomainError("c must be nonzero")
    if len(a) != 2 or len(b) != 2:
        raise DomainError(f"a trace symbol takes 2 entries, got {len(a)} and {len(b)}")
    a = (index(a[0]), index(a[1]))
    b = (index(b[0]), index(b[1]))
    rule = _bracket_rule(group, c, extrapolated_gl)
    return TauPoly._trusted(group, c, dict(rule(a, b)))


def bracket_poly(
    f: TauPoly, h: TauPoly, extrapolated_gl: bool = False
) -> TauPoly:
    """Bilinear, Leibniz extension of the symbol bracket.  The rule and its
    constants are built once per (group, c); each factor pair adds the
    rule's terms straight into one accumulator."""
    f._require_same_ring(h)
    rule = _bracket_rule(f.group, f.c, extrapolated_gl)
    terms: dict[tuple, GaussRat] = {}
    for k1, v1 in f.terms.items():
        for k2, v2 in h.terms.items():
            scale = v1 * v2
            for i1 in range(len(k1)):
                rest1 = k1[:i1] + k1[i1 + 1 :]
                for i2 in range(len(k2)):
                    rest2 = k2[:i2] + k2[i2 + 1 :]
                    extra = rest1 + rest2
                    for key, v in rule(k1[i1], k2[i2]):
                        sparse.add_term(terms, sparse.merge_keys(key, extra), v * scale)
    return f._wrap(terms)


def jacobi_defect(
    a, b, c3, group: GroupSpec, c: Fraction = Fraction(1), extrapolated_gl: bool = False
) -> TauPoly:
    """{{a,b},c3} + {{b,c3},a} + {{c3,a},b} as a TauPoly; the Poisson
    structure is valid precisely when this collects to zero."""
    def sym(v):
        return TauPoly.symbol(group, c, v)

    total = TauPoly.zero(group, c)
    for x, y, z in ((a, b, c3), (b, c3, a), (c3, a, b)):
        inner = bracket_symbols(x, y, group, c, extrapolated_gl)
        total = total + bracket_poly(inner, sym(z), extrapolated_gl)
    return total


def symbol_window(group: GroupSpec, cutoff: int) -> list[LatticeVec]:
    """Distinct canonical symbols with |p|, |q| <= cutoff, sorted.  A
    cutoff above CUTOFF_CAP raises ResourceLimitError."""
    if cutoff > CUTOFF_CAP:
        raise ResourceLimitError(f"symbol window cutoff {cutoff} exceeds cap {CUTOFF_CAP}")
    seen = set()
    for p in range(-cutoff, cutoff + 1):
        for q in range(-cutoff, cutoff + 1):
            seen.add(_norm_symbol(group, (p, q)))
    return sorted(seen)


def structure_constants(
    group: GroupSpec, c: Fraction, cutoff: int, extrapolated_gl: bool = False
) -> dict:
    """All brackets of distinct symbol pairs in the cutoff window, as a
    JSON-ready table sorted by (a, b); diagonal pairs vanish identically
    and are omitted."""
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    syms = symbol_window(group, cutoff)
    entries = []
    for i, a in enumerate(syms):
        for b in syms[i + 1 :]:
            br = bracket_symbols(a, b, group, c, extrapolated_gl)
            entries.append({"a": list(a), "b": list(b), "bracket": br.to_json()})
    return {
        "group": group.to_json(),
        "c": str(to_fraction(c)),
        "cutoff": cutoff,
        "entries": entries,
    }
