"""Symbolic Poisson algebra on torus trace symbols.

Polynomials in the symbols tau(p, q), (p, q) in Z^2, carry the bracket

    {tau_a, tau_b} = det(a, b)/c * tau_{a+b}                          (GL)
    {tau_a, tau_b} = det(a, b)/c * (tau_{a+b} - tau_a tau_b / n)      (SL)
    {tau_a, tau_b} = det(a, b)/(2c) * (tau_{a+b} - tau_{a-b})         (Sp, SO)

extended to products by Leibniz and to sums bilinearly.  The scalar c is
the multiple of the trace form used for the underlying symplectic
structure.  For Sp/SO the symbols tau(-a) and tau(a) coincide and keys
are normalized accordingly at construction; no such identification is
made for GL/SL.

Each rule sums the torus Goldman form {x^m, x^k} = w(m, k) x^{m+k}, with
w(m, k) = (P m_1 . P k_2 - P m_2 . P k_1) / ``lie.cartan_metric`` (m_j the
exponent column of factor j, P the projection onto the Cartan), over the
monomials of tau_a and tau_b: on GL only the x_i^a, x_i^b of one i pair,
each by det(a, b)/c; SL's traceless P adds -det(a, b)/(n c) per pair; on
Sp/SO, B = 2c and the x_i^{-b} give tau_{a-b}.
``tests/test_bracket_exact.py`` checks every rule by this expansion.

Each rule is built once per (group, c) as integer weights and one
rational scale r: the weight det for GL, n*det on tau_{a+b} and -det on
tau_a tau_b for SL, +-det for Sp and SO, with r = 1/c, 1/(n c) and 1/(2c).
``bracket_symbols`` reduces each weight times r once.  ``bracket_poly``
scales f and h to Gaussian integers over the lcm of each one's
denominators, sums weight times product into one int pair per output key,
and reduces each key once over r's denominator times the two lcms, the
common-denominator step ``generators.orbit_coefficients`` also takes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import index
from typing import Mapping

from . import sparse
from .errors import DomainError, ResourceLimitError, StructureError
from .generators import _normalize_vector, tau_image
from .groups import GroupSpec
from .jsonio import json_check, json_coeff, json_field, json_ints, parse_scalar
from .laurent import _NO_TABLES
from .scalars import GaussRat, ONE, _reduced, read_rational, to_fraction

LatticeVec = tuple[int, int]

# A window of |p|, |q| <= 8 holds up to 289 symbols; its structure-constant
# table (about 42 000 brackets, 27 MB of JSON for SL(3)) takes 0.65-0.88 s
# to build and 2.4-2.7 s as the ``structure-constants`` command, JSON
# writing included, on a 2-vCPU host; the cost grows as the fourth power
# of the cutoff.
CUTOFF_CAP = 8


def _norm_symbol(group: GroupSpec, a) -> LatticeVec:
    if len(a) != 2:
        raise DomainError(f"a trace symbol takes 2 entries, got {len(a)}")
    a = (index(a[0]), index(a[1]))
    return _normalize_vector(a)[0] if group.signed else a


def _read_c(c) -> Fraction:
    """The trace-form multiple c as a Fraction: the one reader of c in this
    module.  Zero, and text that ``read_rational`` refuses or that has a
    zero denominator, raise DomainError."""
    if type(c) is not Fraction:
        c = parse_scalar(to_fraction, c)
    if not c:
        raise DomainError("c must be nonzero")
    return c


class TauPoly(sparse.SparsePoly):
    """Polynomial in trace symbols over GaussRat, tied to a group and a
    trace-form multiple c.  Instances are treated as immutable, so the
    tables that ``evaluate`` keeps, one per point kind, never go stale."""

    __slots__ = ("group", "c", "_tables")

    def __init__(self, group: GroupSpec, c: Fraction, terms: Mapping[tuple, GaussRat] = ()):
        if group.factors != 2:
            raise StructureError("trace symbols need exactly two factors")
        self.group = group
        self.c = _read_c(c)
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
def _bracket_rule(group: GroupSpec, c_num: int, c_den: int):
    """The symbol bracket of one (group, c = c_num/c_den) as ``(rule, r_num,
    r_den)``.  ``rule(a, b)`` takes two integer pairs and returns the
    bracket's ``(key, weight)`` terms, keys in stored form (the a+b and a-b
    keys normalized on signed groups, the SL pair key sorted) and weights
    ints; a det = 0 pair gives none.  The bracket is r times their sum, r =
    r_num/r_den with r_den > 0: 1/c for GL, 1/(n c) for SL, 1/(2c) for Sp
    and SO."""
    if group.factors != 2:
        raise StructureError("trace symbols need exactly two factors")
    family = group.family
    if family == "SL":
        n = group.rank
        r = Fraction(c_den, n * c_num)

        def rule(a, b):
            det = a[0] * b[1] - a[1] * b[0]
            if not det:
                return ()
            pair = (a, b) if a <= b else (b, a)
            return (((a[0] + b[0], a[1] + b[1]),), n * det), (pair, -det)

    elif family == "GL":
        r = Fraction(c_den, c_num)

        def rule(a, b):
            det = a[0] * b[1] - a[1] * b[0]
            if not det:
                return ()
            return (((a[0] + b[0], a[1] + b[1]),), det),

    else:
        r = Fraction(c_den, 2 * c_num)

        def rule(a, b):
            det = a[0] * b[1] - a[1] * b[0]
            if not det:
                return ()
            plus = _normalize_vector((a[0] + b[0], a[1] + b[1]))[0]
            minus = _normalize_vector((a[0] - b[0], a[1] - b[1]))[0]
            return ((plus,), det), ((minus,), -det)

    return rule, r.numerator, r.denominator


def _symbol_bracket(group: GroupSpec, c: Fraction, bracket: tuple, a, b) -> TauPoly:
    """The bracket of the symbols a and b by ``bracket``, the
    ``_bracket_rule`` of (group, c): one reduced coefficient per term."""
    if len(a) != 2 or len(b) != 2:
        raise DomainError(f"a trace symbol takes 2 entries, got {len(a)} and {len(b)}")
    rule, r_num, r_den = bracket
    a = (index(a[0]), index(a[1]))
    b = (index(b[0]), index(b[1]))
    return TauPoly._trusted(group, c, {key: _reduced(w * r_num, 0, r_den) for key, w in rule(a, b)})


def bracket_symbols(a, b, group: GroupSpec, c: Fraction = Fraction(1)) -> TauPoly:
    """Poisson bracket of two trace symbols, each a pair of integers
    (``operator.index``: a float or a Fraction raises TypeError).  The
    rule is built once per (group, c)."""
    c = _read_c(c)
    return _symbol_bracket(group, c, _bracket_rule(group, c.numerator, c.denominator), a, b)


def _over_lcm(terms: dict) -> tuple[list, int]:
    """The non-constant terms as ``(key, A, B)`` and L, the lcm of all the
    denominators, with A + Bi = L * coefficient."""
    denom = lcm(*[v._d for v in terms.values()])
    scaled = [(k, v._a * (denom // v._d), v._b * (denom // v._d)) for k, v in terms.items() if k]
    return scaled, denom


def bracket_poly(f: TauPoly, h: TauPoly) -> TauPoly:
    """Bilinear, Leibniz extension of the symbol bracket, in integers.  f
    and h are scaled to Gaussian integers over Lf and Lh, the lcm of their
    denominators; each factor pair adds w * (A1 + B1 i)(A2 + B2 i), w the
    rule's integer weight, to the [real, imaginary] int pair of its output
    key.  Each key then gets one coefficient, reduced over r_den * Lf * Lh;
    a key that sums to zero is dropped."""
    f._require_same_ring(h)
    c = f.c
    rule, r_num, r_den = _bracket_rule(f.group, c.numerator, c.denominator)
    f_terms, lf = _over_lcm(f.terms)
    h_terms, lh = _over_lcm(h.terms)
    sums: dict[tuple, list] = {}
    get = sums.get
    for k1, a1, b1 in f_terms:
        for k2, a2, b2 in h_terms:
            re = a1 * a2 - b1 * b2
            im = a1 * b2 + b1 * a2
            for i1 in range(len(k1)):
                rest1 = k1[:i1] + k1[i1 + 1 :]
                for i2 in range(len(k2)):
                    extra = rest1 + k2[:i2] + k2[i2 + 1 :]
                    for key, w in rule(k1[i1], k2[i2]):
                        key = tuple(sorted(key + extra))  # sparse.merge_keys, inlined
                        acc = get(key)
                        if acc is None:
                            sums[key] = [w * re, w * im]
                        else:
                            acc[0] += w * re
                            acc[1] += w * im
    denom = r_den * lf * lh
    terms = {}
    for key, (re, im) in sums.items():
        if re or im:
            terms[key] = _reduced(re * r_num, im * r_num, denom)
    return f._wrap(terms)


def jacobi_defect(a, b, c3, group: GroupSpec, c: Fraction = Fraction(1)) -> TauPoly:
    """{{a,b},c3} + {{b,c3},a} + {{c3,a},b} as a TauPoly; the Poisson
    structure is valid precisely when this collects to zero.  c and the
    rule are read once per call."""
    c = _read_c(c)
    bracket = _bracket_rule(group, c.numerator, c.denominator)
    total = TauPoly._trusted(group, c, {})
    for x, y, z in ((a, b, c3), (b, c3, a), (c3, a, b)):
        sym = TauPoly._trusted(group, c, {(_norm_symbol(group, z),): ONE})
        total = total + bracket_poly(_symbol_bracket(group, c, bracket, x, y), sym)
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


def structure_constants(group: GroupSpec, c: Fraction, cutoff: int) -> dict:
    """All brackets of distinct symbol pairs in the cutoff window, as a
    JSON-ready table sorted by (a, b); diagonal pairs vanish identically
    and are omitted."""
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    c = _read_c(c)
    bracket = _bracket_rule(group, c.numerator, c.denominator)
    syms = symbol_window(group, cutoff)
    entries = []
    for i, a in enumerate(syms):
        for b in syms[i + 1 :]:
            br = _symbol_bracket(group, c, bracket, a, b)
            entries.append({"a": list(a), "b": list(b), "bracket": br.to_json()})
    return {
        "group": group.to_json(),
        "c": str(c),
        "cutoff": cutoff,
        "entries": entries,
    }
