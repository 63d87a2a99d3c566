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
from typing import Mapping

from . import sparse
from .errors import DomainError, ResourceLimitError, StructureError
from .generators import tau_image
from .groups import GroupSpec
from .jsonio import json_check, json_coeff, json_field, json_ints
from .scalars import GaussRat, ONE, read_rational

LatticeVec = tuple[int, int]

# A window of |p|, |q| <= 8 holds up to 289 symbols; its structure-constant
# table (about 42 000 brackets, 27 MB of JSON for SL(3)) takes about 2 s on
# a 2-vCPU host, and the cost grows as the fourth power of the cutoff.
CUTOFF_CAP = 8


def _norm_symbol(group: GroupSpec, a) -> LatticeVec:
    p, q = int(a[0]), int(a[1])
    if group.symmetric_traces:
        if p < 0 or (p == 0 and q < 0):
            return (-p, -q)
    return (p, q)


class TauPoly(sparse.SparsePoly):
    """Polynomial in trace symbols over GaussRat, tied to a group and a
    trace-form multiple c.  Instances are treated as immutable, so the
    float terms that ``evaluate`` keeps never go stale."""

    __slots__ = ("group", "c")

    def __init__(self, group: GroupSpec, c: Fraction, terms: Mapping[tuple, GaussRat] = ()):
        if group.factors != 2:
            raise StructureError("trace symbols need exactly two factors")
        c = Fraction(c)
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
        self._float_terms = None

    def _ring(self) -> tuple:
        return (self.group, self.c)

    def _wrap(self, terms: dict) -> "TauPoly":
        p = TauPoly.__new__(TauPoly)
        p.group, p.c, p.terms, p._float_terms = self.group, self.c, terms, None
        return p

    def _factors(self, key: tuple) -> str:
        return "*".join(f"tau({a[0]},{a[1]})" for a in key)

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

        Float points use the sorted ``(key, complex)`` terms, built on the
        first float evaluation and kept as long as the polynomial; exact
        points use the sorted exact terms.  The value of each tau(a) is
        memoised in ``point.memo`` under ``("tau", a)`` (the point fixes
        the group) and lives as long as the point, so every polynomial
        evaluated at one point shares it.
        """
        group = self.group
        if point.group is not group and point.group != group:
            raise StructureError(f"group mismatch: {group} vs point of {point.group}")
        # The slot is read first, as a method call costs the oracle ~3%.
        terms = self.sorted_terms() if point.exact else (self._float_terms or self._float_sorted())
        memo = point.memo
        total = None
        for key, term in terms:
            for a in key:
                k = ("tau", a)
                v = memo.get(k)
                if v is None:
                    v = memo[k] = tau_image(group, a).evaluate(point)
                term = term * v
            total = term if total is None else total + term
        if total is None:
            return point.zero_value()
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
        c_text = json_field(obj, "c", str, "", default="1")
        try:
            c = read_rational(c_text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"c: {exc}") from None
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

def bracket_symbols(
    a,
    b,
    group: GroupSpec,
    c: Fraction = Fraction(1),
    extrapolated_gl: bool = False,
) -> TauPoly:
    """Poisson bracket of two trace symbols."""
    c = Fraction(c)
    if c == 0:
        raise DomainError("c must be nonzero")
    p, q = int(a[0]), int(a[1])
    r, s = int(b[0]), int(b[1])
    det = p * s - q * r
    out = TauPoly.zero(group, c)
    if det == 0:
        return out
    plus = (p + r, q + s)
    if group.family == "SL":
        n = group.rank
        scale = GaussRat(Fraction(det) / c)
        return TauPoly(
            group,
            c,
            {
                (plus,): scale,
                ((p, q), (r, s)): -scale * GaussRat(Fraction(1, n)),
            },
        )
    if group.family == "GL":
        if not extrapolated_gl:
            raise DomainError(
                "no GL bracket formula; pass extrapolated_gl=True for the "
                "oracle-validated extrapolation"
            )
        scale = GaussRat(Fraction(det) / c)
        return TauPoly(group, c, {(plus,): scale})
    minus = (p - r, q - s)
    scale = GaussRat(Fraction(det) / (2 * c))
    return TauPoly(group, c, {(plus,): scale, (minus,): -scale})


def bracket_poly(
    f: TauPoly, h: TauPoly, extrapolated_gl: bool = False
) -> TauPoly:
    """Bilinear, Leibniz extension of the symbol bracket."""
    f._require_same_ring(h)
    group, c = f.group, f.c
    terms: dict[tuple, GaussRat] = {}
    for k1, v1 in f.terms.items():
        for k2, v2 in h.terms.items():
            scale = v1 * v2
            for i1 in range(len(k1)):
                rest1 = k1[:i1] + k1[i1 + 1 :]
                for i2 in range(len(k2)):
                    rest2 = k2[:i2] + k2[i2 + 1 :]
                    br = bracket_symbols(k1[i1], k2[i2], group, c, extrapolated_gl)
                    extra = rest1 + rest2
                    for key, v in br.terms.items():
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
        "c": str(Fraction(c)),
        "cutoff": cutoff,
        "entries": entries,
    }
