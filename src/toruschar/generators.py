"""Trace generators and the level-reduction decomposition.

The coordinate ring of the torus quotient is generated by the trace
functions tau(alpha) (all families) together with, for even SO, the
Pfaffian-flavoured generators Q(alpha_1..alpha_n).  This module computes
their Laurent images and, in the other direction, rewrites any Weyl-
invariant integer-weight Laurent polynomial as a polynomial in the
generator symbols.  The rewriting proceeds by strictly decreasing level:
a level-l pattern sum P(m) is recovered from tau(alpha) * P(m_sub) =
beta * P(m) + A, with m_sub one level down.  As the pattern group fixes
tau(alpha), that product is the sum of P(x + s*e_k) over rows k and
shifts s, x one presentation of m_sub (Macdonald, Symmetric Functions,
I.2).  Each step counts these n * |shifts| sums by orbit and builds no
orbit: those on an empty row of x must all be P(m), beta is their number,
and the rest are A.  Level 1 is the same step with P(0) = |P|.

A note on the Q image: the alternating sum

    i^n * sum_{s in S_n} prod_i (x_{s(i)}^{a_i} - x_{s(i)}^{-a_i})

is taken *without* a sign character on s.  With the sign the expression
would change sign under plain transpositions of the eigenvalue indices and
so could not lie in the invariant ring, and the antisymmetrized half of a
level-n orbit sum (which is exactly what the top-level reduction produces)
carries no sign either.  Consequently Q is symmetric under permuting its
alpha arguments and flips sign when a single argument is negated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from typing import Mapping, Optional

from . import sparse
from .errors import DomainError, InternalCheckError, UnsupportedInputError
from .groups import GroupSpec
from .jsonio import json_check, json_coeff, json_field, json_ints
from .laurent import (
    ExponentMatrix,
    LaurentPoly,
    Packing,
    canonical_mod_relations,
)
from .scalars import GaussRat, I, ONE, ZERO, _reduced
from .weyl import (
    invariance_violation,
    level_of_monomial,
    orbit_sum,
    pattern_order,
    pattern_sum,
)

TauSymbol = tuple[str, tuple[int, ...]]
QSymbol = tuple[str, tuple[tuple[int, ...], ...]]
Symbol = TauSymbol | QSymbol


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def _normalize_vector(alpha: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Flip the vector so its first nonzero entry is positive."""
    for e in alpha:
        if e > 0:
            return alpha, 1
        if e < 0:
            return tuple(-x for x in alpha), -1
    return alpha, 1


def tau_symbol(group: GroupSpec, alpha) -> TauSymbol:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != group.factors:
        raise DomainError(f"alpha must have {group.factors} entries")
    if group.symmetric_traces:
        alpha, _ = _normalize_vector(alpha)
    return ("tau", alpha)


def q_symbol(group: GroupSpec, alphas) -> tuple[Optional[QSymbol], GaussRat]:
    """Canonical Q symbol and the scalar relating it to the raw arguments.

    Returns (None, 0) when any argument vanishes.  Arguments are sorted
    (the image is symmetric in them) and sign-normalized per vector, each
    flip contributing a factor -1.
    """
    if group.family != "SOeven":
        raise DomainError("Q generators exist only for even SO")
    alphas = tuple(tuple(int(a) for a in alpha) for alpha in alphas)
    if len(alphas) != group.rank:
        raise DomainError(f"Q takes exactly {group.rank} vectors")
    if any(len(a) != group.factors for a in alphas):
        raise DomainError(f"each alpha must have {group.factors} entries")
    sign = 1
    normed = []
    for alpha in alphas:
        if not any(alpha):
            return None, ZERO
        a, s = _normalize_vector(alpha)
        sign *= s
        normed.append(a)
    return ("q", tuple(sorted(normed))), GaussRat(sign)


# ---------------------------------------------------------------------------
# generator polynomials
# ---------------------------------------------------------------------------

class GeneratorPoly(sparse.SparsePoly):
    """Polynomial in commuting generator symbols with GaussRat coefficients.

    Keys are sorted tuples of symbols (monomial multisets); the empty tuple
    is the constant term.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple, GaussRat] = ()):
        self.terms = {k: v for k, v in dict(terms).items() if v}
        self._float_terms = None

    def _ring(self) -> tuple:
        return ()

    def _wrap(self, terms: dict) -> "GeneratorPoly":
        p = GeneratorPoly.__new__(GeneratorPoly)
        p.terms, p._float_terms = terms, None
        return p

    def _factors(self, key: tuple) -> str:
        factors = []
        for kind, payload in key:
            if kind == "tau":
                factors.append("T(" + ",".join(map(str, payload)) + ")")
            else:
                body = ";".join(",".join(map(str, a)) for a in payload)
                factors.append(f"Q({body})")
        return "*".join(factors)

    @classmethod
    def zero(cls) -> "GeneratorPoly":
        return cls()

    @classmethod
    def constant(cls, value) -> "GeneratorPoly":
        v = value if isinstance(value, GaussRat) else GaussRat(value)
        return cls({(): v} if v else {})

    @classmethod
    def symbol(cls, sym: Symbol, coeff=ONE) -> "GeneratorPoly":
        c = coeff if isinstance(coeff, GaussRat) else GaussRat(coeff)
        return cls({(sym,): c})

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for key, coeff in self.sorted_terms():
            factors = []
            for kind, payload in key:
                if kind == "tau":
                    factors.append({"tau": list(payload)})
                else:
                    factors.append({"q": [list(a) for a in payload]})
            entries.append({"coeff": str(coeff), "factors": factors})
        return {"terms": entries}

    @staticmethod
    def from_json(obj: dict, group: GroupSpec) -> "GeneratorPoly":
        json_check(obj, dict, "")
        terms: dict[tuple, GaussRat] = {}
        for k, entry in enumerate(json_field(obj, "terms", list, "", default=[])):
            where = f"terms[{k}]"
            json_check(entry, dict, where)
            coeff = json_coeff(entry, where)
            syms: list[Symbol] = []
            for j, factor in enumerate(json_field(entry, "factors", list, where, default=[])):
                fwhere = f"{where}.factors[{j}]"
                json_check(factor, dict, fwhere)
                if "tau" in factor:
                    syms.append(tau_symbol(group, json_ints(factor["tau"], fwhere + ".tau")))
                elif "q" in factor:
                    raw = json_field(factor, "q", list, fwhere)
                    alphas = tuple(json_ints(v, f"{fwhere}.q[{i}]") for i, v in enumerate(raw))
                    sym, s = q_symbol(group, alphas)
                    if sym is None:
                        coeff = ZERO
                        break
                    coeff = coeff * s
                    syms.append(sym)
                else:
                    raise DomainError(f"{fwhere}: unknown generator factor {factor}")
            sparse.add_term(terms, tuple(sorted(syms)), coeff)
        return GeneratorPoly(terms)

    def __repr__(self) -> str:
        return f"GeneratorPoly({self})"


# ---------------------------------------------------------------------------
# generator images
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def tau_image(group: GroupSpec, alpha: tuple[int, ...]) -> LaurentPoly:
    """Laurent image of the trace generator tau(alpha).

    GL/SL: sum_i x_i^alpha.  Sp and even SO: sum_i (x_i^alpha +
    x_i^-alpha).  Odd SO additionally picks up the constant 1 from the
    fixed eigenvalue.  alpha = 0 yields the matrix size.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != group.factors:
        raise DomainError(f"alpha must have {group.factors} entries")
    n, N = group.rank, group.factors
    doubled = tuple(2 * a for a in alpha)
    neg = tuple(-e for e in doubled)
    zero_row = (0,) * N
    terms: dict[ExponentMatrix, GaussRat] = {}
    for i in range(n):
        rows = [zero_row] * n
        rows[i] = doubled
        sparse.add_term(terms, tuple(rows), ONE)
        if group.symmetric_traces:
            rows[i] = neg
            sparse.add_term(terms, tuple(rows), ONE)
    poly = LaurentPoly(group, terms)  # canonicalizes the SL keys
    if group.family == "SOodd":
        poly = poly + LaurentPoly.constant(group, 1)
    return poly


@lru_cache(maxsize=None)
def _q_image_cached(group: GroupSpec, alphas: tuple[tuple[int, ...], ...]) -> LaurentPoly:
    m = tuple(tuple(2 * a for a in alpha) for alpha in alphas)
    signed_sum = orbit_sum(m, group).scaled(2) - pattern_sum(m, group)
    return signed_sum.scaled(I ** group.rank)


def q_image(group: GroupSpec, alphas) -> LaurentPoly:
    """Laurent image of Q(alpha_1..alpha_n) on the even SO torus:
    i^n * sum over permutations s of prod_i (x_{s(i)}^{a_i} - x_{s(i)}^{-a_i}).
    That is i^n times the sum of w . m over the signed group, m with rows
    2*alpha_i and w weighted by (-1)^(flips of w): the Weyl group minus the
    odd elements, i^n * (2 * orbit_sum(m) - pattern_sum(m)).  It costs the
    orbit size and is bounded by WEYL_CAP.
    """
    sym, sign = q_symbol(group, alphas)
    if sym is None:
        return LaurentPoly.zero(group)
    return _q_image_cached(group, sym[1]).scaled(sign)


def symbol_image(group: GroupSpec, sym: Symbol) -> LaurentPoly:
    kind, payload = sym
    if kind == "tau":
        return tau_image(group, payload)
    return q_image(group, payload)


def symbol_span(sym: Symbol) -> int:
    """A bound on the stored |e| of any key of ``symbol_image(group, sym)``,
    read off the payload: 2 * max |a| over its alpha (tau) or alphas (Q).
    Every image key has rows 0 or +-2*alpha (an SL shift moves one such
    row to zero and the zero row to -2*alpha)."""
    kind, payload = sym
    rows = (payload,) if kind == "tau" else payload
    return 2 * max((abs(a) for row in rows for a in row), default=0)


def _unit_ints(terms: dict) -> tuple[int, dict]:
    """``(k, ints)`` with ``terms == i**k * ints``: a unit power k in {0, 1}
    and int coefficients, the shape of every tau and Q image.  Any other
    image (a denominator, or real and imaginary coefficients mixed) is an
    InternalCheckError."""
    coeffs = terms.values()
    if all(c._b == 0 and c._d == 1 for c in coeffs):
        return 0, {key: c._a for key, c in terms.items()}
    if all(c._a == 0 and c._d == 1 for c in coeffs):
        return 1, {key: c._b for key, c in terms.items()}
    raise InternalCheckError("generator image is not a unit times an integer polynomial")


def expand(p: GeneratorPoly, group: GroupSpec) -> LaurentPoly:
    """Substitute generator images and multiply out, exactly.

    The distinct symbol images are packed once, into one ``Packing`` wide
    enough for the largest term (the sum of the ``symbol_span`` of its
    factors), each as a unit power k and int coefficients (image = i^k *
    ints).
    Terms are walked in sorted order, so terms sharing a prefix of
    symbols are adjacent: the chain of int prefix products of the
    previous term is kept (their unit powers add mod 4) and only the
    factors past the shared prefix are multiplied.  With L the lcm of the
    term denominators, each term coefficient times its i^k becomes the
    Gaussian integer A + Bi = L * coeff * i^k; the last factor, scaled by
    A and by B, is multiplied straight into two int dicts of the whole
    sum, re and im.  Each result key gets one GaussRat (re + im*i)/L, and
    the sum is unpacked once at the end.  Nothing is kept between calls.
    """
    syms = dict.fromkeys(sym for key in p.terms for sym in key)
    images = {sym: symbol_image(group, sym).terms for sym in syms}
    spans = {sym: symbol_span(sym) for sym in syms}
    packing = Packing(group, max((sum(map(spans.get, key)) for key in p.terms), default=0))
    packed = {sym: _unit_ints(packing.pack_terms(terms)) for sym, terms in images.items()}
    denom = lcm(*(c._d for c in p.terms.values()))
    chain = [(0, {0: 1})]  # chain[d]: (unit power, ints) of the first d symbols of ``prev``
    prev: tuple = ()
    re: dict = {}
    im: dict = {}
    for key, coeff in p.sorted_terms():
        head = key[:-1]
        shared = 0
        while shared < min(len(head), len(prev)) and head[shared] == prev[shared]:
            shared += 1
        del chain[shared + 1:]
        for sym in head[shared:]:
            unit, ints = packed[sym]
            chain.append(((chain[-1][0] + unit) % 4, sparse.mul(chain[-1][1], ints, add)))
        prev = head
        unit, last = packed[key[-1]] if key else (0, {0: 1})
        prefix_unit, prefix = chain[-1]
        scale = denom // coeff._d
        a, b = coeff._a * scale, coeff._b * scale
        for _ in range((prefix_unit + unit) % 4):
            a, b = -b, a
        if a:
            sparse.mul(prefix, sparse.scale(last, a), add, re)
        if b:
            sparse.mul(prefix, sparse.scale(last, b), add, im)
    total = {k: _reduced(re.get(k, 0), im.get(k, 0), denom) for k in re | im}
    return LaurentPoly._trusted(group, packing.unpack_terms(total))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def _true_row(row: tuple[int, ...]) -> tuple[int, ...]:
    if any(e & 1 for e in row):
        raise UnsupportedInputError("half-integer weight in decomposition")
    return tuple(e // 2 for e in row)


def decompose(f: LaurentPoly, group: GroupSpec) -> GeneratorPoly:
    """Express a W-invariant integer-weight polynomial in the generators.

    The peel proves invariance; if it fails, a DomainError names a Weyl
    generator moving f (none moving it is an InternalCheckError).  Orbits
    beyond WEYL_CAP raise ResourceLimitError, half-integer weights
    UnsupportedInputError.  expand(P, group) == f is checked exactly.
    """
    if f.group != group:
        raise DomainError("polynomial belongs to a different group")
    if f.has_half_weights():
        raise UnsupportedInputError(
            "decomposition supports integer-weight invariants only"
        )
    try:
        result = _peel(f, group)
    except InternalCheckError:  # a bug, unless a Weyl generator moves f
        witness = invariance_violation(f, group)
        if witness is None:
            raise
        raise DomainError(f"input is not W-invariant; moved by {witness.describe()}") from None
    if expand(result, group) != f:
        raise InternalCheckError("decomposition failed its expand round trip")
    return result


def _reduce_orbit(m: ExponentMatrix, group: GroupSpec) -> GeneratorPoly:
    """GeneratorPoly equal to orbit_sum(m, group)."""
    level = level_of_monomial(m, group)
    if group.family != "SOeven":
        return _reduce_pattern_monomial(m, group, bound=level + 1)
    # Even SO: the Weyl sum is half the full signed sum plus half the
    # antisymmetrized part, which is Q up to the factor i^n (and vanishes
    # unless every row is nonzero).
    half = GaussRat(Fraction(1, 2))
    out = _reduce_pattern_monomial(m, group, bound=level + 1).scaled(half)
    if level == group.rank:
        alphas = tuple(_true_row(row) for row in m)
        sym, sign = q_symbol(group, alphas)
        if sym is not None:
            coeff = half * sign / (I ** group.rank)
            out = out + GeneratorPoly.symbol(sym, coeff)
    return out


_REDUCE_CACHE: dict = {}


def _memo_key(m: ExponentMatrix, group: GroupSpec):
    rows = []
    for row in m:
        if any(row):
            if group.signed:
                row, _ = _normalize_vector(row)
            rows.append(row)
    return (group, tuple(sorted(rows)))


def _reduce_pattern_monomial(m: ExponentMatrix, group: GroupSpec, bound: int) -> GeneratorPoly:
    """GeneratorPoly equal to pattern_sum(m, group).

    ``bound`` is a strict upper bound on the level still allowed; every
    recursive call decreases it, which is asserted.
    """
    level = level_of_monomial(m, group)
    if level >= bound:
        raise InternalCheckError("level reduction failed to descend")
    if level == 0:
        return GeneratorPoly.constant(pattern_order(group))
    key = _memo_key(m, group)
    cached = _REDUCE_CACHE.get(key)
    if cached is not None:
        return cached

    # tau(alpha) * P(m_sub) = beta * P(m) + A, with m_sub = m less one row
    # alpha; at level 1, m_sub = 0 and A is empty.
    pos, alpha_row = max(
        ((i, row) for i, row in enumerate(m) if any(row)), key=lambda t: t[1]
    )
    m_sub = m[:pos] + ((0,) * group.factors,) + m[pos + 1:]
    if level_of_monomial(m_sub, group) != level - 1:
        raise InternalCheckError("peeled monomial level did not drop by one")
    top, lower = _step_counts(m_sub, alpha_row, group)
    if list(top) != [key]:  # beta is never 0: m_sub has an empty row
        raise InternalCheckError("reduction constant mismatch")

    gen_one = GeneratorPoly.symbol(tau_symbol(group, _true_row(alpha_row)))
    if group.family == "SOodd":
        gen_one = gen_one + GeneratorPoly.constant(GaussRat(-1))
    out = (gen_one * _reduce_pattern_monomial(m_sub, group, bound=level)).terms
    for y, count in lower.values():
        for k, v in _reduce_pattern_monomial(y, group, bound=level).terms.items():
            sparse.add_term(out, k, v * -count)
    result = _REDUCE_CACHE[key] = GeneratorPoly(out).scaled(GaussRat(Fraction(1, top[key][1])))
    return result


def _step_counts(
    m_sub: ExponentMatrix, alpha_row: tuple[int, ...], group: GroupSpec
) -> tuple[dict, dict]:
    """tau(alpha) * pattern_sum(m_sub), less the constant 1 of odd SO, as
    (top, lower): ``{memo key: [first y, count]}`` in first-hit order over
    y = x + s*e_k with row k of x empty (beta * P(m)) or occupied (A).  x
    is m_sub with its rows sign-normalised (signed families) and sorted;
    ``alpha_row`` is alpha as a stored (doubled) row."""
    shifts = (alpha_row, tuple(-e for e in alpha_row)) if group.signed else (alpha_row,)
    if group.signed:
        m_sub = [max(row, tuple(-e for e in row)) for row in m_sub]
    x = sorted(m_sub)  # for SL, the raw rows decide which ones are empty
    top, lower = {}, {}
    for k, row in enumerate(x):
        hits = lower if any(row) else top
        for shift in shifts:
            rows = list(x)
            rows[k] = tuple(map(add, row, shift))
            y = canonical_mod_relations(tuple(rows), group)
            hits.setdefault(_memo_key(y, group), [y, 0])[1] += 1
    return top, lower


def _peel(f: LaurentPoly, group: GroupSpec) -> GeneratorPoly:
    """Split ``f`` into multiples of Weyl orbit sums and add up the
    reductions of their monomials with the same multiples.

    An orbit sum gives all monomials of an orbit one coefficient, so each
    step removes the orbit of any key m left, which must be there in full
    with m's coefficient, else an InternalCheckError is raised before any
    reduction.  Orbits are disjoint, so their order is free, and emptying
    ``f`` proves it invariant.
    """
    work = dict(f.terms)
    parts = []
    while work:
        m, c = next(iter(work.items()))
        psum = orbit_sum(m, group).terms
        for k in psum:
            if work.pop(k, None) != c:
                raise InternalCheckError("orbit peeling left terms it could not cancel")
        parts.append((m, c / psum[m]))
    result: dict = {}
    for m, coeff in parts:
        for k, v in _reduce_orbit(m, group).terms.items():
            sparse.add_term(result, k, v * coeff)
    return GeneratorPoly(result)
