"""Trace generators and the level-reduction decomposition.

The coordinate ring of the torus quotient is generated by the trace
functions tau(alpha) (all families) together with, for even SO, the
Pfaffian-flavoured generators Q(alpha_1..alpha_n).  This module computes
their Laurent images and, in the other direction, rewrites any Weyl-
invariant integer-weight Laurent polynomial as a polynomial in the
generator symbols.  The rewriting proceeds by strictly decreasing level:
a level-l pattern sum P(m) is recovered from tau(alpha) * P(m_sub) =
beta * P(m) + A, with m_sub one level down.  Both sides are orbit sums
over a group G that fixes tau(alpha), so tau(alpha) * S_G(x) is the sum
of S_G(x + s*alpha e_k) over rows k and shifts s, x one presentation of
the orbit (Macdonald, Symmetric Functions, I.2), plus S_G(x) for the
constant 1 of odd SO.  ``_times_tau`` adds up these n * |shifts| sums by
orbit and builds no orbit.  A reduction step is one such call with G the
pattern group: beta is the count of m's orbit and the other orbits, all
of lower level, are A.  Level 1 is the same step with P(0) = |P|.  The
orbit keys it returns are canonical, and the reduction is entered at the
orbit keys the peel found (``weyl.orbit_rep``), so it works on orbit keys
alone, each key's level found once.  P(m) is symmetric in the rows of m
and in their signs, so the order and signs a presentation gives its rows
cannot change R(m).

The reduction runs on int coefficients: R(m), the generator polynomial
equal to P(m), is stored as ``{symbol tuple: int}``, and only
``_reduce_orbit`` makes GaussRats of it (with the 1/2 and the Q term of
even SO, whose symbol is the key's halved rows and whose sign is its
parity).  The quotient by beta is exact.  P(m) is |P_0(m)| times the
augmented monomial function of m, P_0(m) the part of P acting on the
empty rows of m, and augmented monomials have integer coordinates in the
power sums, which tau(alpha) are (Moebius inversion: Macdonald, I.2 and
I.6).  So R(m) is |P_0(m)| times an integer polynomial, and beta =
|P_0(m_sub)| / |P_0(m)|.  A remainder would be a bug and raises
InternalCheckError.

A generator polynomial is multiplied out by one walk over its sorted
terms, ``orbit_coefficients``, in the basis of Weyl orbit sums S(m) (a
basis of the invariants: Bourbaki, Lie Groups and Lie Algebras, VI.3):
each tau factor is one ``_times_tau`` call with G = W and each Q factor
one ``_times_q`` call.  ``decompose`` checks its result exactly in that
basis, as peeling f has already written it as a sum of c_m * S(m), and
``expand`` writes each S(m) out as the orbit of its key (``weyl._images``).
The Laurent image of a generator, ``tau_image`` or ``q_image``, is
``expand`` of its one symbol, so ``_times_tau`` and ``_times_q`` are the
only definitions of the generators.

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

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, index
from typing import Mapping, Optional

from . import sparse
from .errors import DomainError, InternalCheckError, UnsupportedInputError
from .groups import GroupSpec
from .jsonio import json_check, json_coeff, json_field, json_ints
from .laurent import ExponentMatrix, LaurentPoly, canonical_mod_relations, zero_exponents
from .scalars import GaussRat, I, ONE, ZERO, _reduced
from .weyl import (
    WEYL_CAP,
    _images,
    invariance_violation,
    level_of_monomial,
    orbit_rep,
    pattern_order,
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
            return tuple([-x for x in alpha]), -1
    return alpha, 1


def tau_symbol(group: GroupSpec, alpha) -> TauSymbol:
    alpha = tuple(index(a) for a in alpha)
    if len(alpha) != group.factors:
        raise DomainError(f"alpha must have {group.factors} entries")
    if group.symmetric_traces:
        alpha, _ = _normalize_vector(alpha)
    return ("tau", alpha)


def q_symbol(group: GroupSpec, alphas) -> tuple[Optional[QSymbol], GaussRat]:
    """Canonical Q symbol and the scalar relating it to the raw arguments.

    Returns (None, 0) when any argument vanishes.  Arguments are sorted
    (the image is symmetric in them) and sign-normalized per vector, each
    flip contributing a factor -1.  Entries must be integers
    (``operator.index``): a float or a Fraction raises TypeError.
    """
    if group.family != "SOeven":
        raise DomainError("Q generators exist only for even SO")
    alphas = tuple(tuple(index(a) for a in alpha) for alpha in alphas)
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
        clean: dict[tuple, GaussRat] = {}
        for key, coeff in dict(terms).items():
            if not isinstance(coeff, GaussRat):
                coeff = GaussRat(coeff)
            sparse.add_term(clean, tuple(sorted(key)), coeff)
        self.terms = clean

    def _ring(self) -> tuple:
        return ()

    @staticmethod
    def _wrap(terms: dict) -> "GeneratorPoly":
        p = GeneratorPoly.__new__(GeneratorPoly)
        p.terms = terms
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
        """Read ``{"terms": [{"coeff": text, "factors": [{"tau": alpha} or
        {"q": [alpha, ...]}]}]}``; a bad value raises DomainError naming its
        path, which past the coefficient is formatted only to raise."""
        json_check(obj, dict, "")
        terms: dict[tuple, GaussRat] = {}
        for k, entry in enumerate(json_field(obj, "terms", list, "", default=[])):
            if type(entry) is not dict:
                json_check(entry, dict, f"terms[{k}]")
            coeff = json_coeff(entry, f"terms[{k}]")
            factors = entry.get("factors", [])
            if type(factors) is not list:
                factors = json_field(entry, "factors", list, f"terms[{k}]")
            syms: list[Symbol] = []
            for j, factor in enumerate(factors):
                if type(factor) is not dict:
                    json_check(factor, dict, f"terms[{k}].factors[{j}]")
                kind = "tau" if "tau" in factor else "q" if "q" in factor else None
                if kind is None:
                    raise DomainError(f"terms[{k}].factors[{j}]: unknown generator factor {factor}")
                try:
                    sym, sign = _factor_symbol(group, kind, factor[kind])
                except DomainError as exc:
                    raise DomainError(f"terms[{k}].factors[{j}].{exc}") from None
                if kind == "q":
                    coeff = coeff * sign  # 0 when an alpha vanishes
                if sym is not None:
                    syms.append(sym)
            sparse.add_term(terms, tuple(sorted(syms)), coeff)
        return GeneratorPoly._wrap(terms)

    def __repr__(self) -> str:
        return f"GeneratorPoly({self})"


def _factor_symbol(group: GroupSpec, kind: str, value) -> tuple:
    """``(symbol or None, sign)`` of the JSON factor ``{kind: value}``; a
    DomainError names the path below the factor (``tau[1]: ...``)."""
    if kind == "tau":
        args = json_ints(value, "tau")
    else:
        args = tuple(json_ints(v, f"q[{i}]") for i, v in enumerate(json_check(value, list, "q")))
    try:
        return (tau_symbol(group, args), ONE) if kind == "tau" else q_symbol(group, args)
    except DomainError as exc:
        raise DomainError(f"{kind}: {exc}") from None


# ---------------------------------------------------------------------------
# multiplying out
# ---------------------------------------------------------------------------

def expand(p: GeneratorPoly, group: GroupSpec) -> LaurentPoly:
    """Substitute generator images and multiply out, exactly.

    ``orbit_coefficients`` writes p as a sum of c * S(m) over Weyl orbit
    keys, and S(m) is the orbit of the key (``_images``, as ``orbit_sum``
    builds it, without validating a key that is already canonical), each
    monomial with the int stabiliser order |W|/|orbit|:
    all get c times it, one product per orbit.  Orbits are disjoint, so
    no monomial gets two contributions.  An orbit above WEYL_CAP monomials
    raises ResourceLimitError before it is built.
    """
    terms: dict = {}
    order, even = group.weyl_order, group.family == "SOeven"
    for key, c in orbit_coefficients(p, group).items():
        images = _images(key, group, even, WEYL_CAP)
        terms.update(dict.fromkeys(images, c * (order // len(images))))
    return LaurentPoly._trusted(group, terms)


@lru_cache(maxsize=None)
def tau_image(group: GroupSpec, alpha: tuple[int, ...]) -> LaurentPoly:
    """Laurent image of the trace generator tau(alpha): ``expand`` of its
    symbol.

    GL/SL: sum_i x_i^alpha.  Sp and even SO: sum_i (x_i^alpha +
    x_i^-alpha).  Odd SO additionally picks up the constant 1 from the
    fixed eigenvalue.  alpha = 0 yields the matrix size.
    """
    return expand(GeneratorPoly.symbol(tau_symbol(group, alpha)), group)


def q_image(group: GroupSpec, alphas) -> LaurentPoly:
    """Laurent image of Q(alpha_1..alpha_n) on the even SO torus:
    i^n * sum over permutations s of prod_i (x_{s(i)}^{a_i} - x_{s(i)}^{-a_i}),
    ``expand`` of its symbol times the sign from ``q_symbol`` (zero when an
    argument vanishes).  It costs the orbit size and is bounded by
    WEYL_CAP.
    """
    sym, sign = q_symbol(group, alphas)
    return expand(GeneratorPoly.symbol(sym, sign) if sym else GeneratorPoly.zero(), group)


@lru_cache(maxsize=128)
def _step_constants(alpha: tuple[int, ...], family: str) -> tuple:
    """``_times_tau``'s constants for tau(alpha) in ``family``: the zero
    row, the shifts (alpha as a stored row, and its negative in the signed
    families) and the flags signed, SL, even SO and odd SO."""
    row = tuple(2 * a for a in alpha)
    signed = family not in ("GL", "SL")
    shifts = (row, tuple(-e for e in row)) if signed else (row,)
    return (0,) * len(row), shifts, signed, family == "SL", family == "SOeven", family == "SOodd"


def _times_tau(terms: dict, alpha: tuple[int, ...], group: GroupSpec, factor: int, out: dict) -> None:
    """Add ``factor * tau(alpha) * sum c * S(x)`` over ``terms = {orbit key
    of x: c}`` into ``out``, in orbit keys (``weyl.orbit_rep``), S the
    orbit sum over the Weyl group of ``group``.  The level reduction passes
    the pattern group (Sp for even SO), so S is then the pattern sum.
    Most calls carry a key or two, so the constants are cached.

    The shifts {s*alpha e_k} form a W-stable set, so tau(alpha) * S(x) is
    the sum of S(x + s*alpha e_k) over rows k and shifts s, plus S(x) for
    odd SO.  Equal rows give equal sums: for each distinct row r of x,
    with multiplicity mu, one copy of r becomes r + s, sign-normalised
    (signed families), and the rows are re-sorted; for SL the result is
    canonicalised, which keeps the order.  For even SO, normalising
    r + s flips the parity exactly when it negates the row, and the parity
    is 0 whenever a row is zero (zero rows sort first).  So every key put
    in ``out`` is an orbit key in canonical form.
    """
    zero, shifts, signed, sl, even, odd = _step_constants(alpha, group.family)
    get = out.get
    for key, c in terms.items():
        c *= factor
        if odd:
            out[key] = get(key, 0) + c
        rows, parity = key
        n = len(rows)
        k = 0
        while k < n:
            r = rows[k]
            mu = 1
            while k + mu < n and rows[k + mu] == r:
                mu += 1
            rest = rows[:k] + rows[k + 1:]
            k += mu
            cm = c * mu
            for s in shifts:
                y = tuple(map(add, r, s))
                flip = 0
                if signed and y < zero:  # its first nonzero entry is negative
                    y, flip = tuple([-e for e in y]), 1
                i = bisect_right(rest, y)
                new = rest[:i] + (y,) + rest[i:]
                if sl:
                    new = canonical_mod_relations(new, group)
                new_key = (new, parity ^ flip if new[0] != zero else 0) if even else (new, 0)
                out[new_key] = get(new_key, 0) + cm


def _times_q(terms: dict, alphas: tuple, group: GroupSpec, factor: int, out: dict) -> None:
    """Add ``factor * i^-n * Q(alphas) * sum c * S(x)`` over ``terms =
    {orbit key of x: c}`` into ``out``, in orbit keys, S the Weyl orbit sum
    of even SO.

    Q's image is i^n * (S(y) - S(y')), y the doubled alphas and y' the same
    with the first row negated, as pattern_sum(y) = S(y) + S(y').  A
    product of orbit sums is S(x) * S(y) = |Stab(x)| * sum of S(x' + y)
    over the distinct images x' of x (put u = v^-1 w in the sum of
    w.x + v.y over pairs w, v).  On the constant S(0) that is one image.
    """
    y = tuple(tuple(2 * a for a in alpha) for alpha in alphas)
    shifts = ((y, 1), ((tuple(-e for e in y[0]),) + y[1:], -1))
    order = group.weyl_order
    get = out.get
    for key, c in terms.items():
        images = _images(key, group, True, WEYL_CAP)
        c *= factor * (order // len(images))
        for x in images:
            for shift, sign in shifts:
                k = orbit_rep(tuple(tuple(map(add, r, s)) for r, s in zip(x, shift)), group)
                out[k] = get(k, 0) + sign * c


def orbit_coefficients(p: GeneratorPoly, group: GroupSpec) -> dict:
    """``{orbit key: coefficient}`` with ``expand(p, group)`` equal to the
    sum of coefficient * S(m) over them, S(m) = orbit_sum(m, group) for
    any m of the orbit with that ``weyl.orbit_rep`` key; no coefficient is
    zero.  No Laurent image is built.

    An int map ``{orbit key of x: c}`` stands for the sum of c * S(x) / |W|,
    so the seed {key of 0: 1} is the constant 1.  Each tau factor is one
    ``_times_tau`` step and each Q one ``_times_q`` step, Q's unit i^n
    kept apart as a power of i.  Terms are walked in sorted order, so terms
    sharing a prefix of symbols are adjacent: the chain of prefix products
    of the previous term is kept (their unit powers add mod 4) and only
    the factors past the shared prefix are applied.  With L the lcm of the
    term denominators, each term coefficient times its i^k becomes the
    Gaussian integer A + Bi = L * coeff * i^k, and the last factor is one
    step into two int dicts of the whole sum, re and im: times A into re
    (or B into im) when the other part is 0, else times 1 into a scratch
    dict that is added A times into re and B times into im.  Each result
    key gets one GaussRat (re + im*i) / (L * |W|).
    """
    order = group.weyl_order
    seed = {orbit_rep(zero_exponents(group), group): 1}
    units = {"tau": 0, "q": group.rank}
    steps = {"tau": _times_tau, "q": _times_q}
    denom = lcm(*(c._d for c in p.terms.values()))
    chain = [(0, seed)]  # chain[d]: (unit power, ints) of the first d symbols of ``prev``
    prev: tuple = ()
    re, im = {}, {}
    for key, coeff in p.sorted_terms():
        head = key[:-1]
        shared = 0
        while shared < min(len(head), len(prev)) and head[shared] == prev[shared]:
            shared += 1
        del chain[shared + 1:]
        for kind, payload in head[shared:]:
            terms: dict = {}
            steps[kind](chain[-1][1], payload, group, 1, terms)
            chain.append(((chain[-1][0] + units[kind]) % 4, {k: c for k, c in terms.items() if c}))
        prev = head
        prefix_unit, prefix = chain[-1]
        scale = denom // coeff._d
        a, b = coeff._a * scale, coeff._b * scale
        if not key:  # the constant term, first in sorted order
            re.update(sparse.scale(seed, a))
            im.update(sparse.scale(seed, b))
            continue
        kind, payload = key[-1]
        for _ in range((prefix_unit + units[kind]) % 4):
            a, b = -b, a
        if a and b:
            last: dict = {}
            steps[kind](prefix, payload, group, 1, last)
            get_re, get_im = re.get, im.get
            for k, c in last.items():
                re[k] = get_re(k, 0) + a * c
                im[k] = get_im(k, 0) + b * c
        elif a or b:
            steps[kind](prefix, payload, group, a or b, re if a else im)
    denom *= order
    return {k: v for k in re | im if (v := _reduced(re.get(k, 0), im.get(k, 0), denom))}


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
    UnsupportedInputError.  expand(P, group) == f is checked exactly, in
    the orbit-sum basis: ``orbit_coefficients(P)`` must equal the peel's
    ``{orbit key of m: c_m}`` for f = sum of c_m * orbit_sum(m).
    """
    if f.group != group:
        raise DomainError("polynomial belongs to a different group")
    # Odd (half-weight) entries exist only where the family allows them:
    # ``check_exponents`` refuses them in every other LaurentPoly.
    if group.allows_half_weights and f.has_half_weights():
        raise UnsupportedInputError(
            "decomposition supports integer-weight invariants only"
        )
    try:
        result, parts = _peel(f, group)
    except InternalCheckError:  # a bug, unless a Weyl generator moves f
        witness = invariance_violation(f, group)
        if witness is None:
            raise
        raise DomainError(f"input is not W-invariant; moved by {witness.describe()}") from None
    if orbit_coefficients(result, group) != parts:
        raise InternalCheckError("decomposition failed its expand round trip")
    return result


_HALF = GaussRat(Fraction(1, 2))
_I_POWERS = (ONE, I, -ONE, -I)  # i^k for k mod 4


@lru_cache(maxsize=16)
def _pattern_group(group: GroupSpec) -> GroupSpec:
    """The group whose orbit sums the level reduction counts: Sp for even
    SO (the full signed group), ``group`` otherwise."""
    return GroupSpec("Sp", group.rank, group.factors) if group.family == "SOeven" else group


def _reduce_orbit(key: tuple[ExponentMatrix, int], group: GroupSpec) -> GeneratorPoly:
    """GeneratorPoly equal to the Weyl orbit sum of the orbit key ``key =
    (rows, parity)`` (``weyl.orbit_rep``): ``_reduce_rows`` at the level
    of ``rows``, found once here, with the Q term of even SO."""
    rows, parity = key
    level = level_of_monomial(rows, group)
    ints = _reduce_rows(rows, level, group)
    if group.family != "SOeven":
        return GeneratorPoly._wrap({k: _reduced(v, 0, 1) for k, v in ints.items()})
    # Even SO: the Weyl sum is half the full signed sum plus half the
    # antisymmetrized part, which is Q up to the factor i^n (and vanishes
    # unless every row is nonzero).  At full level the key's rows, sorted
    # and sign-normalised, halve to the canonical Q symbol (halving keeps
    # their order), and (-1)^parity is the sign ``q_symbol`` gives m.
    out = {k: _reduced(v, 0, 2) for k, v in ints.items()}
    if level == group.rank:
        sym = ("q", tuple(_true_row(row) for row in rows))
        c = _HALF * _I_POWERS[-group.rank % 4]
        sparse.add_term(out, (sym,), -c if parity else c)
    return GeneratorPoly._wrap(out)


_REDUCE_CACHE: dict = {}


def _memo_key(m: ExponentMatrix, group: GroupSpec):
    return (group, orbit_rep(m, group)[0])


def _reduce_rows(rows: ExponentMatrix, level: int, group: GroupSpec) -> dict:
    """R(m), the reduction of m, the orbit key ``rows`` under the pattern
    group, at ``level``: ``{symbol tuple: int}`` equal to pattern_sum(m).
    The result is cached and shared: callers must not change it.

    With m_sub the key m less its largest nonzero row alpha, one
    ``_times_tau`` call over the pattern group P gives tau(alpha) *
    P(m_sub) by orbit: beta times m's orbit, and A, orbits of lower level
    (for odd SO, P(m_sub) is one of them, the constant 1 of tau).  Then
    P(m) = (tau(alpha) * R(m_sub) - sum of count * R(rows) over A) / beta,
    each key of A reduced as it came, at the level its check found.  A
    missing beta or an orbit of A at level(m) or above raises
    InternalCheckError, and so does a quotient by beta that is not exact
    (the module docstring says why it is), or an SL m_sub whose level did
    not drop by one (elsewhere m_sub has one nonzero row less).
    """
    if level == 0:
        return {(): pattern_order(group)}
    key = (group, rows)
    cached = _REDUCE_CACHE.get(key)
    if cached is not None:
        return cached
    pattern, sl, zero = _pattern_group(group), group.family == "SL", (0,) * group.factors
    # rows are sorted: alpha is last, or for GL and SL may precede the zero rows
    j = len(rows) - 1 if rows[-1] != zero else rows.index(zero) - 1
    rest = rows[:j] + rows[j + 1:]
    i = bisect_right(rest, zero)
    sub = rest[:i] + (zero,) + rest[i:]
    if sl and level_of_monomial(sub, group) != level - 1:
        raise InternalCheckError("peeled monomial level did not drop by one")
    alpha = _true_row(rows[j])
    counts: dict = {}
    _times_tau({(sub, 0): 1}, alpha, pattern, 1, counts)
    beta = counts.pop((rows, 0), 0)  # never 0: m_sub has an empty row
    # Outside SL the level is the number of nonzero rows.
    levels = [level_of_monomial(k, group) if sl else len(k) - k.count(zero) for k, _ in counts]
    if not beta or max(levels, default=0) >= level:
        raise InternalCheckError("reduction constant mismatch")

    # tau(alpha) * R(m_sub): one more symbol in each key, so keys stay distinct.
    sym = ("tau", alpha)  # alpha is sign-normalised in the signed families
    out = {tuple(sorted(k + (sym,))): v for k, v in _reduce_rows(sub, level - 1, group).items()}
    get = out.get
    for ((k_rows, _), count), lv in zip(counts.items(), levels):
        for k, v in _reduce_rows(k_rows, lv, group).items():
            out[k] = get(k, 0) - count * v
    result = {}
    for k, v in out.items():
        if v:
            q, r = divmod(v, beta)
            if r:
                raise InternalCheckError("reduction left a fraction")
            result[k] = q
    _REDUCE_CACHE[key] = result
    return result


def _peel(f: LaurentPoly, group: GroupSpec) -> tuple[GeneratorPoly, dict]:
    """Split ``f`` into multiples of Weyl orbit sums and add up the
    reductions of their orbit keys (``_reduce_orbit``) with the same
    multiples.  Returns the sum and the split ``{orbit key of m: c_m}``,
    f = sum of c_m * orbit_sum(m).

    An orbit sum gives all monomials of an orbit one coefficient, its
    stabiliser order |W|/|orbit|, so each step pops the images of the
    orbit key of any stored key m left (``weyl._images``), which must be
    there in full with m's coefficient, else an InternalCheckError is
    raised before any reduction.  Orbits are disjoint, so their order is
    free, and emptying ``f`` proves it invariant.
    """
    work = dict(f.terms)
    order, even = group.weyl_order, group.family == "SOeven"
    pop = work.pop
    parts = {}
    while work:
        m, c = next(iter(work.items()))
        key = orbit_rep(m, group)
        images = _images(key, group, even, WEYL_CAP)
        for k in images:
            if (v := pop(k, None)) is not c and v != c:  # an orbit mostly shares one c
                raise InternalCheckError("orbit peeling left terms it could not cancel")
        parts[key] = c / (order // len(images))
    result: dict = {}
    for key, coeff in parts.items():
        for k, v in _reduce_orbit(key, group).terms.items():
            sparse.add_term(result, k, v * coeff)
    return GeneratorPoly._wrap(result), parts
