"""Trace generators and the level-reduction decomposition.

The coordinate ring of the torus quotient is generated by the trace
functions tau(alpha) (all families) together with, for even SO, the
Pfaffian-flavoured generators Q(alpha_1..alpha_n).  This module computes
their Laurent images and, in the other direction, rewrites any Weyl-
invariant integer-weight Laurent polynomial as a polynomial in the
generator symbols.  The peel splits it into Weyl orbit sums S(m), and
``_reduce_orbit`` writes S(m) as the pattern sum P(m), the sum of w.m over
the pattern group (the symmetric group for GL and SL, the full signed
group otherwise), halved and with a Q term for even SO.

P(m) has a closed form R(m).  With r_1..r_l the nonzero rows of m, P(m)
is |P_0| = (n-l)! (times 2^(n-l) when signed) times the sum of
prod_j x_{w(j)}^(e_j r_j) over the injective maps w of the rows to the n
coordinates and, when signed, the signs e_j.  Moebius inversion on the
lattice of set partitions writes that in power sums (Macdonald, Symmetric
Functions, I.6; Doubilet, Stud. Appl. Math. 51, 1972):

    R(m) = |P_0| * sum over partitions pi of the rows of mu(pi) * prod T(B),

mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)! and T(B) the sum of tau'(sum of
e_j r_j) over the signs e_j of B's rows that keep one row positive (all +
for GL and SL); tau' is tau less odd SO's constant 1, and tau'(0) = 2n (n
for GL and SL).  The level recursion used before, tau(alpha) * P(m_sub) =
beta * P(m) + A with m_sub one level down, is this sum unrolled.  R(m)
has int coefficients; ``_reduce_orbit`` makes GaussRats of them.

A generator polynomial is multiplied out in Horner form over the prefix
trie of its terms, ``orbit_coefficients``, in the basis of Weyl orbit
sums S(m) (a basis of the invariants: Bourbaki, Lie Groups and Lie
Algebras, VI.3): each trie node is one ``_times_tau`` or ``_times_q``
call, by its last symbol.  The coefficients, Gaussian integers over one
common denominator, are packed as A + B * 2^K into one int (Kronecker
substitution; Harvey, J. Symb. Comput. 44, 2009), so the real and
imaginary parts take the same steps.  ``decompose`` checks its result in
that basis, with code the reduction does not share, and ``expand``
writes the sum of c * S(m) out with ``weyl._sum_orbits``.  The
Laurent image of a generator, ``tau_image`` or ``q_image``, is
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
from itertools import product
from math import comb, factorial, lcm, prod
from operator import add, index, le, sub
from typing import Mapping, Optional

from . import sparse
from .errors import DomainError, InternalCheckError, UnsupportedInputError
from .groups import GroupSpec
from .jsonio import json_check, json_field, json_ints, json_term_coeff
from .laurent import ExponentMatrix, LaurentPoly, canonical_mod_relations, zero_exponents
from .scalars import GaussRat, I, ONE, ZERO, _reduced
from .weyl import WEYL_CAP, _images, _sum_orbits, invariance_violation, orbit_rep

TauSymbol = tuple[str, tuple[int, ...]]
QSymbol = tuple[str, tuple[tuple[int, ...], ...]]
Symbol = TauSymbol | QSymbol


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def _normalize_vector(alpha: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Flip the vector so its first nonzero entry is positive."""
    if alpha < (0,) * len(alpha):
        return tuple([-x for x in alpha]), -1
    return alpha, 1


def tau_symbol(group: GroupSpec, alpha) -> TauSymbol:
    alpha = tuple(index(a) for a in alpha)
    if len(alpha) != group.factors:
        raise DomainError(f"alpha must have {group.factors} entries")
    if group.signed:
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
        path, which past the coefficient is formatted only to raise.  Each
        distinct coefficient text is parsed once (``json_term_coeff``)."""
        json_check(obj, dict, "")
        terms: dict[tuple, GaussRat] = {}
        coeffs: dict[str, GaussRat] = {}
        for k, entry in enumerate(json_field(obj, "terms", list, "", default=[])):
            if type(entry) is not dict:
                json_check(entry, dict, f"terms[{k}]")
            coeff = json_term_coeff(entry, k, coeffs)
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
    """Substitute generator images and multiply out, exactly: the sum of
    c * S(m) over ``orbit_coefficients``, written by ``weyl._sum_orbits``.
    An orbit above WEYL_CAP monomials raises ResourceLimitError before it
    is built.
    """
    return _sum_orbits(orbit_coefficients(p, group), group, WEYL_CAP)


# verify-bracket at its largest window (8) touches 1085 tau images on SL
# and GL and 543 on the other families; the oracle benchmark 349.
@lru_cache(maxsize=2048)
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
    families), the flags signed, SL, even SO and odd SO, and the shift of a
    zero row in the signed families: alpha's row sign-normalised, and 1 if
    normalising it negated it, else 0."""
    row = tuple(2 * a for a in alpha)
    signed = family not in ("GL", "SL")
    shifts = (row, tuple(-e for e in row)) if signed else (row,)
    lifted, sign = _normalize_vector(row)
    return (
        (0,) * len(row), shifts, signed, family == "SL", family == "SOeven", family == "SOodd",
        lifted, int(sign < 0),
    )


def _times_tau(terms: dict, alpha: tuple[int, ...], group: GroupSpec, factor: int, out: dict) -> None:
    """Add ``factor * tau(alpha) * sum c * S(x)`` over ``terms = {orbit key
    of x: c}`` into ``out``, in orbit keys (``weyl.orbit_rep``), S the
    Weyl orbit sum of ``group``: its one caller is ``orbit_coefficients``,
    and the level reduction, in closed form, has no pattern-group step.
    The constants are cached: each ``ladder`` and ``roundtrip`` cycle
    scales its exponents by a new prime, so only 59% and 80% of the calls
    hit (seed 201, three cycles each), but a call then costs 1.1 and
    0.8 microseconds on average, against 1.9 and 2.1 when the constants
    are built on every call.

    The shifts {s*alpha e_k} form a W-stable set, so tau(alpha) * S(x) is
    the sum of S(x + s*alpha e_k) over rows k and shifts s, plus S(x) for
    odd SO.  Equal rows give equal sums: for each distinct row r of x,
    with multiplicity mu, one copy of r becomes r + s, sign-normalised
    (signed families), and the rows are re-sorted; for SL the result is
    canonicalised, which keeps the order.  For even SO, normalising
    r + s flips the parity exactly when it negates the row, and the parity
    is 0 whenever a row is zero (zero rows sort first).  So every key put
    in ``out`` is an orbit key in canonical form.  In the signed families
    both shifts of a zero row give one row, alpha's sign-normalised, so the
    block of zero rows is stepped once, with weight 2 * mu; only for even
    SO, when it was the last zero row, the two shifts give both parities.
    """
    zero, shifts, signed, sl, even, odd, lifted, lifted_flip = _step_constants(alpha, group.family)
    get = out.get
    for key, c in terms.items():
        c *= factor
        if odd:
            out[key] = get(key, 0) + c
        rows, parity = key
        n = len(rows)
        k = 0
        if signed and rows[0] == zero:  # the zero rows, first; the parity is 0
            k = rows.count(zero)
            rest = rows[1:]
            i = bisect_right(rest, lifted)
            new = rest[:i] + (lifted,) + rest[i:]
            if even and new[0] != zero:  # the last zero row: the shifts differ in parity
                for new_key in ((new, lifted_flip), (new, lifted_flip ^ 1)):
                    out[new_key] = get(new_key, 0) + c
            else:
                new_key = (new, 0)
                out[new_key] = get(new_key, 0) + 2 * c * k
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
    get = out.get
    for key, c in terms.items():
        stab, images = _images(key, group, WEYL_CAP)
        c *= factor * stab
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
    so the seed {key of 0: 1} is the constant 1.  p is multiplied out in
    Horner form over the prefix trie of its keys: a node's map is its own
    coefficient times the seed plus, for each child, one ``_times_tau`` or
    ``_times_q`` step of the child's map by the child's symbol, and a leaf
    child is one step from the seed with its coefficient as the factor.
    So each node is stepped once, the walk keeps an explicit stack, and no
    term order is needed.  With L the lcm of the term denominators, a
    term's coefficient is the Gaussian integer A + Bi = L * coeff * i^k,
    i^k the product of the units i^n of its Q factors (``_times_q`` steps
    by i^-n * Q), packed into one int A + B * 2^K.  The steps are Z-linear,
    so every map holds its real and imaginary maps packed alike, and K
    leaves room for any real part: a step grows the sum of |c| over a map
    at most by w = 2n + 1 (tau: n rows, two shifts, odd SO's S(x)) or
    2|W| (Q), so |A| of any key is at most the sum over the terms of
    (|A| + |B|) times the product of w over the factors, and K is one bit
    past it.  Each result key is unpacked once and gets one GaussRat
    (A + Bi) / (L * |W|).  The zero polynomial returns ``{}`` before |W|
    or the rank-sized zero key is built.
    """
    if not p.terms:
        return {}
    order, rank = group.weyl_order, group.rank
    seed_key = (zero_exponents(group), 0)  # orbit_rep of the zero key
    seed = {seed_key: 1}
    steps = {"tau": _times_tau, "q": _times_q}
    widths = {"tau": 2 * rank + 1, "q": 2 * order}
    denom = lcm(*(c._d for c in p.terms.values()))
    root: list = [0, {}]  # a trie node: [packed coefficient, {symbol: child}]
    ends, bound = [], 0
    for key, coeff in p.terms.items():
        node, units, width = root, 0, 1
        for sym in key:
            node = node[1].get(sym) or node[1].setdefault(sym, [0, {}])
            width *= widths[sym[0]]
            if sym[0] == "q":
                units += rank
        scale = denom // coeff._d
        a, b = coeff._a * scale, coeff._b * scale
        for _ in range(units % 4):
            a, b = -b, a
        bound += (abs(a) + abs(b)) * width
        ends.append((node, a, b))
    shift = bound.bit_length() + 1
    for node, a, b in ends:
        node[0] = a + (b << shift)
    top = {seed_key: root[0]} if root[0] else {}
    stack = [(None, iter(root[1].items()), top)]  # (symbol, children left, map)
    while stack:
        sym, children, acc = stack[-1]
        for child, (value, grand) in children:
            if grand:
                stack.append((child, iter(grand.items()), {seed_key: value} if value else {}))
                break
            steps[child[0]](seed, child[1], group, value, acc)
        else:
            stack.pop()
            if stack:
                steps[sym[0]]({k: c for k, c in acc.items() if c}, sym[1], group, 1, stack[-1][2])
    half, denom = 1 << (shift - 1), denom * order
    out = {}
    for key, v in top.items():
        if v:  # A + Bi = 0 exactly when the packed int is 0
            b = (v + half) >> shift
            out[key] = _reduced(v - (b << shift), b, denom)
    return out


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def _true_row(row: tuple[int, ...]) -> tuple[int, ...]:
    if any([e & 1 for e in row]):
        raise UnsupportedInputError("half-integer weight in decomposition")
    return tuple([e // 2 for e in row])


def decompose(f: LaurentPoly, group: GroupSpec) -> GeneratorPoly:
    """Express a W-invariant integer-weight polynomial in the generators.

    The peel proves invariance; if it fails, a DomainError names a Weyl
    generator moving f (none moving it is an InternalCheckError).  Orbits
    beyond WEYL_CAP raise ResourceLimitError, half-integer weights
    UnsupportedInputError.  expand(P, group) == f is checked exactly, in
    the orbit-sum basis: ``orbit_coefficients(P)`` must equal the peel's
    ``{orbit key of m: c_m}`` for f = sum of c_m * orbit_sum(m).
    """
    if f.group is not group and f.group != group:
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


def _reduce_orbit(key: tuple[ExponentMatrix, int], group: GroupSpec) -> GeneratorPoly:
    """GeneratorPoly equal to the Weyl orbit sum of the orbit key ``key =
    (rows, parity)`` (``weyl.orbit_rep``): R(rows), with even SO's Q term."""
    rows, parity = key
    ints = _reduce_pattern(rows, group)
    if group.family != "SOeven":
        return GeneratorPoly._wrap({k: _reduced(v, 0, 1) for k, v in ints.items()})
    # Even SO: the Weyl sum is half the full signed sum plus half the
    # antisymmetrized part, which is Q up to the factor i^n (and vanishes
    # unless every row is nonzero).  At full level the key's rows, sorted
    # and sign-normalised, halve to the canonical Q symbol (halving keeps
    # their order), and (-1)^parity is the sign ``q_symbol`` gives m.
    out = {k: _reduced(v, 0, 2) for k, v in ints.items()}
    if any(rows[0]):  # no zero row, which would sort first: full level
        sym = ("q", tuple(_true_row(row) for row in rows))
        c = _HALF * _I_POWERS[-group.rank % 4]
        sparse.add_term(out, (sym,), -c if parity else c)
    return GeneratorPoly._wrap(out)


def _reduce_pattern(rows: ExponentMatrix, group: GroupSpec) -> dict:
    """R(m), ``{symbol tuple: int}`` equal to pattern_sum(m) for the orbit
    key ``rows``, in the closed form of the module docstring.  The nonzero
    rows are a multiset, distinct rows t_i with counts c_i, so a block is a
    count vector b <= c.  F(c), the sum over partitions, is split by the
    block holding one row of the first type p left: the C(c_p - 1, b_p - 1)
    * prod_{i > p} C(c_i, b_i) blocks b with b_p >= 1 each add mu(b) * T(b)
    * F(c - b), F(0) = |P_0|, so a key costs a polynomial in prod (c_i + 1)."""
    n, zero = group.rank, (0,) * group.factors
    signed, odd = group.signed, group.family == "SOodd"
    kinds = dict.fromkeys(rows)  # the key is sorted: its distinct rows, in order
    kinds.pop(zero, None)
    counts = list(map(rows.count, kinds))
    types = list(map(_true_row, kinds))
    free, k = n - sum(counts), len(counts)
    # The count vectors b <= c in product order: b = vecs[i] for i the sum
    # of b_j * place[j], so c - b has the index of c less that of b.
    vecs = list(product(*[range(c + 1) for c in counts]))
    place = [1] * k
    for j in range(k - 1, 0, -1):
        place[j - 1] = place[j] * (counts[j] + 1)
    sums: list = [None] * len(vecs)  # {v: ways}, v a signed sum of b's rows
    blocks: list = [[] for _ in range(k)]  # by first type: (b's index, b, mu, T(b))
    for i in range(1, len(vecs)):
        b = vecs[i]
        j = k - 1
        while not b[j]:
            j -= 1
        t, prev = types[j], i - place[j]
        # One row of b's first type stays positive; each other row is
        # added with either sign (signed families) or positive.
        sums[i] = got = {} if prev else {t: 1}
        for v, w in sums[prev].items() if prev else ():
            for u in (tuple(map(add, v, t)), tuple(map(sub, v, t)))[:1 + signed]:
                got[u] = got.get(u, 0) + w
        out, const = {}, 0  # T(b): tau'(v) = tau(v) less odd SO's 1, tau'(0) = n, 2n signed
        for v, w in got.items():
            if signed and v < zero:  # its first nonzero entry is negative
                v = tuple([-e for e in v])
            if v == zero:
                const += (2 * n if signed else n) * w
            else:
                sym = ("tau", v)
                out[sym] = out.get(sym, 0) + w
                const -= w * odd
        terms = list(out.items())
        if const:
            terms.append(((), const))
        size, p = sum(b), 0
        while not b[p]:
            p += 1
        mu = factorial(size - 1)  # mu(b), as in mu(pi)
        blocks[p].append((i, b, mu if size & 1 else -mu, terms))
    states: list = [{(): factorial(free) << (free if signed else 0)}] + [None] * (len(vecs) - 1)
    # From c, whose first type is 0, every state with fewer rows of type 0 is reached.
    for s in [*range(1, counts[0] * place[0]), len(vecs) - 1] if k else ():
        c, p = vecs[s], 0
        while not c[p]:
            p += 1
        out = {}
        get = out.get
        for i, b, mu, terms in blocks[p]:
            if i > s or not all(map(le, b, c)):
                continue
            w = mu * comb(c[p] - 1, b[p] - 1) * prod(map(comb, c[p + 1:], b[p + 1:]))
            rest = states[s - i]
            for sym, tc in terms:
                wc = w * tc
                for key, v in rest.items():
                    if sym:
                        j = bisect_right(key, sym)
                        key = key[:j] + (sym,) + key[j:]
                    out[key] = get(key, 0) + wc * v
        states[s] = {key: v for key, v in out.items() if v}
    return states[-1]


def _peel(f: LaurentPoly, group: GroupSpec) -> tuple[GeneratorPoly, dict]:
    """Split ``f`` into multiples of Weyl orbit sums and add up the
    reductions of their orbit keys (``_reduce_orbit``) with the same
    multiples.  Returns the sum and the split ``{orbit key of m: c_m}``,
    f = sum of c_m * orbit_sum(m).

    An orbit sum gives all monomials of an orbit one coefficient, its
    stabiliser order |W|/|orbit|, so each step pops the images of the
    orbit key of any stored key m left, as ``weyl._images`` streams them
    after giving that order; each must be there with m's coefficient,
    else an InternalCheckError is raised before any reduction.  Orbits are
    disjoint, so their order is free, and emptying ``f`` proves it
    invariant.
    """
    work = dict(f.terms)
    pop = work.pop
    parts = {}
    while work:
        m, c = next(iter(work.items()))
        key = orbit_rep(m, group)
        stab, images = _images(key, group, WEYL_CAP)
        for k in images:
            if (v := pop(k, None)) is not c and v != c:  # an orbit mostly shares one c
                raise InternalCheckError("orbit peeling left terms it could not cancel")
        parts[key] = c / stab
    result: dict = {}
    for key, coeff in parts.items():
        for k, v in _reduce_orbit(key, group).terms.items():
            sparse.add_term(result, k, v * coeff)
    return GeneratorPoly._wrap(result), parts
