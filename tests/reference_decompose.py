"""Reference ``decompose`` with a separate invariance pass.

This is the body ``toruschar.generators.decompose`` used before the peel
itself proved invariance: every Weyl generator is tried on the input
first, and the peel then takes the orbits in descending (level, key)
order, subtracting each orbit sum from one working dict with
``add_term``.  It is kept as the oracle for the two-phase peel, whose
results and error messages must be the same.

``reduce_orbit`` is the body ``generators._reduce_orbit`` had when it
took a presentation m rather than an orbit key: the level of m, the Q
symbol and its sign from ``q_symbol`` on m's halved rows, and the pattern
sum from ``reduce_pattern_monomial`` (or from ``reduce_by_presentation``,
which counts instead of enumerating the pattern group, so it stays quick
at rank 5).  ``decompose`` peels with the orbit-sized default unless
told otherwise, so the reference reduces every orbit at every level by
itself.

``reduce_pattern_monomial`` is the orbit-sized body of the level
reduction that the library replaced by counts on one presentation of
m_sub: the step product enumerated over the whole pattern group
(``reference_weyl.step_product``), its top checked against
``pattern_sum(m)`` and its lower-level remainder peeled by pattern sums.
It computes in ``GaussRat`` and hands over, returns and caches the
kernel's form, ``{symbol tuple: int}``, asserting that every coefficient
is a real integer.  It recurses into itself, with ``bound`` the level
each call must stay below.

``reduce_rows`` is the recursion the library ran before the closed form,
on orbit keys: m_sub is the key less its largest nonzero row alpha, one
``generators._times_tau`` call over the pattern group gives tau(alpha) *
P(m_sub) by orbit, beta times m's orbit and the lower orbits A, and
P(m) = (tau(alpha) * R(m_sub) - sum of count * R(rows) over A) / beta.
Its guards raise InternalCheckError on a missing beta, an orbit of A at
the level of m or above, a quotient by beta that is not exact and an SL
m_sub whose level did not drop by one.  The closed form is this
recursion unrolled.

``reduce_by_presentation`` is the body the keyed recursion had before it
recursed on orbit keys: every call, on m_sub or on the rows of an orbit
of A, derives the level, the orbit key and the tau symbol of the
presentation it is given once more, and peels the rows in the order and
with the signs that presentation gives them.

The three recursions share ``CACHE``, keyed by ``(group, rows of the
orbit key)``; a test clears it to have every level computed again.

``times_tau`` is the earlier body of ``generators._times_tau``, kept as
the oracle for its sign test and key insertion.

``orbit_coefficients`` is the earlier body of
``generators.orbit_coefficients``, kept as the oracle for its trie walk:
the terms in sorted order, the chain of prefix products of the previous
term (each with its unit power of i), and two int accumulators for the
real and imaginary parts, into which each term makes its last step.
"""

from bisect import bisect_right, insort
from fractions import Fraction
from math import lcm
from operator import add

import reference_weyl
from toruschar import generators, sparse
from toruschar.errors import DomainError, InternalCheckError, UnsupportedInputError
from toruschar.generators import GeneratorPoly, expand, q_symbol, tau_symbol
from toruschar.groups import GroupSpec
from toruschar.laurent import canonical_mod_relations, zero_exponents
from toruschar.scalars import GaussRat, I, ONE, _reduced
from toruschar.weyl import (
    invariance_violation,
    level_of_monomial,
    level_of_poly,
    orbit_rep,
    orbit_sum,
    pattern_sum,
)


def decompose(f, group, reduce_pattern=None):
    """``reduce_pattern`` reduces each pattern orbit; the default is the
    orbit-sized ``reduce_pattern_monomial``."""
    reduce_pattern = reduce_pattern or reduce_pattern_monomial
    if f.group != group:
        raise DomainError("polynomial belongs to a different group")
    if f.has_half_weights():
        raise UnsupportedInputError(
            "decomposition supports integer-weight invariants only"
        )
    witness = invariance_violation(f, group)
    if witness is not None:
        raise DomainError(f"input is not W-invariant; moved by {witness.describe()}")
    result = peel(f, group, orbit_sum, lambda m, g: reduce_orbit(m, g, reduce_pattern))
    if expand(result, group) != f:
        raise InternalCheckError("decomposition failed its expand round trip")
    return result


CACHE: dict = {}


def memo_key(m, group):
    return (group, orbit_rep(m, group)[0])


def pattern_group(group):
    """The group whose orbit sums the level reduction counts: Sp for even
    SO (the full signed group), ``group`` otherwise."""
    return GroupSpec("Sp", group.rank, group.factors) if group.family == "SOeven" else group


def reduce_pattern_monomial(m, group, bound):
    level = level_of_monomial(m, group)
    if level >= bound:
        raise InternalCheckError("level reduction failed to descend")
    if level == 0:
        return as_ints(GeneratorPoly.constant(reference_weyl.pattern_order(group)))
    key = memo_key(m, group)
    cached = CACHE.get(key)
    if cached is not None:
        return cached
    pos, alpha_row = max(
        ((i, row) for i, row in enumerate(m) if any(row)), key=lambda t: t[1]
    )
    m_sub = m[:pos] + ((0,) * group.factors,) + m[pos + 1:]
    if level_of_monomial(m_sub, group) != level - 1:
        raise InternalCheckError("peeled monomial level did not drop by one")
    top, lower = reference_weyl.step_product(m_sub, alpha_row, group)
    full_sum = pattern_sum(m, group)
    beta = top.coefficient(m) / full_sum.coefficient(m)
    if not beta or top != full_sum.scaled(beta):
        raise InternalCheckError("reduction constant mismatch")
    if lower and level_of_poly(lower, group) >= level:
        raise InternalCheckError("lower-level remainder has full level")
    gen_one = GeneratorPoly.symbol(tau_symbol(group, generators._true_row(alpha_row)))
    if group.family == "SOodd":
        gen_one = gen_one + GeneratorPoly.constant(GaussRat(-1))
    out = gen_one * as_poly(reduce_pattern_monomial(m_sub, group, bound=level))
    if lower:
        out = out - peel(lower, group, pattern_sum,
                         lambda k, g: as_poly(reduce_pattern_monomial(k, g, bound=level)))
    result = CACHE[key] = as_ints(out.scaled(ONE / beta))
    return result


def reduce_orbit(m, group, reduce_pattern=reduce_pattern_monomial):
    """GeneratorPoly equal to orbit_sum(m, group), for a stored key m."""
    level = level_of_monomial(m, group)
    out = as_poly(reduce_pattern(m, group, bound=level + 1))
    if group.family != "SOeven":
        return out
    # The Weyl sum is half the pattern sum plus half the antisymmetrized
    # part, which is i^-n * Q and vanishes unless every row is nonzero.
    half = GaussRat(Fraction(1, 2))
    out = out.scaled(half)
    if level == group.rank:
        sym, sign = q_symbol(group, [generators._true_row(row) for row in m])
        if sym is not None:
            out = out + GeneratorPoly.symbol(sym, half * sign * I ** (-group.rank % 4))
    return out


def reduce_by_presentation(m, group, bound):
    level = level_of_monomial(m, group)
    if level >= bound:
        raise InternalCheckError("level reduction failed to descend")
    if level == 0:
        return {(): reference_weyl.pattern_order(group)}
    key = memo_key(m, group)
    cached = CACHE.get(key)
    if cached is not None:
        return cached

    pos, alpha_row = max(
        ((i, row) for i, row in enumerate(m) if any(row)), key=lambda t: t[1]
    )
    m_sub = m[:pos] + ((0,) * group.factors,) + m[pos + 1:]
    if level_of_monomial(m_sub, group) != level - 1:
        raise InternalCheckError("peeled monomial level did not drop by one")
    pattern = pattern_group(group)
    alpha = generators._true_row(alpha_row)
    counts = {}
    generators._times_tau({orbit_rep(m_sub, pattern): 1}, alpha, pattern, 1, counts)
    beta = counts.pop((key[1], 0), 0)
    if not beta or any(level_of_monomial(rows, group) >= level for rows, _ in counts):
        raise InternalCheckError("reduction constant mismatch")

    sym = tau_symbol(group, alpha)
    below = reduce_by_presentation(m_sub, group, bound=level)
    out = {tuple(sorted(k + (sym,))): v for k, v in below.items()}
    get = out.get
    for (rows, _), count in counts.items():
        for k, v in reduce_by_presentation(rows, group, bound=level).items():
            out[k] = get(k, 0) - count * v
    result = {}
    for k, v in out.items():
        if v:
            q, r = divmod(v, beta)
            if r:
                raise InternalCheckError("reduction left a fraction")
            result[k] = q
    CACHE[key] = result
    return result


def reduce_rows(rows, level, group):
    """R(m) for the orbit key ``rows`` under the pattern group, at
    ``level``: the keyed recursion, with its guards."""
    if level == 0:
        return {(): reference_weyl.pattern_order(group)}
    key = (group, rows)
    cached = CACHE.get(key)
    if cached is not None:
        return cached
    pattern, sl, zero = pattern_group(group), group.family == "SL", (0,) * group.factors
    # rows are sorted: alpha is last, or for GL and SL may precede the zero rows
    j = len(rows) - 1 if rows[-1] != zero else rows.index(zero) - 1
    rest = rows[:j] + rows[j + 1:]
    i = bisect_right(rest, zero)
    sub = rest[:i] + (zero,) + rest[i:]
    if sl and level_of_monomial(sub, group) != level - 1:
        raise InternalCheckError("peeled monomial level did not drop by one")
    alpha = generators._true_row(rows[j])
    counts = {}
    generators._times_tau({(sub, 0): 1}, alpha, pattern, 1, counts)
    beta = counts.pop((rows, 0), 0)  # never 0: m_sub has an empty row
    # Outside SL the level is the number of nonzero rows.
    levels = [level_of_monomial(k, group) if sl else len(k) - k.count(zero) for k, _ in counts]
    if not beta or max(levels, default=0) >= level:
        raise InternalCheckError("reduction constant mismatch")

    # tau(alpha) * R(m_sub): one more symbol in each key, so keys stay distinct.
    sym = ("tau", alpha)  # alpha is sign-normalised in the signed families
    out = {tuple(sorted(k + (sym,))): v for k, v in reduce_rows(sub, level - 1, group).items()}
    get = out.get
    for ((k_rows, _), count), lv in zip(counts.items(), levels):
        for k, v in reduce_rows(k_rows, lv, group).items():
            out[k] = get(k, 0) - count * v
    result = {}
    for k, v in out.items():
        if v:
            q, r = divmod(v, beta)
            if r:
                raise InternalCheckError("reduction left a fraction")
            result[k] = q
    CACHE[key] = result
    return result


def as_ints(p):
    """``p`` in the reduction kernel's form ``{symbol tuple: int}``; each
    coefficient must be a real integer."""
    for c in p.terms.values():
        assert c.is_rational() and c.as_fraction().denominator == 1, f"{c} is not an integer"
    return {k: int(c.as_fraction()) for k, c in p.terms.items()}


def as_poly(ints):
    return GeneratorPoly({k: GaussRat(v) for k, v in ints.items()})


def peel(f, group, group_sum, reduce):
    work = dict(f.terms)
    result = {}
    for _, m in sorted(((level_of_monomial(m, group), m) for m in work), reverse=True):
        c = work.get(m)
        if c is None:
            continue
        psum = group_sum(m, group).terms
        coeff = c / psum[m]
        for k, v in psum.items():
            sparse.add_term(work, k, -(v * coeff))
        for k, v in reduce(m, group).terms.items():
            sparse.add_term(result, k, v * coeff)
    if work:
        raise InternalCheckError("orbit peeling left terms it could not cancel")
    return GeneratorPoly(result)


def times_tau(terms, alpha, group, factor, out):
    """The body ``generators._times_tau`` had before it tested the sign
    against the zero row and inserted by ``bisect_right`` and slicing:
    a sign scan per shifted row, then ``list``, ``insort`` and ``tuple``
    per new key, and ``any`` for the even-SO zero-row test."""
    row = tuple(2 * a for a in alpha)
    shifts = (row, tuple(-e for e in row)) if group.signed else (row,)
    signed, sl = group.signed, group.family == "SL"
    even, odd = group.family == "SOeven", group.family == "SOodd"
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
                if signed:
                    for e in y:
                        if e:
                            if e < 0:
                                y, flip = tuple([-e for e in y]), 1
                            break
                new = list(rest)
                insort(new, y)
                new = tuple(new)
                if sl:
                    new = canonical_mod_relations(new, group)
                new_key = (new, parity ^ flip if any(new[0]) else 0) if even else (new, 0)
                out[new_key] = get(new_key, 0) + cm


def orbit_coefficients(p, group):
    """``{orbit key: coefficient}`` of ``p`` in the Weyl orbit sums, by the
    prefix chain over the sorted terms (see the module docstring)."""
    order = group.weyl_order
    seed = {orbit_rep(zero_exponents(group), group): 1}
    units = {"tau": 0, "q": group.rank}
    steps = {"tau": generators._times_tau, "q": generators._times_q}
    denom = lcm(*(c._d for c in p.terms.values()))
    chain = [(0, seed)]  # chain[d]: (unit power, ints) of the first d symbols of ``prev``
    prev = ()
    re, im = {}, {}
    for key, coeff in p.sorted_terms():
        head = key[:-1]
        shared = 0
        while shared < min(len(head), len(prev)) and head[shared] == prev[shared]:
            shared += 1
        del chain[shared + 1:]
        for kind, payload in head[shared:]:
            terms = {}
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
            last = {}
            steps[kind](prefix, payload, group, 1, last)
            get_re, get_im = re.get, im.get
            for k, c in last.items():
                re[k] = get_re(k, 0) + a * c
                im[k] = get_im(k, 0) + b * c
        elif a or b:
            steps[kind](prefix, payload, group, a or b, re if a else im)
    denom *= order
    return {k: v for k in re | im if (v := _reduced(re.get(k, 0), im.get(k, 0), denom))}
