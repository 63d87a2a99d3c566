"""Weyl groups of the classical families as signed permutation groups.

Elements are pairs (permutation, sign vector).  An element w sends the
monomial with exponent rows r_1..r_n to the monomial whose row w(i) is
signs[i] * r_i: variables are permuted by their first index and exponents
are negated where the sign is -1.  Membership: GL/SL take the plain
symmetric group, Sp and odd SO the full signed group, even SO the subgroup
with an even number of sign changes.

Orbit sums are built at orbit size, without enumerating the group.  An
orbit is named by its key (``orbit_rep``): the rows of any of its
monomials sorted, each taken up to sign in a signed family, and for even
SO with no zero row the parity of the number of rows negated.  On the key
monomial the stabiliser is the permutations of equal rows times the flips
of zero rows that W contains.  With m_i the multiplicities of the key's
distinct rows, the zero row among them, and z the number of zero rows,
its order is prod(m_i!), times 2^z in Sp and odd SO, times 2^(z-1) in
even SO when z >= 1 (W keeps the flips of even count), and with no power
of 2 in GL and SL.  The orbit has |W|/stab monomials: the distinct
arrangements of the key's rows and, in a signed family, every sign
pattern on the nonzero rows of each; in even SO with no zero row only
the patterns whose number of flips has the parity of the key's (an input
with rows r, -r has one flip).  ``_images`` reads these counts from the
sorted key (``set``, ``tuple.count``), never |W|, so a small orbit costs
about its size however large W is.  It returns the stabiliser order
first, once the size has passed the cap, and then streams the orbit,
never held as a list.  In place of each row it arranges the row's sign
choices, (row, -row) for a nonzero row and the row alone for a zero row,
which sort as the rows do; the arrangements come in lexicographic order,
and ``itertools.product`` reads each into its images.  In an unsigned
family, or with no nonzero row, the arrangements of the rows are the
images.  In even SO with no zero row, of the 2^n sign patterns of each
arrangement only those of the key's parity are kept
(``itertools.compress``).  ``_sum_orbits`` is the one writer of orbit
sums: each orbit monomial gets c times the stabiliser order, so S(m) is
the sum of w . m over every w in W.  ``orbit_sum``, ``pattern_sum`` and
``generators.expand`` all write through it.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

from .errors import DomainError, ResourceLimitError
from .groups import GroupSpec, Record
from .laurent import ExponentMatrix, LaurentPoly, stored_key
from .scalars import ONE
from .sparse import add_term

WEYL_CAP = 10 ** 6


class SignedPerm(Record):
    __slots__ = _fields = ("perm", "signs")
    perm: tuple[int, ...]   # 0-based images: position i maps to perm[i]
    signs: tuple[int, ...]  # sign applied to row i as it moves

    def __init__(self, perm: tuple[int, ...], signs: tuple[int, ...]):
        n = len(perm)
        if sorted(perm) != list(range(n)) or len(signs) != n:
            raise DomainError("invalid signed permutation")
        if any(s not in (1, -1) for s in signs):
            raise DomainError("signs must be +-1")
        self._freeze(perm, signs)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(tuple(range(n)), (1,) * n)

    def __matmul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition: (self @ other) acts as other first, then self."""
        perm = tuple(self.perm[other.perm[i]] for i in range(len(self.perm)))
        signs = tuple(
            self.signs[other.perm[i]] * other.signs[i] for i in range(len(self.perm))
        )
        return SignedPerm(perm, signs)

    def inverse(self) -> "SignedPerm":
        n = len(self.perm)
        perm = [0] * n
        signs = [1] * n
        for i in range(n):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPerm(tuple(perm), tuple(signs))

    def sign_change_count(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    def valid_for(self, group: GroupSpec) -> bool:
        if len(self.perm) != group.rank:
            return False
        if group.family in ("GL", "SL"):
            return all(s == 1 for s in self.signs)
        if group.family == "SOeven":
            return self.sign_change_count() % 2 == 0
        return True

    def describe(self) -> str:
        one_based = [p + 1 for p in self.perm]
        flips = [i + 1 for i, s in enumerate(self.signs) if s < 0]
        txt = f"perm {one_based}"
        if flips:
            txt += f", sign flips at {flips}"
        return txt


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _iter_signed(n: int, even_only: bool) -> Iterator[SignedPerm]:
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if even_only and sum(1 for s in signs if s < 0) % 2:
                continue
            yield SignedPerm(perm, signs)


def weyl_elements(group: GroupSpec, cap: int = WEYL_CAP) -> Iterator[SignedPerm]:
    """All Weyl group elements, each exactly once."""
    if group.weyl_order > cap:
        raise ResourceLimitError(
            f"|W| = {group.weyl_order} exceeds enumeration cap {cap}"
        )
    n = group.rank
    if group.family in ("GL", "SL"):
        for perm in itertools.permutations(range(n)):
            yield SignedPerm(perm, (1,) * n)
    elif group.family in ("Sp", "SOodd"):
        yield from _iter_signed(n, even_only=False)
    else:
        yield from _iter_signed(n, even_only=True)


def weyl_generators(group: GroupSpec) -> list[SignedPerm]:
    """A generating set: adjacent transpositions plus one sign generator
    (a single flip for Sp/SOodd, a flip pair for SOeven)."""
    n = group.rank
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(SignedPerm(tuple(perm), (1,) * n))
    if group.family in ("Sp", "SOodd"):
        signs = [1] * n
        signs[n - 1] = -1
        gens.append(SignedPerm(tuple(range(n)), tuple(signs)))
    elif group.family == "SOeven" and n >= 2:
        signs = [1] * n
        signs[n - 1] = signs[n - 2] = -1
        gens.append(SignedPerm(tuple(range(n)), tuple(signs)))
    return gens


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def act_monomial(w: SignedPerm, m: ExponentMatrix) -> ExponentMatrix:
    n = len(m)
    rows: list = [None] * n
    for i in range(n):
        row = m[i]
        rows[w.perm[i]] = row if w.signs[i] == 1 else tuple(-e for e in row)
    return tuple(rows)


def act(w: SignedPerm, f: LaurentPoly) -> LaurentPoly:
    if not w.valid_for(f.group):
        raise DomainError(f"element invalid for {f.group}: {w.describe()}")
    return LaurentPoly(f.group, {act_monomial(w, m): c for m, c in f.terms.items()})


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def _images(
    key: tuple[ExponentMatrix, int], group: GroupSpec, cap: int
) -> tuple[int, Iterator[ExponentMatrix]]:
    """``(stab, images)`` for the Weyl orbit with key ``(rows, parity)``
    from ``orbit_rep``: the stabiliser order and an iterator over the
    orbit's monomials in the order of the module docstring.

    Both numbers come from the counts of the sorted key, ``set(base)``
    for the distinct rows and ``base.count`` for the multiplicities m_i
    and the z zero rows: stab is prod(m_i!) times 2^z in Sp and odd SO,
    2^(z-1) in even SO when z >= 1, and the orbit size is n!/prod(m_i!)
    times 2^(n-z) in a signed family, halved in even SO when z = 0.  The
    size is checked against ``cap`` before any iterator exists.
    """
    base, parity = key
    n = len(base)
    rows = set(base)
    stab = 1 if len(rows) == n else math.prod(map(math.factorial, map(base.count, rows)))
    size = math.factorial(n) // stab
    zeros = n  # unsigned: every row has one choice, as a zero row does
    if group.signed:
        zeros = base.count((0,) * group.factors)
        size <<= n - zeros
        stab <<= zeros
        if group.family == "SOeven":  # W: the even flips, half the signed group
            if zeros:
                stab >>= 1
            else:
                size >>= 1
    if size > cap:
        raise ResourceLimitError(f"orbit of {size} monomials exceeds cap {cap}")
    if zeros == n:  # each row has one choice: the arrangements are the images
        return stab, _arrangements(base)
    choices = [(row, tuple([-e for e in row])) if any(row) else (row,) for row in base]
    images = itertools.chain.from_iterable(
        itertools.starmap(itertools.product, _arrangements(choices))
    )
    if group.family == "SOeven" and not zeros:
        # Sign pattern k of an arrangement, in product order, flips the
        # rows at the set bits of k (the first row's is the top bit).
        keep = [(k.bit_count() & 1) == parity for k in range(1 << n)]
        images = itertools.compress(images, itertools.cycle(keep))
    return stab, images


def _arrangements(rows: list) -> Iterator[ExponentMatrix]:
    """An iterator over the distinct orderings of ``rows``, each once, in
    lexicographic order: ``itertools.permutations`` of the sorted rows
    when they are pairwise distinct, else the next-permutation step."""
    a = sorted(rows)
    if len(set(a)) == len(a):
        return itertools.permutations(a)
    return _next_permutations(a)


def _next_permutations(a: list) -> Iterator[ExponentMatrix]:
    """The orderings of the sorted list ``a``, which it steps in place:
    the pivot a[i - 1] ahead of the longest non-increasing tail a[i:]
    swaps with the last tail entry above it, and the tail is reversed."""
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last
        while i and a[i - 1] >= a[i]:
            i -= 1
        if not i:
            return
        pivot = a[i - 1]
        j = last
        while a[j] <= pivot:
            j -= 1
        a[i - 1], a[j] = a[j], pivot
        a[i:] = a[:i - 1:-1]


def orbit_rep(m: ExponentMatrix, group: GroupSpec) -> tuple[ExponentMatrix, int]:
    """The key ``(rows, parity)`` of the Weyl orbit of the stored key ``m``
    (SL keys canonical mod relations): two keys get one orbit key exactly
    when they lie in one orbit.  ``rows`` are the rows of ``m`` sorted,
    each negated in the signed families when it sorts below the zero row
    (its first nonzero entry is negative); a zero row then sorts first.
    ``parity`` is, for even SO with no zero row, the number of rows
    negated, mod 2, and 0 otherwise."""
    if not group.signed:
        return tuple(sorted(m)), 0
    zero = (0,) * group.factors
    rows = []
    flips = 0
    for row in m:
        if row < zero:
            row = tuple([-e for e in row])
            flips += 1
        rows.append(row)
    rows.sort()
    if group.family == "SOeven" and rows[0] != zero:
        return tuple(rows), flips & 1
    return tuple(rows), 0


def _sum_orbits(coeffs: dict, group: GroupSpec, cap: int) -> LaurentPoly:
    """The sum of c * S(key) over ``coeffs = {orbit key: c}``, no c zero,
    S the Weyl orbit sum: the sum of w . m over every w in W for any m of
    the orbit.  It gives each orbit monomial one coefficient, the
    stabiliser order |W|/|orbit|, so each orbit is streamed from
    ``_images`` into one dict with c times that order, one product per
    orbit.  Orbits are disjoint, so no monomial gets two contributions.
    An orbit above ``cap`` monomials raises ResourceLimitError before it
    is built.  The images are stored keys as they come: permuting the
    rows of a canonical SL key leaves it canonical, as the shift that
    canonicalises a key depends only on its multiset of rows."""
    terms: dict = {}
    for key, c in coeffs.items():
        stab, images = _images(key, group, cap)
        terms.update(zip(images, itertools.repeat(c * stab)))
    return LaurentPoly._trusted(group, terms)


def orbit_sum(m: ExponentMatrix, group: GroupSpec, cap: int = WEYL_CAP) -> LaurentPoly:
    """S(m), the sum of w . m over every Weyl element, multiplicities
    included: ``_sum_orbits`` of m's orbit key with coefficient 1, so each
    orbit monomial gets the stabiliser order.  ``m`` is checked and
    canonicalised by ``laurent.stored_key``, with no polynomial built for it.
    Raises ResourceLimitError if the orbit has more than ``cap``
    monomials."""
    return _sum_orbits({orbit_rep(stored_key(m, group), group): ONE}, group, cap)


def pattern_sum(m: ExponentMatrix, group: GroupSpec, cap: int = WEYL_CAP) -> LaurentPoly:
    """Sum of w . m over the pattern group of the level reduction: the
    symmetric group for GL/SL, the full signed group otherwise.  For all
    but even SO that is W, and the sum is S(m).  Even SO's pattern group
    is W together with W . d, d one sign change, so the sum is S(m) +
    S(m'), m' the key with its first row negated: one key counted twice
    when a row is zero.  ``cap`` bounds each W-orbit, not the pattern
    orbit, which for even SO can be twice as large.  No library code
    calls it; ``generators._reduce_pattern`` writes it in closed form."""
    key = stored_key(m, group)
    coeffs = {orbit_rep(key, group): ONE}
    if group.family == "SOeven":
        add_term(coeffs, orbit_rep((tuple(-e for e in key[0]),) + key[1:], group), ONE)
    return _sum_orbits(coeffs, group, cap)


def invariance_violation(f: LaurentPoly, group: GroupSpec) -> Optional[SignedPerm]:
    """A Weyl generator moving f, or None if f is invariant.

    Checking generators suffices because the action is a group action.
    """
    if f.group != group:
        raise DomainError("polynomial belongs to a different group")
    for w in weyl_generators(group):
        if act(w, f) != f:
            return w
    return None


def is_invariant(f: LaurentPoly, group: GroupSpec) -> bool:
    return invariance_violation(f, group) is None


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------

def level_of_monomial(m: ExponentMatrix, group: GroupSpec) -> int:
    """Minimal number of nonvanishing exponent rows over all presentations.

    Presentations are unique except for SL, where adding one vector to all
    rows does not change the monomial; there the level is n minus the top
    multiplicity among row values.
    """
    if group.family == "SL":
        counts: dict[tuple[int, ...], int] = {}
        for row in m:
            counts[row] = counts.get(row, 0) + 1
        return group.rank - max(counts.values())
    return sum(1 for row in m if any(row))


def level_of_poly(f: LaurentPoly, group: GroupSpec) -> int:
    if not f:
        raise DomainError("the zero polynomial has no level")
    return max(level_of_monomial(m, group) for m in f.terms)
