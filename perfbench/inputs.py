"""Seeded input generator for the benchmark workloads.

Every op input is plain JSON-ready data (dicts, lists, ints, strings) made
without importing the library, so the library only ever sees these inputs.
``make_op(workload, seed, index)`` is a pure function: the same arguments
always give byte-identical data.

Each workload cycles through a fixed schedule of op classes (family, rank,
number of factors, op kind).  The cost of an exact op depends mostly on the
shape of its input: the levels, orbit sizes and coincidences among the
exponent rows (which decide the reduction-cache hits), the degrees and
symbols of a bracket.  Shapes are therefore drawn from a generator keyed by
the op's position (roundtrip, ladder) or index (exact_algebra) alone, and
the seed draws what changes the input but not the work: coefficients, the
parameter c, a prime exponent scale, a permutation of rows, a signed
permutation of the symbol coordinates, and the sample points.  Runs
with different seeds thus do the same work on different inputs, which
keeps their timings comparable.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

FAMILIES = ("GL", "SL", "Sp", "SOodd", "SOeven")
SIGNED = ("Sp", "SOodd", "SOeven")


def weyl_order(family: str, rank: int) -> int:
    if family in ("GL", "SL"):
        return math.factorial(rank)
    if family == "SOeven":
        return math.factorial(rank) << (rank - 1)
    return math.factorial(rank) << rank


def orbit(rows: tuple[tuple[int, ...], ...], family: str) -> set:
    """The Weyl orbit of a monomial given by integer exponent rows.

    Built from the distinct arrangements of the rows times the allowed sign
    patterns, independently of the library's group enumeration.  The SL
    relations are left to the library's canonicalisation, which commutes
    with permuting rows.
    """
    n = len(rows)
    arrangements = set(itertools.permutations(rows))
    if family not in SIGNED:
        return arrangements
    out = set()
    for arr in arrangements:
        for signs in itertools.product((1, -1), repeat=n):
            if family == "SOeven" and signs.count(-1) % 2:
                continue
            out.add(tuple(r if s == 1 else tuple(-e for e in r) for r, s in zip(arr, signs)))
    return out


def orbit_terms(rows, family: str, coeff=(Fraction(1), Fraction(0))) -> dict:
    """coeff * orbit_sum(rows) as {rows: (re, im)}: every orbit monomial
    carries the stabiliser order |W| / |orbit|."""
    orb = orbit(rows, family)
    stab = weyl_order(family, len(rows)) // len(orb)
    return {m: (coeff[0] * stab, coeff[1] * stab) for m in orb}


def _gauss_str(re: Fraction, im: Fraction) -> str:
    """The library's scalar text format, e.g. ``3/2-1/2i``."""
    def rat(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if im == 0:
        return rat(re)
    im_txt = rat(abs(im)) + "i"
    if re == 0:
        return im_txt if im > 0 else "-" + im_txt
    return rat(re) + ("+" if im > 0 else "-") + im_txt


def _random_coeff(rng: random.Random) -> tuple[Fraction, Fraction]:
    while True:
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-2, 2), 2)
        if re or im:
            return re, im


def _random_c(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 4), rng.randint(1, 3)))


def _coordinate_map(rng: random.Random, factors: int):
    """A random signed permutation of the N factor coordinates, a lattice
    automorphism: symbol brackets keep their number of terms."""
    columns = list(range(factors))
    rng.shuffle(columns)
    flips = [rng.choice((1, -1)) for _ in range(factors)]
    return lambda row: tuple(s * row[c] for c, s in zip(columns, flips))


# Exponent scales for the roundtrip and ladder workloads, one per cycle.
# Every cycle runs the same shapes, scaled by a different prime.  The
# primes exceed every signed sum of a shape's entries, so a positive scale
# keeps each coincidence and the order of the rows, no cycle reuses another
# cycle's reduction-cache entries, and all cycles cost the same.
PRIME_SCALES = [p for p in range(37, 1000) if all(p % d for d in range(2, 32))]


def _group(family: str, rank: int, factors: int) -> dict:
    return {"family": family, "rank": rank, "factors": factors}


def _terms_json(terms: dict) -> list:
    return [
        {"coeff": _gauss_str(re, im), "exps": [list(r) for r in m]}
        for m, (re, im) in sorted(terms.items())
        if re or im
    ]


# ---------------------------------------------------------------------------
# roundtrip: small random invariants through decompose -> expand
# ---------------------------------------------------------------------------

# Each class twice per cycle, with two different shapes.
ROUNDTRIP_CLASSES = [
    (family, rank, factors, force)
    for family in FAMILIES
    for rank in ((2, 3) if family == "SL" else (1, 2, 3))
    for factors in (1, 2)
    for force in ((False, True) if family == "SOeven" else (False,))
] * 2


def roundtrip_op(seed: int, index: int) -> dict:
    """A sum of 1-4 orbit sums with exponents in [-3, 3] and random
    Gaussian-rational coefficients (the distribution of the round-trip
    acceptance criterion), all exponents times the cycle's prime scale;
    `force` puts the first summand at full level."""
    position, cycle_no = index % len(ROUNDTRIP_CLASSES), index // len(ROUNDTRIP_CLASSES)
    family, rank, factors, force = ROUNDTRIP_CLASSES[position]
    shape = random.Random(f"roundtrip:shape:{position}")
    rng = random.Random(f"roundtrip:{seed}:{index}")
    scale = PRIME_SCALES[(seed + cycle_no) % len(PRIME_SCALES)]
    while True:
        total: dict = {}
        for k in range(shape.randint(1, 4)):
            while True:
                rows = [[shape.randint(-3, 3) for _ in range(factors)] for _ in range(rank)]
                if force and k == 0:
                    for row in rows:
                        if not any(row):
                            row[shape.randrange(factors)] = shape.choice((-1, 1)) * shape.randint(1, 3)
                if any(any(r) for r in rows) or shape.random() < 0.1:
                    break
            rows = tuple(tuple(scale * e for e in r) for r in rows)
            for m, (re, im) in orbit_terms(rows, family, _random_coeff(rng)).items():
                acc = total.get(m, (Fraction(0), Fraction(0)))
                total[m] = (acc[0] + re, acc[1] + im)
        terms = _terms_json(total)
        if terms:
            return {"group": _group(family, rank, factors), "terms": terms}


# ---------------------------------------------------------------------------
# ladder: few large orbit sums, climbing in rank and |W|
# ---------------------------------------------------------------------------

# (family, rank, factors, level).  Full-level rungs climb rank 2 -> 5;
# low-level rungs sit at rank 5 -> 6, where |W| reaches 46080 but the
# orbit has 10-12 terms.  One pass fits a few seconds at the seed commit.
# The number of rungs is odd, and every pass costs the same, so the median
# op is one rung's cost (the 13th cheapest of 25) for any number of passes;
# the 90th percentile falls among the rank-6 rungs.
LADDER_RUNGS = (
    [(f, 2, 1, 2) for f in FAMILIES]
    + [(f, 3, n, 3) for f in FAMILIES for n in (1, 2)]
    + [("GL", 4, 1, 4), ("SL", 4, 2, 4), ("Sp", 4, 2, 4), ("SOeven", 4, 1, 4)]
    + [("SL", 5, 1, 5), ("Sp", 5, 1, 2), ("SOodd", 5, 2, 1), ("SOeven", 5, 1, 1)]
    + [("Sp", 6, 1, 1), ("SOodd", 6, 1, 1)]
)



def ladder_op(seed: int, index: int) -> dict:
    """A monomial with `level` nonzero rows, pairwise distinct up to sign,
    so its orbit has the full size for its level, plus that orbit sum as
    enumerated here, for the exact re-check."""
    position, pass_no = index % len(LADDER_RUNGS), index // len(LADDER_RUNGS)
    family, rank, factors, level = LADDER_RUNGS[position]
    shape = random.Random(f"ladder:shape:{position}")
    used: set = set()
    rows = []
    while len(rows) < level:
        r = tuple(shape.randint(-5, 5) for _ in range(factors))
        if any(r) and r not in used and tuple(-e for e in r) not in used:
            used.add(r)
            rows.append(r)
    rows += [(0,) * factors] * (rank - level)
    # Permuting the rows applies a Weyl element: the input changes, its
    # orbit sum does not.
    random.Random(f"ladder:{seed}:{index}").shuffle(rows)
    scale = PRIME_SCALES[(seed + pass_no) % len(PRIME_SCALES)]
    rows = tuple(tuple(scale * e for e in r) for r in rows)
    group = _group(family, rank, factors)
    return {
        "group": group,
        "exps": [list(r) for r in rows],
        "orbit": {"group": group, "terms": _terms_json(orbit_terms(rows, family))},
    }


# ---------------------------------------------------------------------------
# oracle: float sample points for the bracket oracle
# ---------------------------------------------------------------------------

# Indices into toruschar.verify.BRACKET_GROUPS.  SL(2) and SL(3), the two
# costliest groups (325 symbol pairs per point), come twice, so the 90th
# percentile falls inside the SL(3) ops; the cycle length is odd, so the
# median is one group's cost rather than the gap between two groups.
ORACLE_SCHEDULE = (0, 1, 2, 3, 4, 5, 6, 0, 1)


def oracle_op(seed: int, index: int) -> dict:
    rng = random.Random(f"oracle:{seed}:{index}")
    return {"group_index": ORACLE_SCHEDULE[index % len(ORACLE_SCHEDULE)],
            "point_seed": rng.getrandbits(63)}


# ---------------------------------------------------------------------------
# exact_algebra: Poisson axioms, Jacobi, cohomology, variation
# ---------------------------------------------------------------------------

POISSON_GROUPS = (("SL", 3), ("Sp", 2), ("SOodd", 2), ("SOeven", 2))
COHOMOLOGY_CASES = [(f, n, k) for n in (3, 4) for k in (2, 3) for f in FAMILIES]

# A cycle of 8 ops: five symbolic ops, one variation sweep (the five
# families at rank 2) and two cohomology sweeps (the five families at rank
# 3-4, N = 2-3).  A symbolic op is one antisymmetry + Leibniz instance and
# one Jacobi instance per Poisson group; batching them evens out their
# cost.  The median op is then a symbolic op, and the 90th percentile falls
# in the middle of the cohomology sweeps, which are a quarter of the ops.
EXACT_SCHEDULE = ("symbolic",) * 5 + ("variation", "cohomology", "cohomology")


def _random_taupoly(shape: random.Random, rng: random.Random, relabel) -> list:
    terms = []
    for _ in range(shape.randint(1, 3)):
        key = [relabel((shape.randint(-3, 3), shape.randint(-3, 3)))
               for _ in range(shape.randint(0, 2))]
        terms.append({"coeff": _gauss_str(*_random_coeff(rng)), "factors": [list(a) for a in key]})
    return terms


def exact_op(seed: int, index: int) -> dict:
    """An op is a list of checks, each on its own group."""
    kind = EXACT_SCHEDULE[index % len(EXACT_SCHEDULE)]
    shape = random.Random(f"exact_algebra:shape:{index}")
    rng = random.Random(f"exact_algebra:{seed}:{index}")
    cases = []
    if kind == "symbolic":
        for family, rank in POISSON_GROUPS:
            group = _group(family, rank, 2)
            relabel = _coordinate_map(rng, 2)
            cases.append({"check": "axioms", "group": group, "c": _random_c(rng),
                          "polys": [_random_taupoly(shape, rng, relabel) for _ in range(3)]})
            cases.append({"check": "jacobi", "group": group, "c": _random_c(rng),
                          "symbols": [list(relabel((shape.randint(-3, 3), shape.randint(-3, 3))))
                                      for _ in range(3)]})
    elif kind == "variation":
        cycle_no = index // len(EXACT_SCHEDULE)
        for i, family in enumerate(FAMILIES):
            cases.append({"check": "variation", "group": _group(family, 2, 1),
                          "c": _random_c(rng), "conjugate": (i + cycle_no) % 2 == 1,
                          "element_seed": rng.getrandbits(63)})
    else:
        for case in COHOMOLOGY_CASES:
            cases.append({"check": "cohomology", "group": _group(*case),
                          "point_seed": rng.getrandbits(63)})
    return {"kind": kind, "cases": cases}


# ---------------------------------------------------------------------------

MAKERS = {
    "roundtrip": (roundtrip_op, len(ROUNDTRIP_CLASSES)),
    "ladder": (ladder_op, len(LADDER_RUNGS)),
    "oracle": (oracle_op, len(ORACLE_SCHEDULE)),
    "exact_algebra": (exact_op, len(EXACT_SCHEDULE)),
}


def cycle_length(workload: str) -> int:
    return MAKERS[workload][1]


def make_op(workload: str, seed: int, index: int) -> dict:
    """Input of op `index` of a workload, a pure function of its arguments."""
    return MAKERS[workload][0](seed, index)


def _top_positions(workload: str) -> frozenset:
    """Cycle positions of the workload's largest input class, its top rung."""
    if workload == "roundtrip":
        return frozenset(i for i, (_, rank, factors, _) in enumerate(ROUNDTRIP_CLASSES)
                         if rank == 3 and factors == 2)
    if workload == "ladder":
        top = max(weyl_order(f, n) for f, n, _, _ in LADDER_RUNGS)
        return frozenset(i for i, (f, n, _, _) in enumerate(LADDER_RUNGS)
                         if weyl_order(f, n) == top)
    if workload == "oracle":
        return frozenset(i for i, g in enumerate(ORACLE_SCHEDULE) if g == 1)
    return frozenset(i for i, kind in enumerate(EXACT_SCHEDULE) if kind == "cohomology")


def is_top_rung(workload: str, index: int) -> bool:
    return index % cycle_length(workload) in _top_positions(workload)
