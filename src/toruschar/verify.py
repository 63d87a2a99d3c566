"""Cross-checking suites tying the symbolic and numeric layers together.

Each suite samples reproducibly from an explicit seed and returns a plain
dict summarizing what was run and what failed (the worst deviation, for
the float bracket oracle), so the command line and the test suite share
one implementation.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import DomainError, InternalCheckError, ResourceLimitError
from .generators import GeneratorPoly, decompose, orbit_coefficients, q_image, tau_image, tau_symbol
from .groups import GroupSpec
from .laurent import LaurentPoly, exponents
from .lie import (
    cohomology_dims,
    in_lie_algebra,
    killing_ratio,
    lie_basis,
    numeric_bracket,
    numeric_bracket_size,
    random_group_element,
    random_torus_point,
    require_tol,
    torus_matrix,
    variation,
)
from .linalg import mat_eq, mat_mul, trace
from .poisson import TauPoly, bracket_symbols, jacobi_defect, symbol_window
from .scalars import GaussRat, I, ONE, ZERO
from .weyl import orbit_sum

KILLING_CASES = (
    [("SL", n, Fraction(2 * n)) for n in (2, 3, 4)]
    + [
        ("SOodd", 1, Fraction(1)),   # SO(3)
        ("SOeven", 2, Fraction(2)),  # SO(4)
        ("SOodd", 2, Fraction(3)),   # SO(5)
        ("SOeven", 3, Fraction(4)),  # SO(6)
        ("SOodd", 3, Fraction(5)),   # SO(7)
    ]
    + [("Sp", n, Fraction(2 * n + 2)) for n in (1, 2, 3)]
)

# One bracket-suite trial at window 2 costs up to about 3 ms (SL(3), 325
# symbol pairs) on a 2-vCPU host, so the cap keeps a run to a few seconds.
TRIALS_CAP = 1000

# Trials x symbol pairs of one bracket suite: window 2 at TRIALS_CAP is at
# most 325 000 (SL(3)); window 8 with 1000 trials would take about 100 s.
PAIR_TRIALS_CAP = 400_000

# Sampling ranges, named in the docstrings of the functions that draw them.
SPAN, Q_SPAN = 3, 2  # lattice vector entries; Q arguments
MAX_EXP, MAX_SUMMANDS = 3, 4  # random_invariant
MAX_TERMS, MAX_DEGREE = 3, 2  # random_taupoly
MAX_RANK, FACTOR_CHOICES = 3, (2, 3)  # cohomology and round-trip suites

BRACKET_GROUPS = (
    GroupSpec("SL", 2, 2),
    GroupSpec("SL", 3, 2),
    GroupSpec("Sp", 1, 2),
    GroupSpec("Sp", 2, 2),
    GroupSpec("SOodd", 1, 2),
    GroupSpec("SOodd", 2, 2),
    GroupSpec("SOeven", 2, 2),
)


def _lattice_vector(rng, span: int) -> tuple[int, int]:
    """A vector of Z^2 with entries drawn in [-span, span], first entry first."""
    return rng.randint(-span, span), rng.randint(-span, span)


def killing_table() -> dict:
    rows = []
    ok = True
    for family, rank, expected in KILLING_CASES:
        group = GroupSpec(family, rank, 1)
        got = killing_ratio(group)
        good = got == expected
        ok = ok and good
        rows.append(
            {
                "family": family,
                "rank": rank,
                "matrix_size": group.matrix_size,
                "ratio": got,
                "expected": expected,
                "ok": good,
            }
        )
    return {"rows": rows, "ok": ok}


# ---------------------------------------------------------------------------
# cohomology dimensions
# ---------------------------------------------------------------------------

def cohomology_suite(trials: int = 20, seed: int = 0) -> dict:
    """Exact Z^1/B^1/H^1 dimensions on random generic torus tuples versus
    the counts N*r + d - r, d - r, N*r, at torus ranks up to MAX_RANK and
    N in FACTOR_CHOICES."""
    rng = random.Random(seed)
    rows = []
    ok = True
    for family in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        min_rank = 2 if family == "SL" else 1
        for rank in range(min_rank, MAX_RANK + 1):
            for n_factors in FACTOR_CHOICES:
                group = GroupSpec(family, rank, n_factors)
                d, r = group.lie_dim, group.lie_rank
                expected = (n_factors * r + d - r, d - r, n_factors * r)
                bad = 0
                for _ in range(trials):
                    pt = random_torus_point(group, rng, exact=True)
                    gens = [
                        torus_matrix(group, pt.column(j))
                        for j in range(1, n_factors + 1)
                    ]
                    dims = cohomology_dims(group, gens)
                    if dims != expected:
                        bad += 1
                good = bad == 0
                ok = ok and good
                rows.append(
                    {
                        "group": str(group),
                        "expected": expected,
                        "trials": trials,
                        "failures": bad,
                        "ok": good,
                    }
                )
    return {"rows": rows, "ok": ok}


# ---------------------------------------------------------------------------
# decomposition round trips
# ---------------------------------------------------------------------------

def random_invariant(group: GroupSpec, rng, force_full_level: bool = False) -> LaurentPoly:
    """Random integer-weight W-invariant: a combination of up to
    MAX_SUMMANDS orbit sums, exponents in [-MAX_EXP, MAX_EXP], with random
    Gaussian-rational coefficients."""
    n, N = group.rank, group.factors
    total = LaurentPoly.zero(group)
    k = rng.randint(1, MAX_SUMMANDS)
    for idx in range(k):
        while True:
            rows = [
                [rng.randint(-MAX_EXP, MAX_EXP) for _ in range(N)] for _ in range(n)
            ]
            if force_full_level and idx == 0:
                for row in rows:
                    if not any(row):
                        row[rng.randrange(N)] = rng.choice((-1, 1)) * rng.randint(1, MAX_EXP)
            if any(any(r) for r in rows) or rng.random() < 0.1:
                break
        coeff = GaussRat(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), 2),
        )
        if not coeff:
            coeff = ONE
        total = total + orbit_sum(exponents(rows), group).scaled(coeff)
    return total


def roundtrip_suite(trials: int = 200, seed: int = 0) -> dict:
    """expand(decompose(f)) == f on random invariants, all five families,
    torus ranks up to MAX_RANK."""
    rng = random.Random(seed)
    rows = []
    ok = True
    for family in ("GL", "SL", "Sp", "SOodd", "SOeven"):
        failures = 0
        q_top_cases = 0
        for t in range(trials):
            min_rank = 2 if family == "SL" else 1
            rank = rng.randint(min_rank, MAX_RANK)
            n_factors = rng.randint(1, 2)
            group = GroupSpec(family, rank, n_factors)
            force = family == "SOeven" and t % 2 == 0
            f = random_invariant(group, rng, force_full_level=force)
            if not f:
                continue
            try:
                p = decompose(f, group)  # checks expand(p) == f in the orbit-sum basis
            except InternalCheckError:
                failures += 1
                continue
            if any(sym[0] == "q" for key in p.terms for sym in key):
                q_top_cases += 1
        good = failures == 0
        ok = ok and good
        row = {"family": family, "trials": trials, "failures": failures, "ok": good}
        if family == "SOeven":
            row["q_generator_cases"] = q_top_cases
        rows.append(row)
    return {"rows": rows, "ok": ok}


# ---------------------------------------------------------------------------
# bracket oracle agreement
# ---------------------------------------------------------------------------

def _require_run(trials: int) -> None:
    """Refuse a suite run whose outcome would mean nothing: one that checks
    nothing must not report success, and one above TRIALS_CAP is a
    ResourceLimitError."""
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if trials > TRIALS_CAP:
        raise ResourceLimitError(f"{trials} trials exceed cap {TRIALS_CAP}")


def bracket_agreement(
    group: GroupSpec,
    trials: int = 100,
    seed: int = 0,
    window: int = 2,
    tol: float = 1e-9,
    c: Fraction = Fraction(1),
) -> dict:
    """Symbolic bracket versus the symplectic-form oracle at random
    generic float points, every symbol pair in the window.  More than
    PAIR_TRIALS_CAP trials x pairs is refused before any bracket is built.

    ``worst_trial`` (0-based) and ``worst_pair`` locate the first check
    with the largest error, a NaN counting as largest (``None`` when every
    error is 0).  The points are drawn in trial order from ``seed``, so a
    run with the same arguments and ``worst_trial + 1`` trials reproduces
    ``max_rel_err``.  At that check, ``worst_bracket`` is the exact
    symbolic bracket (0 when det = 0) and ``worst_size`` is B of
    ``lie.numeric_bracket_size``, the size of the float terms that cancel
    (computed only when the run fails, ``None`` otherwise); an error near
    1e-16 * B / (1 + |num|) is rounding, not a wrong formula."""
    _require_run(trials)
    require_tol(tol)
    if window < 1:  # the window would hold at most tau(0, 0), whose brackets vanish
        raise DomainError(f"window must be at least 1, got {window}")
    rng = random.Random(seed)
    syms = symbol_window(group, window)
    pairs = [(a, b) for i, a in enumerate(syms) for b in syms[i:]]
    if trials * len(pairs) > PAIR_TRIALS_CAP:
        raise ResourceLimitError(
            f"{trials} trials x {len(pairs)} symbol pairs exceed cap {PAIR_TRIALS_CAP}"
        )
    images = {a: tau_image(group, a) for a in syms}
    brackets = {(a, b): bracket_symbols(a, b, group, c) for a, b in pairs}
    worst = 0.0
    worst_trial = worst_pair = worst_point = None
    checked = 0
    for trial in range(trials):
        pt = random_torus_point(group, rng, exact=False)
        for (a, b), br in brackets.items():
            num = numeric_bracket(images[a], images[b], pt, c)
            sym = br.evaluate(pt)
            err = abs(sym - num) / (1 + abs(num))
            # a NaN compares false with every number, so the first one
            # becomes the worst, to fail ``worst < tol``
            if err > worst or (math.isnan(err) and not math.isnan(worst)):
                worst, worst_trial, worst_pair, worst_point = err, trial, (a, b), pt
            checked += 1
    ok = worst < tol
    worst_size = None
    if not ok:  # tol > 0, so some check was worse than 0 and set the pair
        a, b = worst_pair
        worst_size = numeric_bracket_size(images[a], images[b], worst_point, c)
    return {
        "group": str(group),
        "pairs": len(pairs),
        "points": trials,
        "checked": checked,
        "max_rel_err": worst,
        "worst_trial": worst_trial,
        "worst_pair": worst_pair,
        "worst_bracket": brackets[worst_pair] if worst_pair else None,
        "worst_size": worst_size,
        "tol": tol,
        "ok": ok,
    }


def bracket_agreement_all(trials: int = 100, seed: int = 0, tol: float = 1e-9) -> dict:
    rows = [
        bracket_agreement(g, trials=trials, seed=seed + i, tol=tol)
        for i, g in enumerate(BRACKET_GROUPS)
    ]
    return {"rows": rows, "ok": all(r["ok"] for r in rows)}


# ---------------------------------------------------------------------------
# Poisson axioms
# ---------------------------------------------------------------------------

def random_taupoly(group: GroupSpec, c: Fraction, rng) -> TauPoly:
    """Random symbol polynomial: up to MAX_TERMS terms, each a product of
    at most MAX_DEGREE symbols with entries in [-SPAN, SPAN]."""
    terms = {}
    for _ in range(rng.randint(1, MAX_TERMS)):
        deg = rng.randint(0, MAX_DEGREE)
        key = tuple(_lattice_vector(rng, SPAN) for _ in range(deg))
        coeff = GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                         Fraction(rng.randint(-1, 1)))
        terms[key] = coeff if coeff else ONE
    return TauPoly(group, c, terms)


def _image(p: TauPoly) -> dict:
    """p's image on X_G^0(Z^2) in the Weyl orbit-sum basis, each tau(a) read
    as the trace generator of p's group; p vanishes there exactly when the
    map is empty.  No Laurent polynomial is built."""
    group = p.group
    gen = GeneratorPoly({tuple(tau_symbol(group, a) for a in key): v for key, v in p.terms.items()})
    return orbit_coefficients(gen, group)


def jacobi_suite(group: GroupSpec, trials: int = 100, seed: int = 0, c: Fraction = Fraction(1)) -> dict:
    """Jacobi defect on random symbol triples, decided exactly: ``mode`` is
    ``identical`` when every defect is 0 in the free symbol algebra,
    ``image`` when all have image 0 (``_image``), and ``nonzero`` at the
    first that does not, where the run stops.  ``first_trial`` (0-based)
    and ``first_triple`` locate it; the triples are the only draws from
    ``seed``, so ``first_trial + 1`` trials end at the same triple."""
    _require_run(trials)
    rng = random.Random(seed)
    mode = "identical"
    first_trial = first_triple = None
    for trial in range(trials):
        triple = tuple(_lattice_vector(rng, SPAN) for _ in range(3))
        defect = jacobi_defect(*triple, group, c)
        if not defect:
            continue
        if _image(defect):
            mode, first_trial, first_triple = "nonzero", trial, triple
            break
        mode = "image"
    return {"group": str(group), "trials": trials, "mode": mode, "first_trial": first_trial,
            "first_triple": first_triple, "ok": mode != "nonzero"}


def sl2_sp1_suite(trials: int = 100, seed: int = 0) -> dict:
    """The SL(2) and Sp(1) bracket formulas agree exactly: the SL(2) bracket
    less the Sp(1) one read in SL(2) symbols (x -> x_1, 1/x -> x_2) has
    image 0 (``_image``), the trace identity tau_a tau_b = tau_{a+b} +
    tau_{a-b} in disguise.  ``failures`` counts the pairs where it is not."""
    _require_run(trials)
    rng = random.Random(seed)
    sl2 = GroupSpec("SL", 2, 2)
    sp1 = GroupSpec("Sp", 1, 2)
    failures = 0
    for _ in range(trials):
        a = _lattice_vector(rng, SPAN)
        b = _lattice_vector(rng, SPAN)
        sl = bracket_symbols(a, b, sl2)
        sp = TauPoly(sl2, sl.c, bracket_symbols(a, b, sp1).terms)
        if _image(sl - sp):
            failures += 1
    return {"trials": trials, "failures": failures, "ok": failures == 0}


# ---------------------------------------------------------------------------
# Q generator versus torus block matrices
# ---------------------------------------------------------------------------

def q_block_suite(trials: int = 50, seed: int = 0) -> dict:
    """q_image versus direct evaluation on torus block matrices, exactly.

    For each argument vector alpha_k (entries in [-Q_SPAN, Q_SPAN]) the
    exact SO(4) block matrix of the torus element with parameters
    x_i^{alpha_k} is built; the differences x - 1/x are read back off the
    matrix entries and combined by the alternating product, independent
    of the polynomial expansion.  ``failures`` counts the points where
    that differs from q_image."""
    rng = random.Random(seed)
    group = GroupSpec("SOeven", 2, 2)
    n = group.rank
    failures = 0
    for _ in range(trials):
        alphas = [_lattice_vector(rng, Q_SPAN) for _ in range(n)]
        pt = random_torus_point(group, rng, exact=True, generic=False)
        diffs = []
        for alpha in alphas:
            # eigenvalue parameters of rho(alpha): z_i = prod_j x_ij^{alpha_j}
            z = [math.prod((pt.coordinate_power(i, j, 2 * a) for j, a in enumerate(alpha, 1)), start=ONE)
                 for i in range(1, n + 1)]
            mat = torus_matrix(group, z)
            # block i has entry (2i, 2i+1) = i (z_i - 1/z_i) / 2
            diffs.append([-2 * I * mat[2 * i][2 * i + 1] for i in range(n)])
        direct = I ** n * sum(
            (math.prod((d[s] for d, s in zip(diffs, perm)), start=ONE)
             for perm in itertools.permutations(range(n))),
            start=ZERO,
        )
        if q_image(group, alphas).evaluate(pt) != direct:
            failures += 1
    return {"trials": trials, "failures": failures, "ok": failures == 0}


# ---------------------------------------------------------------------------
# variation contracts
# ---------------------------------------------------------------------------

def variation_suite(group: GroupSpec, trials: int = 100, seed: int = 0) -> dict:
    """Membership, trace duality against the whole basis, and commutation
    for the variation function, exactly, on torus elements and random
    conjugates."""
    rng = random.Random(seed)
    basis = lie_basis(group)
    n = group.matrix_size
    failures = 0
    for t in range(trials):
        c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        a = random_group_element(group, rng, conjugate=(t % 2 == 1))
        f = variation(group, a, c)
        ok = in_lie_algebra(group, f)
        inv_c = GaussRat(1 / c)
        for v in basis:
            lhs = trace(mat_mul(f, v))
            rhs = trace(mat_mul(a, v)) * inv_c
            if lhs != rhs:
                ok = False
                break
        if not mat_eq(mat_mul(a, f), mat_mul(f, a)):
            ok = False
        if not ok:
            failures += 1
    return {
        "group": str(group),
        "trials": trials,
        "failures": failures,
        "ok": failures == 0,
    }
