"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime.  Tolerances are pinned here and nowhere else:
exact equality for the algebraic criteria (criteria 6 and 7 included);
the only float tolerance left is the bracket oracle's 1e-9 relative error
in criterion 4.  Budgets (wall-clock) are asserted as part of each
criterion.

Criterion 2 runs every family at torus ranks 1..3 except SL, which starts
at rank 2 (SL(1) is the trivial group: its Lie algebra is zero and no
torus tuple is generic).  Criteria 2 and 3 pin the sampling ranges they
take from ``toruschar.verify``.
"""

import random
import time
from fractions import Fraction

from toruschar import verify
from toruschar.groups import GroupSpec
from toruschar.poisson import bracket_poly
from toruschar.verify import (
    bracket_agreement_all,
    cohomology_suite,
    jacobi_suite,
    killing_table,
    q_block_suite,
    random_taupoly,
    roundtrip_suite,
    sl2_sp1_suite,
    variation_suite,
)

JACOBI_GROUPS = (
    GroupSpec("SL", 3, 2),
    GroupSpec("Sp", 2, 2),
    GroupSpec("SOodd", 2, 2),
    GroupSpec("SOeven", 2, 2),
)

VARIATION_GROUPS = (
    GroupSpec("GL", 2, 1),
    GroupSpec("SL", 2, 1),
    GroupSpec("Sp", 2, 1),
    GroupSpec("SOodd", 2, 1),
    GroupSpec("SOeven", 2, 1),
)


def _report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"criterion {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, f"criterion {name} failed: {detail}"
    assert elapsed < budget, f"criterion {name} exceeded its {budget:.0f}s budget"


def test_criterion_1_killing_constants():
    t0 = time.time()
    res = killing_table()
    detail = ", ".join(
        f"{r['family']}({r['rank']})={r['ratio']}" for r in res["rows"]
    )
    _report("1 Killing table", res["ok"], time.time() - t0, 10.0, detail)


def test_criterion_2_cohomology_dimensions():
    t0 = time.time()
    assert (verify.MAX_RANK, verify.FACTOR_CHOICES) == (3, (2, 3))
    res = cohomology_suite(trials=20, seed=0)
    bad = [r for r in res["rows"] if not r["ok"]]
    _report(
        "2 cohomology dims",
        res["ok"],
        time.time() - t0,
        60.0,
        f"{len(res['rows'])} group/N cases x 20 tuples"
        + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_3_decomposition_round_trip():
    t0 = time.time()
    assert verify.MAX_RANK == 3
    res = roundtrip_suite(trials=200, seed=0)
    q_cases = next(
        r.get("q_generator_cases", 0) for r in res["rows"] if r["family"] == "SOeven"
    )
    ok = res["ok"] and q_cases > 0
    _report(
        "3 decomposition round trip",
        ok,
        time.time() - t0,
        300.0,
        f"200 invariants/family, {q_cases} SOeven decompositions used Q generators",
    )


def test_criterion_4_bracket_oracle_agreement():
    t0 = time.time()
    res = bracket_agreement_all(trials=100, seed=0, tol=1e-9)
    worst = max(r["max_rel_err"] for r in res["rows"])
    _report(
        "4 bracket oracle agreement",
        res["ok"],
        time.time() - t0,
        300.0,
        f"max relative error {worst:.2e} over {sum(r['checked'] for r in res['rows'])} checks",
    )


def test_criterion_5_poisson_axioms():
    t0 = time.time()
    rng = random.Random(0)
    ok = True
    instances = 0
    while instances < 500:
        g = JACOBI_GROUPS[instances % len(JACOBI_GROUPS)]
        f = random_taupoly(g, Fraction(1), rng)
        h = random_taupoly(g, Fraction(1), rng)
        k = random_taupoly(g, Fraction(1), rng)
        if bracket_poly(f, h) != -bracket_poly(h, f):
            ok = False
        if bracket_poly(f * h, k) != f * bracket_poly(h, k) + h * bracket_poly(f, k):
            ok = False
        instances += 1
    modes = []
    for i, g in enumerate(JACOBI_GROUPS):
        res = jacobi_suite(g, trials=100, seed=i)
        ok = ok and res["ok"]
        modes.append(f"{g.family}:{res['mode']}")
    _report(
        "5 Poisson axioms",
        ok,
        time.time() - t0,
        120.0,
        f"500 antisymmetry/Leibniz instances exact; jacobi modes {', '.join(modes)}",
    )


def test_criterion_6_sl2_sp1_consistency():
    t0 = time.time()
    res = sl2_sp1_suite(trials=100, seed=0)
    _report(
        "6 SL(2)/Sp(1) consistency",
        res["ok"],
        time.time() - t0,
        30.0,
        f"{res['trials']} symbol pairs compared exactly, {res['failures']} differ",
    )


def test_criterion_7_q_closed_form():
    t0 = time.time()
    res = q_block_suite(trials=50, seed=0)
    _report(
        "7 Q closed form vs torus blocks",
        res["ok"],
        time.time() - t0,
        30.0,
        f"{res['trials']} points compared exactly, {res['failures']} differ",
    )


def test_criterion_8_variation_contracts():
    t0 = time.time()
    ok = True
    details = []
    for i, g in enumerate(VARIATION_GROUPS):
        res = variation_suite(g, trials=100, seed=i)
        ok = ok and res["ok"]
        details.append(f"{g.family}:{res['failures']} failures")
    _report(
        "8 variation contracts",
        ok,
        time.time() - t0,
        60.0,
        "; ".join(details),
    )
