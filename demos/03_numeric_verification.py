"""Walkthrough: the numeric Lie-theory layer and how it cross-checks the
symbolic results.

Run as:  python demos/03_numeric_verification.py
"""

import random
from fractions import Fraction

from toruschar import (
    GroupSpec,
    cohomology_dims,
    numeric_bracket,
    bracket_symbols,
    random_torus_point,
    tau_image,
    torus_matrix,
    variation,
)
from toruschar.linalg import trace, mat_mul
from toruschar.verify import bracket_agreement, killing_table, q_block_suite

rng = random.Random(0)

# Killing form versus trace form on the classical algebras: the ratio is
# 2n for sl(n), m - 2 for so(m), 2n + 2 for sp(n).
print("== Killing / trace ratios ==")
for row in killing_table()["rows"]:
    print(f"  {row['family']}({row['rank']})  matrix size {row['matrix_size']}:"
          f"  ratio {row['ratio']}")

# Tangent spaces at generic torus representations: dim H^1 = N * rank,
# dim B^1 = dim g - rank.
print()
print("== twisted cohomology dimensions ==")
for fam in ("SL", "Sp", "SOodd", "SOeven"):
    g = GroupSpec(fam, 2, 2)
    pt = random_torus_point(g, rng, exact=True)
    gens = [torus_matrix(g, pt.column(j)) for j in (1, 2)]
    z1, b1, h1 = cohomology_dims(g, gens)
    print(f"  {fam}(2), N=2: Z1={z1} B1={b1} H1={h1}"
          f"  (expected H1 = {2 * g.lie_rank})")

# The variation function turns traces into Hamiltonian data: F(A) lies in
# the Lie algebra, commutes with A, and is trace-dual to A.
print()
print("== variation function ==")
sl2 = GroupSpec("SL", 2, 1)
a = torus_matrix(sl2, [Fraction(2), Fraction(1, 2)])
f = variation(sl2, a, Fraction(1))
print("  A = diag(2, 1/2):  F(A) diagonal =", [str(f[i][i]) for i in (0, 1)])
print("  commutes with A:", mat_mul(a, f) == mat_mul(f, a))
print("  trace of F(A):", trace(f))

# The symbolic bracket against the symplectic-form oracle: gradients of
# the trace functions in eigenvalue coordinates, paired by the inverse of
# c times the trace form.  Agreement is exact at exact points.
print()
print("== bracket oracle ==")
g = GroupSpec("Sp", 2, 2)
pt = random_torus_point(g, rng, exact=True)
a_vec, b_vec = (1, 0), (1, -1)
sym = bracket_symbols(a_vec, b_vec, g).evaluate(pt)
num = numeric_bracket(tau_image(g, a_vec), tau_image(g, b_vec), pt)
print(f"  Sp(2) {{tau{a_vec}, tau{b_vec}}} at a random exact point:")
print("   symbolic:", sym)
print("   numeric: ", num)
print("   equal:", sym == num)

res = bracket_agreement(GroupSpec("SL", 3, 2), trials=10, seed=0)
print(f"  SL(3), 10 random float points x {res['pairs']} pairs:"
      f" max rel err {res['max_rel_err']:.2e}")

# The Q generator's closed form versus the actual 4x4 block matrices.
print()
print("== Q generators vs torus blocks ==")
res = q_block_suite(trials=20, seed=0)
print(f"  SO(4), 20 random exact points: {res['failures']} differ")
