"""numpy loads only where a float matrix is built or read.

The exact layers, the float bracket oracle, the Q block check and the CLI
start without it; numpy input to the Lie layer is still told apart from
exact matrices.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from toruschar.errors import DomainError
from toruschar.groups import GroupSpec
from toruschar.lie import (
    cohomology_dims,
    random_group_element,
    random_torus_point,
    torus_matrix,
    variation,
)
from toruschar.linalg import to_numpy

ROOT = Path(__file__).resolve().parent.parent


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_startup_imports_no_numpy():
    proc = _run(
        "import sys, toruschar, toruschar.cli\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr


BLOCKED = """
import random
import sys

sys.modules["numpy"] = None  # any ``import numpy`` now raises ImportError

from toruschar.generators import decompose, expand, tau_image
from toruschar.groups import GroupSpec
from toruschar.lie import cohomology_dims, numeric_bracket, random_torus_point, torus_matrix
from toruschar.verify import q_block_suite
from toruschar.weyl import orbit_sum

g = GroupSpec("SOeven", 2, 2)
f = orbit_sum(((4, 0), (2, 2)), g)  # doubled entries: weights (2, 0), (1, 1)
assert expand(decompose(f, g), g) == f
print("roundtrip ok")

rng = random.Random(7)
sl = GroupSpec("SL", 2, 2)
pt = random_torus_point(sl, rng, exact=False)
val = numeric_bracket(tau_image(sl, (1, 0)), tau_image(sl, (0, 1)), pt)
assert isinstance(val, complex)
print("bracket ok")

pt = random_torus_point(sl, rng, exact=True)
gens = [torus_matrix(sl, pt.column(j)) for j in (1, 2)]
assert cohomology_dims(sl, gens) == (4, 2, 2)
print("cohomology ok")

assert q_block_suite(trials=5)["ok"]
print("q_blocks ok")
"""


def test_exact_paths_and_float_oracle_run_with_numpy_blocked():
    proc = _run(BLOCKED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["roundtrip", "ok", "bracket", "ok", "cohomology", "ok", "q_blocks", "ok"]


def test_variation_refuses_to_numpy_input():
    g = GroupSpec("Sp", 2, 1)
    a = random_group_element(g, random.Random(8))
    with pytest.raises(DomainError):
        variation(g, to_numpy(a))


def test_float_sl_torus_matrix_checks_product():
    sl2 = GroupSpec("SL", 2, 1)
    with pytest.raises(DomainError):
        torus_matrix(sl2, [2 + 0j, 0.25 + 0j])
    assert torus_matrix(sl2, [2 + 0j, 0.5 + 0j]).shape == (2, 2)


@pytest.mark.parametrize("family", ["GL", "SL", "Sp", "SOodd", "SOeven"])
def test_float_cohomology_of_to_numpy_matches_exact(family):
    g = GroupSpec(family, 2, 2)
    pt = random_torus_point(g, random.Random(9), exact=True)
    gens = [torus_matrix(g, pt.column(j)) for j in (1, 2)]
    assert cohomology_dims(g, [to_numpy(a) for a in gens]) == cohomology_dims(g, gens)
