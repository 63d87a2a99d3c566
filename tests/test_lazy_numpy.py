"""The library runs without numpy, and its exact entry points refuse numpy
input.

Every module, the CLI and exact cohomology load and run with numpy
blocked; the package and the CLI also start without ``dataclasses`` and
the modules it loads (``inspect``, ``ast``, ...).  numpy appears only in
the tests' own cross-checks.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference_linalg import to_numpy
from toruschar.errors import DomainError
from toruschar.groups import GroupSpec
from toruschar.lie import (
    ad_operator,
    cocycle_space_dims,
    cohomology_dims,
    random_group_element,
    random_torus_point,
    torus_matrix,
    variation,
)

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


def test_startup_imports_no_dataclasses():
    # against the modules loaded before, as ``site`` may load some of these
    proc = _run(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import toruschar, toruschar.cli\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
        "sys.exit(sorted(heavy & (set(sys.modules) - before)) or None)\n"
    )
    assert proc.returncode == 0, proc.stderr


BLOCKED = """
import importlib
import pkgutil
import random
import sys

sys.modules["numpy"] = None  # any ``import numpy`` now raises ImportError

import toruschar
for mod in pkgutil.walk_packages(toruschar.__path__, "toruschar."):
    importlib.import_module(mod.name)
print("imports ok")

from toruschar import cli
from toruschar.generators import decompose, expand, tau_image
from toruschar.groups import GroupSpec
from toruschar.lie import numeric_bracket, random_torus_point
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

assert cli.run(["cohomology", "--family", "sl", "--rank", "2", "--factors", "2"]) == 0

assert q_block_suite(trials=5)["ok"]
print("q_blocks ok")
"""


def test_exact_paths_and_float_oracle_run_with_numpy_blocked():
    proc = _run(BLOCKED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "imports ok", "roundtrip ok", "bracket ok", "Z1 = 4, B1 = 2, H1 = 2", "q_blocks ok",
    ]


def test_variation_refuses_to_numpy_input():
    g = GroupSpec("Sp", 2, 1)
    a = random_group_element(g, random.Random(8))
    with pytest.raises(DomainError):
        variation(g, to_numpy(a))


@pytest.mark.parametrize("family", ["GL", "SL", "Sp", "SOodd", "SOeven"])
def test_cohomology_refuses_to_numpy_input(family):
    """A numpy copy of exact generators, or of their Ad operators, and
    tuples of complex entries are refused with DomainError."""
    g = GroupSpec(family, 2, 2)
    pt = random_torus_point(g, random.Random(9), exact=True)
    gens = [torus_matrix(g, pt.column(j)) for j in (1, 2)]
    ads = [ad_operator(g, a) for a in gens]
    for bad in (to_numpy, lambda a: tuple(map(tuple, to_numpy(a).tolist()))):
        with pytest.raises(DomainError, match="cohomology_dims takes an exact matrix"):
            cohomology_dims(g, [bad(a) for a in gens])
        with pytest.raises(DomainError, match="cohomology_dims takes an exact matrix"):
            cohomology_dims(g, [gens[0], bad(gens[1])])
        with pytest.raises(DomainError, match="cocycle_space_dims takes an exact matrix"):
            cocycle_space_dims([bad(a) for a in ads])
        with pytest.raises(DomainError, match="ad_operator takes an exact matrix"):
            ad_operator(g, bad(gens[0]))
    with pytest.raises(DomainError, match="must be exact"):
        torus_matrix(g, np.array([complex(v) for v in pt.column(1)]))
