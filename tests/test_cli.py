import hashlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from toruschar.cli import run
from toruschar.generators import decompose
from toruschar.groups import GroupSpec
from toruschar.laurent import LaurentPoly, exponents
from toruschar.weyl import orbit_sum


def test_killing_single(capsys):
    assert run(["killing", "--family", "sl", "--rank", "2"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_killing_table(capsys):
    assert run(["killing"]) == 0
    out = capsys.readouterr().out
    assert "SL(4)" in out and "ratio 8" in out


def test_bracket_output(capsys):
    assert run(["bracket", "--family", "sp", "--rank", "1", "--a", "1,0", "--b", "0,1", "--c", "1"]) == 0
    out = capsys.readouterr().out
    assert "(1/2)*tau(1,1)" in out and "(-1/2)*tau(1,-1)" in out


def test_bracket_zero_denominator_exit_2(capsys):
    argv = ["bracket", "--family", "sl", "--rank", "2", "--a", "1,0", "--b", "0,1", "--c", "1/0"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"


def test_bracket_gl_needs_flag(capsys):
    # Each command's error names what that command takes.
    flag = "error: no GL bracket formula; pass --extrapolated for the oracle-validated extrapolation\n"
    for argv, want in (
        (["bracket", "--a", "1,0", "--b", "0,1"], flag),
        (["structure-constants"], flag),
        (["verify-bracket", "--trials", "1"], flag),
        (["verify-jacobi", "--trials", "1"],
         "error: no GL bracket formula; verify-jacobi takes no GL group\n"),
    ):
        assert run(argv + ["--family", "gl", "--rank", "2"]) == 2, argv
        assert capsys.readouterr().err == want, argv


def test_invalid_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["bracket", "--family", "nope", "--rank", "1", "--a", "1,0", "--b", "0,1"])
    assert exc.value.code == 2


def test_decompose_expand_file_round_trip(tmp_path, capsys):
    g = GroupSpec("Sp", 2, 2)
    f = orbit_sum(exponents([[1, 0], [0, 1]]), g) + orbit_sum(
        exponents([[2, 0], [0, 0]]), g
    )
    src = tmp_path / "poly.json"
    gen = tmp_path / "gen.json"
    back = tmp_path / "back.json"
    src.write_text(json.dumps(f.to_json()))
    assert run(["decompose", "--in", str(src), "--out", str(gen)]) == 0
    assert (
        run(
            [
                "expand",
                "--family",
                "sp",
                "--rank",
                "2",
                "--factors",
                "2",
                "--in",
                str(gen),
                "--out",
                str(back),
            ]
        )
        == 0
    )
    assert LaurentPoly.from_json(json.loads(back.read_text())) == f


def test_decompose_non_invariant_exit_2(tmp_path, capsys):
    g = GroupSpec("GL", 2, 1)
    f = LaurentPoly.variable(g, 1, 1)
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(f.to_json()))
    assert run(["decompose", "--in", str(src)]) == 2
    err = capsys.readouterr().err
    assert "not W-invariant" in err and "perm" in err


def test_decompose_non_invariant_beyond_orbit_cap_exit_2(tmp_path, capsys):
    # A single full-level Sp(9) monomial: its orbit exceeds WEYL_CAP, which
    # the peel meets before it finds the input is not invariant.
    g = GroupSpec("Sp", 9, 1)
    f = LaurentPoly.monomial(g, exponents([[k] for k in range(1, 10)]))
    src = tmp_path / "big.json"
    src.write_text(json.dumps(f.to_json()))
    assert run(["decompose", "--in", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: orbit of 185794560 monomials exceeds cap 1000000\n"


def test_orbit_sum_and_level(tmp_path, capsys):
    assert (
        run(
            [
                "orbit-sum",
                "--family",
                "gl",
                "--rank",
                "2",
                "--factors",
                "1",
                "--exps",
                "[[1],[0]]",
            ]
        )
        == 0
    )
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["terms"]) == 2

    assert (
        run(
            [
                "level",
                "--family",
                "sl",
                "--rank",
                "2",
                "--factors",
                "1",
                "--exps",
                "[[1],[1]]",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "0"


def test_orbit_sum_cap_counts_orbit(capsys):
    level_one = json.dumps([[1]] + [[0]] * 8)
    assert run(["orbit-sum", "--family", "sp", "--rank", "9", "--exps", level_one]) == 0
    assert len(json.loads(capsys.readouterr().out)["terms"]) == 18
    full = json.dumps([[k] for k in range(1, 10)])
    start = time.perf_counter()
    assert run(["orbit-sum", "--family", "sp", "--rank", "9", "--exps", full]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "exceeds cap" in err


def test_level_cli_half_integer_exponents(capsys):
    assert (
        run(
            [
                "level",
                "--family",
                "so-even",
                "--rank",
                "2",
                "--factors",
                "1",
                "--exps",
                "[[0.5],[0.5]]",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "2"


def test_level_refuses_both_exps_and_in(tmp_path, capsys):
    doc = tmp_path / "p.json"
    g = GroupSpec("GL", 2, 1)
    doc.write_text(json.dumps(orbit_sum(exponents([[1], [1]]), g).to_json()))
    argv = ["level", "--family", "gl", "--rank", "2"]
    assert run(argv + ["--in", str(doc)]) == 0
    assert run(argv + ["--exps", "[[0],[0]]"]) == 0
    assert capsys.readouterr().out.split() == ["2", "0"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--exps", "[[0],[0]]", "--in", str(doc)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("usage: toruschar level ")
    assert captured.err.endswith("\ntoruschar level: error: argument --in: not allowed with argument --exps\n")
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: provide --exps or --in\n"


@pytest.mark.parametrize(
    "flags",
    [[], ["--family", "gl"], ["--rank", "2"], ["--factors", "1"],
     ["--family", "gl", "--rank", "2", "--factors", "1"]],
)
def test_level_in_takes_flags_that_match_the_file(tmp_path, capsys, flags):
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps(orbit_sum(exponents([[1], [1]]), GroupSpec("GL", 2, 1)).to_json()))
    assert run(["level", *flags, "--in", str(doc)]) == 0
    assert capsys.readouterr().out == "2\n"


@pytest.mark.parametrize(
    "flags, err",
    [
        (["--family", "so-even", "--rank", "3", "--factors", "2"], "--family so-even"),
        (["--family", "sl"], "--family sl"),
        (["--rank", "3"], "--rank 3"),
        (["--family", "gl", "--rank", "2", "--factors", "2"], "--factors 2"),
    ],
)
def test_level_in_refuses_flags_that_contradict_the_file(tmp_path, capsys, flags, err):
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps(orbit_sum(exponents([[1], [1]]), GroupSpec("GL", 2, 1)).to_json()))
    assert run(["level", *flags, "--in", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err} contradicts the group of --in, GL(rank=2, N=1)\n"


def test_cohomology_cli(capsys):
    assert (
        run(
            [
                "cohomology",
                "--family",
                "sl",
                "--rank",
                "2",
                "--factors",
                "2",
                "--seed",
                "5",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "Z1 = 4, B1 = 2, H1 = 2"


def test_structure_constants_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert (
            run(
                [
                    "structure-constants",
                    "--family",
                    "sp",
                    "--rank",
                    "1",
                    "--c",
                    "1",
                    "--cutoff",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()
    table = json.loads(out1.read_text())
    assert table["cutoff"] == 2


def test_verify_bracket_small(capsys):
    code = run(
        [
            "verify-bracket",
            "--family",
            "sp",
            "--rank",
            "1",
            "--trials",
            "3",
            "--seed",
            "0",
        ]
    )
    assert code == 0
    assert "max relative error" in capsys.readouterr().out


def _max_rel_err(out: str) -> str:
    return re.search(r"max relative error (\S+)", out).group(1)


def test_failed_verify_bracket_prints_a_witness(capsys):
    argv = ["verify-bracket", "--family", "sp", "--rank", "1", "--trials", "3",
            "--seed", "7", "--tol", "1e-300"]
    assert run(argv) == 1
    first = capsys.readouterr()
    (witness,) = first.err.splitlines()
    words = shlex.split(witness, comments=True)
    assert words[:2] == ["toruschar", "verify-bracket"]
    assert int(words[words.index("--trials") + 1]) <= 3
    assert run(words[1:]) == 1
    again = capsys.readouterr()
    assert _max_rel_err(again.out) == _max_rel_err(first.out)
    assert again.err.splitlines() == [witness]


def test_bracket_witness_names_the_exact_bracket_and_the_term_size(capsys):
    # The comment ends with the exact bracket at the worst pair and B, the
    # size of the float terms there (``lie.numeric_bracket_size``).
    from fractions import Fraction

    from toruschar import verify
    from toruschar.poisson import bracket_symbols

    assert run(["verify-bracket", "--family", "sp", "--rank", "1", "--trials", "3",
                "--seed", "7", "--tol", "1e-300"]) == 1
    (witness,) = capsys.readouterr().err.splitlines()
    group = GroupSpec("Sp", 1, 2)
    res = verify.bracket_agreement(group, trials=3, seed=7, tol=1e-300)
    a, b = res["worst_pair"]
    exact = bracket_symbols(a, b, group, Fraction(1))
    assert witness.endswith(f", exact {exact}, B {res['worst_size']:.3e}")
    assert res["worst_bracket"] == exact and res["worst_size"] > 0


def test_bracket_witness_reads_exact_0_when_det_is_0(monkeypatch, capsys):
    # With every float bracket NaN the worst pair is the first symbol with
    # itself, whose det is 0.
    from toruschar import verify

    monkeypatch.setattr(verify, "numeric_bracket", lambda *args: complex("nan"))
    assert run(["verify-bracket", "--family", "sp", "--rank", "1", "--trials", "2"]) == 1
    (witness,) = capsys.readouterr().err.splitlines()
    assert re.search(r"at trial 1, exact 0, B \S+$", witness)


def test_nan_bracket_error_fails_with_a_witness(monkeypatch, capsys):
    from toruschar import verify

    group = GroupSpec("Sp", 1, 2)
    monkeypatch.setattr(verify, "numeric_bracket", lambda *args: complex("nan"))
    res = verify.bracket_agreement(group, trials=2)
    assert not res["ok"] and res["max_rel_err"] != res["max_rel_err"]  # NaN
    first = verify.symbol_window(group, 2)[0]
    assert (res["worst_trial"], res["worst_pair"]) == (0, (first, first))
    assert run(["verify-bracket", "--family", "sp", "--rank", "1", "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert _max_rel_err(captured.out) == "nan"
    (witness,) = captured.err.splitlines()
    assert "--trials 1" in witness


def test_nonzero_jacobi_image_fails_with_a_witness(monkeypatch, capsys):
    from toruschar import verify
    from toruschar.poisson import TauPoly, jacobi_defect

    calls = []

    def mutant(a, b, c3, group, c):
        # tau(1, 0) has a nonzero image; it stands in from the third triple on.
        calls.append(a)
        if len(calls) < 3:
            return jacobi_defect(a, b, c3, group, c)
        return TauPoly.symbol(group, c, (1, 0))

    monkeypatch.setattr(verify, "jacobi_defect", mutant)
    res = verify.jacobi_suite(GroupSpec("SL", 2, 2), trials=5)
    assert res["mode"] == "nonzero" and not res["ok"]
    assert res["first_trial"] == 2 and res["first_triple"][0] == calls[2]
    calls.clear()
    assert run(["verify-jacobi", "--family", "sl", "--rank", "2", "--trials", "5"]) == 1
    first = capsys.readouterr()
    assert first.out.endswith("defect mode: nonzero at triple 3\n")
    (witness,) = first.err.splitlines()
    words = shlex.split(witness, comments=True)
    assert words[:2] == ["toruschar", "verify-jacobi"]
    assert words[words.index("--trials") + 1] == "3"
    taus = ", ".join(f"tau{a}" for a in res["first_triple"])
    assert witness.endswith(f"# first nonzero: {taus} at triple 3")
    calls.clear()
    assert run(words[1:]) == 1
    assert capsys.readouterr().err.splitlines() == [witness]


@pytest.mark.parametrize(
    "group, terms",
    [   # tau(1, 0)^2 = tau(2, 0) + 2 on SL(2), and tau(0, 0) = 3 on SL(3)
        (GroupSpec("SL", 2, 2), {((1, 0), (1, 0)): 1, ((2, 0),): -1, (): -2}),
        (GroupSpec("SL", 3, 2), {((0, 0),): 1, (): -3}),
    ],
    ids=str,
)
def test_jacobi_defect_zero_only_in_the_image_passes(monkeypatch, group, terms):
    from toruschar import verify
    from toruschar.poisson import TauPoly

    relation = TauPoly(group, 1, terms)
    assert relation  # nonzero in the free symbol algebra
    monkeypatch.setattr(verify, "jacobi_defect", lambda *args: relation)
    res = verify.jacobi_suite(group, trials=3)
    assert res["mode"] == "image" and res["ok"]


def test_sl2_sp1_suite_fails_every_pair_of_a_doubled_sp1_form(monkeypatch):
    from toruschar import verify
    from toruschar.poisson import bracket_symbols

    pairs = []

    def doubled(a, b, group, c=1):
        if group.family == "Sp":
            pairs.append((a, b))
            c = 2 * c
        return bracket_symbols(a, b, group, c)

    monkeypatch.setattr(verify, "bracket_symbols", doubled)
    res = verify.sl2_sp1_suite(trials=300, seed=0)
    moving = sum(a[0] * b[1] != a[1] * b[0] for a, b in pairs)  # det != 0
    assert not res["ok"] and res["failures"] == moving == 266


def test_q_block_suite_fails_every_nonzero_point_of_a_negated_q_image(monkeypatch):
    import itertools
    import math

    from toruschar import verify

    q_image, random_torus_point = verify.q_image, verify.random_torus_point
    alphas, points = [], []

    def negated(group, args):
        alphas.append(args)
        return q_image(group, args).scaled(-1)

    def recorded(*args, **kwargs):
        points.append(random_torus_point(*args, **kwargs))
        return points[-1]

    monkeypatch.setattr(verify, "q_image", negated)
    monkeypatch.setattr(verify, "random_torus_point", recorded)
    res = verify.q_block_suite(trials=50, seed=0)

    def alternating(args, pt):  # sum over s of prod_k (z - 1/z), z = z_{k,s(k)}
        z = [[math.prod(pt.coords[j][i] ** a for j, a in enumerate(alpha)) for i in range(2)]
             for alpha in args]
        return sum(math.prod(z[k][s] - 1 / z[k][s] for k, s in enumerate(perm))
                   for perm in itertools.permutations(range(2)))

    nonzero = sum(bool(alternating(a, pt)) for a, pt in zip(alphas, points))
    assert not res["ok"] and res["failures"] == nonzero == 48


def test_verify_jacobi_small(capsys):
    code = run(
        [
            "verify-jacobi",
            "--family",
            "sl",
            "--rank",
            "2",
            "--trials",
            "5",
        ]
    )
    assert code == 0
    assert "identical" in capsys.readouterr().out


def test_missing_file_exit_2(capsys):
    assert run(["decompose", "--in", "/nonexistent/x.json"]) == 2


# ---------------------------------------------------------------------------
# malformed JSON input: one error line, exit 2, never a traceback
# ---------------------------------------------------------------------------

_GOOD_POLY = {
    "group": {"family": "GL", "rank": 1, "factors": 1},
    "terms": [{"coeff": "1", "exps": [[0]]}],
}


@pytest.mark.parametrize(
    "doc, where",
    [
        ({**_GOOD_POLY, "terms": [{"exps": [[0]]}]}, "terms[0].coeff: missing"),
        ({**_GOOD_POLY, "terms": [{"coeff": 5, "exps": [[0]]}]}, "terms[0].coeff: expected a string"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1/x", "exps": [[0]]}]}, "terms[0].coeff: "),
        ({**_GOOD_POLY, "terms": [{"coeff": "1/0", "exps": [[0]]}]}, "terms[0].coeff"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1"}]}, "terms[0].exps: missing"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1", "exps": [[None]]}]}, "terms[0].exps[0][0]: not a number"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1", "exps": [[0.3]]}]},
         "terms[0].exps[0][0]: exponent 0.3 is not a half-integer"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1", "exps": 3}]}, "terms[0].exps: expected a list"),
        ({**_GOOD_POLY, "terms": ["x"]}, "terms[0]: expected an object"),
        ({**_GOOD_POLY, "terms": {}}, "terms: expected a list"),
        ([_GOOD_POLY], "top level: expected an object"),
        ({"terms": []}, "group: missing"),
        ({**_GOOD_POLY, "group": {"family": "GL", "rank": 1}}, "group.factors: missing"),
        ({**_GOOD_POLY, "group": {"family": "GL", "rank": "1", "factors": 1}}, "group.rank: expected an integer"),
        ({**_GOOD_POLY, "group": ["GL", 1, 1]}, "group: expected an object"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1", "exps": [[True]]}]},
         "terms[0].exps[0][0]: not a number: True"),
        # Fraction would build 10**1000000000 from these.
        ({**_GOOD_POLY, "terms": [{"coeff": "1e1000000000", "exps": [[0]]}]},
         "terms[0].coeff: exponent too large"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1e1000000000i", "exps": [[0]]}]},
         "terms[0].coeff: exponent too large"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1", "exps": [["1e1000000000"]]}]},
         "terms[0].exps[0][0]: not a number"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1/0", "exps": [[0]]}]},
         "terms[0].coeff: zero denominator in '1/0'"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1/0i", "exps": [[0]]}]},
         "terms[0].coeff: zero denominator in '1/0i'"),
        ({**_GOOD_POLY, "terms": [{"coeff": "2/0+1/3i", "exps": [[0]]}]},
         "terms[0].coeff: zero denominator in '2/0+1/3i'"),
        ({**_GOOD_POLY, "terms": [{"coeff": "1", "exps": [["1/0"]]}]},
         "terms[0].exps[0][0]: zero denominator in '1/0'"),
    ],
)
def test_decompose_malformed_json_exit_2(tmp_path, capsys, doc, where):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run(["decompose", "--in", str(src)]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"terms": [{"factors": []}]}, "terms[0].coeff: missing"),
        ({"terms": [{"coeff": "1", "factors": [{"tau": [1, "a"]}]}]}, "terms[0].factors[0].tau[1]: expected an integer"),
        ({"terms": [{"coeff": "1", "factors": [{"q": [[1, 0], 2]}]}]}, "terms[0].factors[0].q[1]: expected a list"),
        ({"terms": [{"coeff": "1", "factors": [{"x": [1, 0]}]}]}, "terms[0].factors[0]: unknown generator factor"),
        ({"terms": [{"coeff": "1", "factors": "tau"}]}, "terms[0].factors: expected a list"),
        ("terms", "top level: expected an object"),
        ({"terms": [{"coeff": "1", "factors": [{"tau": [1, 2, 3]}]}]}, "terms[0].factors[0].tau: alpha must have 2 entries"),
        ({"terms": [{"coeff": "1", "factors": [{"q": [[1, 0]]}]}]}, "terms[0].factors[0].q: Q takes exactly 2 vectors"),
        # a vanishing Q zeroes the term, but the factors after it are still read
        ({"terms": [{"coeff": "1", "factors": [{"q": [[0, 0], [1, 0]]}, {"bogus": 1}]}]},
         "terms[0].factors[1]: unknown generator factor"),
        ({"terms": [{"coeff": "1", "factors": [{"q": [[0, 0], [1, 0]]}, {"tau": [1, 2, 3]}]}]},
         "terms[0].factors[1].tau: alpha must have 2 entries"),
        ({"terms": [{"coeff": "1/0", "factors": [{"tau": [1, 0]}]}]},
         "terms[0].coeff: zero denominator in '1/0'"),
        # a bad coefficient after a good one of different text is still named
        ({"terms": [{"coeff": "2", "factors": [{"tau": [1, 0]}]},
                    {"coeff": "1/0", "factors": [{"tau": [0, 1]}]}]},
         "terms[1].coeff: zero denominator in '1/0'"),
        ({"terms": [{"coeff": "2", "factors": [{"tau": [1, 0]}]}, {"coeff": 2, "factors": []}]},
         "terms[1].coeff: expected a string"),
    ],
)
def test_expand_malformed_json_exit_2(tmp_path, capsys, doc, where):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    argv = ["expand", "--family", "so-even", "--rank", "2", "--factors", "2", "--in", str(src)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


@pytest.mark.parametrize(
    "doc, where",
    [
        (5, "top level: expected a list"),
        ({"x": [1, 1]}, "top level: expected a list"),
        ([5, [1, 1]], "[0]: expected a list"),
        ([[1, "x"], [1, 1]], "[0][1]: not a number"),
        ([[1, 1], [None, 1]], "[1][0]: not a number"),
        ([[1, True], [1, 1]], "[0][1]: not a number"),
        ([[1, [2]], [1, 1]], "[0][1]: not a number"),
        ([["1/0", 1], [1, 1]], "[0][0]: not a number"),
        ([[1, 1]], "expected 2 generator vectors"),
        ([["1e1000000000", 1], [1, 1]], "[0][0]: not a number"),
    ],
)
def test_cohomology_malformed_json_exit_2(tmp_path, capsys, doc, where):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(doc))
    argv = ["cohomology", "--family", "sl", "--rank", "2", "--factors", "2", "--in", str(src)]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err


def test_cohomology_cli_in_file(tmp_path, capsys):
    src = tmp_path / "gens.json"
    src.write_text(json.dumps([[2, 0.5], [3, "1/3"]]))
    argv = ["cohomology", "--family", "sl", "--rank", "2", "--factors", "2", "--in", str(src)]
    assert run(argv) == 0
    assert capsys.readouterr().out.strip() == "Z1 = 4, B1 = 2, H1 = 2"


@pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0"), ("0", "0.0")])
def test_cohomology_float_refuses_bad_tolerances(capsys, tol, shown):
    """``cohomology`` ranks exactly and has no ``--mode`` or ``--tol``: each
    is argparse's usage error, before any tolerance is read."""
    argv = ["cohomology", "--family", "sl", "--rank", "2", "--factors", "2"]
    for extra in (["--tol", tol], ["--mode", "float"], ["--mode", "float", "--tol", tol]):
        with pytest.raises(SystemExit) as exc:
            run(argv + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err and f"got {shown}" not in captured.err
        assert captured.err.startswith("usage: toruschar ")
        assert captured.err.endswith(f"\ntoruschar: error: unrecognized arguments: {' '.join(extra)}\n")
    assert run(argv) == 0
    assert capsys.readouterr().out.strip() == "Z1 = 4, B1 = 2, H1 = 2"


@pytest.mark.parametrize(
    "exps",
    ['[[1], "x"]', "[[null], [0]]", "7", "[[0.3], [0]]", "[[true], [0]]", '[["1e1000000000"], [0]]'],
)
def test_malformed_exps_flag_exit_2(capsys, exps):
    start = time.perf_counter()
    assert run(["orbit-sum", "--family", "gl", "--rank", "2", "--exps", exps]) == 2
    assert time.perf_counter() - start < 2.0
    assert "--exps" in capsys.readouterr().err


def test_zero_denominator_in_exps_flag_exit_2(capsys):
    assert run(["orbit-sum", "--family", "gl", "--rank", "1", "--exps", '[["1/0"]]']) == 2
    assert capsys.readouterr().err == "error: --exps[0][0]: zero denominator in '1/0'\n"


# ---------------------------------------------------------------------------
# golden outputs: sha256 of stdout for fixed inputs and seeds
# ---------------------------------------------------------------------------

_DATA = Path(__file__).parent / "data"

GOLDEN = {
    "decompose_sp2": (
        ["decompose", "--in", str(_DATA / "decompose_sp2.json")],
        "bb6fb7a8b58ece5e0561a6f64bbdfc85d9f4cb6dca01b480012c355696d5eaab",
    ),
    "decompose_soeven2": (
        ["decompose", "--in", str(_DATA / "decompose_soeven2.json")],
        "d90edd36a80b14564360a3be49442c18087700823632c82f684414af3c5a5fc0",
    ),
    # full-level orbit sums whose reduction steps have lower-level terms
    "decompose_gl2": (
        ["decompose", "--in", str(_DATA / "decompose_gl2.json")],
        "d379602f33704d593aaf396671bbdef165798d52ccad10aa71607facf3ceed8d",
    ),
    "decompose_sl2": (
        ["decompose", "--in", str(_DATA / "decompose_sl2.json")],
        "e157d78055c752df3a5098329dea55198c4acc333a3d5a0f05731650f691e014",
    ),
    "decompose_soodd2": (
        ["decompose", "--in", str(_DATA / "decompose_soodd2.json")],
        "aadaf17d0b1fc5586e7b9436496605273f5c6cfb8241f78a32b5c3c70cc6ab45",
    ),
    "expand_soeven2": (
        ["expand", "--family", "so-even", "--rank", "2", "--factors", "2",
         "--in", str(_DATA / "expand_soeven2.json")],
        "fcf2539a2ed7326455ed5a9b37df4e6dce83932523c2f6340720466a24990bd8",
    ),
    # Q * Q and Q * Q * tau terms, with negated Q arguments
    "expand_soeven2_qq": (
        ["expand", "--family", "so-even", "--rank", "2", "--factors", "2",
         "--in", str(_DATA / "expand_soeven2_qq.json")],
        "a212e901c342b2eee24fbdcafd53f6f4d3dfd45087d9b8e2ee022394f4b930ba",
    ),
    "orbit_sum_soodd2": (
        ["orbit-sum", "--family", "so-odd", "--rank", "2", "--factors", "2",
         "--exps", "[[1,0],[0,-1]]"],
        "2166e2a20899cc1a91ffdf4987159499528ce8664b7df8fa49bb8e20909878b5",
    ),
    "orbit_sum_soeven3": (
        ["orbit-sum", "--family", "so-even", "--rank", "3", "--factors", "1",
         "--exps", "[[0.5],[0.5],[-1.5]]"],
        "ad7e418a1c8a910d3dc4ef14272fc3add14f00534cd7deb736d25638d9a13f12",
    ),
    "bracket_sp2": (
        ["bracket", "--family", "sp", "--rank", "2", "--a", "1,0", "--b", "0,1", "--c", "3/2"],
        "90c9cfe8b334ff0d9de059c722c0731fc11fa4f399700ab13928ecd437643d23",
    ),
    "bracket_soeven2": (
        ["bracket", "--family", "so-even", "--rank", "2", "--a", "1,1", "--b", "1,-2"],
        "fae85414909069a54c0511cb0e1d3f8906f7dada28edcabedb6c6f6a6f811f12",
    ),
    "structure_constants_sp1": (
        ["structure-constants", "--family", "sp", "--rank", "1", "--cutoff", "2"],
        "d88d5f654735f8fa5c90285f568124c581c568bacad2c1e4924cf75b4694ffbd",
    ),
    "structure_constants_sl3": (
        ["structure-constants", "--family", "sl", "--rank", "3", "--c", "2/3", "--cutoff", "1"],
        "b0746ad6b59e3f293a96d7c15f7ce87c25392aad3f74ab34f3e8e9c2c30bf675",
    ),
    "killing_table": (
        ["killing"],
        "e5c0826815c96bf04faed03ffab8faaf53624ab01dad49a0a770509818cc1201",
    ),
    "killing_soodd3": (
        ["killing", "--family", "so-odd", "--rank", "3"],
        "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06",
    ),
    "verify_bracket_sp1": (
        ["verify-bracket", "--family", "sp", "--rank", "1", "--trials", "3", "--seed", "7"],
        "f860781f21373924522a1ee4179c59d279fbcba78313242a0b48a0802c1d1221",
    ),
    "verify_bracket_sl3": (
        ["verify-bracket", "--family", "sl", "--rank", "3", "--trials", "3", "--seed", "7"],
        "d25ab2fd25968bbffe76ce9fc4eb053189da7759f7327bf6a1def17c0c2f6fa3",
    ),
    "verify_bracket_soeven2": (
        ["verify-bracket", "--family", "so-even", "--rank", "2", "--trials", "3", "--seed", "7"],
        "eac8272cfc208130f2f9d84a50359e538caf94db1d7ca6f684b9cff69029cd9a",
    ),
    "verify_bracket_gl2_extrapolated": (
        ["verify-bracket", "--family", "gl", "--rank", "2", "--extrapolated",
         "--trials", "3", "--seed", "7"],
        "c192122bc6ff1262198649304f77c626b14f10aa889d6431254a80bba4ea8065",
    ),
    "cohomology_soodd2": (
        ["cohomology", "--family", "so-odd", "--rank", "2", "--factors", "3", "--seed", "5"],
        "cd1bb3e538e4583fde4fa4b805fc6f361aec25647c46402e0d2b8da89f90979d",
    ),
    "verify_jacobi_sl2": (
        ["verify-jacobi", "--family", "sl", "--rank", "2", "--trials", "5", "--seed", "3"],
        "b03afa31d5263f93fc6dab7bb4e61038b133663a7bc239623272e73e92f64f7d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_digest(capsys, name):
    argv, digest = GOLDEN[name]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# internal errors and the Lie-dimension cap
# ---------------------------------------------------------------------------

def test_internal_check_error_exit_3(monkeypatch, capsys):
    from toruschar import cli
    from toruschar.errors import InternalCheckError

    def broken(args):
        raise InternalCheckError("basis size does not match the dimension formula")

    monkeypatch.setitem(cli._COMMANDS, "killing", broken)
    assert run(["killing", "--family", "sl", "--rank", "2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: internal check failed: basis size does not match the dimension formula"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["killing", "--family", "sl", "--rank", "100000"],
        ["cohomology", "--family", "sl", "--rank", "100000", "--factors", "2"],
        ["cohomology", "--family", "so-even", "--rank", "100000"],
        ["killing", "--family", "sp", "--rank", "14"],  # dimension 406
        ["cohomology", "--family", "gl", "--rank", "21"],  # dimension 441
        ["verify-bracket", "--family", "sl", "--rank", "21"],  # dimension 440
        ["verify-bracket", "--family", "sl", "--rank", "100", "--trials", "1"],
        ["verify-bracket", "--family", "gl", "--rank", "100", "--extrapolated"],
        # At rank 1e9 |W| has billions of digits: nothing may compute it first.
        ["killing", "--family", "sl", "--rank", "1000000000"],
        ["cohomology", "--family", "sp", "--rank", "1000000000", "--factors", "2"],
        ["verify-bracket", "--family", "so-even", "--rank", "1000000000"],
    ],
)
def test_lie_commands_refuse_groups_above_cap(capsys, argv):
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "above the cap" in lines[0]


def test_a_json_group_of_huge_rank_is_read_without_its_weyl_order(tmp_path, capsys):
    # The document's one term has one row where the group wants 1e9: the
    # shape check refuses it at once, as |W| is not computed on reading.
    doc = {"group": {"family": "Sp", "rank": 10**9, "factors": 1},
           "terms": [{"coeff": "1", "exps": [[2]]}]}
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert run(["decompose", "--in", str(src)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: exponent matrix shape does not match Sp(rank=1000000000, N=1)")


@pytest.mark.parametrize(
    "argv",
    [["decompose"], ["expand", "--family", "sp", "--rank", "1000000000"]],
    ids=["decompose", "expand"],
)
def test_the_empty_document_of_huge_rank_takes_no_weyl_order(tmp_path, argv):
    # The zero polynomial has no orbit, so nothing of rank size is built.
    # A child process under a time and an address-space limit fails fast
    # where |W| or a rank-sized key would be computed.
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({"group": {"family": "Sp", "rank": 10**9, "factors": 1}, "terms": []}))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "toruschar", *argv, "--in", str(src)],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["terms"] == []


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["cohomology", "--family", "sp", "--rank", "4", "--factors", "400"], 2872800),
        (["cohomology", "--family", "gl", "--rank", "2", "--factors", "200"], 79600),
        (["cohomology", "--family", "sl", "--rank", "2", "--factors", "1000000"], 1499998500000),
        (["cohomology", "--family", "gl", "--rank", "1", "--factors", "201"], 20100),
    ],
)
def test_cohomology_refuses_z1_systems_above_cap(capsys, argv, rows):
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: Z1 system of {rows} rows exceeds cap 20000\n"


def test_cohomology_accepts_z1_system_at_cap(capsys):
    # GL(1) with 200 factors: 19 900 rows, the largest N under the cap.
    assert run(["cohomology", "--family", "gl", "--rank", "1", "--factors", "200"]) == 0
    assert capsys.readouterr().out.strip() == "Z1 = 200, B1 = 0, H1 = 200"


def test_cohomology_accepts_group_at_cap(capsys):
    # GL(20) has dimension 400, exactly the cap.
    argv = ["cohomology", "--family", "gl", "--rank", "20", "--factors", "2", "--seed", "1"]
    assert run(argv) == 0
    assert capsys.readouterr().out.strip() == "Z1 = 420, B1 = 380, H1 = 40"


def test_verify_bracket_accepts_group_at_cap(capsys):
    # SL(20) has dimension 399, the largest SL rank under the cap.
    assert run(["verify-bracket", "--family", "sl", "--rank", "20", "--trials", "1"]) == 0
    assert capsys.readouterr().out.startswith("SL(rank=20, N=2): 325 checks over 325 pairs")


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--in"],
        ["expand", "--family", "gl", "--rank", "1", "--in"],
        ["level", "--in"],
        ["cohomology", "--family", "gl", "--rank", "1", "--in"],
        ["orbit-sum", "--family", "gl", "--rank", "1", "--exps"],
        ["level", "--family", "gl", "--rank", "1", "--exps"],
    ],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    value, where = (str(deep),) * 2 if argv[-1] == "--in" else (deep.read_text(), "--exps")
    assert run(argv + [value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}: JSON nested too deeply\n"


def test_expand_large_q_exits_2_fast(tmp_path, capsys):
    doc = {"terms": [{"coeff": "1", "factors": [{"q": [[k] for k in range(1, 10)]}]}]}
    infile = tmp_path / "q9.json"
    infile.write_text(json.dumps(doc))
    argv = ["expand", "--family", "so-even", "--rank", "9", "--factors", "1", "--in", str(infile)]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err == "error: orbit of 92897280 monomials exceeds cap 1000000\n"


@pytest.mark.parametrize("a, b", [("1", "0,1"), ("1,0,5", "0,1"), ("1,0", "0")])
def test_bracket_vectors_need_two_entries(capsys, a, b):
    assert run(["bracket", "--family", "sl", "--rank", "2", "--a", a, "--b", b]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "2 entries" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-bracket", "--family", "sp", "--rank", "1", "--trials", "-3"],
        ["verify-bracket", "--family", "sp", "--rank", "1", "--trials", "0"],
        ["verify-jacobi", "--family", "sl", "--rank", "2", "--trials", "-1"],
    ],
)
def test_suites_refuse_fewer_than_one_trial(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: trials must be at least 1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-bracket", "--family", "sl", "--rank", "2", "--window", w],
         f"window must be at least 1, got {w}")
        for w in ("-1", "0")
    ]
    + [
        (["verify-bracket", "--family", "sp", "--rank", "1", "--tol", tol],
         f"tol must be a positive finite number, got {shown}")
        for tol, shown in (("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0"))
    ],
)
def test_suites_refuse_empty_windows_and_bad_tolerances(capsys, argv, message):
    assert run(argv + ["--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_jacobi_takes_no_tolerance(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-jacobi", "--family", "sl", "--rank", "2", "--tol", "1e-9"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("usage: toruschar ")
    assert err.endswith("\ntoruschar: error: unrecognized arguments: --tol 1e-9\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["structure-constants", "--family", "sp", "--rank", "1", "--cutoff", "100000"],
         "symbol window cutoff 100000 exceeds cap 8"),
        (["structure-constants", "--family", "sl", "--rank", "3", "--cutoff", "9"],
         "symbol window cutoff 9 exceeds cap 8"),
        (["verify-bracket", "--family", "sl", "--rank", "2", "--window", "100000"],
         "symbol window cutoff 100000 exceeds cap 8"),
        (["verify-bracket", "--family", "sl", "--rank", "2", "--trials", "100000000"],
         "100000000 trials exceed cap 1000"),
        (["verify-jacobi", "--family", "sl", "--rank", "2", "--trials", "100000000"],
         "100000000 trials exceed cap 1000"),
        (["verify-jacobi", "--family", "sp", "--rank", "1", "--trials", "1001"],
         "1001 trials exceed cap 1000"),
        (["verify-bracket", "--family", "sl", "--rank", "2", "--window", "8", "--trials", "1000"],
         "1000 trials x 41905 symbol pairs exceed cap 400000"),
        (["verify-bracket", "--family", "sp", "--rank", "2", "--window", "8", "--trials", "38"],
         "38 trials x 10585 symbol pairs exceed cap 400000"),
        (["verify-bracket", "--family", "sl", "--rank", "3", "--window", "3", "--trials", "327"],
         "327 trials x 1225 symbol pairs exceed cap 400000"),
        # A huge exponent in --c: Fraction would build 10**1000000000.
        (["bracket", "--family", "sl", "--rank", "2", "--a", "1,0", "--b", "0,1",
          "--c", "1e1000000000"], "exponent too large in '1e1000000000'"),
        (["verify-bracket", "--family", "sp", "--rank", "1", "--c", "1E+1_000_000_000"],
         "exponent too large in '1E+1_000_000_000'"),
        (["verify-jacobi", "--family", "sp", "--rank", "1", "--c", "1e1000000000"],
         "exponent too large in '1e1000000000'"),
        (["structure-constants", "--family", "sp", "--rank", "1", "--c", "2.5e-1000000000"],
         "exponent too large in '2.5e-1000000000'"),
    ],
)
def test_budgets_refuse_huge_cutoffs_and_trials_fast(capsys, argv, message):
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_budgets_accept_values_at_the_caps():
    from toruschar.poisson import CUTOFF_CAP, symbol_window
    from toruschar.verify import BRACKET_GROUPS, PAIR_TRIALS_CAP, TRIALS_CAP, _require_run

    assert len(symbol_window(GroupSpec("SL", 3, 2), CUTOFF_CAP)) == (2 * CUTOFF_CAP + 1) ** 2
    _require_run(TRIALS_CAP)
    for group in BRACKET_GROUPS:  # the default window 2 at the trials cap
        size = len(symbol_window(group, 2))
        assert TRIALS_CAP * size * (size + 1) // 2 <= PAIR_TRIALS_CAP
