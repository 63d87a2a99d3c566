import hashlib
import json
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


def test_bracket_gl_needs_flag(capsys):
    assert run(["bracket", "--family", "gl", "--rank", "2", "--a", "1,0", "--b", "0,1"]) == 2
    err = capsys.readouterr().err
    assert "extrapolat" in err


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
    for mode in ("exact", "float"):
        argv = ["cohomology", "--family", "sl", "--rank", "2", "--factors", "2",
                "--mode", mode, "--in", str(src)]
        assert run(argv) == 0
        assert capsys.readouterr().out.strip() == "Z1 = 4, B1 = 2, H1 = 2"


@pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0"), ("0", "0.0")])
def test_cohomology_float_refuses_bad_tolerances(capsys, tol, shown):
    argv = ["cohomology", "--family", "sl", "--rank", "2", "--factors", "2", "--tol", tol]
    assert run(argv + ["--mode", "float"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be a positive finite number, got {shown}\n"
    # The exact mode computes exact ranks and never reads tol.
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
    "expand_soeven2": (
        ["expand", "--family", "so-even", "--rank", "2", "--factors", "2",
         "--in", str(_DATA / "expand_soeven2.json")],
        "fcf2539a2ed7326455ed5a9b37df4e6dce83932523c2f6340720466a24990bd8",
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
    "cohomology_float_soodd2": (
        ["cohomology", "--family", "so-odd", "--rank", "2", "--factors", "3",
         "--mode", "float", "--seed", "5"],
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
        ["cohomology", "--family", "so-even", "--rank", "100000", "--mode", "float"],
        ["killing", "--family", "sp", "--rank", "14"],  # dimension 406
        ["cohomology", "--family", "gl", "--rank", "21"],  # dimension 441
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


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["cohomology", "--family", "sp", "--rank", "4", "--factors", "400"], 2872800),
        (["cohomology", "--family", "gl", "--rank", "2", "--factors", "200", "--mode", "float"],
         79600),
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


_SUITES = (
    ["verify-bracket", "--family", "sp", "--rank", "1"],
    ["verify-jacobi", "--family", "sl", "--rank", "2"],
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-bracket", "--family", "sl", "--rank", "2", "--window", w],
         f"window must be at least 1, got {w}")
        for w in ("-1", "0")
    ]
    + [
        (suite + ["--tol", tol], f"tol must be a positive finite number, got {shown}")
        for suite in _SUITES
        for tol, shown in (("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0"))
    ],
)
def test_suites_refuse_empty_windows_and_bad_tolerances(capsys, argv, message):
    assert run(argv + ["--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
    _require_run(TRIALS_CAP, 1e-9)
    for group in BRACKET_GROUPS:  # the default window 2 at the trials cap
        size = len(symbol_window(group, 2))
        assert TRIALS_CAP * size * (size + 1) // 2 <= PAIR_TRIALS_CAP
