"""Batch command-line frontend.

Subcommands wrap the library with JSON file I/O:

    decompose            LaurentPoly JSON -> GeneratorPoly JSON
    expand               GeneratorPoly JSON -> LaurentPoly JSON
    bracket              print/serialize a symbol bracket
    verify-bracket       symbolic vs numeric bracket agreement suite
    verify-jacobi        Jacobi defect suite
    cohomology           (Z1, B1, H1) for sampled or supplied generators
    killing              Killing/trace ratio (single group or table)
    structure-constants  bracket table over a lattice window
    orbit-sum            Weyl orbit sum of a monomial
    level                level of a monomial or polynomial

Exit codes: 0 success, 1 a verification suite failed (`verify-bracket`
and `verify-jacobi` then print to stderr a command that reproduces the
failure), 2 invalid input, flags or a resource limit (such as a
group above the Lie-dimension cap of `killing`, `cohomology` and
`verify-bracket`, or JSON nested too deeply to read), 3 an internal
self-check failed (a bug).  All randomness is seeded (default 0); equal
seeds and flags give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import random
import shlex
import sys

from .errors import DomainError, InternalCheckError, NoGLFormulaError, ResourceLimitError
from .generators import GeneratorPoly, decompose, expand
from .groups import _CLI_NAMES, GroupSpec
from .jsonio import json_check, parse_scalar
from .laurent import LaurentPoly, exponents_from_json, stored_key
from .lie import LIE_DIM_CAP, cohomology_dims, killing_ratio, random_torus_point, torus_matrix
from .poisson import bracket_symbols, structure_constants
from .scalars import GaussRat, read_rational
from .verify import bracket_agreement, jacobi_suite, killing_table
from .weyl import level_of_monomial, level_of_poly, orbit_sum


# The largest cohomology Z^1 system, N(N-1)/2 * lie_dim rows for N factors:
# SL(20) with 10 factors has 17 955; GL(2) with 200 factors (79 600) took
# 8 s on a 2-vCPU host.
COCYCLE_ROWS_CAP = 20_000


def _add_group_flags(p: argparse.ArgumentParser, factors: bool = True):
    p.add_argument("--family", choices=["gl", "sl", "sp", "so-odd", "so-even"])
    p.add_argument("--rank", type=int)
    if factors:
        p.add_argument("--factors", type=int, help="default 1")


def _group_from(args, factors: int | None = None) -> GroupSpec:
    if args.family is None or args.rank is None:
        raise DomainError("--family and --rank are required here")
    if factors is None:
        factors = 1 if getattr(args, "factors", None) is None else args.factors
    return GroupSpec.from_cli(args.family, args.rank, factors)


def _refuse_other_group(args, group: GroupSpec) -> None:
    """Refuse a group flag given with ``--in`` that names another group
    than the file's."""
    family = args.family and _CLI_NAMES[args.family]
    for name, value, text in (("family", family, args.family), ("rank", args.rank, args.rank),
                              ("factors", args.factors, args.factors)):
        if value is not None and value != getattr(group, name):
            raise DomainError(f"--{name} {text} contradicts the group of --in, {group}")


def _lie_group_from(args, factors: int | None = None) -> GroupSpec:
    """``_group_from`` for the commands whose work grows with lie_dim:
    groups above LIE_DIM_CAP and Z^1 systems of more than
    COCYCLE_ROWS_CAP rows are refused before any work."""
    group = _group_from(args, factors)
    if group.lie_dim > LIE_DIM_CAP:
        raise ResourceLimitError(
            f"{group.family}({group.rank}) has Lie dimension {group.lie_dim}, "
            f"above the cap of {LIE_DIM_CAP}"
        )
    rows = group.factors * (group.factors - 1) // 2 * group.lie_dim
    if rows > COCYCLE_ROWS_CAP:
        raise ResourceLimitError(f"Z1 system of {rows} rows exceeds cap {COCYCLE_ROWS_CAP}")
    return group


def _parse_json(text: str, where: str):
    try:
        return json.loads(text)
    except RecursionError:  # nesting deeper than the decoder can follow
        raise DomainError(f"{where}: JSON nested too deeply") from None


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read(), path)


def _write_json(path: str | None, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse lattice vector {text!r}") from exc


def _parse_exps(text: str, group: GroupSpec):
    return stored_key(exponents_from_json(_parse_json(text, "--exps"), "--exps"), group)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="toruschar", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="rewrite an invariant in trace generators")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile")

    p = sub.add_parser("expand", help="expand a generator polynomial to Laurent form")
    _add_group_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile")

    p = sub.add_parser("bracket", help="Poisson bracket of two trace symbols")
    _add_group_flags(p, factors=False)
    p.add_argument("--a", required=True, help="lattice vector, e.g. 1,0")
    p.add_argument("--b", required=True, help="lattice vector, e.g. 0,1")
    p.add_argument("--c", default="1", help="trace-form multiple (rational)")
    p.add_argument("--extrapolated", action="store_true",
                   help="allow the oracle-validated GL extrapolation")
    p.add_argument("--out", dest="outfile")

    p = sub.add_parser("verify-bracket", help="bracket oracle agreement suite")
    _add_group_flags(p, factors=False)
    p.add_argument("--c", default="1")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--extrapolated", action="store_true")

    p = sub.add_parser("verify-jacobi", help="Jacobi defect suite")
    _add_group_flags(p, factors=False)
    p.add_argument("--c", default="1")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("cohomology", help="Z^1/B^1/H^1 dimensions")
    _add_group_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile",
                   help="JSON list of N eigenvalue-parameter vectors (rational strings)")

    p = sub.add_parser("killing", help="Killing/trace form ratio")
    _add_group_flags(p, factors=False)

    p = sub.add_parser("structure-constants", help="bracket table export")
    _add_group_flags(p, factors=False)
    p.add_argument("--c", default="1")
    p.add_argument("--cutoff", type=int, default=1)
    p.add_argument("--extrapolated", action="store_true")
    p.add_argument("--out", dest="outfile")

    p = sub.add_parser("orbit-sum", help="Weyl orbit sum of a monomial")
    _add_group_flags(p)
    p.add_argument("--exps", required=True, help='exponent rows as JSON, e.g. "[[1,0],[0,1]]"')
    p.add_argument("--out", dest="outfile")

    p = sub.add_parser("level", help="level of a monomial or polynomial")
    _add_group_flags(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--exps", help="exponent rows as JSON")
    source.add_argument("--in", dest="infile", help="LaurentPoly JSON file")

    return top


def _cmd_decompose(args) -> int:
    poly = LaurentPoly.from_json(_read_json(args.infile))
    gen = decompose(poly, poly.group)
    _write_json(args.outfile, gen.to_json())
    return 0


def _cmd_expand(args) -> int:
    group = _group_from(args)
    gen = GeneratorPoly.from_json(_read_json(args.infile), group)
    poly = expand(gen, group)
    _write_json(args.outfile, poly.to_json())
    return 0


def _cmd_bracket(args) -> int:
    group = _group_from(args, factors=2)
    c = parse_scalar(read_rational, args.c)
    a, b = _parse_vec(args.a), _parse_vec(args.b)
    for flag, vec in (("--a", a), ("--b", b)):
        if len(vec) != 2:
            raise DomainError(f"{flag} must have 2 entries, got {len(vec)}")
    br = bracket_symbols(a, b, group, c, extrapolated_gl=args.extrapolated)
    print(br)
    if args.outfile:
        _write_json(args.outfile, br.to_json())
    return 0


def _cmd_verify_bracket(args) -> int:
    group = _lie_group_from(args, factors=2)
    res = bracket_agreement(
        group,
        trials=args.trials,
        seed=args.seed,
        window=args.window,
        tol=args.tol,
        c=parse_scalar(read_rational, args.c),
        extrapolated_gl=args.extrapolated,
    )
    print(
        f"{res['group']}: {res['checked']} checks over {res['pairs']} pairs, "
        f"max relative error {res['max_rel_err']:.3e} (tol {res['tol']:.1e})"
    )
    if res["ok"]:
        return 0
    # A witness: the same run cut after the worst trial gives the same error.
    argv = ["toruschar", "verify-bracket", "--family", args.family, "--rank", str(args.rank),
            "--c", args.c, "--trials", str(res["worst_trial"] + 1), "--seed", str(args.seed),
            "--tol", repr(args.tol), "--window", str(args.window)]
    if args.extrapolated:
        argv.append("--extrapolated")
    a, b = res["worst_pair"]
    print(f"{shlex.join(argv)}  # worst: {{tau{a}, tau{b}}} at trial {res['worst_trial'] + 1}, "
          f"exact {res['worst_bracket']}, B {res['worst_size']:.3e}", file=sys.stderr)
    return 1


def _cmd_verify_jacobi(args) -> int:
    group = _group_from(args, factors=2)
    res = jacobi_suite(group, trials=args.trials, seed=args.seed,
                       c=parse_scalar(read_rational, args.c))
    head = f"{res['group']}: {res['trials']} triples, defect mode: {res['mode']}"
    if res["ok"]:  # every defect is 0 on X_G^0(Z^2), and so is its largest value there
        print(f"{head}, max numeric defect 0.000e+00")
        return 0
    k = res["first_trial"] + 1  # the same run cut after triple k ends at it
    print(f"{head} at triple {k}")
    argv = ["toruschar", "verify-jacobi", "--family", args.family, "--rank", str(args.rank),
            "--c", args.c, "--trials", str(k), "--seed", str(args.seed)]
    taus = ", ".join(f"tau{a}" for a in res["first_triple"])
    print(f"{shlex.join(argv)}  # first nonzero: {taus} at triple {k}", file=sys.stderr)
    return 1


def _eigenvalue_columns(data) -> list[list[GaussRat]]:
    """The ``cohomology --in`` document: a list of lists of real numbers or
    rational strings."""
    columns = []
    for j, col in enumerate(json_check(data, list, "")):
        column = []
        for i, v in enumerate(json_check(col, list, f"[{j}]")):
            try:
                if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                    raise ValueError
                column.append(GaussRat(read_rational(str(v))))
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"[{j}][{i}]: not a number: {v!r}") from None
        columns.append(column)
    return columns


def _cmd_cohomology(args) -> int:
    group = _lie_group_from(args)
    if args.infile:
        columns = _eigenvalue_columns(_read_json(args.infile))
        if len(columns) != group.factors:
            raise DomainError(f"expected {group.factors} generator vectors")
        gens = [torus_matrix(group, col) for col in columns]
    else:
        rng = random.Random(args.seed)
        pt = random_torus_point(group, rng, exact=True)
        gens = [torus_matrix(group, pt.column(j)) for j in range(1, group.factors + 1)]
    z1, b1, h1 = cohomology_dims(group, gens)
    print(f"Z1 = {z1}, B1 = {b1}, H1 = {h1}")
    return 0


def _cmd_killing(args) -> int:
    if args.family is not None:
        group = _lie_group_from(args, factors=1)
        print(killing_ratio(group))
        return 0
    table = killing_table()
    for row in table["rows"]:
        name = f"{row['family']}({row['rank']})"
        print(
            f"{name:11s} matrix size {row['matrix_size']}: ratio {row['ratio']} "
            f"(expected {row['expected']})"
        )
    return 0 if table["ok"] else 1


def _cmd_structure_constants(args) -> int:
    group = _group_from(args, factors=2)
    table = structure_constants(group, parse_scalar(read_rational, args.c), args.cutoff,
                                extrapolated_gl=args.extrapolated)
    _write_json(args.outfile, table)
    return 0


def _cmd_orbit_sum(args) -> int:
    group = _group_from(args)
    m = _parse_exps(args.exps, group)
    poly = orbit_sum(m, group)
    _write_json(args.outfile, poly.to_json())
    return 0


def _cmd_level(args) -> int:
    if args.infile:
        poly = LaurentPoly.from_json(_read_json(args.infile))
        _refuse_other_group(args, poly.group)
        print(level_of_poly(poly, poly.group))
        return 0
    if not args.exps:
        raise DomainError("provide --exps or --in")
    group = _group_from(args)
    m = _parse_exps(args.exps, group)
    print(level_of_monomial(m, group))
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "expand": _cmd_expand,
    "bracket": _cmd_bracket,
    "verify-bracket": _cmd_verify_bracket,
    "verify-jacobi": _cmd_verify_jacobi,
    "cohomology": _cmd_cohomology,
    "killing": _cmd_killing,
    "structure-constants": _cmd_structure_constants,
    "orbit-sum": _cmd_orbit_sum,
    "level": _cmd_level,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NoGLFormulaError:
        # The library's message names its keyword; name what this command takes.
        hint = ("pass --extrapolated for the oracle-validated extrapolation"
                if "extrapolated" in args else f"{args.command} takes no GL group")
        print(f"error: no GL bracket formula; {hint}", file=sys.stderr)
        return 2
    except (ResourceLimitError, OSError, ValueError, ZeroDivisionError) as exc:
        # bad input: DomainError, StructureError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
