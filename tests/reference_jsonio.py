"""Reference JSON readers for Laurent and generator polynomials.

These are the bodies ``LaurentPoly.from_json`` and
``GeneratorPoly.from_json`` had before they checked types inline: every
entry, row, factor and int goes through the ``jsonio`` helpers with its
path string built in advance, and every coefficient text is parsed where
it stands.  They are the oracle for the library readers, which must
return the same terms in the same insertion order, or raise the same
exception type with the same message.
"""

from fractions import Fraction

from toruschar import sparse
from toruschar.errors import DomainError
from toruschar.generators import GeneratorPoly, q_symbol, tau_symbol
from toruschar.groups import GroupSpec
from toruschar.jsonio import json_check, json_coeff, json_field, json_ints
from toruschar.laurent import LaurentPoly, canonical_mod_relations, check_exponents
from toruschar.scalars import read_rational


def exponents_from_json(rows, path):
    doubled = []
    for i, row in enumerate(json_check(rows, list, path)):
        out = []
        for j, e in enumerate(json_check(row, list, f"{path}[{i}]")):
            if type(e) is int:
                out.append(2 * e)
                continue
            try:
                if isinstance(e, bool):  # Fraction would read True as 1
                    raise TypeError
                d = 2 * (read_rational(e) if isinstance(e, str) else Fraction(e))
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"{path}[{i}][{j}]: not a number: {e!r}") from None
            except ZeroDivisionError:  # its message is Fraction's repr, Fraction(1, 0)
                raise DomainError(f"{path}[{i}][{j}]: zero denominator in {e!r}") from None
            if d.denominator != 1:
                raise DomainError(f"{path}[{i}][{j}]: exponent {e} is not a half-integer")
            out.append(int(d))
        doubled.append(tuple(out))
    return tuple(doubled)


def laurent_from_json(obj):
    json_check(obj, dict, "")
    if "group" not in obj:
        raise DomainError("group: missing")
    group = GroupSpec.from_json(obj["group"])
    terms = {}
    for k, entry in enumerate(json_field(obj, "terms", list, "", default=[])):
        where = f"terms[{k}]"
        json_check(entry, dict, where)
        m = exponents_from_json(json_field(entry, "exps", list, where), where + ".exps")
        check_exponents(m, group)  # also for terms that cancel
        sparse.add_term(terms, canonical_mod_relations(m, group), json_coeff(entry, where))
    return LaurentPoly._trusted(group, terms)


def generator_from_json(obj, group):
    json_check(obj, dict, "")
    terms = {}
    for k, entry in enumerate(json_field(obj, "terms", list, "", default=[])):
        where = f"terms[{k}]"
        json_check(entry, dict, where)
        coeff = json_coeff(entry, where)
        syms = []
        for j, factor in enumerate(json_field(entry, "factors", list, where, default=[])):
            fwhere = f"{where}.factors[{j}]"
            json_check(factor, dict, fwhere)
            if "tau" in factor:
                kind, args = "tau", json_ints(factor["tau"], fwhere + ".tau")
            elif "q" in factor:
                raw = json_field(factor, "q", list, fwhere)
                kind, args = "q", tuple(json_ints(v, f"{fwhere}.q[{i}]") for i, v in enumerate(raw))
            else:
                raise DomainError(f"{fwhere}: unknown generator factor {factor}")
            try:
                if kind == "tau":
                    syms.append(tau_symbol(group, args))
                    continue
                sym, s = q_symbol(group, args)  # s == 0 when an alpha vanishes
            except DomainError as exc:
                raise DomainError(f"{fwhere}.{kind}: {exc}") from None
            coeff = coeff * s
            if sym is not None:
                syms.append(sym)
        sparse.add_term(terms, tuple(sorted(syms)), coeff)
    return GeneratorPoly._wrap(terms)
