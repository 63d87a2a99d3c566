"""The slot classes ``GroupSpec``, ``SignedPerm`` and ``CartanMetric``
against the ``@dataclass`` declarations they replaced.

The reference classes below are those declarations, under the same names,
so their ``repr`` is the text the library must still print.  Each check
runs both on a grid of valid and invalid inputs and compares the
outcomes: value or exception type and message, ``==``, ``!=``, ``hash``,
``repr``, the order of groups, frozen fields, pickling and copying.
"""

import copy
import itertools
import operator
import pickle
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction

import pytest

from toruschar import groups, lie, weyl
from toruschar.errors import DomainError, StructureError


@dataclass(frozen=True, order=True)
class GroupSpec:
    family: str
    rank: int
    factors: int = 1

    def __post_init__(self):
        if self.family not in groups.FAMILIES:
            raise StructureError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise StructureError("rank must be >= 1")
        if self.factors < 1:
            raise StructureError("factors must be >= 1")


@dataclass(frozen=True)
class SignedPerm:
    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.signs) != n:
            raise DomainError("invalid signed permutation")
        if any(s not in (1, -1) for s in self.signs):
            raise DomainError("signs must be +-1")


@dataclass(frozen=True)
class CartanMetric:
    group: GroupSpec
    c: Fraction
    multiplier: Fraction
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.c * self.multiplier))


def _outcome(cls, args, kwargs):
    try:
        obj = cls(*args, **kwargs)
    except Exception as exc:
        return None, (type(exc), str(exc))
    return obj, repr(obj)


def _pairs(cases, new_cls, old_cls):
    """(new, old) for each valid case, after checking that every case,
    valid or not, gives the same repr or the same exception."""
    built = []
    for args, kwargs in cases:
        new, new_out = _outcome(new_cls, args, kwargs)
        old, old_out = _outcome(old_cls, args, kwargs)
        assert new_out == old_out, (args, kwargs)
        if new is not None:
            built.append((new, old))
    return built


GROUP_CASES = (
    [((f, n, k), {}) for f in groups.FAMILIES for n in (1, 2, 3) for k in (1, 2)]
    + [((f, n), {}) for f in groups.FAMILIES for n in (1, 2)]
    + [
        ((), {"family": "Sp", "rank": 2}),
        ((), {"factors": 2, "rank": 3, "family": "SOodd"}),
        (("SL",), {"rank": 2, "factors": 2}),
        (("XX", 2, 1), {}),
        (("sl", 2, 1), {}),
        (("SL", 0, 1), {}),
        (("SL", -1, 2), {}),
        (("SL", 2, 0), {}),
        (("XX", 0, 0), {}),
        (("SL", "2", 1), {}),
        (("SL", 2, None), {}),
        (("SL",), {}),
        (("SL", 2, 1, 4), {}),
        (("SL", 2), {"family": "GL"}),
        (("SL", 2), {"order": 1}),
    ]
)

ORDER_OPS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def _groups():
    return _pairs(GROUP_CASES, groups.GroupSpec, GroupSpec)


def test_group_construction_equality_hash_and_repr_match():
    pairs = _groups()
    assert len(pairs) == len(groups.FAMILIES) * 8 + 3
    for new, old in pairs:
        assert hash(new) == hash(old) == hash((old.family, old.rank, old.factors))
        assert (new.family, new.rank, new.factors) == (old.family, old.rank, old.factors)
        for name in ("matrix_size", "lie_dim", "lie_rank", "weyl_order", "signed"):
            getattr(new, name)
    for (a, a_old), (b, b_old) in itertools.product(pairs, repeat=2):
        for op in ORDER_OPS:
            assert op(a, b) == op(a_old, b_old), (a, op, b)


def test_groups_sort_as_before():
    pairs = _groups()
    random.Random(0).shuffle(pairs)
    new = sorted(p[0] for p in pairs)
    old = sorted(p[1] for p in pairs)
    assert [repr(g) for g in new] == [repr(g) for g in old]
    assert new == sorted(new, reverse=True)[::-1]


@pytest.mark.parametrize("other", [("SL", 2, 1), ["SL", 2, 1], "SL", 2, None, object()])
def test_group_compares_only_with_groups(other):
    new, old = groups.GroupSpec("SL", 2, 1), GroupSpec("SL", 2, 1)
    assert new != other and not new == other
    assert (new == other) == (old == other)
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(new, op)(other) is NotImplemented
        assert getattr(old, op)(other) is NotImplemented
    with pytest.raises(TypeError):
        new < other
    with pytest.raises(TypeError):
        iter(new)


def test_group_and_its_reference_never_compare_equal():
    # two classes, as between the reference and another dataclass
    new, old = groups.GroupSpec("SL", 2, 1), GroupSpec("SL", 2, 1)
    assert new != old and old != new
    assert new.__lt__(old) is NotImplemented


SIGNED_CASES = (
    [((perm, signs), {})
     for n in (1, 2, 3)
     for perm in itertools.permutations(range(n))
     for signs in itertools.product((1, -1), repeat=n)]
    + [
        ((), {"perm": (1, 0), "signs": (1, -1)}),
        (((), ()), {}),
        (([1, 0], [1, -1]), {}),
        (((0, 0), (1, 1)), {}),
        (((1, 2), (1, 1)), {}),
        (((0, 1), (1,)), {}),
        (((0, 1), (1, 1, 1)), {}),
        (((0, 1), (1, 0)), {}),
        (((0, 1), (2, 1)), {}),
        (((0,),), {}),
        ((None, (1,)), {}),
    ]
)


def test_signed_perm_matches_dataclass():
    pairs = _pairs(SIGNED_CASES, weyl.SignedPerm, SignedPerm)
    assert len(pairs) == 2 + 8 + 48 + 3
    for new, old in pairs:
        if isinstance(old.perm, list):
            for obj in (new, old):
                with pytest.raises(TypeError, match="unhashable"):
                    hash(obj)
        else:
            assert hash(new) == hash(old)
    for (a, a_old), (b, b_old) in itertools.product(pairs, repeat=2):
        assert (a == b) == (a_old == b_old)
        assert (a != b) == (a_old != b_old)
    ident = weyl.SignedPerm.identity(2)
    assert ident == weyl.SignedPerm((0, 1), (1, 1)) != ((0, 1), (1, 1))
    assert ident != groups.GroupSpec("SL", 2, 1)
    with pytest.raises(TypeError):
        ident < ident


def _metrics():
    cases = []
    for group in (groups.GroupSpec("GL", 2), groups.GroupSpec("SL", 3, 2),
                  groups.GroupSpec("Sp", 1), groups.GroupSpec("SOeven", 2, 2)):
        for c in (Fraction(1), Fraction(-3, 2), Fraction(7, 3)):
            mult = lie.cartan_metric(group, c).multiplier
            cases.append(((group, c, mult), {}))
    cases.append(((), {"group": groups.GroupSpec("SOodd", 1), "c": Fraction(1, 2),
                       "multiplier": Fraction(2)}))
    cases.append(((groups.GroupSpec("GL", 1), Fraction(1)), {}))
    cases.append(((groups.GroupSpec("GL", 1), Fraction(1), Fraction(1)), {"scale": 1.0}))
    cases.append(((groups.GroupSpec("GL", 1), None, Fraction(1)), {}))
    return _pairs(cases, lie.CartanMetric, CartanMetric)


def test_cartan_metric_matches_dataclass():
    pairs = _metrics()
    assert len(pairs) == 13
    for new, old in pairs:
        assert hash(new) == hash(old)
        assert new.scale == old.scale == float(old.c * old.multiplier)
    for (a, a_old), (b, b_old) in itertools.product(pairs, repeat=2):
        assert (a == b) == (a_old == b_old)
        assert (a != b) == (a_old != b_old)


def _instances():
    return [p[0] for p in _groups()[::7]] + [
        weyl.SignedPerm((1, 0, 2), (1, -1, -1)),
        weyl.SignedPerm.identity(1),
    ] + [p[0] for p in _metrics()[::4]]


REFERENCE = {"GroupSpec": GroupSpec("SL", 2), "SignedPerm": SignedPerm((0,), (1,)),
             "CartanMetric": CartanMetric(GroupSpec("GL", 1), Fraction(1), Fraction(1))}


@pytest.mark.parametrize("obj", _instances(), ids=repr)
def test_fields_are_frozen(obj):
    old = REFERENCE[type(obj).__name__]
    for name in [f.name for f in fields(old)] + ["other"]:
        for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
            with pytest.raises(AttributeError) as got:
                act(obj)
            with pytest.raises(AttributeError) as want:
                act(old)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("obj", _instances(), ids=repr)
def test_pickle_and_copy_round_trip(obj):
    for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(back) is type(obj)
        assert back == obj and hash(back) == hash(obj) and repr(back) == repr(obj)
        assert getattr(back, "scale", None) == getattr(obj, "scale", None)
