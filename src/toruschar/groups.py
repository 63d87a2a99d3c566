"""Descriptors for the classical group families.

A ``GroupSpec`` pins down a classical group G together with the number N of
commuting generators under consideration: ``family`` in {GL, SL, Sp, SOodd,
SOeven}, ``rank`` the torus rank n, ``factors`` the number N of Z-factors.
All derived quantities (matrix size, Lie-algebra dimension, Weyl order) live
here so the rest of the library never hard-codes them.
"""

from __future__ import annotations

import math
from functools import total_ordering

from .errors import DomainError, StructureError
from .jsonio import json_check, json_field

FAMILIES = ("GL", "SL", "Sp", "SOodd", "SOeven")

_CLI_NAMES = {
    "gl": "GL",
    "sl": "SL",
    "sp": "Sp",
    "so-odd": "SOodd",
    "so-even": "SOeven",
}


class Record:
    """Base of the immutable value classes ``GroupSpec`` and
    ``weyl.SignedPerm``.  ``_freeze`` sets the fields named in ``_fields``
    and keeps their values as the tuple ``_key``, which ``==``, ``hash``,
    ``repr`` and pickling read; ``==`` holds only between instances of one
    class.  Every assignment or deletion raises ``AttributeError``."""

    __slots__ = ("_key",)
    _fields: tuple[str, ...] = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key


@total_ordering
class GroupSpec(Record):
    """G and N: ``family``, the torus ``rank`` n and the number ``factors``
    of Z-factors.  Ordered as the tuple (family, rank, factors), whose hash
    it keeps, computed once, as every layer caches on the group."""

    _fields = ("family", "rank", "factors")
    __slots__ = _fields + ("_hash",)
    family: str
    rank: int
    factors: int

    def __init__(self, family: str, rank: int, factors: int = 1):
        if family not in FAMILIES:
            raise StructureError(f"unknown family {family!r}")
        if rank < 1:
            raise StructureError("rank must be >= 1")
        if factors < 1:
            raise StructureError("factors must be >= 1")
        self._freeze(family, rank, factors)
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other):
        return self._key < other._key if other.__class__ is self.__class__ else NotImplemented

    # -- derived quantities -------------------------------------------

    @property
    def matrix_size(self) -> int:
        n = self.rank
        if self.family in ("GL", "SL"):
            return n
        if self.family == "Sp":
            return 2 * n
        if self.family == "SOodd":
            return 2 * n + 1
        return 2 * n  # SOeven

    @property
    def lie_dim(self) -> int:
        n = self.rank
        if self.family == "GL":
            return n * n
        if self.family == "SL":
            return n * n - 1
        if self.family == "Sp":
            return n * (2 * n + 1)
        m = self.matrix_size
        return m * (m - 1) // 2  # SO(m)

    @property
    def lie_rank(self) -> int:
        """Dimension of the maximal torus (n - 1 for SL, n otherwise)."""
        return self.rank - 1 if self.family == "SL" else self.rank

    @property
    def weyl_order(self) -> int:
        """|W|: n! for GL and SL, n! 2^n for Sp and odd SO, n! 2^(n-1)
        for even SO.  No orbit reads it: ``weyl._images`` takes the
        stabiliser order from the orbit key, prod(m_i!) over the
        multiplicities of its distinct rows times 2^z for z zero rows
        (2^(z-1) in even SO when z >= 1, no power of 2 in GL and SL)."""
        n = self.rank
        if self.family in ("GL", "SL"):
            return math.factorial(n)
        if self.family in ("Sp", "SOodd"):
            return math.factorial(n) << n
        return math.factorial(n) << (n - 1)  # SOeven

    @property
    def signed(self) -> bool:
        """Whether the Weyl group contains sign changes."""
        return self.family not in ("GL", "SL")

    @property
    def allows_half_weights(self) -> bool:
        return self.family == "SOeven"

    # -- index checks ---------------------------------------------------

    def require_factor(self, j: int) -> None:
        """Refuse a 1-based factor index outside 1..factors (indexing
        would wrap 0 and negative ones)."""
        if not 1 <= j <= self.factors:
            raise DomainError(f"factor index {j} outside 1..{self.factors}")

    def require_position(self, i: int, j: int) -> None:
        """Refuse x_ij with row i outside 1..rank or factor j outside
        1..factors."""
        if not 1 <= i <= self.rank:
            raise DomainError(f"row index {i} outside 1..{self.rank}")
        self.require_factor(j)

    # -- (de)serialization helpers --------------------------------------

    def to_json(self) -> dict:
        return {"family": self.family, "rank": self.rank, "factors": self.factors}

    @staticmethod
    def from_json(obj: dict) -> "GroupSpec":
        json_check(obj, dict, "group")
        return GroupSpec(
            json_field(obj, "family", str, "group"),
            json_field(obj, "rank", int, "group"),
            json_field(obj, "factors", int, "group"),
        )

    @staticmethod
    def from_cli(family: str, rank: int, factors: int = 1) -> "GroupSpec":
        key = family.lower()
        if key not in _CLI_NAMES:
            raise StructureError(
                f"unknown family {family!r}; expected one of {sorted(_CLI_NAMES)}"
            )
        return GroupSpec(_CLI_NAMES[key], rank, factors)

    def __str__(self) -> str:
        return f"{self.family}(rank={self.rank}, N={self.factors})"
