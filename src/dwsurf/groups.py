"""Finite groups as dense multiplication tables over element indices.

A group is its Cayley table alone: ``FiniteGroup(name, cayley)`` derives the
order, the inverse table, a generating set and, on first use, its conjugacy
classes, and verifies the group axioms.  The builders are table formulas
(addition mod n, the r^i s^j rule, the quaternion axes and signs,
composition of permutations), and descriptor strings such as
``product(dihedral:8,cyclic:3)`` name them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .memo import shared

# Everything downstream is cubic-to-exponential in the order, so the cap keeps
# all validation suites at desk scale.  The cyclic and dihedral builders and
# direct_product apply it before building a table; symmetric_group has its own
# degree bound, which admits symmetric(5) (order 120).
MAX_ORDER = 64


class GroupError(ValueError):
    """Invalid group table or unsupported construction."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on the index set 0..order-1, with 0 the identity.

    ``cayley[i, j]`` is the index of the product; ``order``, the inverse
    table ``inverse[i]`` and a generating set ``generators`` are derived from
    it.  The table is fully verified on construction (identity, inverses,
    associativity), then frozen, so hot loops can index without checks.
    Associativity is checked on the generators only, in O(order^2) work per
    generator (Light's test).  All other modules speak in these element
    indices.
    """

    name: str
    cayley: np.ndarray
    order: int = field(init=False)
    inverse: np.ndarray = field(init=False)
    generators: tuple = field(init=False)

    def __post_init__(self):
        cay = np.ascontiguousarray(np.asarray(self.cayley, dtype=np.int64))
        if cay.ndim != 2 or cay.shape[0] != cay.shape[1]:
            raise GroupError(f"cayley table must be square, got shape {cay.shape}")
        n = cay.shape[0]
        if n == 0:
            raise GroupError("cayley table is empty; a group has at least the identity")
        if cay.min() < 0 or cay.max() >= n:
            raise GroupError("cayley table entries out of range")
        idx = np.arange(n)
        if not (np.array_equal(cay[0], idx) and np.array_equal(cay[:, 0], idx)):
            raise GroupError("index 0 is not a two-sided identity")
        # one inverse per row; group axioms make the zero unique
        rows, cols = np.nonzero(cay == 0)
        if len(rows) != n:
            raise GroupError("inverse structure broken: wrong number of unit products")
        inv = np.empty(n, dtype=np.int64)
        inv[rows] = cols
        if not np.array_equal(cay[inv, idx], np.zeros(n, dtype=np.int64)):
            raise GroupError("left and right inverses disagree")
        # Light's test: x(sy) = (xs)y for every generator s makes the table
        # associative, since the s that pass it form a submagma
        gens = _generating_set(cay)
        for s in gens:
            if not np.array_equal(cay[:, cay[s]], cay[cay[:, s], :]):
                raise GroupError("multiplication table is not associative")
        cay.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "cayley", cay)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "inverse", inv)
        object.__setattr__(self, "generators", gens)

    @cached_property
    def classes(self) -> ConjugacyClasses:
        """The conjugacy classes, built once per group: each g goes to the
        least element h g h^-1 of its class, read off the table in one gather."""
        cay, h = self.cayley, np.arange(self.order)
        least = cay[cay[h[:, None], h], self.inverse[:, None]].min(axis=0)
        reps = least == h                                # g is its class's least element
        class_of = (np.cumsum(reps) - 1)[least]
        class_of.setflags(write=False)
        return ConjugacyClasses(class_of, tuple(np.flatnonzero(reps).tolist()),
                                tuple(np.bincount(class_of).tolist()))

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.cayley, other.cayley)

    def __hash__(self):
        return hash((self.order, self.cayley.tobytes()))

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _generating_set(cay: np.ndarray) -> tuple:
    """Greedy generators of a table with identity 0: take the least element
    not yet reached, then close the reached set under right multiplication by
    the generators so far.  Every reached element is a product of
    generators, so they generate the whole table."""
    reached = np.zeros(len(cay), dtype=bool)
    reached[0] = True
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while len(frontier):
            hit = np.zeros_like(reached)
            hit[cay[frontier[:, None], gens]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached |= hit
    return tuple(gens)


@dataclass(frozen=True, eq=False)
class ConjugacyClasses:
    """Partition of a group's elements into conjugacy classes.

    ``class_of[g]`` is the class id of element g; class ids are assigned in
    increasing order of the minimal element, so class 0 is the identity class.
    """

    class_of: np.ndarray
    representatives: tuple
    sizes: tuple

    @property
    def count(self) -> int:
        return len(self.representatives)

    def members(self, cls: int) -> np.ndarray:
        return np.flatnonzero(self.class_of == cls)


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    return G.classes


def involution_set(G: FiniteGroup) -> np.ndarray:
    """All g with g*g = 1, the identity included."""
    return np.flatnonzero(np.diagonal(G.cayley) == 0)


# ---------------------------------------------------------------------------
# builders

def cyclic_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise GroupError(f"cyclic order must be positive, got {n}")
    _check_cap(n)
    idx = np.arange(n)
    return FiniteGroup(f"cyclic:{n}", (idx[:, None] + idx[None, :]) % n)


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order; element i + m*j is r^i s^j,
    and r^i1 s^j1 r^i2 s^j2 = r^(i1 + (-1)^j1 i2) s^(j1 xor j2)."""
    if order <= 0 or order % 2:
        raise GroupError(f"dihedral order must be a positive even integer, got {order}")
    _check_cap(order)
    m = order // 2
    i, j = np.arange(order) % m, np.arange(order) // m
    cay = (i[:, None] + (1 - 2 * j[:, None]) * i[None, :]) % m + m * (j[:, None] ^ j[None, :])
    return FiniteGroup(f"dihedral:{order}", cay)


# sign of the product of the unit quaternions (1, i, j, k)[a1] (1, i, j, k)[a2],
# whose axis is a1 xor a2: i j = k, j i = -k, i i = -1, ...
_QUATERNION_SIGN = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8; indices 0..7 are 1,-1,i,-i,j,-j,k,-k,
    so element 2*a + s is (-1)^s times the unit on axis a."""
    a, s = np.arange(8) // 2, np.arange(8) % 2
    sign = _QUATERNION_SIGN[a[:, None], a[None, :]] ^ s[:, None] ^ s[None, :]
    return FiniteGroup("quaternion:8", 2 * (a[:, None] ^ a[None, :]) + sign)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of 0..n-1 in lexicographic order (the identity first);
    the product p q is the composition x -> p[q[x]]."""
    if n <= 0:
        raise GroupError(f"symmetric degree must be positive, got {n}")
    if n > 5:
        raise GroupError(f"symmetric:{n} is beyond desk scale (order {math.factorial(n)})")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    # base-n codes increase with the lexicographic order, so a lookup table
    # turns each composed permutation back into its index
    weights = n ** np.arange(n - 1, -1, -1)
    index = np.zeros(n ** n, dtype=np.int64)
    index[perms @ weights] = np.arange(len(perms))
    return FiniteGroup(f"symmetric:{n}", index[perms[:, perms] @ weights])


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    na, nb = A.order, B.order
    order = na * nb
    _check_cap(order)
    cay = (A.cayley[:, None, :, None] * nb + B.cayley[None, :, None, :]).reshape(order, order)
    return FiniteGroup(f"product({A.name},{B.name})", cay)


def _check_cap(order: int) -> None:
    """Refuse an order above MAX_ORDER before its table is built and checked."""
    if order > MAX_ORDER:
        raise GroupError(f"group order {order} exceeds the cap of {MAX_ORDER}")


# ---------------------------------------------------------------------------
# descriptor strings: cyclic:4, dihedral:8, quaternion:8, symmetric:3,
# product(<spec>,<spec>) with arbitrary nesting

def build_group(spec: str) -> FiniteGroup:
    s = spec.replace(" ", "")
    return shared(lambda: ("build_group", s), lambda: _build_group(s, spec))


def _build_group(s: str, spec: str) -> FiniteGroup:
    if not s:
        raise GroupError("empty group descriptor")
    if s.startswith("product(") and s.endswith(")"):
        left, right = _split_product(s[len("product("):-1])
        return direct_product(build_group(left), build_group(right))
    head, sep, arg = s.partition(":")
    if not sep:
        raise GroupError(f"cannot parse group descriptor {spec!r}")
    try:
        k = int(arg)
    except ValueError:
        raise GroupError(f"bad numeric argument in group descriptor {spec!r}") from None
    if head == "cyclic":
        return cyclic_group(k)
    if head == "dihedral":
        return dihedral_group(k)
    if head == "quaternion":
        if k != 8:
            raise GroupError("only quaternion:8 is supported")
        return quaternion_group()
    if head == "symmetric":
        return symmetric_group(k)
    raise GroupError(f"unknown group family {head!r}")


def _split_product(inner: str) -> tuple[str, str]:
    depth = 0
    for pos, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return inner[:pos], inner[pos + 1:]
    raise GroupError(f"cannot split product descriptor {inner!r}")
