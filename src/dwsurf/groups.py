"""Finite groups as dense multiplication tables over element indices."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .memo import group_key, shared

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

    ``cayley[i, j]`` is the index of the product, ``inverse[i]`` the index of
    the inverse.  The tables are fully verified on construction (identity,
    inverses, associativity), then frozen, so hot loops can index without
    checks.  All other modules speak in these element indices.
    """

    name: str
    order: int
    cayley: np.ndarray
    inverse: np.ndarray

    def __post_init__(self):
        n = self.order
        cay = np.ascontiguousarray(np.asarray(self.cayley, dtype=np.int64))
        if n <= 0:
            raise GroupError(f"order must be positive, got {n}")
        if cay.shape != (n, n):
            raise GroupError(f"cayley table must be {n}x{n}, got {cay.shape}")
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
        # full associativity check, O(n^3) but vectorized
        if not np.array_equal(cay[cay, :], cay[:, cay]):
            raise GroupError("multiplication table is not associative")
        cay.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "cayley", cay)
        object.__setattr__(self, "inverse", inv)

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.cayley, other.cayley)

    def __hash__(self):
        return hash((self.order, self.cayley.tobytes()))

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conjugate(self, h: int, g: int) -> int:
        """h g h^-1."""
        return int(self.cayley[self.cayley[h, g], self.inverse[h]])

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = int(self.cayley[x, g])
            k += 1
        return k


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
    return shared(("conjugacy_classes", *group_key(G)), lambda: _conjugacy_classes(G))


def _conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    n = G.order
    cay, inv = G.cayley, G.inverse
    class_of = np.full(n, -1, dtype=np.int64)
    reps, sizes = [], []
    h = np.arange(n)
    for g in range(n):
        if class_of[g] >= 0:
            continue
        orbit = np.unique(cay[cay[h, g], inv[h]])
        class_of[orbit] = len(reps)
        reps.append(g)
        sizes.append(len(orbit))
    class_of.setflags(write=False)
    return ConjugacyClasses(class_of, tuple(reps), tuple(sizes))


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
    cay = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(f"cyclic:{n}", n, cay, _inverses_of(cay))


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order; element i + m*j is r^i s^j."""
    if order <= 0 or order % 2:
        raise GroupError(f"dihedral order must be a positive even integer, got {order}")
    _check_cap(order)
    m = order // 2
    cay = np.empty((order, order), dtype=np.int64)
    for i1, j1, i2, j2 in itertools.product(range(m), (0, 1), range(m), (0, 1)):
        i = (i1 + i2) % m if j1 == 0 else (i1 - i2) % m
        cay[i1 + m * j1, i2 + m * j2] = i + m * (j1 ^ j2)
    return FiniteGroup(f"dihedral:{order}", order, cay, _inverses_of(cay))


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8; indices 0..7 are 1,-1,i,-i,j,-j,k,-k."""
    # unit table over axes (e,i,j,k): entry (axis, sign)
    unit = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (2, 0): (2, 0), (3, 0): (3, 0),
        (1, 1): (0, 1), (2, 2): (0, 1), (3, 3): (0, 1),
        (1, 2): (3, 0), (2, 1): (3, 1),
        (2, 3): (1, 0), (3, 2): (1, 1),
        (3, 1): (2, 0), (1, 3): (2, 1),
    }
    cay = np.empty((8, 8), dtype=np.int64)
    for a1, s1, a2, s2 in itertools.product(range(4), (0, 1), range(4), (0, 1)):
        a, s = unit[(a1, a2)]
        cay[2 * a1 + s1, 2 * a2 + s2] = 2 * a + (s ^ s1 ^ s2)
    return FiniteGroup("quaternion:8", 8, cay, _inverses_of(cay))


def symmetric_group(n: int) -> FiniteGroup:
    if n <= 0:
        raise GroupError(f"symmetric degree must be positive, got {n}")
    if n > 5:
        raise GroupError(f"symmetric:{n} is beyond desk scale (order {math.factorial(n)})")
    perms = sorted(itertools.permutations(range(n)))  # identity comes first
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    cay = np.empty((order, order), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            cay[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return FiniteGroup(f"symmetric:{n}", order, cay, _inverses_of(cay))


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    na, nb = A.order, B.order
    order = na * nb
    _check_cap(order)
    cay = (A.cayley[:, None, :, None] * nb + B.cayley[None, :, None, :]).reshape(order, order)
    name = f"product({A.name},{B.name})"
    return FiniteGroup(name, order, cay, _inverses_of(cay))


def _check_cap(order: int) -> None:
    """Refuse an order above MAX_ORDER before its O(order^3) table check."""
    if order > MAX_ORDER:
        raise GroupError(f"group order {order} exceeds the cap of {MAX_ORDER}")


def _inverses_of(cay: np.ndarray) -> np.ndarray:
    rows, cols = np.nonzero(np.asarray(cay) == 0)
    inv = np.empty(cay.shape[0], dtype=np.int64)
    inv[rows] = cols
    return inv


# ---------------------------------------------------------------------------
# descriptor strings: cyclic:4, dihedral:8, quaternion:8, symmetric:3,
# product(<spec>,<spec>) with arbitrary nesting

def build_group(spec: str) -> FiniteGroup:
    s = spec.replace(" ", "")
    return shared(("build_group", s), lambda: _build_group(s, spec))


def _build_group(s: str, spec: str) -> FiniteGroup:
    if not s:
        raise GroupError("empty group descriptor")
    if s.startswith("product(") and s.endswith(")"):
        left, right = _split_product(s[len("product("):-1])
        G = direct_product(build_group(left), build_group(right))
        return G
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
