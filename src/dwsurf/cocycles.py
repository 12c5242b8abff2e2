"""Normalized 2-cocycles with values in roots of unity.

All cocycle arithmetic is exact: a value exp(2*pi*i*k/N) is stored as the
integer exponent k modulo a common order N, and the cocycle identity, all
coboundary manipulation and regularity scans are integer computations.
A histogram of exponents, sum_k counts[k] zeta_N^k, reduces to an exact
integer modulo the cyclotomic polynomial Phi_N (cyclotomic_integer); the
direct, state-sum and labeling routes end there.  Complex embeddings happen
only in the algebra layer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .groups import FiniteGroup, build_group, conjugacy_classes
from .memo import cocycle_key, shared


class CocycleError(ValueError):
    """Invalid cocycle data or unsupported operation."""


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2*pi*i*numerator/order), kept in lowest terms with 0 <= numerator < order."""

    numerator: int
    order: int

    def __post_init__(self):
        if self.order <= 0:
            raise CocycleError(f"root order must be positive, got {self.order}")
        k = self.numerator % self.order
        g = math.gcd(k, self.order)
        object.__setattr__(self, "numerator", k // g)
        object.__setattr__(self, "order", self.order // g)

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(0, 1)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.order, other.order)
        return RootOfUnity(self.numerator * (n // self.order) + other.numerator * (n // other.order), n)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.numerator, self.order)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.numerator * k, self.order)

    @property
    def value(self) -> complex:
        return np.exp(2j * np.pi * self.numerator / self.order)

    def __repr__(self):
        return f"RootOfUnity({self.numerator}/{self.order})"


def _divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list, list]:
    """Quotient and remainder of integer polynomials (lowest degree first) by
    a monic divisor, in Python ints."""
    num, m = list(num), len(den) - 1
    quot = [0] * max(len(num) - m, 0)
    for i in range(len(num) - 1 - m, -1, -1):
        q = quot[i] = num[i + m]
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    return quot, num[:m]


@cache
def cyclotomic_polynomial(N: int) -> tuple:
    """Integer coefficients of Phi_N, lowest degree first: x^N - 1 divided by
    Phi_d for every proper divisor d of N."""
    poly = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            poly, _ = _divmod_monic(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def cyclotomic_integer(counts: Sequence[int], route: str) -> int:
    """The integer sum_k counts[k] zeta_N^k, N = len(counts), exactly.

    The remainder modulo Phi_N is the canonical form in Z[zeta_N]; it is a
    constant exactly when the sum is an integer.  Otherwise the histogram did
    not come from a cocycle, and the error names the route that produced it.
    """
    _, rem = _divmod_monic([int(k) for k in counts], cyclotomic_polynomial(len(counts)))
    if any(rem[1:]):
        raise CocycleError(f"{route}: the sum of roots of unity of order {len(counts)} "
                           f"is not an integer (remainder {rem} modulo Phi_{len(counts)})")
    return rem[0]


class CocycleCheck(NamedTuple):
    """Verdict of verify_cocycle: ok, or the first violation found."""

    ok: bool
    kind: str | None = None       # 'normalization' | 'cocycle'
    witness: tuple | None = None  # (g,) or (g1, g2, g3)


@dataclass(frozen=True, eq=False)
class TwoCocycle:
    """An F*-valued 2-cocycle on a finite group, stored as exact exponents.

    ``exps[g1, g2]`` holds k with c(g1, g2) = exp(2*pi*i*k/order).
    """

    group: FiniteGroup
    order: int
    exps: np.ndarray
    name: str = ""

    def __post_init__(self):
        n = self.group.order
        e = np.ascontiguousarray(np.asarray(self.exps, dtype=np.int64))
        if self.order <= 0:
            raise CocycleError(f"cocycle order must be positive, got {self.order}")
        if e.shape != (n, n):
            raise CocycleError(f"cocycle table must be {n}x{n}, got {e.shape}")
        if e.min() < 0 or e.max() >= self.order:
            raise CocycleError("cocycle exponents must lie in [0, order)")
        e.setflags(write=False)
        object.__setattr__(self, "exps", e)

    @cached_property
    def complex_table(self) -> np.ndarray:
        tab = np.exp(2j * np.pi * self.exps / self.order)
        tab.setflags(write=False)
        return tab

    def value(self, g1: int, g2: int) -> RootOfUnity:
        return RootOfUnity(int(self.exps[g1, g2]), self.order)

    @property
    def is_sign_valued(self) -> bool:
        """True when every value is +1 or -1."""
        return bool(np.all((2 * self.exps) % self.order == 0))


def verify_cocycle(c: TwoCocycle) -> CocycleCheck:
    """Check normalization and the cocycle identity exactly.

    Returns ok, or the first non-normalized g, or the first violating triple
    (g1, g2, g3) in lexicographic order.
    """
    G, exps, N = c.group, c.exps, c.order
    n = G.order
    for g in range(n):
        if exps[g, 0] % N or exps[0, g] % N:
            return CocycleCheck(False, "normalization", (g,))
    cay = G.cayley
    for g1 in range(n):
        lhs = exps[g1][:, None] + exps[cay[g1], :]
        rhs = exps[g1][cay] + exps
        bad = np.argwhere((lhs - rhs) % N != 0)
        if len(bad):
            g2, g3 = map(int, bad[0])
            return CocycleCheck(False, "cocycle", (g1, g2, g3))
    return CocycleCheck(True)


def trivial_cocycle(G: FiniteGroup) -> TwoCocycle:
    return TwoCocycle(G, 1, np.zeros((G.order, G.order), dtype=np.int64), "trivial")


def _b_exponents(G: FiniteGroup, b: Sequence[RootOfUnity]) -> tuple[np.ndarray, int]:
    if len(b) != G.order:
        raise CocycleError("b must assign a root of unity to every group element")
    if b[0].numerator % b[0].order:
        raise CocycleError("b(1) must equal 1")
    order = math.lcm(*(r.order for r in b))
    exps = np.array([r.numerator * (order // r.order) for r in b], dtype=np.int64)
    return exps, order


def coboundary(G: FiniteGroup, b: Sequence[RootOfUnity], name: str = "coboundary") -> TwoCocycle:
    """The coboundary (db)(g1,g2) = b(g1) b(g2) b(g1 g2)^-1."""
    bexp, order = _b_exponents(G, b)
    exps = (bexp[:, None] + bexp[None, :] - bexp[G.cayley]) % order
    c = TwoCocycle(G, order, exps, name)
    check = verify_cocycle(c)
    if not check.ok:  # cannot happen for a well-formed b; guards table bugs
        raise CocycleError(f"coboundary failed verification: {check}")
    return c


def twist(c: TwoCocycle, b: Sequence[RootOfUnity]) -> TwoCocycle:
    """Pointwise product c * (db); represents the same cohomology class as c."""
    db = coboundary(c.group, b)
    order = math.lcm(c.order, db.order)
    exps = (c.exps * (order // c.order) + db.exps * (order // db.order)) % order
    return TwoCocycle(c.group, order, exps, f"{c.name}*db" if c.name else "twisted")


def heisenberg_cocycle(n: int) -> TwoCocycle:
    """The bilinear cocycle c((a1,a2),(b1,b2)) = zeta_n^(a2*b1) on (Z/n)^2.

    Cohomologically nontrivial for n >= 2: its only c-regular element is the
    identity, so the twisted algebra is a single n x n matrix block.
    """
    if n < 2:
        raise CocycleError(f"heisenberg cocycle needs n >= 2, got {n}")
    G = build_group(f"product(cyclic:{n},cyclic:{n})")
    i = np.arange(n * n)
    exps = ((i % n)[:, None] * (i // n)[None, :]) % n
    c = TwoCocycle(G, n, exps, f"heisenberg:{n}")
    assert verify_cocycle(c).ok
    return c


# ---------------------------------------------------------------------------
# catalog of sign-valued cocycles

def sign_cocycles_catalog(G: FiniteGroup) -> list[TwoCocycle]:
    """Trivial plus hand-curated {+1,-1}-valued cocycles for small groups.

    Supported: Z/2, Z/4, (Z/2)^2, the dihedral group of order 8, and the
    quaternion group.  Unsupported groups get a warning and an empty list.
    """
    n = G.order
    tables: list[tuple[str, np.ndarray]] = []
    if G.name == "cyclic:2":
        e = np.zeros((2, 2), dtype=np.int64)
        e[1, 1] = 1
        tables.append(("z2:sign", e))
    elif G.name == "cyclic:4":
        i = np.arange(4)
        tables.append(("z4:carry", ((i[:, None] + i[None, :]) >= 4).astype(np.int64)))
    elif G.name == "product(cyclic:2,cyclic:2)":
        i = np.arange(4)
        tables.append(("heisenberg:2", ((i % 2)[:, None] * (i // 2)[None, :]) % 2))
        tables.append(("klein4:diag", ((i // 2)[:, None] * (i // 2)[None, :]) % 2))
    elif G.name == "dihedral:8":
        rot, ref = np.arange(8) % 4, np.arange(8) // 4
        minus = ((ref[:, None] == 0) & (rot[:, None] + rot[None, :] >= 4)) | (
            (ref[:, None] == 1) & (rot[:, None] < rot[None, :]))
        tables.append(("d8:lift", minus.astype(np.int64)))
    elif G.name == "quaternion:8":
        x = (np.arange(8) >= 4).astype(np.int64)          # kernel {1,-1,i,-i}
        y = np.isin(np.arange(8), (2, 3, 6, 7)).astype(np.int64)  # kernel {1,-1,j,-j}
        tables.append(("q8:cup", (x[:, None] * y[None, :]) % 2))
    else:
        warnings.warn(f"no sign-valued cocycle catalog for group {G.name!r}", stacklevel=2)
        return []
    out = [trivial_cocycle(G)]
    for name, exps in tables:
        c = TwoCocycle(G, 2, exps, name)
        check = verify_cocycle(c)
        if not check.ok:
            raise CocycleError(f"catalog cocycle {name} failed verification: {check}")
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# c-regularity

def c_regular_elements(G: FiniteGroup, c: TwoCocycle) -> np.ndarray:
    """Boolean mask of elements g with c(g,h) = c(h,g) for every commuting h."""
    cay = G.cayley
    commutes = cay == cay.T
    symmetric = (c.exps - c.exps.T) % c.order == 0
    return ~np.any(commutes & ~symmetric, axis=1)


def c_regular_count(G: FiniteGroup, c: TwoCocycle) -> int:
    """Number of conjugacy classes consisting of c-regular elements.

    Regularity is a class function for any true cocycle; a table that breaks
    this is rejected, since it signals corrupted input.
    """
    return shared(("c_regular_count", *cocycle_key(c)), lambda: _c_regular_count(G, c))


def _c_regular_count(G: FiniteGroup, c: TwoCocycle) -> int:
    regular = c_regular_elements(G, c)
    classes = conjugacy_classes(G)
    count = 0
    for cls in range(classes.count):
        flags = regular[classes.members(cls)]
        if flags.any() != flags.all():
            raise CocycleError(
                f"c-regularity is not constant on conjugacy class {cls}; "
                "the cocycle table is inconsistent")
        count += int(flags.all())
    return count


# ---------------------------------------------------------------------------
# text format: header 'order N', then one line 'i j k' per table entry

def write_cocycle_file(c: TwoCocycle, path) -> None:
    n = c.group.order
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"order {c.order}\n")
        for i in range(n):
            for j in range(n):
                fh.write(f"{i} {j} {int(c.exps[i, j])}\n")


def read_cocycle_file(path, G: FiniteGroup, name: str = "") -> TwoCocycle:
    """Parse the text format; every malformed line is rejected by number."""
    n = G.order
    with open(path, encoding="utf-8") as fh:
        lines = [(num, ln.strip()) for num, ln in enumerate(fh, 1) if ln.strip()]
    header = lines[0][1].split() if lines else []
    if len(header) != 2 or header[0] != "order" or not header[1].isdecimal() or int(header[1]) < 1:
        raise CocycleError("cocycle file must start with an 'order N' header, N >= 1")
    order = int(header[1])
    exps = np.full((n, n), -1, dtype=np.int64)
    for num, ln in lines[1:]:
        try:
            i, j, k = map(int, ln.split())
        except ValueError:
            raise CocycleError(f"line {num}: expected three integers 'i j k', got {ln!r}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise CocycleError(f"line {num}: index pair ({i}, {j}) is outside [0, {n})")
        if exps[i, j] >= 0:
            raise CocycleError(f"line {num}: pair ({i}, {j}) is given twice")
        exps[i, j] = k % order
    if (exps < 0).any():
        raise CocycleError("cocycle file does not cover every pair (i, j)")
    c = TwoCocycle(G, order, exps, name or "file")
    check = verify_cocycle(c)
    if not check.ok:
        raise CocycleError(f"cocycle file failed verification: {check}")
    return c
