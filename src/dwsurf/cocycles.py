"""Normalized 2-cocycles with values in roots of unity.

All cocycle arithmetic is exact: a value exp(2*pi*i*k/N) is stored as the
integer exponent k modulo a common order N, and the cocycle identity, all
coboundary manipulation and regularity scans are integer computations.  A
function b: G -> U(1) that twists a cocycle is given the same way, as an
exponent per element and one order.
A histogram of exponents, sum_k counts[k] zeta_N^k, reduces to an exact
integer modulo the cyclotomic polynomial Phi_N (cyclotomic_integer); the
direct, state-sum and labeling routes end there.  Complex embeddings happen
only in the algebra layer.  A cocycle is immutable and keeps what it alone
determines: whether it is sign-valued, its count of c-regular classes and
the exponent tables of the state sum's triangles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .groups import FiniteGroup, build_group


class CocycleError(ValueError):
    """Invalid cocycle data or unsupported operation."""


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
    def is_sign_valued(self) -> bool:
        """True when every value is +1 or -1; read once per cocycle."""
        return bool(np.all((2 * self.exps) % self.order == 0))

    @cached_property
    def regular_class_count(self) -> int:
        """Number of conjugacy classes of c-regular elements g, with
        c(g,h) = c(h,g) for every commuting h; counted once per cocycle.
        Regularity is a class function for any true cocycle; a table that
        breaks this is rejected, since it signals corrupted input."""
        cay, e, classes = self.group.cayley, self.exps, self.group.classes
        regular = ~np.any((cay == cay.T) & ((e - e.T) % self.order != 0), axis=1)
        sizes = np.array(classes.sizes)
        hits = np.bincount(classes.class_of[regular], minlength=classes.count)
        partial = np.flatnonzero((hits > 0) & (hits < sizes))
        if len(partial):
            raise CocycleError(
                f"c-regularity is not constant on conjugacy class {partial[0]}; "
                "the cocycle table is inconsistent")
        return int((hits == sizes).sum())

    @cached_property
    def triangle_tables(self) -> dict:
        """The state sum's triangle exponent tables by paying slots, filled
        by state_sum._edge_terms, so each is built once per cocycle."""
        return {}


def verify_cocycle(c: TwoCocycle) -> CocycleCheck:
    """Check normalization and the cocycle identity exactly.

    Returns ok, or the first non-normalized g, or the first violating triple
    (g1, g2, g3) in lexicographic order.  The identity
    c(g1, g2) + c(g1 g2, g3) = c(g1, g2 g3) + c(g2, g3) mod N is the
    associativity of the extension Z/N x_c G, which the central elements
    (k, 1) and the generators (0, s) of G generate, so Light's test checks it
    with g2 = s only, in O(n^2) work per generator.  Only a table that fails
    is scanned in full, row by row, for its first violating triple.
    """
    G, exps, N = c.group, c.exps, c.order
    bad = np.flatnonzero((exps[:, 0] % N != 0) | (exps[0] % N != 0))
    if len(bad):
        return CocycleCheck(False, "normalization", (int(bad[0]),))
    cay = G.cayley
    if all(not np.any((exps[:, s][:, None] + exps[cay[:, s], :]
                       - exps[s][None, :] - exps[:, cay[s]]) % N)
           for s in G.generators):
        return CocycleCheck(True)
    for g1 in range(G.order):
        lhs = exps[g1][:, None] + exps[cay[g1], :]
        rhs = exps[g1][cay] + exps
        bad = np.argwhere((lhs - rhs) % N != 0)
        if len(bad):
            g2, g3 = map(int, bad[0])
            return CocycleCheck(False, "cocycle", (g1, g2, g3))
    raise CocycleError("Light's test and the full scan of the cocycle identity disagree")


def trivial_cocycle(G: FiniteGroup) -> TwoCocycle:
    return TwoCocycle(G, 1, np.zeros((G.order, G.order), dtype=np.int64), "trivial")


def coboundary(G: FiniteGroup, b: Sequence[int], order: int,
               name: str = "coboundary") -> TwoCocycle:
    """The coboundary (db)(g1,g2) = b(g1) b(g2) b(g1 g2)^-1 of the function
    b(g) = exp(2*pi*i*b[g]/order), given by its exponents.

    A normalized cocycle by construction once b(1) = 1, so the table is not
    verified again.
    """
    return TwoCocycle(G, order, _coboundary_exps(G, b, order), name)


def _coboundary_exps(G: FiniteGroup, b: Sequence[int], order: int) -> np.ndarray:
    """The exponent table of db, after checking that b is a normalized
    function on G with a positive root order."""
    b = np.asarray(b, dtype=np.int64)
    if b.shape != (G.order,):
        raise CocycleError("b must assign an exponent to every group element")
    if order <= 0:
        raise CocycleError(f"root order must be positive, got {order}")
    if b[0] % order:
        raise CocycleError("b(1) must equal 1")
    return (b[:, None] + b[None, :] - b[G.cayley]) % order


def twist(c: TwoCocycle, b: Sequence[int], order: int) -> TwoCocycle:
    """Pointwise product c * (db), b(g) = exp(2*pi*i*b[g]/order); represents
    the same cohomology class as c, with values of order lcm(c.order, order)."""
    db = _coboundary_exps(c.group, b, order)
    n = math.lcm(c.order, order)
    exps = (c.exps * (n // c.order) + db * (n // order)) % n
    return TwoCocycle(c.group, n, exps, f"{c.name}*db" if c.name else "twisted")


def heisenberg_cocycle(n: int) -> TwoCocycle:
    """The bilinear cocycle c((a1,a2),(b1,b2)) = zeta_n^(a2*b1) on (Z/n)^2.

    Cohomologically nontrivial for n >= 2: its only c-regular element is the
    identity, so the twisted algebra is a single n x n matrix block.  A
    bilinear form is a cocycle by construction, so the table is not verified.
    """
    if n < 2:
        raise CocycleError(f"heisenberg cocycle needs n >= 2, got {n}")
    G = build_group(f"product(cyclic:{n},cyclic:{n})")
    i = np.arange(n * n)
    exps = ((i % n)[:, None] * (i // n)[None, :]) % n
    return TwoCocycle(G, n, exps, f"heisenberg:{n}")


# ---------------------------------------------------------------------------
# catalog of sign-valued cocycles

def sign_cocycles_catalog(G: FiniteGroup) -> list[TwoCocycle]:
    """Trivial plus hand-curated {+1,-1}-valued cocycles for small groups.

    Supported: Z/2 (z2:sign), Z/4 (z4:carry), (Z/2)^2 (heisenberg:2,
    klein4:diag), the dihedral group of order 8 (d8:lift), and the quaternion
    group (q8:cup).  Unsupported groups get a warning and an empty list.
    """
    names = [name for name, (home, _) in _SIGN_CATALOG.items() if home == G.name]
    if not names:
        warnings.warn(f"no sign-valued cocycle catalog for group {G.name!r}", stacklevel=2)
        return []
    return [trivial_cocycle(G)] + [_sign_cocycle(name, G) for name in names]


def _sign_cocycle(name: str, G: FiniteGroup) -> TwoCocycle:
    """The named sign-catalog cocycle on its home group G, verified."""
    c = TwoCocycle(G, 2, _SIGN_CATALOG[name][1](), name)
    check = verify_cocycle(c)
    if not check.ok:
        raise CocycleError(f"catalog cocycle {name} failed verification: {check}")
    return c


def _z4_carry() -> np.ndarray:
    i = np.arange(4)
    return ((i[:, None] + i[None, :]) >= 4).astype(np.int64)


def _klein4_diag() -> np.ndarray:
    i = np.arange(4) // 2
    return (i[:, None] * i[None, :]) % 2


def _d8_lift() -> np.ndarray:
    rot, ref = np.arange(8) % 4, np.arange(8) // 4
    minus = ((ref[:, None] == 0) & (rot[:, None] + rot[None, :] >= 4)) | (
        (ref[:, None] == 1) & (rot[:, None] < rot[None, :]))
    return minus.astype(np.int64)


def _q8_cup() -> np.ndarray:
    x = (np.arange(8) >= 4).astype(np.int64)          # kernel {1,-1,i,-i}
    y = np.isin(np.arange(8), (2, 3, 6, 7)).astype(np.int64)  # kernel {1,-1,j,-j}
    return (x[:, None] * y[None, :]) % 2


# The named cocycles of the sign catalog, in catalog order: the group each
# lives on and its exponent table (mod 2), built when the cocycle is.
_SIGN_CATALOG = {
    "z2:sign": ("cyclic:2", lambda: np.array([[0, 0], [0, 1]])),
    "z4:carry": ("cyclic:4", _z4_carry),
    "heisenberg:2": ("product(cyclic:2,cyclic:2)", lambda: heisenberg_cocycle(2).exps),
    "klein4:diag": ("product(cyclic:2,cyclic:2)", _klein4_diag),
    "d8:lift": ("dihedral:8", _d8_lift),
    "q8:cup": ("quaternion:8", _q8_cup),
}


# ---------------------------------------------------------------------------
# c-regularity

def c_regular_count(G: FiniteGroup, c: TwoCocycle) -> int:
    """c.regular_class_count, the number of c-regular classes of G = c.group."""
    if c.group != G:
        raise CocycleError(f"cocycle is defined on {c.group.name}, not on {G.name}")
    return c.regular_class_count


# ---------------------------------------------------------------------------
# text format: header 'order N', then one line 'i j k' per table entry

def write_cocycle_file(c: TwoCocycle, path) -> None:
    n = c.group.order
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"order {c.order}\n")
        for i in range(n):
            for j in range(n):
                fh.write(f"{i} {j} {int(c.exps[i, j])}\n")


# Largest order a cocycle file may declare.  The routes' work grows with N
# (histograms of N counts, reduced modulo Phi_N in Python integers): every
# N up to this bound reduces in at most 0.03 s, while N = 10^6 takes about a
# minute and N = 10^8 exhausts memory.
MAX_COCYCLE_ORDER = 1024


def read_cocycle_file(path, G: FiniteGroup, name: str = "") -> TwoCocycle:
    """Parse the text format; every malformed line is rejected by number."""
    n = G.order
    with open(path, encoding="utf-8") as fh:
        lines = [(num, ln.strip()) for num, ln in enumerate(fh, 1) if ln.strip()]
    header = lines[0][1].split() if lines else []
    if (len(header) != 2 or header[0] != "order" or not header[1].isdecimal()
            or not 1 <= int(header[1]) <= MAX_COCYCLE_ORDER):
        raise CocycleError("cocycle file must start with an 'order N' header, "
                           f"1 <= N <= {MAX_COCYCLE_ORDER}")
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


def parse_cocycle(spec: str, G: FiniteGroup) -> TwoCocycle:
    """trivial | heisenberg:<n> | file:<path> | a name in G's sign-valued
    catalog (sign_cocycles_catalog), as a cocycle on G."""
    s = spec.strip()
    if s == "trivial":
        return trivial_cocycle(G)
    if s.startswith("heisenberg:"):
        try:
            n = int(s.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad numeric argument in cocycle descriptor {spec!r}") from None
        c = heisenberg_cocycle(n)
        if c.group != G:
            raise ValueError(f"cocycle {s} lives on {c.group.name}, not on {G.name}")
        return TwoCocycle(G, c.order, c.exps, c.name)
    if s.startswith("file:"):
        return read_cocycle_file(s.split(":", 1)[1], G)
    if s not in _SIGN_CATALOG:
        raise ValueError(f"cannot parse cocycle descriptor {spec!r}")
    home = _SIGN_CATALOG[s][0]
    if home != G.name:
        raise ValueError(f"cocycle {s} lives on {home}, not on {G.name}")
    return _sign_cocycle(s, G)
