"""Twisted group algebras and their Wedderburn block structure, split exactly.

A = C[G] with g1.g2 = c(g1,g2) g1g2 is semisimple.  Its center, blocks,
dimensions, projective characters and, for sign-valued cocycles, the
indicators of the involution g* = c(g,g^-1) g^-1 are a pure function of the
algebra, found over F_p, p the least prime = 1 (mod N #G) above 2 #G for a
cocycle of order N (Dixon, Numer. Math. 1967; Haggarty-Humphreys, Proc. LMS
1978), by equalities of integers mod p; characters are lifted to C on demand.
Only class sums are multiplied (the reference product is in tests/oracles.py),
over the class representatives that the group keeps.  The center splits along
fixed combinations of class sums before single ones, each minimal polynomial
the recurrence of traces (Massey, IEEE Trans. IT 1969; Wiedemann, IEEE Trans.
IT 1986); tests/oracles.py keeps the split one class sum at a time by row
reduction.  Inside one `dw check` run (memo.py) each algebra is decomposed once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .cocycles import TwoCocycle
from .groups import FiniteGroup, conjugacy_classes
from .memo import cocycle_key, shared


MAX_PRIME = 1 << 20     # the root search evaluates at every point of F_p: 8 MB arrays


class AlgebraError(ValueError):
    """Failed decomposition or unsupported algebra operation."""


@cache
def _prime(modulus: int, above: int) -> int:
    """The least prime p = 1 (mod modulus) with p > above."""
    p = above // modulus * modulus + 1
    while p <= above or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += modulus
    return p


@cache
def _generator(p: int) -> int:
    """The least generator of the multiplicative group of F_p."""
    primes, rest = [], p - 1
    for q in range(2, math.isqrt(p - 1) + 1):       # trial division of p - 1
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
    if rest > 1:
        primes.append(rest)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in primes))


@cache
def _root_powers(p: int, order: int) -> np.ndarray:
    """The images in F_p of zeta_order^k, k < order: powers of the least
    generator of the multiplicative group, so they agree for every order."""
    root = _generator(p)
    powers = np.array([pow(root, (p - 1) // order * k, p) for k in range(order)])
    powers.setflags(write=False)
    return powers


class TwistedGroupAlgebra:
    """C[G] with multiplication deformed by a normalized 2-cocycle.

    Elements are plain complex coefficient vectors of length #G, indexed by
    group element; immutable tables make instances safe to share.
    """

    def __init__(self, group: FiniteGroup, cocycle: TwoCocycle):
        if cocycle.group != group:
            raise AlgebraError("cocycle is defined on a different group")
        self.group = group
        self.cocycle = cocycle
        self.dim = group.order

    def __repr__(self):
        return f"TwistedGroupAlgebra({self.group.name}, {self.cocycle.name or 'cocycle'})"

    @cached_property
    def prime(self) -> int:
        """The prime of the decomposition: the least p = 1 (mod N #G) above 2 #G."""
        p = _prime(self.cocycle.order * self.dim, 2 * self.dim)
        if p > MAX_PRIME:
            raise AlgebraError(f"{self} splits over F_{p}, beyond the cap of {MAX_PRIME}: "
                               f"the cocycle order {self.cocycle.order} is too large")
        return p

    @cached_property
    def power_map(self) -> tuple:
        """(g^j, w_j, shift, F) for j < e = exp(G): rho(g)^o = zeta_N^c I for
        o = ord(g), so rho(g) is zeta_{N e}^shift (shift = c e / o) times an
        operator of order o whose j-th power has trace zeta_{N e}^w_j chi(g^j);
        F is the inverse Fourier transform of length e mod the prime."""
        cay, c, p, idx = self.group.cayley, self.cocycle, self.prime, np.arange(self.dim)
        powers = [0 * idx, idx]                          # g^0, g^1, ..., g^e = 1
        while powers[-1].any():
            powers.append(cay[powers[-1], idx])
        gp, e, N = np.array(powers).T, len(powers) - 1, c.order
        terms = c.exps[idx[:, None], gp]                 # c(g, g^j)
        s = (np.cumsum(terms, axis=1) - terms) % N       # rho(g)^j = zeta_N^s_j rho(g^j)
        order = (gp[:, 1:] == 0).argmax(axis=1) + 1
        shift = s[idx, order] * (e // order)
        w = (e * s[:, :e] - shift[:, None] * np.arange(e)) % (N * e)
        F = _root_powers(p, e)[-np.outer(np.arange(e), np.arange(e)) % e] * pow(e, -1, p) % p
        return gp[:, :e], w, shift, F

    def center_basis(self) -> np.ndarray:
        """The twisted class sums over F_p, p = self.prime, one row per c-regular class.

        For a class representative g, e_h e_g e_h^-1 = zeta^phi(h) e_{hgh^-1}
        with phi(h) = c(h,g) + c(hg,h^-1) - c(h,h^-1) in exact exponents.  g is
        c-regular iff phi vanishes on its centralizer C(g); then phi is
        constant on every coset h.C(g), and sum_h e_h e_g e_h^-1 is |C(g)|
        times sum_k zeta^phi(k) e_k over the class.  Other classes contribute
        nothing.  zeta_N is its image in F_p, as p = 1 mod N."""
        G, n, N = self.group, self.dim, self.cocycle.order
        cay, exps, inv = G.cayley.ravel(), self.cocycle.exps.ravel(), G.inverse[:, None]
        g, h = np.array(conjugacy_classes(G).representatives), np.arange(0, n * n, n)[:, None]
        hg = cay.take(h + g)                              # flat indices of (h, g) pairs
        conj = cay.take(hg * n + inv)                     # h g h^-1, one column per class
        phase = (exps.take(h + g) + exps.take(hg * n + inv) - exps.take(h + inv)) % N
        regular = ~((conj == g) & (phase != 0)).any(axis=0)
        phi, slot = np.full(len(g) * n, -1, dtype=np.int64), conj + np.arange(0, len(g) * n, n)
        phi[slot] = phase
        broken = regular & (phi.take(slot) != phase).any(axis=0)
        if broken.any():
            raise AlgebraError(
                f"conjugation phase of class {g[broken][0]} is not constant on the cosets of "
                "its centralizer; the cocycle table is inconsistent")
        phi = phi.reshape(len(g), n)[regular]
        if not len(phi):
            raise AlgebraError("empty center: the identity is not c-regular, so the table "
                               "is not normalized")
        return np.where(phi >= 0, _root_powers(self.prime, N)[phi], 0)


@dataclass(frozen=True, eq=False)
class Block:
    """One matrix block: its primitive central idempotent e, exactly, as
    residues mod algebra.prime; the rest is computed on first use."""

    algebra: TwistedGroupAlgebra
    residues: np.ndarray      # e[g] mod algebra.prime
    dim: int                  # d with the block isomorphic to Mat_d(C)
    fs: int | None = None     # +1 symmetric, -1 skew, 0 dual pair, None: no involution

    @cached_property
    def multiplicities(self) -> np.ndarray:
        """counts[g, u], the multiplicity of exp(2 pi i (shift[g] + N u) / (N e))
        as an eigenvalue of g (shift from A.power_map, 0 for trivial cocycles),
        exact in [0, d] < p: the inverse transform of the traces of the powers,
        with chi(g) = #G c(g,g^-1) e[g^-1] / d (Dixon's power map)."""
        A, p, d, N = self.algebra, self.algebra.prime, self.dim, self.algebra.cocycle.order
        inv, zeta = A.group.inverse, _root_powers(p, N)
        chi = A.dim * pow(d, -1, p) * zeta[A.cocycle.exps[np.arange(A.dim), inv]] % p
        gp, w, _, F = A.power_map
        counts = _root_powers(p, N * len(F))[w] * (chi * self.residues[inv] % p)[gp] % p @ F % p
        if (counts > d).any():
            raise AlgebraError(f"eigenvalue multiplicity residue {counts.max()} exceeds the "
                               f"block dimension {d} mod {p}; decomposition error")
        return counts

    @cached_property
    def character(self) -> np.ndarray:
        """chi(g) = tr(g on the simple module), length #G, complex."""
        e, N = self.multiplicities.shape[1], self.algebra.cocycle.order
        k = self.algebra.power_map[2][:, None] + N * np.arange(e)   # exponents of zeta_{N e}
        return (self.multiplicities * np.exp(2j * np.pi * k / (N * e))).sum(axis=1)


@dataclass(frozen=True, eq=False)
class WedderburnDecomposition:
    """Splitting of a twisted group algebra into matrix blocks."""

    algebra: TwistedGroupAlgebra
    blocks: tuple
    diagnostics: dict

    @property
    def dims(self) -> tuple:
        return tuple(b.dim for b in self.blocks)

    @property
    def fs_list(self) -> tuple:
        return tuple(b.fs for b in self.blocks)

    def block_count(self) -> int:
        return len(self.blocks)


def wedderburn_decompose(A: TwistedGroupAlgebra) -> WedderburnDecomposition:
    """Split A into blocks, sorted by dimension and residues, with indicators for
    sign-valued cocycles; the diagnostics are the prime and the splits made."""
    dec = shared(lambda: ("wedderburn_decompose", *cocycle_key(A.cocycle)),
                 lambda: _decompose(A))
    return dec if dec.algebra is A else replace(dec, algebra=A)


def _decompose(A: TwistedGroupAlgebra) -> WedderburnDecomposition:
    G, c, n, p = A.group, A.cocycle, A.dim, A.prime
    Z = A.center_basis()
    r, support = len(Z), Z != 0
    cls = np.where(support.any(axis=0), support.argmax(axis=0), r)    # row of g, or r
    val, reps = Z.sum(axis=0), (Z == 1).argmax(axis=1)   # coordinates: coefficients at reps
    # M[a, b, t]: the coefficient of z_a z_b at reps[t], the sum of z_a[x] z_b[y] c(x, y)
    # over the c-regular x and y = x^-1 reps[t], one gather of r pairs per x; a y that
    # is not c-regular lands in row r, cut off.  Each term is reduced, so an entry is
    # below #G p and the products of the split stay in int64
    x = np.flatnonzero(val)[:, None]
    y = G.cayley.ravel().take(G.inverse[x] * n + reps)
    M = np.zeros(r * (r + 1) * r, dtype=np.int64)
    np.add.at(M, ((cls[x] * (r + 1) + cls.take(y)) * r + np.arange(r)).ravel(),
              (val[x] * val.take(y) % p * _root_powers(p, c.order).take(
                  c.exps.ravel().take(x * n + y)) % p).ravel())
    M = M.reshape(r, r + 1, r)[:, :r]
    where = f"{G.name} with cocycle {c.name or 'cocycle'} over F_{p}"
    ranks = np.trace(M, axis1=0, axis2=2) % p             # rank(f) = f . ranks mod p
    E, steps = _primitive_idempotents(np.eye(1, r, dtype=np.int64)[0], M, ranks, p, where)
    E = np.array(E)
    squares = n * E[:, 0] % p                              # d^2 = tr(L_e) = #G e[1]
    # the reps are the least elements of their classes, in order, and every other
    # coefficient of a class is a fixed multiple of its rep's: ordering the rows
    # by their coordinates orders them by their residues
    order = np.lexsort([*E.T[::-1], squares])
    E, squares = E[order], squares[order]
    dims = np.array([math.isqrt(v) for v in squares.tolist()])
    if (dims < 1).any() or (dims * dims != squares).any() or (dims * dims).sum() != n:
        raise AlgebraError(f"{where}: #G e[1] = {squares.tolist()} are not the squares of "
                           "block dimensions with sum #G")
    E = E.take(cls, axis=1, mode="clip") * val % p         # to the group basis; val is 0 off Z
    blocks = tuple(Block(A, e, d) for e, d in zip(E, dims.tolist()))
    dec = WedderburnDecomposition(A, blocks, {"prime": p, "split_steps": steps})
    return fs_indicators(dec) if c.is_sign_valued else dec


def _primitive_idempotents(f: np.ndarray, M: np.ndarray, ranks: np.ndarray, p: int,
                           where: str) -> tuple:
    """The primitive idempotents under f (rows of coordinates mod p) and the
    number of splits made (Dixon).  rank(f) = f . ranks mod p is exact as
    r < p; M[b] is the matrix of multiplication by z_b, as the center is
    commutative.  An idempotent of rank m > 1 splits along the first element
    z that is not a multiple of f on fZ: sum_b a^b z_b for a the least
    generator g of F_p^* and for a = g^-1, then the class sums in order;
    each piece goes on from the element after the one that split it.
    s_j = tr(f z^j) sums the j-th powers of the eigenvalues of z on fZ, each
    counted at most m < p times, so the minimal recurrence of s_0 .. s_(2m-1)
    (Berlekamp-Massey) is the minimal polynomial of z on fZ; its roots l_i
    give the pieces f L_i(z), L_i the Lagrange basis at the roots.  It must
    annihilate f, and the pieces must have ranks in [1, m)."""
    r, done, work, steps, times = len(M), [], [(f, int(f @ ranks % p), 0)], 0, {}
    while work:
        f, m, k = work.pop()
        if m == 1:
            done.append(f)
            continue
        i = int(np.flatnonzero(f)[0])
        while k < r + 2:
            if k < 2 and k not in times:       # sum_b a^b z_b for a = g, then a = g^-1
                a = pow(_generator(p), 1 - 2 * k, p)
                times[k] = (np.array([pow(a, b, p) for b in range(r)])
                            @ M.reshape(r, -1) % p).reshape(r, r)
            z = times[k] if k < 2 else M[k - 2]   # multiplication by the k-th element tried
            F = f @ z % p
            if not (F * f[i] % p == F[i] * f % p).all():    # f z not a multiple of f
                break
            k += 1
        else:
            raise AlgebraError(f"{where}: an idempotent of rank {m} is left after every class sum")
        krylov = np.empty((2 * m, r), dtype=np.int64)     # f z^j, j < 2m
        krylov[0], krylov[1] = f, F
        for j in range(2, 2 * m):
            np.remainder(krylov[j - 1] @ z, p, out=krylov[j])
        mu = _minimal_polynomial((krylov @ ranks % p).tolist(), p)
        deg, roots = len(mu) - 1, _roots(mu, p)
        if len(roots) < deg:
            raise AlgebraError(f"{where}: a minimal polynomial of degree {deg} has {len(roots)} "
                               "distinct roots; the prime does not split the center")
        if deg > m or (mu @ krylov[:deg + 1] % p).any():
            raise AlgebraError(f"{where}: the trace recurrence of degree {deg} does not "
                               f"annihilate an idempotent of rank {m}; decomposition error")
        pieces = _lagrange_basis(mu, roots, p) @ krylov[:deg] % p
        sub = pieces @ ranks % p
        if ((sub < 1) | (sub >= m)).any():
            raise AlgebraError(f"{where}: pieces of ranks {sub.tolist()} split a rank {m}; "
                               "decomposition error")
        steps += 1
        work.extend((e, rank, k + 1) for e, rank in zip(pieces, sub.tolist()))
    return done, steps


def _minimal_polynomial(s: list, p: int) -> np.ndarray:
    """The least monic mu, lowest degree first, with sum_i mu[i] s[j + i] = 0
    mod p for every j (Berlekamp-Massey over F_p; Massey, IEEE Trans. IT 15,
    1969): the minimal polynomial of a linear recurrence from twice its degree
    terms."""
    conn, prev, L, gap, last = [1], [1], 0, 1, 1      # connection polynomials, lowest first
    for n in range(len(s)):
        d = sum(map(operator.mul, conn, s[n::-1])) % p
        if not d:
            gap += 1
            continue
        coef, old = d * pow(last, -1, p) % p, conn
        conn = conn + [0] * (gap + len(prev) - len(conn))
        for j, b in enumerate(prev, gap):
            conn[j] = (conn[j] - coef * b) % p
        if 2 * L <= n:
            L, prev, last, gap = n + 1 - L, old, d, 1
        else:
            gap += 1
        del conn[L + 1:]                                   # zero past the degree
    return np.array((conn + [0] * (L + 1 - len(conn)))[::-1], dtype=np.int64)


def _lagrange_basis(poly: np.ndarray, roots: np.ndarray, p: int) -> np.ndarray:
    """Row i: the coefficients, lowest degree first, of L_i = Q_i / Q_i(l_i)
    mod p, Q_i = poly / (x - l_i), for a monic poly with the distinct roots
    l_i; one synthetic division by every root at once, with Q_i(l_i) =
    poly'(l_i) by Horner's rule alongside."""
    k = len(roots)
    Q, value = np.zeros((k, k), dtype=np.int64), np.ones(k, dtype=np.int64)
    Q[:, k - 1] = 1
    for j in range(k - 1, 0, -1):
        Q[:, j - 1] = (poly[j] + roots * Q[:, j]) % p
        value = (value * roots + Q[:, j - 1]) % p
    return Q * np.array([pow(v, -1, p) for v in value.tolist()])[:, None] % p


def _roots(poly: np.ndarray, p: int) -> np.ndarray:
    """The roots in F_p of a polynomial, lowest degree first, by evaluation at
    every point (Horner's rule, in place)."""
    x, value = np.arange(p, dtype=np.int64), np.full(p, poly[-1], dtype=np.int64)
    for coef in poly[-2::-1].tolist():
        value *= x
        value += coef
        value %= p
    return np.flatnonzero(value == 0)


def fs_indicators(dec: WedderburnDecomposition) -> WedderburnDecomposition:
    """Fill the symmetric/skew/dual indicator of every block, exactly.

    fs = tr(S o R_e) / d for the involution S and right multiplication R_e by
    the block idempotent: 0 for a block that S maps to another, +1 or -1 on a
    self-dual block Mat_d (a transpose for a symmetric or a skew form), and
    tr = sum_g c(g^-1, g) c(g, g^-2) e[g^-2] mod p.  Independently S.e must
    equal an idempotent, and exactly the self-dual blocks have fs != 0."""
    A = dec.algebra
    if not A.cocycle.is_sign_valued:
        raise AlgebraError("the involution needs a cocycle with values in {+1,-1}")
    p, exps, g, inv = A.prime, A.cocycle.exps, np.arange(A.dim), A.group.inverse
    zeta = _root_powers(p, A.cocycle.order)
    E, d = np.array([b.residues for b in dec.blocks]), np.array(dec.dims)
    sq, k = A.group.cayley[inv, inv], np.arange(len(E))     # g^-2, block index
    trace = E[:, sq] @ zeta[(exps[inv, g] + exps[g, sq]) % A.cocycle.order] % p
    fs = (trace == d).astype(np.int64) - (trace == p - d)      # 0 < d < p - d as d^2 <= #G
    wrong = (fs == 0) & (trace != 0)
    if wrong.any():
        raise AlgebraError(f"indicator residue {trace[wrong][0]} is not -1, 0 or +1 mod p "
                           f"(p = {p}); decomposition error")
    image = E[:, inv] * zeta[exps[inv, g]] % p                  # S.e at g: c(g^-1, g) e[g^-1]
    mate, moved = k.copy(), np.flatnonzero((image != E).any(axis=1))
    if len(moved):          # S is an involution: a block it moves maps to another moved one
        index = {E[i].tobytes(): i for i in moved.tolist()}
        mate[moved] = [index.get(image[i].tobytes(), -1) for i in moved.tolist()]
    if (mate < 0).any() or (mate[mate] != k).any():
        raise AlgebraError("involution image of an idempotent matches no block, or not in pairs")
    clash = (fs == 0) != (mate != k)
    if clash.any():
        raise AlgebraError(f"indicator {fs[clash][0]} disagrees with the involution's block "
                           "pairing; decomposition error")
    blocks = tuple(Block(A, b.residues, b.dim, f) for b, f in zip(dec.blocks, fs.tolist()))
    return WedderburnDecomposition(A, blocks, dec.diagnostics)


def decomposition_to_json(dec: WedderburnDecomposition) -> dict:
    blocks = [{"dim": b.dim, "fs": b.fs, "character": [[float(z.real), float(z.imag)]
                                                      for z in b.character]} for b in dec.blocks]
    return {"group": dec.algebra.group.name, "cocycle": dec.algebra.cocycle.name,
            "blocks": blocks, **dec.diagnostics}
