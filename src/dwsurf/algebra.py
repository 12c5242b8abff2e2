"""Twisted group algebras and their Wedderburn block structure, split exactly.

A = C[G] with g1.g2 = c(g1,g2) g1g2 is semisimple.  Its center, blocks,
dimensions, projective characters and, for sign-valued cocycles, the
indicators of the involution g* = c(g,g^-1) g^-1 are a pure function of the
algebra, found over F_p, p the least prime = 1 (mod N #G) above 2 #G for a
cocycle of order N (Dixon, Numer. Math. 1967; Haggarty-Humphreys, Proc. LMS
1978), by equalities of integers mod p; characters are lifted to C on demand.
Only class sums are multiplied (the reference product is in tests/oracles.py),
over the class representatives that the group keeps.  Inside one `dw check`
run (memo.py) each algebra is decomposed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce

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
def _root_powers(p: int, order: int) -> np.ndarray:
    """The images in F_p of zeta_order^k, k < order: powers of the least
    generator of the multiplicative group, so they agree for every order."""
    primes, rest = [], p - 1
    for q in range(2, math.isqrt(p - 1) + 1):       # trial division of p - 1
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
    if rest > 1:
        primes.append(rest)
    root = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in primes))
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
        G, exps, N, inv = self.group, self.cocycle.exps, self.cocycle.order, self.group.inverse
        g, h = np.array(conjugacy_classes(G).representatives), np.arange(self.dim)[:, None]
        hg = G.cayley[h, g]
        conj = G.cayley[hg, inv[h]]                       # h g h^-1, one column per class
        phase = (exps[h, g] + exps[hg, inv[h]] - exps[h, inv[h]]) % N
        regular = ~((conj == g) & (phase != 0)).any(axis=0)
        phi = np.full((len(g), self.dim), -1, dtype=np.int64)
        phi[np.arange(len(g)), conj] = phase
        broken = regular & (phi[np.arange(len(g)), conj] != phase).any(axis=0)
        if broken.any():
            raise AlgebraError(
                f"conjugation phase of class {g[broken][0]} is not constant on the cosets of "
                "its centralizer; the cocycle table is inconsistent")
        phi = phi[regular]
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
    cls = np.where(support.any(axis=0), support.argmax(axis=0), -1)   # row of g, or -1
    val, reps = Z.sum(axis=0), (Z == 1).argmax(axis=1)   # coordinates: coefficients at reps
    # M[a, b, t]: the coefficient of z_a z_b at reps[t], the sum of z_a[x] z_b[y] c(x, y)
    # over the c-regular x with y = x^-1 reps[t] c-regular, one gather of #G r pairs
    y = G.cayley[G.inverse[:, None], reps]                  # x^-1 reps[t] for every x
    x, t = np.nonzero((cls[:, None] >= 0) & (cls[y] >= 0))
    y = y[x, t]
    M = np.zeros((r, r, r), dtype=np.int64)
    np.add.at(M, (cls[x], cls[y], t), val[x] * val[y] % p * _root_powers(p, c.order)[c.exps[x, y]])
    M, where = M % p, f"{G.name} with cocycle {c.name or 'cocycle'} over F_{p}"
    ranks = np.trace(M, axis1=0, axis2=2) % p             # rank(f) = f . ranks mod p
    E, steps = _primitive_idempotents(np.eye(1, r, dtype=np.int64)[0], M, ranks, p, where)
    E = np.where(cls >= 0, np.array(E)[:, cls] * val % p, 0)      # to the group basis
    squares = n * E[:, 0] % p                              # d^2 = tr(L_e) = #G e[1]
    dims = np.array([math.isqrt(v) for v in squares.tolist()])
    if (dims < 1).any() or (dims * dims != squares).any() or (dims * dims).sum() != n:
        raise AlgebraError(f"{where}: #G e[1] = {squares.tolist()} are not the squares of "
                           "block dimensions with sum #G")
    blocks = tuple(Block(A, E[i], int(dims[i])) for i in np.lexsort([*E.T[::-1], dims]))
    dec = WedderburnDecomposition(A, blocks, {"prime": p, "split_steps": steps})
    return fs_indicators(dec) if c.is_sign_valued else dec


def _primitive_idempotents(f: np.ndarray, M: np.ndarray, ranks: np.ndarray, p: int,
                           where: str) -> tuple:
    """The primitive idempotents under f (rows of coordinates mod p) and the
    number of splits made (Dixon-Schneider).  rank(f) = f . ranks mod p is
    exact as r < p; f splits along the first z_b with f z_b not a multiple of
    f: a row reduction of the Krylov vectors f z_b^j gives the minimal
    polynomial, whose roots l_i give the pieces f L_i(z_b), L_i the Lagrange
    basis at the roots."""
    m = int(f @ ranks % p)
    if m == 1:
        return [f], 0
    F, i = (f @ M.reshape(len(M), -1) % p).reshape(len(M), -1), int(np.flatnonzero(f)[0])
    scalar = (F * f[i] % p == F[:, i, None] * f % p).all(axis=1)
    if scalar.all():
        raise AlgebraError(f"{where}: an idempotent of rank {m} is left after every class sum")
    b = int(scalar.argmin())
    U = [f, F[b]]
    for _ in range(m - 1):
        U.append(U[-1] @ M[:, b] % p)
    red, pivots = _row_reduce(np.array(U).T, p)
    k = len(pivots)                       # f z_b^k = sum_{j<k} red[j, k] f z_b^j
    mu = np.append(-red[:k, k] % p, 1)
    roots = _roots(mu, p)
    if len(roots) < k:
        raise AlgebraError(f"{where}: a minimal polynomial of degree {k} has {len(roots)} "
                           "distinct roots; the prime does not split the center")
    pieces = _lagrange_basis(mu, roots, p) @ np.array(U[:k]) % p
    split = [_primitive_idempotents(e, M, ranks, p, where) for e in pieces]
    return [e for done, _ in split for e in done], 1 + sum(steps for _, steps in split)


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


def _row_reduce(a: np.ndarray, p: int) -> tuple:
    """Row reduction over F_p up to the first column without a pivot: the
    reduced matrix and the pivot columns before it."""
    a, pivots = a % p, []
    for col in range(a.shape[1]):
        top = len(pivots)
        i = top + int((a[top:, col] != 0).argmax()) if top < len(a) else top
        if i == len(a) or not a[i, col]:
            break
        row = a[i] * pow(int(a[i, col]), -1, p) % p
        a = (a - a[:, col, None] * row) % p
        a[i], a[top] = a[top], row              # the pivot row moves up to top
        pivots.append(col)
    return a, pivots


def _roots(poly: np.ndarray, p: int) -> np.ndarray:
    """The roots in F_p of a polynomial, lowest degree first, by evaluation at
    every point (Horner's rule)."""
    x = np.arange(p, dtype=np.int64)
    return np.flatnonzero(reduce(lambda v, coef: (v * x + coef) % p, poly[::-1], 0 * x) == 0)


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
    fs = np.select([trace == d, trace == p - d, trace == 0], [1, -1, 0], 2)
    if (fs == 2).any():
        raise AlgebraError(f"indicator residue {trace[fs == 2][0]} is not -1, 0 or +1 mod p "
                           f"(p = {p}); decomposition error")
    index = {row.tobytes(): i for i, row in enumerate(E)}     # S.e at g: c(g^-1, g) e[g^-1]
    mate = np.array([index.get(r.tobytes(), -1) for r in E[:, inv] * zeta[exps[inv, g]] % p])
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
