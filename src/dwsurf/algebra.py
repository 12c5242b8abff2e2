"""Twisted group algebras over C and their Wedderburn block structure.

The algebra A = C[G] with multiplication g1.g2 = c(g1,g2) g1g2 is semisimple;
this module computes its trace form, center, primitive central idempotents,
block dimensions, projective characters, the matrix of the involution
g* = c(g,g^-1) g^-1 for sign-valued cocycles, and the symmetric/skew/dual
indicator of every block.  No general product of two elements is formed:
the only products are those of class sums, tabulated once in center
coordinates.  The reference multiplication, the regular matrices and the
dense structure constants are test oracles, in tests/oracles.py.

Cocycle scalars enter exactly (roots of unity) and are embedded into complex
doubles late.  The center is built exactly, as twisted class sums: which
classes are c-regular and the phase of every coefficient are integer
computations, with no rank cutoff.  Characters and indicators are closed forms
in the primitive central idempotents, O(#G) each, with no basis of the ideals.
The idempotents are eigenvectors of a generic central element in center
coordinates, scaled by one linear solve so that they sum to the unit and
checked for idempotency and orthogonality in the same coordinates.
Tolerances: 1e-8 for the commutator residual of the class sums and for matching
an idempotent's involution image, 1e-7 for closure and idempotency in center
coordinates, 1e-6 for eigenvalue separation and for integer rounding of block
dimensions and of indicators (the indicator margin is fs_rounding_residual).
Inside one `dw check` run (the run scope of memo.py) each (group, cocycle
table, seed) is decomposed once; every other call decomposes afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cocycles import TwoCocycle
from .groups import FiniteGroup, conjugacy_classes
from .memo import cocycle_key, shared

CLUSTER_TOL = 1e-8
ROUND_TOL = 1e-6
MAX_RETRIES = 5


class AlgebraError(ValueError):
    """Numerical failure or unsupported algebra operation."""


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
        self.omega = cocycle.complex_table  # read-only complex embedding

    def __repr__(self):
        return f"TwistedGroupAlgebra({self.group.name}, {self.cocycle.name or 'cocycle'})"

    def trace(self, a: np.ndarray) -> complex:
        """Trace of left multiplication by a: #G times the identity coefficient."""
        return self.dim * a[0]

    @cached_property
    def star_matrix(self) -> np.ndarray:
        """Matrix of the involution g -> c(g, g^-1) g^-1 (sign-valued cocycles only)."""
        if not self.cocycle.is_sign_valued:
            raise AlgebraError("the involution needs a cocycle with values in {+1,-1}")
        n, inv = self.dim, self.group.inverse
        S = np.zeros((n, n), dtype=complex)
        S[inv, np.arange(n)] = self.omega[np.arange(n), inv]
        return S

    def center_basis(self) -> np.ndarray:
        """Orthonormal rows spanning the center: the twisted class sums.

        For a class representative g, e_h e_g e_h^-1 = zeta^phi(h) e_{hgh^-1}
        with phi(h) = c(h,g) + c(hg,h^-1) - c(h,h^-1) in exact exponents.  g is
        c-regular iff phi vanishes on its centralizer C(g); then phi is
        constant on every coset h.C(g), and sum_h e_h e_g e_h^-1 is |C(g)|
        times sum_k zeta^phi(k) e_k over the class.  Other classes contribute
        nothing.  Rows have disjoint supports, so they are orthonormal once
        divided by sqrt(|class|).
        """
        G, exps, N = self.group, self.cocycle.exps, self.cocycle.order
        cay, inv = G.cayley, G.inverse
        h = np.arange(self.dim)
        rows = []
        for g in conjugacy_classes(G).representatives:
            hg = cay[h, g]
            conj = cay[hg, inv]                       # h g h^-1
            phase = (exps[h, g] + exps[hg, inv] - exps[h, inv]) % N
            if phase[conj == g].any():
                continue                              # not c-regular
            phi = np.empty(self.dim, dtype=np.int64)
            phi[conj] = phase
            if (phi[conj] != phase).any():
                raise AlgebraError(
                    f"conjugation phase of class {g} is not constant on the cosets of "
                    "its centralizer; the cocycle table is inconsistent")
            members = np.unique(conj)
            row = np.zeros(self.dim, dtype=complex)
            row[members] = np.exp(2j * np.pi * phi[members] / N) / np.sqrt(len(members))
            rows.append(row)
        if not rows:
            raise AlgebraError("empty center: the identity is not c-regular, so the table "
                               "is not normalized")
        return np.array(rows)


def commutator_residual(A: TwistedGroupAlgebra, Z: np.ndarray) -> float:
    """max |e_x z - z e_x| over the rows z of Z and every basis element e_x.

    Both products permute coefficients: at position xj, e_x z holds
    c(x,j) z[j] and z e_x holds c(j',x) z[j'] with j' = x j x^-1.  Comparing
    the two for every x and every j in the support of z covers every nonzero
    position of either side, because conjugation maps a support it does not
    preserve partly outside itself.  Cost: #G times the number of nonzeros.
    """
    cay, inv, omega = A.group.cayley, A.group.inverse, A.omega
    i, j = np.nonzero(Z)
    x = np.arange(A.dim)[:, None]
    jc = cay[cay[x, j], inv[x]]                  # x j x^-1, shape (#G, nonzeros)
    return float(np.abs(Z[i, j] * omega[x, j] - Z[i, jc] * omega[jc, x]).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class Block:
    """One matrix block of the Wedderburn decomposition.

    The character and the indicator are closed forms in the idempotent e (see
    _block_from_idempotent and fs_indicators); no basis of A.e is built.
    """

    idempotent: np.ndarray    # primitive central idempotent e in A
    dim: int                  # d with the block isomorphic to Mat_d(C)
    character: np.ndarray     # chi(g) = tr(g on the simple module), length #G
    fs: int | None = None     # +1 symmetric, -1 skew, 0 dual pair, None unset


@dataclass(frozen=True, eq=False)
class WedderburnDecomposition:
    """Splitting of a twisted group algebra into matrix blocks."""

    algebra: TwistedGroupAlgebra
    blocks: tuple
    seed: int
    diagnostics: dict

    @property
    def dims(self) -> tuple:
        return tuple(b.dim for b in self.blocks)

    @property
    def fs_list(self) -> tuple:
        return tuple(b.fs for b in self.blocks)

    def block_count(self) -> int:
        return len(self.blocks)


def wedderburn_decompose(A: TwistedGroupAlgebra, seed: int = 0) -> WedderburnDecomposition:
    """Split A into matrix blocks via eigenprojections of a generic central element.

    A random real combination of the class sums acts on the center by an r x r
    matrix read off the class-sum product table; its eigenvectors span the
    primitive central idempotents (Burnside's eigenvector method).  Eigenvalue
    collisions trigger a retry with fresh randomness.  Inside a run scope
    (dwsurf.memo) each (group, cocycle table, seed) is decomposed once.
    """
    dec = shared(("wedderburn_decompose", *cocycle_key(A.cocycle), seed),
                 lambda: _decompose(A, seed))
    return dec if dec.algebra is A else replace(dec, algebra=A)


def _decompose(A: TwistedGroupAlgebra, seed: int) -> WedderburnDecomposition:
    Z = A.center_basis()
    center_resid = commutator_residual(A, Z)
    if center_resid > CLUSTER_TOL:
        raise AlgebraError(
            f"class sums do not commute with the basis (residual {center_resid:.2e})")
    r = len(Z)
    coords = _center_product_table(A, Z)
    one = Z[:, 0].conj()                         # the unit in center coordinates
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RETRIES):
        # row b holds the coordinates of z.Z_b for z = t.Z
        act = np.tensordot(rng.standard_normal(r), coords, axes=1)
        evals, evecs = np.linalg.eig(act.T)
        gaps = np.abs(evals[:, None] - evals[None, :])[~np.eye(r, dtype=bool)]
        if gaps.min(initial=np.inf) >= 1e-6 * max(1.0, np.abs(evals).max()):
            break
    else:
        raise AlgebraError(f"eigenvalue collision in {MAX_RETRIES} generic central elements")
    C = evecs * np.linalg.solve(evecs, one)      # e_k (column k) scaled to sum to the unit
    # e_i e_j in center coordinates, contracted one index at a time: (i, c, j)
    prods = np.tensordot(np.tensordot(C, coords, axes=(0, 0)), C, axes=(1, 0))
    prods[np.arange(r), :, np.arange(r)] -= C.T
    idem_resid = max(float(np.abs(prods).max()), float(np.abs(C.sum(axis=1) - one).max()))
    if idem_resid > 1e-7:
        raise AlgebraError("eigenprojections are not orthogonal idempotents summing to the "
                           f"unit (residual {idem_resid:.2e})")
    blocks = [_block_from_idempotent(A, e) for e in C.T @ Z]
    if sum(b.dim * b.dim for b in blocks) != A.dim:
        raise AlgebraError("block dimensions do not satisfy sum d^2 = #G")
    blocks.sort(key=lambda b: (b.dim,
                               tuple(np.round(b.character.real, 6)),
                               tuple(np.round(b.character.imag, 6))))
    diagnostics = {
        "center_commutator_residual": center_resid,
        "idempotency_residual": idem_resid,
        "dim_rounding_residual": float(max(abs(np.sqrt(A.trace(b.idempotent).real) - b.dim)
                                           for b in blocks)),
    }
    return WedderburnDecomposition(A, tuple(blocks), seed, diagnostics)


def _center_product_table(A: TwistedGroupAlgebra, Z: np.ndarray) -> np.ndarray:
    """coords[a, b] = center coordinates of Z_a Z_b, checked for closure.  The rows
    of Z have disjoint supports, so all r^2 products are one gather over at most
    #G^2 pairs (x, y): Z[a,x] Z[b,y] c(x,y) lands at position xy of product (a, b)."""
    a, x = np.nonzero(Z)
    w, xx = Z[a, x], x[:, None]
    images = np.zeros((len(Z), len(Z), A.dim), dtype=complex)
    np.add.at(images, (a[:, None], a, A.group.cayley[xx, x]), np.outer(w, w) * A.omega[xx, x])
    coords = images @ Z.conj().T
    resid = np.abs(images - coords @ Z).max()
    if resid > 1e-7:
        raise AlgebraError(f"center is not closed under multiplication (residual {resid:.2e})")
    return coords


def _block_from_idempotent(A: TwistedGroupAlgebra, e: np.ndarray) -> Block:
    t = A.trace(e)
    if abs(t.imag) > ROUND_TOL:
        raise AlgebraError(f"non-real trace {t} on an idempotent")
    d = np.sqrt(max(t.real, 0.0))
    if abs(d - round(d)) > ROUND_TOL or round(d) < 1:
        raise AlgebraError(f"block dimension {d} is not a positive integer within 1e-6")
    d = int(round(d))
    # tr(L_{g.e}) = d chi(g) since A.e holds d copies of the simple module, and
    # tr(L_x) = #G x[1] with (g.e)[1] = c(g, g^-1) e[g^-1]
    inv = A.group.inverse
    char = A.dim * A.omega[np.arange(A.dim), inv] * e[inv] / d
    if abs(char[0] - d) > 1e-6:
        raise AlgebraError("character does not evaluate to the dimension at the identity")
    return Block(e, d, char)


def fs_indicators(dec: WedderburnDecomposition) -> WedderburnDecomposition:
    """Fill the symmetric/skew/dual indicator of every block.

    fs = tr(S o R_e) / d for the involution S and right multiplication R_e by
    the block idempotent.  S maps A.e onto the ideal of the involution image of
    e, so the trace is 0 for blocks in a dual pair; on a self-dual block Mat_d
    it is a transpose for a symmetric or a skew form, whose fixed subspace has
    dimension (d^2 + tr)/2 = d(d+1)/2 or d(d-1)/2, i.e. tr = +d or -d.  In the
    group basis the diagonal of S o R_e at g comes from e[g^-2] alone:
    tr = sum_g c(g^-1, g) c(g, g^-2) e[g^-2].  Matching S.e against the
    idempotents decides the pairing independently, and the two must agree.
    """
    A = dec.algebra
    S = A.star_matrix
    g, inv = np.arange(A.dim), A.group.inverse
    sq_inv = A.group.cayley[inv, inv]            # g^-2
    phase = A.omega[inv, g] * A.omega[g, sq_inv]
    blocks = list(dec.blocks)
    images = []
    for b in blocks:
        es = S @ b.idempotent
        dists = [float(np.abs(es - other.idempotent).max()) for other in blocks]
        mate = int(np.argmin(dists))
        if dists[mate] > CLUSTER_TOL:
            raise AlgebraError("involution image of an idempotent matches no block")
        images.append(mate)
    out, margin = [], 0.0
    for k, b in enumerate(blocks):
        if images[images[k]] != k:
            raise AlgebraError("involution does not pair blocks consistently")
        ratio = complex(np.sum(phase * b.idempotent[sq_inv])) / b.dim
        fs = int(round(ratio.real))
        margin = max(margin, abs(ratio - fs))
        if abs(ratio - fs) > ROUND_TOL or abs(fs) > 1:
            raise AlgebraError(f"indicator {ratio} is not -1, 0 or +1 within 1e-6; "
                               "decomposition error")
        if (fs == 0) != (images[k] != k):
            raise AlgebraError(f"indicator {fs} disagrees with the involution's block "
                               "pairing; decomposition error")
        out.append(replace(b, fs=fs))
    return WedderburnDecomposition(A, tuple(out), dec.seed,
                                   dict(dec.diagnostics, fs_rounding_residual=margin))


def decomposition_to_json(dec: WedderburnDecomposition) -> dict:
    return {
        "group": dec.algebra.group.name,
        "cocycle": dec.algebra.cocycle.name,
        "seed": dec.seed,
        "blocks": [
            {
                "dim": b.dim,
                "fs": b.fs,
                "character": [[float(z.real), float(z.imag)] for z in b.character],
            }
            for b in dec.blocks
        ],
        "residuals": dec.diagnostics,
    }
