"""Reference computations that only the tests use, each kept once.

The twisted multiplication is read off its definition, and the regular
matrices, the dense structure constants, the pairing vector and the complex
class sums are built from it; the trace form, the involution of a sign-valued
cocycle (as a gather and as a dense matrix) and the block idempotents over C
are read off their closed forms, and the commutator residual of candidate
central elements is read off the basis permutations.  The center is split
one class sum at a time, each minimal polynomial from a row reduction of
Krylov vectors.  The dense Fukuma-Hosono-Kawai contraction checks the sparse
state-sum engine.
Homomorphisms are enumerated one tuple at a time, and one relator
weight serves orientable and non-orientable words alike, for any table of
exponents; histogrammed over the homomorphisms, these weights check the
direct route's ring products; the boundary tuples of a surface with
boundary are counted one by one.  The greedy contraction plan is found by a
full rescan of the terms at every step, and a simplicial surface is glued
from its triangles edge by edge.  The group tables of the dihedral,
quaternion, symmetric and product builders are rebuilt pair by pair from the
defining rules.  The group axioms and the cocycle identity are checked on
every triple.  All of them are literal and slow, meant for groups of order
16 or less (the group tables and the axiom checks for order 120 or less).
"""

import itertools
import math

import numpy as np

from dwsurf.algebra import AlgebraError
from dwsurf.groups import conjugacy_classes
from dwsurf.invariants import InvariantError
from dwsurf.surfaces import GluedTriangulation


# ---------------------------------------------------------------------------
# twisted group algebras

def omega(A):
    """The cocycle's values c(x, y) as a complex table."""
    return np.exp(2j * np.pi * A.cocycle.exps / A.cocycle.order)


def multiply(A, a, b):
    """The product in A, from e_x e_y = c(x, y) e_xy: the coefficient
    a[x] b[y] c(x, y) lands at position xy.  Broadcasts over leading axes."""
    terms = np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :] * omega(A)
    return terms.reshape(terms.shape[:-2] + (-1,)) @ np.eye(A.dim)[A.group.cayley.ravel()]


def trace(A, a):
    """Trace of left multiplication by a: #G times the identity coefficient."""
    return A.dim * a[0]


def star(A, a):
    """The involution e_g -> c(g, g^-1) e_{g^-1} (sign-valued cocycles only) as
    a gather along the last axis of a: the coefficient at g^-1 moves to g,
    times c(g^-1, g)."""
    if not A.cocycle.is_sign_valued:
        raise AlgebraError("the involution needs a cocycle with values in {+1,-1}")
    inv = A.group.inverse
    return np.asarray(a)[..., inv] * omega(A)[inv, np.arange(A.dim)]


def complex_center_basis(A):
    """The twisted class sums sum_h e_h e_g e_h^-1 of the class representatives
    g, by the product in A; the classes that are not c-regular sum to zero and
    are dropped, and each row is scaled to unit norm."""
    n, inv, basis = A.dim, A.group.inverse, np.eye(A.dim)
    inverses = basis[inv] * np.conj(omega(A)[np.arange(n), inv])[:, None]   # the e_h^-1
    sums = [multiply(A, multiply(A, basis, basis[g]), inverses).sum(axis=0)
            for g in conjugacy_classes(A.group).representatives]
    return np.array([z / np.linalg.norm(z) for z in sums if np.abs(z).max() > 1e-9])


def idempotent(block):
    """A block's central idempotent over C: e[x] = d chi(x^-1) / (#G c(x^-1, x))."""
    A, inv = block.algebra, block.algebra.group.inverse
    return block.dim / A.dim * block.character[inv] * omega(A)[inv, np.arange(A.dim)].conj()


def star_matrix(A):
    """Matrix of the involution e_g -> c(g, g^-1) e_{g^-1} in the group basis,
    for sign-valued cocycles only: column g holds c(g, g^-1) at row g^-1."""
    if not A.cocycle.is_sign_valued:
        raise AlgebraError("the involution needs a cocycle with values in {+1,-1}")
    n, inv = A.dim, A.group.inverse
    S = np.zeros((n, n), dtype=complex)
    S[inv, np.arange(n)] = omega(A)[np.arange(n), inv]
    return S


def left_matrix(A, a):
    """Matrix of x -> a.x in the group basis."""
    return multiply(A, a, np.eye(A.dim)).T


def right_matrix(A, a):
    """Matrix of x -> x.a in the group basis."""
    return multiply(A, np.eye(A.dim), a).T


def structure_constants(A):
    """Dense C[i, j, k] with e_i e_j = sum_k C[i, j, k] e_k."""
    basis = np.eye(A.dim)
    return multiply(A, basis[:, None], basis[None])


def commutator_residual(A, Z):
    """max |e_x z - z e_x| over the rows z of Z and every basis element e_x.

    Both products permute coefficients: at position xj, e_x z holds
    c(x,j) z[j] and z e_x holds c(j',x) z[j'] with j' = x j x^-1.  Comparing
    the two for every x and every j in the support of z covers every nonzero
    position of either side, because conjugation maps a support it does not
    preserve partly outside itself.  Cost: #G times the number of nonzeros.
    """
    cay, inv, w = A.group.cayley, A.group.inverse, omega(A)
    i, j = np.nonzero(Z)
    x = np.arange(A.dim)[:, None]
    jc = cay[cay[x, j], inv[x]]                  # x j x^-1, shape (#G, nonzeros)
    return float(np.abs(Z[i, j] * w[x, j] - Z[i, jc] * w[jc, x]).max(initial=0.0))


def class_sum_idempotents(f, M, ranks, p, where):
    """The primitive idempotents under f and the number of splits, split
    along the first class sum z_b, M[:, b] its multiplication, that is not a
    multiple of f on fZ; the minimal polynomial of z_b on f comes from a row
    reduction of the Krylov vectors f z_b^j, and the pieces from the
    Lagrange basis at its roots, found at every point of F_p.  The split of
    the center one class sum at a time, recursively."""
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
    red, pivots = row_reduce(np.array(U).T, p)
    k = len(pivots)                       # f z_b^k = sum_{j<k} red[j, k] f z_b^j
    mu = np.append(-red[:k, k] % p, 1)
    x = np.arange(p)
    value = np.zeros(p, dtype=np.int64)
    for coef in mu[::-1]:
        value = (value * x + coef) % p
    roots = np.flatnonzero(value == 0)
    if len(roots) < k:
        raise AlgebraError(f"{where}: a minimal polynomial of degree {k} has {len(roots)} "
                           "distinct roots; the prime does not split the center")
    basis = []
    for l in roots.tolist():              # mu / (x - l) / mu'(l), by synthetic division
        q = [1]
        for coef in mu[-2:0:-1].tolist():
            q.append((coef + l * q[-1]) % p)
        scale = pow(math.prod(l - r for r in roots.tolist() if r != l), -1, p)
        basis.append([v * scale % p for v in q[::-1]])
    pieces = np.array(basis) @ np.array(U[:k]) % p
    split = [class_sum_idempotents(e, M, ranks, p, where) for e in pieces]
    return [e for done, _ in split for e in done], 1 + sum(steps for _, steps in split)


def row_reduce(a, p):
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


def pairing_matrix(C):
    """The pairing vector of the algebra with structure constants C, as the
    matrix v[i, j] of its e_i (x) e_j coefficients: the inverse of the Gram
    matrix T(e_i e_j) of the trace form T, so that
    T(ab) = sum_ij v[i, j] T(a e_i) T(b e_j)."""
    trace = np.einsum("ijj->i", C)      # T(e_k): trace of left multiplication
    return np.linalg.inv(C @ trace)


def dense_state_sum(C, tri) -> complex:
    """Literal tensor contraction of the state sum from structure constants:
    T(abc) on every triangle and the pairing vector on every edge of an
    orientable triangulation with at most 16 flags."""
    assert tri.orientable, "the dense contraction is for orientable surfaces"
    tri = tri.oriented()
    assert tri.n_flags <= 16, "the dense contraction is for tiny triangulations"
    T3 = np.einsum("ijm,mkl,lnn->ijk", C, C, C)     # T(abc), T the trace form
    edges = tri.edge_flags()
    letters = "abcdefghijklmnop"
    subs = [letters[3 * t:3 * t + 3] for t in range(tri.n_triangles)]
    subs += [letters[f] + letters[p] for f, p in edges]
    ops = [T3] * tri.n_triangles + [pairing_matrix(C)] * len(edges)
    return complex(np.einsum(",".join(subs) + "->", *ops))


# ---------------------------------------------------------------------------
# homomorphisms and their weights

def enumerate_homs(G, pres):
    """Every generator assignment whose relator product is the identity, as a
    tuple of element indices, in lexicographic order."""
    for assign in itertools.product(range(G.order), repeat=pres.generators):
        h = 0
        for letter in pres.word:
            x = assign[abs(letter) - 1]
            h = G.cayley[h, x if letter > 0 else G.inverse[x]]
        if h == 0:
            yield assign


def relator_weight(c, pres, hom) -> int:
    """The cocycle on the fundamental cycle of the surface polygon, as its
    exponent k mod c.order: the weight is exp(2*pi*i*k/c.order).

    With letters g_1..g_m of the relator under hom and prefixes
    h_i = g_1..g_i, the weight is prod_{i<m} c(h_i, g_{i+1}), divided by
    c(x, x^-1) for every inverted letter x^-1.  That pay-back is the only
    term that depends on the orientation: the standard orientable word
    inverts each generator once, the non-orientable one none.
    """
    cay, inv, exps = c.group.cayley, c.group.inverse, c.exps
    h = k = 0
    for pos, letter in enumerate(pres.word):
        x = hom[abs(letter) - 1]
        e = x if letter > 0 else inv[x]
        if letter < 0:
            k -= exps[x, e]
        if pos:
            k += exps[h, e]
        h = cay[h, e]
    if h != 0:
        raise InvariantError("assignment does not satisfy the relator")
    return int(k) % c.order


def weight_sum(c, pres) -> complex:
    """Sum of the embedded relator weights over every homomorphism."""
    return sum(np.exp(2j * np.pi * relator_weight(c, pres, hom) / c.order)
               for hom in enumerate_homs(c.group, pres))


def boundary_tuples(G, genus, boundary):
    """The tuples (a_1,b_1,..,a_g,b_g,c_1,..,c_k) with prod [a_i,b_i]
    prod c_j = 1 and c_j conjugate to boundary[j], counted one at a time."""
    classes = conjugacy_classes(G)
    members = [classes.members(classes.class_of[g]).tolist() for g in boundary]
    cay, inv = G.cayley, G.inverse
    count = 0
    for ab in itertools.product(range(G.order), repeat=2 * genus):
        h = 0
        for i in range(genus):
            a, b = ab[2 * i], ab[2 * i + 1]
            h = cay[cay[cay[cay[h, a], b], inv[a]], inv[b]]
        for cs in itertools.product(*members):
            x = h
            for cj in cs:
                x = cay[x, cj]
            count += x == 0
    return int(count)


# ---------------------------------------------------------------------------
# surfaces and contraction plans

def simplicial_to_glued(surf):
    """The gluing of a simplicial surface's triangles along their shared
    edges, with the triangles' own orientations."""
    incidence = {}
    for ti, tr in enumerate(surf.triangles):
        for s in range(3):
            u, v = tr[s], tr[(s + 1) % 3]
            incidence.setdefault(tuple(sorted((u, v))), []).append((3 * ti + s, u < v))
    nf = 3 * len(surf.triangles)
    pairing = np.empty(nf, dtype=np.int64)
    reversal = np.empty(nf, dtype=bool)
    for (f1, fwd1), (f2, fwd2) in incidence.values():
        pairing[f1], pairing[f2] = f2, f1
        reversal[f1] = reversal[f2] = fwd1 != fwd2
    return GluedTriangulation(len(surf.triangles), pairing, reversal, name="from-simplicial")


def rescan_plan(n_vars, term_vars):
    """The greedy contraction order by a full rescan at every step: a forced
    edge of the first term with two labeled slots when there is one, else the
    free edge of highest (most labeled slots of one of its terms, slots, -edge).
    O(E T) for E edges and T terms, given by their edge-variable triples."""
    slots_of = [[] for _ in range(n_vars)]
    for ti, edges in enumerate(term_vars):
        for s, v in enumerate(edges):
            slots_of[v].append((ti, s))
    filled = [0] * len(term_vars)
    done = [False] * n_vars
    order, kinds = [], []
    for _ in range(n_vars):
        pick, kind = None, None
        for ti, edges in enumerate(term_vars):
            if filled[ti] == 2:
                missing = [v for v in edges if not done[v]]
                if missing:
                    pick, kind = min(missing), "forced"
                    break
        if pick is None:
            best = None
            for v in range(n_vars):
                if done[v]:
                    continue
                score = (max((filled[ti] for ti, _ in slots_of[v]), default=0),
                         len(slots_of[v]), -v)
                if best is None or score > best[0]:
                    best = (score, v)
            pick, kind = best[1], "free"
        done[pick] = True
        order.append(pick)
        kinds.append(kind)
        for ti, _ in slots_of[pick]:
            filled[ti] += 1
    return tuple(order), tuple(kinds)


# ---------------------------------------------------------------------------
# group tables, one product at a time

def dihedral_table(order):
    """Element i + m*j is r^i s^j; s r = r^-1 s."""
    m = order // 2
    cay = np.empty((order, order), dtype=np.int64)
    for i1, j1, i2, j2 in itertools.product(range(m), (0, 1), range(m), (0, 1)):
        i = (i1 + i2) % m if j1 == 0 else (i1 - i2) % m
        cay[i1 + m * j1, i2 + m * j2] = i + m * (j1 ^ j2)
    return cay


def quaternion_table():
    """Indices 0..7 are 1,-1,i,-i,j,-j,k,-k."""
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
    return cay


def symmetric_table(n):
    """Permutations of 0..n-1 in lexicographic order, p q = p after q."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    cay = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            cay[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return cay


def product_table(A, B):
    """Pair (a, b) at index a * #B + b, multiplied componentwise."""
    na, nb = len(A), len(B)
    cay = np.empty((na * nb, na * nb), dtype=np.int64)
    for a1, b1, a2, b2 in itertools.product(range(na), range(nb), range(na), range(nb)):
        cay[a1 * nb + b1, a2 * nb + b2] = A[a1, a2] * nb + B[b1, b2]
    return cay


def inverse_table(cay):
    """For each row the column whose product is the identity 0."""
    return np.array([list(row).index(0) for row in cay], dtype=np.int64)


# ---------------------------------------------------------------------------
# axioms on every triple

def is_associative(cay):
    """(xy)z = x(yz) for every triple, as two n^3 gathers."""
    cay = np.asarray(cay)
    return bool(np.array_equal(cay[cay, :], cay[:, cay]))


def first_cocycle_violation(c):
    """The lexicographically first (g1, g2, g3) with
    c(g1, g2) c(g1 g2, g3) != c(g1, g2 g3) c(g2, g3), or None."""
    cay, e = c.group.cayley, c.exps
    lhs = e[:, :, None] + e[cay, :]
    rhs = e[:, cay] + e[None, :, :]
    bad = np.argwhere((lhs - rhs) % c.order)
    return tuple(map(int, bad[0])) if len(bad) else None
