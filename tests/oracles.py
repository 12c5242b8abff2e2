"""Reference computations that only the tests use, each kept once.

The twisted multiplication is read off its definition, and the regular
matrices, the dense structure constants and the pairing vector are built from
it.  The dense Fukuma-Hosono-Kawai contraction checks the sparse state-sum
engine.  Homomorphisms are enumerated one tuple at a time, and one relator
weight serves orientable and non-orientable words alike, for any table of
exponents; histogrammed over the homomorphisms, these weights check the
direct route's transfer operators.  All of them are literal and slow, meant
for groups of order 16 or less.
"""

import itertools

import numpy as np

from dwsurf.cocycles import RootOfUnity
from dwsurf.invariants import InvariantError
from dwsurf.surfaces import orientability_and_orientation


# ---------------------------------------------------------------------------
# twisted group algebras

def multiply(A, a, b):
    """The product in A, from e_x e_y = c(x, y) e_xy: the coefficient
    a[x] b[y] c(x, y) lands at position xy.  Broadcasts over leading axes."""
    terms = np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :] * A.omega
    return terms.reshape(terms.shape[:-2] + (-1,)) @ np.eye(A.dim)[A.group.cayley.ravel()]


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
    result = orientability_and_orientation(tri)
    assert result.orientable, "the dense contraction is for orientable surfaces"
    tri = result.oriented
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


def relator_weight(c, pres, hom) -> RootOfUnity:
    """The cocycle on the fundamental cycle of the surface polygon.

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
    return RootOfUnity(int(k), c.order)


def weight_sum(c, pres) -> complex:
    """Sum of the embedded relator weights over every homomorphism."""
    return sum(relator_weight(c, pres, hom).value for hom in enumerate_homs(c.group, pres))
