import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwsurf import algebra as algebra_module
from dwsurf.algebra import (AlgebraError, TwistedGroupAlgebra, WedderburnDecomposition,
                            decomposition_to_json, fs_indicators, wedderburn_decompose)
from dwsurf.cocycles import (TwoCocycle, c_regular_count, heisenberg_cocycle,
                             sign_cocycles_catalog, trivial_cocycle, twist)
from dwsurf.groups import build_group, conjugacy_classes
from dwsurf.invariants import SIGN_CATALOG_GROUPS, catalog_pairs, cross_check, sign_catalog_pairs
from dwsurf.surfaces import SurfaceSpec
from oracles import (commutator_residual, complex_center_basis, idempotent, left_matrix,
                     multiply, omega, pairing_matrix, right_matrix, star, star_matrix,
                     structure_constants, trace)


def algebra(gspec, cocycle=None):
    G = build_group(gspec)
    return TwistedGroupAlgebra(G, cocycle if cocycle is not None else trivial_cocycle(G))


def basis(A):
    return np.eye(A.dim, dtype=complex)


def random_element(A, rng):
    return rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)


def classical_fs(A, block):
    """Character-sum indicator (1/#G) sum chi(g^2); valid for the trivial cocycle."""
    G = A.group
    squares = np.diagonal(G.cayley)
    return complex(np.sum(block.character[squares])) / G.order


# ---------------------------------------------------------------------------
# multiplication and trace

def test_unit_law():
    A = algebra("quaternion:8")
    rng = np.random.default_rng(0)
    a = random_element(A, rng)
    unit = basis(A)[0]
    assert np.allclose(multiply(A, unit, a), a)
    assert np.allclose(multiply(A, a, unit), a)


def test_heisenberg_generators_anticommute():
    c = heisenberg_cocycle(2)
    A = TwistedGroupAlgebra(c.group, c)
    x, y = basis(A)[2], basis(A)[1]               # (1,0) and (0,1)
    xy, yx = multiply(A, x, y), multiply(A, y, x)
    expected = basis(A)[3]                        # (1,1)
    assert np.allclose(xy, expected)
    assert np.allclose(yx, -expected)


def test_trivial_multiplication_is_group_convolution():
    A = algebra("symmetric:3")
    rng = np.random.default_rng(1)
    a, b = random_element(A, rng), random_element(A, rng)
    conv = np.zeros(6, dtype=complex)
    for i, j in itertools.product(range(6), repeat=2):
        conv[A.group.cayley[i, j]] += a[i] * b[j]
    assert np.allclose(multiply(A, a, b), conv)


def test_trace_values_on_basis():
    A = algebra("quaternion:8")
    assert trace(A, basis(A)[0]) == 8
    for g in range(1, 8):
        assert trace(A, basis(A)[g]) == 0


def test_trace_fast_path_equals_matrix_trace():
    c = heisenberg_cocycle(3)
    A = TwistedGroupAlgebra(c.group, c)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = random_element(A, rng)
        assert abs(trace(A, a) - np.trace(left_matrix(A, a))) < 1e-10


def test_trace_is_symmetric():
    A = algebra("dihedral:8")
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = random_element(A, rng), random_element(A, rng)
        assert abs(trace(A, multiply(A, x, y)) - trace(A, multiply(A, y, x))) < 1e-10


def test_bilinear_form_on_basis_pairs():
    A = algebra("symmetric:3")
    for g1, g2 in itertools.product(range(6), repeat=2):
        t = trace(A, multiply(A, basis(A)[g1], basis(A)[g2]))
        assert abs(t - (6 if g2 == A.group.inverse[g1] else 0)) < 1e-12
    c = heisenberg_cocycle(2)
    A = TwistedGroupAlgebra(c.group, c)
    for g1, g2 in itertools.product(range(4), repeat=2):
        t = trace(A, multiply(A, basis(A)[g1], basis(A)[g2]))
        if g2 == A.group.inverse[g1]:
            assert abs(abs(t) - 4) < 1e-12   # #G times the cocycle twist factor
        else:
            assert abs(t) < 1e-12


# ---------------------------------------------------------------------------
# pairing vector

def test_pairing_identity_on_random_pairs():
    rng = np.random.default_rng(4)
    for G, c in catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        v = pairing_matrix(structure_constants(A))
        # the closed form: c(g, g^-1)^-1 / #G on g (x) g^-1, zero elsewhere
        g, inv = np.arange(A.dim), G.inverse
        sparse = np.zeros_like(v)
        sparse[g, inv] = np.conj(omega(A)[g, inv]) / A.dim
        assert np.abs(v - sparse).max() < 1e-12
        for _ in range(100):
            a, b = random_element(A, rng), random_element(A, rng)
            lhs = trace(A, multiply(A, a, b))
            ta = np.array([trace(A, x) for x in multiply(A, a, basis(A))])   # T(a e_x)
            tb = np.array([trace(A, x) for x in multiply(A, b, basis(A))])
            assert abs(lhs - ta @ v @ tb) < 1e-9


def test_pairing_contracts_to_unit():
    for c in [trivial_cocycle(build_group("symmetric:3")), heisenberg_cocycle(2)]:
        A = TwistedGroupAlgebra(c.group, c)
        v = pairing_matrix(structure_constants(A))
        total = np.einsum("xy,xyk->k", v, structure_constants(A))
        assert np.allclose(total, basis(A)[0])


def test_pairing_vector_trivial_case():
    A = algebra("cyclic:3")
    v = pairing_matrix(structure_constants(A))
    assert np.allclose(v, np.eye(3)[A.group.inverse] / 3)


# ---------------------------------------------------------------------------
# center

def test_center_dimensions():
    assert len(algebra("cyclic:4").center_basis()) == 4
    assert len(algebra("symmetric:3").center_basis()) == 3
    c = heisenberg_cocycle(2)
    assert len(TwistedGroupAlgebra(c.group, c).center_basis()) == 1


def test_center_basis_is_central_for_complex_tables():
    # a coboundary with 12th-root values makes the commutation system genuinely
    # complex; every returned basis vector must still commute with the basis
    G = build_group("symmetric:3")
    rng = np.random.default_rng(42)
    b = [0] + [int(rng.integers(12)) for _ in range(5)]
    A = TwistedGroupAlgebra(G, twist(trivial_cocycle(G), b, 12))
    Z = complex_center_basis(A)
    assert len(Z) == 3
    for z in Z:
        for e in basis(A):
            comm = multiply(A, z, e) - multiply(A, e, z)
            assert np.abs(comm).max() < 1e-10


def null_space_center(A):
    """Reference center: null space of the stacked commutation system
    [L(e_g) - R(e_g)]_g, by a thin SVD.  Cost grows like #G^4; keep #G <= 16."""
    assert A.dim <= 16
    mat = np.vstack([left_matrix(A, e) - right_matrix(A, e) for e in basis(A)])
    _, sigma, vh = np.linalg.svd(mat, full_matrices=False)
    return vh[sigma <= 1e-8].conj()   # the null space is spanned by rows of V, not V^H


def assert_same_class_sums(Zp, Z, p, N):
    # the same class sums: zeta_N^k over C (divided by sqrt|class|) is w^k in F_p
    assert np.array_equal(Z != 0, Zp != 0)
    k = np.rint(np.angle(Z * np.sqrt((Z != 0).sum(axis=1, keepdims=True)))
                * N / (2 * np.pi)).astype(np.int64) % N
    w = algebra_module._root_powers(p, N)[1 % N]
    assert all(Zp[i, j] == pow(int(w), int(k[i, j]), p) for i, j in zip(*np.nonzero(Z)))


def assert_same_span(Z, W):
    # orthonormal rows span the same space iff their projectors agree
    assert Z.shape == W.shape
    assert np.allclose(Z @ Z.conj().T, np.eye(len(Z)), atol=1e-12)
    assert np.allclose(Z.T @ Z.conj(), W.T @ W.conj(), atol=1e-10)


@pytest.mark.parametrize("G,c", catalog_pairs() + sign_catalog_pairs(),
                         ids=lambda x: getattr(x, "name", None))
def test_class_sum_center_matches_null_space(G, c):
    A = TwistedGroupAlgebra(G, c)
    Z = complex_center_basis(A)
    assert_same_span(Z, null_space_center(A))
    assert len(Z) == c_regular_count(G, c)
    assert commutator_residual(A, Z) < 1e-12


@pytest.mark.parametrize("gspec,cname", [("symmetric:3", "trivial"), ("quaternion:8", "trivial"),
                                         ("dihedral:8", "trivial"),
                                         ("product(cyclic:3,cyclic:3)", "heisenberg:3"),
                                         ("product(cyclic:4,cyclic:4)", "heisenberg:4")])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_class_sum_center_under_random_coboundary_twists(gspec, cname, data):
    (G, c), = catalog_pairs([(gspec, cname)])
    ks = data.draw(st.lists(st.integers(0, 11), min_size=G.order - 1, max_size=G.order - 1))
    tc = twist(c, [0, *ks], 12)
    A = TwistedGroupAlgebra(G, tc)
    Z = complex_center_basis(A)
    assert_same_span(Z, null_space_center(A))
    assert_same_class_sums(A.center_basis(), Z, A.prime, tc.order)
    assert len(Z) == len(TwistedGroupAlgebra(G, c).center_basis())   # a class invariant


@pytest.mark.parametrize("gspec", ["symmetric:3", "dihedral:8", "quaternion:8"])
def test_center_rejects_table_that_is_not_a_cocycle(gspec):
    # one entry c(h, g) = -1 with h outside the centralizer of the class
    # representative g leaves g regular but breaks coset constancy of the phase
    G = build_group(gspec)
    classes = conjugacy_classes(G)
    g = next(r for r, size in zip(classes.representatives, classes.sizes) if size > 1)
    h = next(h for h in range(G.order) if G.cayley[h, g] != G.cayley[g, h])
    exps = np.zeros((G.order, G.order), dtype=np.int64)
    exps[h, g] = 1
    with pytest.raises(AlgebraError, match="not constant on the cosets"):
        TwistedGroupAlgebra(G, TwoCocycle(G, 2, exps)).center_basis()


@pytest.mark.parametrize("gspec", ["symmetric:3", "dihedral:8"])
def test_commutator_residual_matches_products(gspec):
    rng = np.random.default_rng(5)
    G = build_group(gspec)
    b = [0] + [int(rng.integers(12)) for _ in range(G.order - 1)]
    A = TwistedGroupAlgebra(G, twist(trivial_cocycle(G), b, 12))
    Z = np.vstack([complex_center_basis(A), random_element(A, rng), np.eye(A.dim)[[1]]])
    Z[-2, rng.integers(A.dim, size=3)] = 0       # sparse rows must not hide a commutator
    for z in Z:
        want = max(np.abs(multiply(A, ex, z) - multiply(A, z, ex)).max() for ex in basis(A))
        assert abs(commutator_residual(A, z[None]) - want) < 1e-12
    assert commutator_residual(A, complex_center_basis(A)) < 1e-12


@pytest.mark.parametrize("genus,expected", [(2, 32152), (3, 417163552)])
def test_symmetric_five_verlinde_matches_character_degrees(genus, expected):
    # sum over irreducible degrees d = 1,1,4,4,5,5,6 of (120/d)^(2g-2)
    assert sum((120 // d) ** (2 * genus - 2) for d in (1, 1, 4, 4, 5, 5, 6)) == expected
    G = build_group("symmetric:5")
    rep = cross_check(G, trivial_cocycle(G), SurfaceSpec(True, genus), methods=("verlinde",))
    assert rep.passed
    assert rep.diagnostics["block_dims"] == [1, 1, 4, 4, 5, 5, 6]
    assert rep.integrality["nearest"] == expected
    # the least prime = 1 mod 120 above 240 splits the center along one class sum
    assert rep.diagnostics["prime"] == 241
    assert rep.diagnostics["split_steps"] == 1


def test_decomposition_of_complex_twisted_algebra():
    G = build_group("quaternion:8")
    rng = np.random.default_rng(7)
    b = [0] + [int(rng.integers(12)) for _ in range(7)]
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, twist(trivial_cocycle(G), b, 12)))
    assert dec.dims == (1, 1, 1, 1, 2)


# ---------------------------------------------------------------------------
# decomposition

def test_z2_splits_into_two_lines():
    dec = wedderburn_decompose(algebra("cyclic:2"))
    assert dec.dims == (1, 1)
    chars = sorted(tuple(np.round(b.character.real).astype(int)) for b in dec.blocks)
    assert chars == [(1, -1), (1, 1)]


def test_heisenberg_two_is_one_matrix_block():
    c = heisenberg_cocycle(2)
    dec = wedderburn_decompose(TwistedGroupAlgebra(c.group, c))
    assert dec.dims == (2,)


def test_symmetric_three_dims_and_character():
    G = build_group("symmetric:3")
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G)))
    assert dec.dims == (1, 1, 2)
    two = dec.blocks[2]
    transposition = conjugacy_classes(G).representatives[1]
    assert abs(two.character[transposition]) < 1e-8
    assert abs(two.character[0] - 2) < 1e-8


@pytest.mark.parametrize("gspec", ["cyclic:6", "symmetric:3", "quaternion:8", "dihedral:8"])
def test_block_structure_invariants(gspec):
    G = build_group(gspec)
    A = TwistedGroupAlgebra(G, trivial_cocycle(G))
    dec = wedderburn_decompose(A)
    assert sum(d * d for d in dec.dims) == G.order
    assert dec.block_count() == c_regular_count(G, trivial_cocycle(G))
    total = np.sum([idempotent(b) for b in dec.blocks], axis=0)
    assert np.allclose(total, basis(A)[0])
    for b in dec.blocks:
        assert abs(trace(A, idempotent(b)) - b.dim ** 2) < 1e-8
        assert abs(b.character[0] - b.dim) < 1e-8
        assert G.order % b.dim == 0   # block dimensions divide the group order
    for b1, b2 in itertools.combinations(dec.blocks, 2):
        assert np.abs(multiply(A, idempotent(b1), idempotent(b2))).max() < 1e-8


@pytest.mark.parametrize("gspec", ["cyclic:64", "product(cyclic:8,cyclic:8)"])
def test_abelian_order_64_splits_into_its_linear_characters(gspec):
    # r = #G: the largest center, where the contraction order of the checks matters.
    # 64 distinct homomorphisms G -> C* are all the linear characters of G.
    G = build_group(gspec)
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G)))
    assert dec.dims == (1,) * 64
    chars = np.array([b.character for b in dec.blocks])
    assert np.abs(chars[:, G.cayley] - chars[:, :, None] * chars[:, None, :]).max() < 1e-9
    assert np.abs(chars[:, 0] - 1).max() < 1e-9
    assert np.abs(chars @ chars.conj().T / 64 - np.eye(64)).max() < 1e-9


def test_decomposition_rejects_a_prime_that_cannot_split(monkeypatch):
    # F_5 has no primitive cube root of unity, so x^3 - 1, the minimal
    # polynomial of a generator's class sum in C[Z/3], has one root there
    monkeypatch.setattr(algebra_module, "_prime", lambda modulus, above: 5)
    with pytest.raises(AlgebraError, match="cyclic:3 with cocycle trivial over F_5: .* "
                                           "does not split the center"):
        wedderburn_decompose(algebra("cyclic:3"))


def test_decomposition_refuses_a_prime_past_the_cap():
    # a coboundary of order 2^19 on Z/4 needs p = 1 mod 2^21, past MAX_PRIME
    G = build_group("cyclic:4")
    A = TwistedGroupAlgebra(G, twist(trivial_cocycle(G), [0, 1, 2, 3], 1 << 19))
    with pytest.raises(AlgebraError, match="beyond the cap of 1048576"):
        wedderburn_decompose(A)


def test_split_rejects_an_idempotent_left_unsplit():
    # a table on which the unit has rank (trace) 2 but every class sum maps
    # it to a multiple of itself, so no class sum separates its pieces
    M = np.zeros((2, 2, 2), dtype=np.int64)
    M[0, :, 0] = (2, 3)
    with pytest.raises(AlgebraError, match="toy: an idempotent of rank 2 is left after every "
                                           "class sum"):
        algebra_module._primitive_idempotents(np.array([1, 0]), M, np.array([2, 0]), 7, "toy")


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([5, 7, 241, 1009, 737281]), data=st.data())
def test_lagrange_basis_inverts_the_vandermonde_matrix(p, data):
    # L_i(l_j) = [i == j] for the monic polynomial with the drawn distinct roots
    roots = np.array(sorted(data.draw(st.sets(st.integers(0, p - 1), min_size=1,
                                              max_size=min(p, 12)))))
    mu = np.ones(1, dtype=np.int64)
    for root in roots.tolist():                    # mu (x - root), lowest degree first
        mu = (np.append(0, mu) - root * np.append(mu, 0)) % p
    C = algebra_module._lagrange_basis(mu, roots, p)
    V = np.array([[pow(int(root), j, p) for root in roots] for j in range(len(roots))])
    assert np.array_equal(C @ V % p, np.eye(len(roots), dtype=np.int64))


@pytest.mark.parametrize("p,order,generator,head", [
    (7, 6, 3, [1, 3, 2, 6]), (13, 4, 2, [1, 8, 12, 5]), (23, 22, 5, [1, 5, 2, 10]),
    (191, 190, 19, [1, 19, 170, 174]), (737281, 1024, 11, [1, 413939, 654040, 131236])])
def test_root_powers_are_powers_of_the_least_generator(p, order, generator, head):
    # 22 and 190 have a prime factor above their square root; missing 19, the
    # search would take 7, of order 10, for a generator of F_191.  737281 is
    # the prime of an order-1024 cocycle on symmetric:5
    powers = algebra_module._root_powers(p, order)
    assert powers[:4].tolist() == head
    assert powers[1] == pow(generator, (p - 1) // order, p)
    assert pow(int(powers[1]), order, p) == 1 and len(set(powers.tolist())) == order


def test_block_count_matches_regular_classes_for_nontrivial_cocycles():
    for c in sign_cocycles_catalog(build_group("dihedral:8")):
        dec = wedderburn_decompose(TwistedGroupAlgebra(c.group, c))
        assert dec.block_count() == c_regular_count(c.group, c)


def test_decomposition_is_deterministic():
    # a pure function of the algebra: the same tables give the same export,
    # prime and split count included, and the export names no seed
    a = decomposition_to_json(wedderburn_decompose(algebra("quaternion:8")))
    b = decomposition_to_json(wedderburn_decompose(algebra("quaternion:8")))
    assert a == b
    assert "seed" not in a


def ideal_basis_reference(A, block):
    """Reference character and indicator of a block from an orthonormal basis B
    of its ideal A.e: the column space of right multiplication by e (rank d^2,
    by a full SVD), chi(g) = tr(P L_g)/d with the projector P = B B*, and for
    sign-valued cocycles the fixed dimension of the restricted involution
    B* S B.  Cost #G^3 per block."""
    e, d, n = idempotent(block), block.dim, A.dim
    u, sigma, _ = np.linalg.svd(right_matrix(A, e))
    assert np.sum(sigma > 1e-8) == d * d
    B = u[:, :d * d]
    P = B @ B.conj().T
    char = np.array([np.trace(P @ left_matrix(A, x)) for x in basis(A)]) / d
    if not A.cocycle.is_sign_valued:
        return char, None
    M = B.conj().T @ star_matrix(A) @ B
    if np.abs(M).max() < 1e-8:
        return char, 0                  # the involution maps A.e onto another block
    assert np.abs(M @ M - np.eye(d * d)).max() < 1e-8
    fixed = (d * d + np.trace(M).real) / 2
    assert abs(fixed - round(fixed)) < 1e-8
    return char, {d * (d + 1) // 2: 1, d * (d - 1) // 2: -1}[round(fixed)]


def twelfth_root_twist(c, seed):
    """c times the coboundary of random 12th roots of unity (1 on the identity)."""
    rng = np.random.default_rng(seed)
    n = c.group.order
    return twist(c, [0] + [int(rng.integers(12)) for _ in range(n - 1)], 12)


BLOCK_PAIRS = catalog_pairs() + sign_catalog_pairs() + [
    (G, twelfth_root_twist(c, 8)) for G, c in
    catalog_pairs([("quaternion:8", "trivial"), ("product(cyclic:3,cyclic:3)", "heisenberg:3")])]


@pytest.mark.parametrize("G,c", BLOCK_PAIRS, ids=lambda x: getattr(x, "name", None))
def test_closed_forms_match_ideal_basis_reference(G, c):
    # the decomposition brings the indicators: set on every sign-valued pair of
    # both catalogs, None where there is no involution (heisenberg:3, the twists)
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
    for b in dec.blocks:
        char, fs = ideal_basis_reference(dec.algebra, b)
        assert np.abs(b.character - char).max() < 1e-9
        assert b.fs == fs


@pytest.mark.parametrize("G,c", BLOCK_PAIRS, ids=lambda x: getattr(x, "name", None))
def test_projective_characters_are_orthonormal(G, c):
    # (1/#G) sum_g chi_i(g) conj(chi_j(g)) = delta_ij
    chars = np.array([b.character for b in wedderburn_decompose(TwistedGroupAlgebra(G, c)).blocks])
    gram = chars @ chars.conj().T / G.order
    assert np.abs(gram - np.eye(len(chars))).max() < 1e-9


@pytest.mark.parametrize("G,c", BLOCK_PAIRS, ids=lambda x: getattr(x, "name", None))
def test_center_basis_over_a_prime_field_matches_the_complex_one(G, c):
    A = TwistedGroupAlgebra(G, c)
    assert_same_class_sums(A.center_basis(), complex_center_basis(A), A.prime, c.order)


def test_decomposition_needs_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decomposition called LAPACK")
    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for G, c in BLOCK_PAIRS:
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
        assert sum(d * d for d in dec.dims) == G.order
        assert all(abs(b.character[0] - b.dim) < 1e-12 for b in dec.blocks)


# ---------------------------------------------------------------------------
# involution

def test_star_is_inversion_for_trivial_cocycle():
    A = algebra("symmetric:3")
    for g in range(6):
        assert np.allclose(star_matrix(A) @ basis(A)[g], basis(A)[A.group.inverse[g]])
    assert np.allclose(star_matrix(A) @ basis(A)[0], basis(A)[0])


def test_star_fixes_heisenberg_generator():
    c = heisenberg_cocycle(2)
    A = TwistedGroupAlgebra(c.group, c)
    x = basis(A)[2]         # (1,0): self-inverse with c((1,0),(1,0)) = 1
    assert np.allclose(star_matrix(A) @ x, x)


def test_star_rejects_non_sign_cocycles():
    c = heisenberg_cocycle(3)
    A = TwistedGroupAlgebra(c.group, c)
    with pytest.raises(AlgebraError):
        star_matrix(A)
    with pytest.raises(AlgebraError):
        star(A, basis(A))


@pytest.mark.parametrize("gspec", ["product(cyclic:2,cyclic:2)", "dihedral:8", "quaternion:8"])
def test_star_antihomomorphism_on_basis(gspec):
    G = build_group(gspec)
    for c in sign_cocycles_catalog(G):
        A = TwistedGroupAlgebra(G, c)
        S = star_matrix(A)
        for a, b in itertools.product(basis(A), repeat=2):
            lhs = S @ multiply(A, a, b)
            rhs = multiply(A, S @ b, S @ a)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_star_preserves_trace_and_is_involutive():
    G = build_group("dihedral:8")
    c = sign_cocycles_catalog(G)[1]
    A = TwistedGroupAlgebra(G, c)
    rng = np.random.default_rng(5)
    a = random_element(A, rng)
    S = star_matrix(A)
    assert abs(trace(A, S @ a) - trace(A, a)) < 1e-10
    assert np.allclose(S @ (S @ a), a)


def test_pairing_vector_star_symmetry():
    # applying the involution to either tensor factor of v gives the same vector
    for gspec in ["product(cyclic:2,cyclic:2)", "quaternion:8"]:
        G = build_group(gspec)
        for c in sign_cocycles_catalog(G):
            A = TwistedGroupAlgebra(G, c)
            v = pairing_matrix(structure_constants(A))
            S = star_matrix(A)
            # (1 (x) S) v = v S^T and (S (x) 1) v = S v
            assert np.abs(v @ S.T - S @ v).max() < 1e-12


# ---------------------------------------------------------------------------
# symmetric/skew/dual indicators

def test_z2_blocks_are_both_symmetric():
    dec = wedderburn_decompose(algebra("cyclic:2"))
    assert dec.fs_list == (1, 1)


def test_quaternion_two_dim_block_is_skew():
    dec = wedderburn_decompose(algebra("quaternion:8"))
    assert dec.dims == (1, 1, 1, 1, 2)
    assert dec.fs_list == (1, 1, 1, 1, -1)


def test_heisenberg_block_is_symmetric():
    c = heisenberg_cocycle(2)
    dec = wedderburn_decompose(TwistedGroupAlgebra(c.group, c))
    assert dec.fs_list == (1,)


@pytest.mark.parametrize("gspec", ["symmetric:3", "quaternion:8", "dihedral:8", "cyclic:3"])
def test_structural_indicator_matches_character_sum(gspec):
    A = algebra(gspec)
    dec = wedderburn_decompose(A)
    for b in dec.blocks:
        expected = classical_fs(A, b)
        assert abs(b.fs - expected) < 1e-8


def test_z3_has_a_dual_pair():
    dec = wedderburn_decompose(algebra("cyclic:3"))
    assert sorted(dec.fs_list) == [0, 0, 1]


def test_indicators_invariant_under_sign_twists():
    G = build_group("product(cyclic:2,cyclic:2)")
    c = [x for x in sign_cocycles_catalog(G) if x.name == "heisenberg:2"][0]
    base = wedderburn_decompose(TwistedGroupAlgebra(G, c))
    rng = np.random.default_rng(6)
    for _ in range(10):
        b = [0] + [int(rng.integers(2)) for _ in range(3)]
        tw = twist(c, b, 2)
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, tw))
        assert sorted(dec.dims) == sorted(base.dims)
        assert sorted(dec.fs_list) == sorted(base.fs_list)


@pytest.mark.parametrize("idempotent,match", [
    ((0, 1), "disagrees with the involution's block pairing"),   # trace 0, S.x = x
    ((1, 0), "not -1, 0 or \\+1 mod p"),                         # trace 2 mod 5, d = 1
])
def test_indicator_is_checked_against_the_block_pairing(idempotent, match):
    # a one-block decomposition of C[Z/2] whose "idempotent" is fixed by the
    # involution, so the pairing says self-dual, but whose trace is wrong
    dec = wedderburn_decompose(algebra("cyclic:2"))
    assert dec.diagnostics["prime"] == 5
    fake = replace(dec.blocks[0], residues=np.array(idempotent))
    with pytest.raises(AlgebraError, match=match):
        fs_indicators(WedderburnDecomposition(dec.algebra, (fake,), {}))


def test_involution_image_must_equal_an_idempotent():
    # in C[Z/3] the involution swaps g and g^-1: the residues (0, 1, 0) have
    # indicator trace 1 = d but map to (0, 0, 1)
    dec = wedderburn_decompose(algebra("cyclic:3"))
    fake = replace(dec.blocks[0], residues=np.array([0, 1, 0]))
    with pytest.raises(AlgebraError, match="matches no block"):
        fs_indicators(WedderburnDecomposition(dec.algebra, (fake,), {}))


def test_fs_requires_sign_valued_cocycle():
    c = heisenberg_cocycle(3)
    dec = wedderburn_decompose(TwistedGroupAlgebra(c.group, c))
    assert dec.fs_list == (None,) and set(dec.diagnostics) == {"prime", "split_steps"}
    with pytest.raises(AlgebraError):
        fs_indicators(dec)


@pytest.mark.parametrize("gspec,cname,fs", [
    ("quaternion:8", "q8:cup", (0, 0, 0, 0, 1)),
    ("cyclic:4", "z4:carry", (0, 0, 0, 0)),
    ("dihedral:8", "d8:lift", (1, 1)),
])
def test_indicators_are_pinned(gspec, cname, fs):
    G = build_group(gspec)
    c = {x.name: x for x in [trivial_cocycle(G), *sign_cocycles_catalog(G)]}[cname]
    assert wedderburn_decompose(TwistedGroupAlgebra(G, c)).fs_list == fs


@pytest.mark.parametrize("gspec", SIGN_CATALOG_GROUPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_star_gather_matches_the_reference_matrix(gspec, data):
    # the involution's gather on random vectors of random sign twists of the catalog
    G = build_group(gspec)
    catalog = sign_cocycles_catalog(G)
    c = catalog[data.draw(st.integers(0, len(catalog) - 1))]
    signs = data.draw(st.lists(st.integers(0, 1), min_size=G.order - 1, max_size=G.order - 1))
    A = TwistedGroupAlgebra(G, twist(c, [0, *signs], 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((3, G.order)) + 1j * rng.standard_normal((3, G.order))
    assert np.array_equal(star(A, a), a @ star_matrix(A).T)


def test_decomposition_export_shape():
    data = decomposition_to_json(wedderburn_decompose(algebra("cyclic:2")))
    assert {b["dim"] for b in data["blocks"]} == {1}
    assert all(len(b["character"]) == 2 for b in data["blocks"])
    assert (data["prime"], data["split_steps"]) == (5, 1)
    assert "residuals" not in data
