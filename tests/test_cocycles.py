import itertools

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwsurf.cocycles import (CocycleError, TwoCocycle, c_regular_count,
                             coboundary, cyclotomic_integer, cyclotomic_polynomial,
                             heisenberg_cocycle, read_cocycle_file,
                             sign_cocycles_catalog, trivial_cocycle, twist, verify_cocycle,
                             write_cocycle_file)
from dwsurf.groups import build_group, conjugacy_classes
from dwsurf.invariants import catalog_pairs, sign_catalog_pairs
from oracles import first_cocycle_violation


def random_b(G, order, rng):
    """Exponents of a random mapping G -> order-th roots of unity with b(1) = 1."""
    return [0] + [int(rng.integers(order)) for _ in range(G.order - 1)]


# ---------------------------------------------------------------------------
# exact reduction of root-of-unity sums

def roots(N):
    return np.exp(2j * np.pi * np.arange(N) / N)


def test_cyclotomic_polynomials_are_integral_and_vanish_at_zeta():
    for N in range(1, 65):
        phi = cyclotomic_polynomial(N)
        assert all(type(a) is int for a in phi) and phi[-1] == 1
        assert len(phi) - 1 == sum(math.gcd(k, N) == 1 for k in range(1, N + 1))
        assert abs(np.polyval(phi[::-1], np.exp(2j * np.pi / N))) < 1e-8


@settings(max_examples=200, deadline=None)
@given(N=st.integers(1, 24), const=st.integers(-10 ** 30, 10 ** 30),
       multiples=st.lists(st.tuples(st.integers(0, 23), st.integers(-1000, 1000)), max_size=8))
def test_reduction_removes_multiples_of_phi(N, const, multiples):
    phi = cyclotomic_polynomial(N)
    counts = [const] + [0] * (N - 1)
    for j, m in multiples:   # + m x^j Phi_N, folded by x^N = 1
        for i, a in enumerate(phi):
            counts[(i + j) % N] += m * a
    if N > 1:   # 1 + zeta + ... + zeta^(N-1) = 0, so a shift makes a histogram
        low = min(counts)
        counts = [k - low for k in counts]
    assert cyclotomic_integer(counts, "test route") == const
    z = np.dot(np.array(counts, dtype=float), roots(N))
    assert abs(z - const) <= 1e-9 * max(1, sum(map(abs, counts)))
    if N >= 3:   # zeta_N itself is not rational
        counts[1] += 1
        with pytest.raises(CocycleError, match="test route"):
            cyclotomic_integer(counts, "test route")


@settings(max_examples=200, deadline=None)
@given(counts=st.integers(1, 24).flatmap(
    lambda N: st.lists(st.integers(0, 10 ** 6), min_size=N, max_size=N)))
def test_reduction_agrees_with_float_embedding_on_random_histograms(counts):
    z = np.dot(counts, roots(len(counts)))
    try:
        k = cyclotomic_integer(counts, "test route")
    except CocycleError:
        return
    assert abs(z - k) <= 1e-9 * max(1, sum(counts))


def test_reduction_refuses_a_primitive_root():
    with pytest.raises(CocycleError, match="state sum"):
        cyclotomic_integer([0, 1, 0], "state sum")   # zeta_3
    assert cyclotomic_integer([0, 1, 1], "state sum") == -1
    assert cyclotomic_integer(np.array([2, 5], dtype=np.int64), "direct route") == -3


# ---------------------------------------------------------------------------
# verification

def test_trivial_cocycle_verifies_everywhere():
    for spec in ["cyclic:4", "symmetric:3", "quaternion:8"]:
        assert verify_cocycle(trivial_cocycle(build_group(spec))).ok


@pytest.mark.parametrize("n", range(2, 9))
def test_heisenberg_cocycles_verify(n):
    # heisenberg_cocycle does not verify its table; a bilinear form is a cocycle
    assert verify_cocycle(heisenberg_cocycle(n)).ok


def test_normalization_violation_is_located():
    G = build_group("cyclic:3")
    exps = np.zeros((3, 3), dtype=np.int64)
    exps[1, 0] = 1
    check = verify_cocycle(TwoCocycle(G, 2, exps))
    assert not check.ok
    assert check.kind == "normalization"
    assert check.witness == (1,)


def test_cocycle_violation_reports_first_triple():
    # one entry set to -1 breaks the identity but not normalization; on S3 the
    # first triple has the non-generator 3 in the middle, so the row scan finds it
    for gspec, entry, witness in [("cyclic:3", (1, 1), (1, 1, 2)),
                                  ("symmetric:3", (3, 1), (1, 3, 1))]:
        G = build_group(gspec)
        exps = np.zeros((G.order, G.order), dtype=np.int64)
        exps[entry] = 1
        c = TwoCocycle(G, 2, exps)
        check = verify_cocycle(c)
        assert check == (False, "cocycle", witness)
        assert check.witness == first_cocycle_violation(c)


def _verified_bases():
    """(group, order, exps) of true cocycles: the catalogs, a larger Heisenberg
    cocycle, a twist of order 6 and trivial tables read modulo 3."""
    bases = [(c.group, c.order, c.exps) for _, c in catalog_pairs() + sign_catalog_pairs()
             if c.order > 1]
    c = heisenberg_cocycle(4)
    bases.append((c.group, c.order, c.exps))
    t = twist(heisenberg_cocycle(2), [0, 1, 2, 1], 3)
    bases.append((t.group, t.order, t.exps))
    for gspec in ("symmetric:4", "dihedral:12", "product(cyclic:2,quaternion:8)"):
        G = build_group(gspec)
        bases.append((G, 3, np.zeros((G.order, G.order), dtype=np.int64)))
    return bases


VERIFIED_BASES = _verified_bases()


@st.composite
def corrupted_cocycles(draw):
    """A true cocycle with one to three corruptions outside row and column 0,
    so normalization holds: two entries swapped, or one entry replaced."""
    G, N, exps = draw(st.sampled_from(VERIFIED_BASES))
    e = exps.copy()
    spot = st.tuples(st.integers(1, G.order - 1), st.integers(1, G.order - 1))
    for _ in range(draw(st.integers(1, 3))):
        p = draw(spot)
        if draw(st.booleans()):
            e[p] = draw(st.integers(0, N - 1))
        else:
            q = draw(spot)
            e[p], e[q] = e[q], e[p]
    return TwoCocycle(G, N, e)


@settings(max_examples=300, deadline=None)
@given(c=corrupted_cocycles())
def test_cocycle_verdict_and_witness_match_the_full_scan(c):
    first = first_cocycle_violation(c)
    check = verify_cocycle(c)
    assert check == ((True, None, None) if first is None else (False, "cocycle", first))


def test_exponent_range_is_enforced():
    G = build_group("cyclic:2")
    with pytest.raises(CocycleError):
        TwoCocycle(G, 2, np.full((2, 2), 2, dtype=np.int64))


# ---------------------------------------------------------------------------
# coboundaries and twisting

def test_constant_b_gives_trivial_coboundary():
    G = build_group("symmetric:3")
    db = coboundary(G, [0] * 6, 5)
    assert db.order == 5 and np.all(db.exps == 0)


def test_sign_b_on_z2_has_trivial_coboundary():
    G = build_group("cyclic:2")
    db = coboundary(G, [0, 1], 2)
    # (db)(x,x) = b(x)^2 / b(1) = 1
    assert np.all(db.exps == 0)


CATALOG_GROUPS = sorted({G.name for G, _ in catalog_pairs() + sign_catalog_pairs()})


@pytest.mark.parametrize("gspec", CATALOG_GROUPS)
def test_random_coboundaries_verify(gspec):
    # coboundary does not verify its tables; the cocycle identity holds by construction
    G = build_group(gspec)
    rng = np.random.default_rng(7)
    for _ in range(100):
        assert verify_cocycle(coboundary(G, random_b(G, 6, rng), 6)).ok


def test_coboundary_rejects_bad_basepoint():
    G = build_group("cyclic:2")
    with pytest.raises(CocycleError, match="b\\(1\\)"):
        coboundary(G, [1, 0], 2)
    assert np.all(coboundary(G, [2, 0], 2).exps == 0)   # b(1) = exp(2 pi i) = 1


@pytest.mark.parametrize("b", [[0], [0, 1, 1], [[0, 1]]])
def test_coboundary_rejects_a_wrong_length(b):
    with pytest.raises(CocycleError, match="every group element"):
        coboundary(build_group("cyclic:2"), b, 2)


@pytest.mark.parametrize("order", [0, -2])
def test_coboundary_rejects_a_nonpositive_order(order):
    with pytest.raises(CocycleError, match="positive"):
        coboundary(build_group("cyclic:2"), [0, 1], order)


@pytest.mark.parametrize("b,order,message", [([1, 0], 2, "b\\(1\\)"),
                                             ([0, 1, 1], 2, "every group element"),
                                             ([0, 1], -2, "positive")])
def test_twist_rejects_what_coboundary_rejects(b, order, message):
    with pytest.raises(CocycleError, match=message):
        twist(trivial_cocycle(build_group("cyclic:2")), b, order)


def test_twist_builds_one_cocycle(monkeypatch):
    """The coboundary's exponents feed the twisted table directly: one
    table is checked per twist, not an intermediate coboundary as well."""
    c = heisenberg_cocycle(2)
    built = []
    check = TwoCocycle.__post_init__
    monkeypatch.setattr(TwoCocycle, "__post_init__",
                        lambda self: built.append(self) or check(self))
    t = twist(c, [0, 1, 0, 0], 4)
    assert built == [t] and t.order == 4


def test_twist_by_one_is_identity():
    c = heisenberg_cocycle(2)
    t = twist(c, [0] * 4, 1)
    assert t.order == c.order and np.array_equal(t.exps, c.exps)


def test_twist_of_trivial_is_the_coboundary():
    G = build_group("cyclic:4")
    rng = np.random.default_rng(1)
    b = random_b(G, 4, rng)
    assert np.array_equal(twist(trivial_cocycle(G), b, 4).exps, coboundary(G, b, 4).exps)


def test_twist_lifts_to_lcm_order():
    c = heisenberg_cocycle(2)
    rng = np.random.default_rng(2)
    t = twist(c, random_b(c.group, 3, rng), 3)
    assert t.order == 6
    assert verify_cocycle(t).ok


# ---------------------------------------------------------------------------
# the heisenberg family

def test_heisenberg_two_values():
    c = heisenberg_cocycle(2)
    # elements (a1,a2) at index 2*a1+a2
    assert c.order == 2
    assert c.exps[1, 2] == 1   # c((0,1),(1,0)) = -1
    assert c.exps[2, 1] == 0   # c((1,0),(0,1)) = +1


def test_heisenberg_rejects_small_n():
    with pytest.raises(CocycleError):
        heisenberg_cocycle(1)


@pytest.mark.parametrize("n", [2, 3])
def test_heisenberg_only_identity_is_regular(n):
    c = heisenberg_cocycle(n)
    assert c_regular_count(c.group, c) == 1


# ---------------------------------------------------------------------------
# the sign-valued catalog

def test_catalog_members_verify_and_include_trivial():
    for spec in ["cyclic:2", "cyclic:4", "product(cyclic:2,cyclic:2)",
                 "dihedral:8", "quaternion:8"]:
        G = build_group(spec)
        cat = sign_cocycles_catalog(G)
        assert cat[0].name == "trivial"
        assert len(cat) >= 2
        for c in cat:
            assert verify_cocycle(c).ok
            assert c.is_sign_valued


SIGN_VALUED = {"trivial": True, "z2:sign": True, "z4:carry": True, "heisenberg:2": True,
               "klein4:diag": True, "d8:lift": True, "q8:cup": True, "heisenberg:3": False}


def test_sign_valued_flags_of_the_catalogs():
    pairs = catalog_pairs() + sign_catalog_pairs()
    assert {c.name for _, c in pairs} == set(SIGN_VALUED)
    for _, c in pairs:
        assert c.is_sign_valued is SIGN_VALUED[c.name]
    assert not twist(heisenberg_cocycle(2), [0, 1, 0, 0], 4).is_sign_valued
    assert twist(heisenberg_cocycle(2), [0, 2, 0, 0], 4).is_sign_valued


def test_sign_valued_is_read_once_per_cocycle():
    c = heisenberg_cocycle(2)
    assert c.is_sign_valued
    # a second read returns the stored flag and does not scan the table again
    object.__setattr__(c, "exps", np.ones((4, 4), dtype=np.int64))
    assert c.is_sign_valued
    assert not TwoCocycle(c.group, 4, c.exps).is_sign_valued


def test_catalog_on_klein_four_contains_heisenberg():
    G = build_group("product(cyclic:2,cyclic:2)")
    h = heisenberg_cocycle(2)
    assert any(c.order == 2 and np.array_equal(c.exps, h.exps)
               for c in sign_cocycles_catalog(G))


def test_catalog_on_z2_lists_both_classes():
    cat = sign_cocycles_catalog(build_group("cyclic:2"))
    assert [c.name for c in cat] == ["trivial", "z2:sign"]
    assert cat[1].order == 2 and cat[1].exps[1, 1] == 1


def test_catalog_warns_on_unsupported_group():
    with pytest.warns(UserWarning):
        assert sign_cocycles_catalog(build_group("cyclic:5")) == []


def test_inverse_symmetry_on_catalog():
    for spec in ["cyclic:4", "dihedral:8", "quaternion:8"]:
        G = build_group(spec)
        for c in sign_cocycles_catalog(G):
            inv = G.inverse
            assert np.array_equal(c.exps[np.arange(G.order), inv],
                                  c.exps[inv, np.arange(G.order)])


def test_five_term_identity_on_catalog():
    for spec in ["cyclic:4", "product(cyclic:2,cyclic:2)", "dihedral:8", "quaternion:8"]:
        G = build_group(spec)
        for c in sign_cocycles_catalog(G):
            e, inv = c.exps, G.inverse
            for a, b in itertools.product(range(G.order), repeat=2):
                ab = G.cayley[a, b]
                lhs = e[ab, inv[ab]]
                rhs = e[a, inv[a]] + e[b, inv[b]] + e[a, b] + e[inv[b], inv[a]]
                assert (lhs - rhs) % c.order == 0


# ---------------------------------------------------------------------------
# c-regularity

def test_trivial_cocycle_regular_count_is_class_count():
    for spec in ["symmetric:3", "quaternion:8", "dihedral:8"]:
        G = build_group(spec)
        assert c_regular_count(G, trivial_cocycle(G)) == conjugacy_classes(G).count


def test_regular_count_is_twist_invariant():
    c = heisenberg_cocycle(2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert c_regular_count(c.group, twist(c, random_b(c.group, 4, rng), 4)) == 1


def test_d8_lift_has_two_regular_classes():
    G = build_group("dihedral:8")
    c = [x for x in sign_cocycles_catalog(G) if x.name == "d8:lift"][0]
    assert c_regular_count(G, c) == 2


def test_regular_count_refuses_another_group():
    c = trivial_cocycle(build_group("cyclic:2"))
    with pytest.raises(CocycleError, match="defined on cyclic:2, not on cyclic:4"):
        c_regular_count(build_group("cyclic:4"), c)
    assert c_regular_count(build_group("cyclic:2"), c) == 2    # an equal table is the group


def test_regularity_scan_rejects_tables_breaking_class_invariance():
    # a fake table (not a cocycle) that makes one element of a class regular
    # and another not: the scan must refuse rather than return a count
    G = build_group("quaternion:8")
    exps = np.zeros((8, 8), dtype=np.int64)
    exps[2, 1] = 1   # asymmetric on the commuting pair (i, -1); -i stays regular
    with pytest.raises(CocycleError, match=r"^c-regularity is not constant on conjugacy "
                                           r"class 2; the cocycle table is inconsistent$"):
        c_regular_count(G, TwoCocycle(G, 2, exps))


# ---------------------------------------------------------------------------
# file format

def test_cocycle_file_roundtrip(tmp_path):
    c = heisenberg_cocycle(3)
    path = tmp_path / "heis3.cocycle"
    write_cocycle_file(c, path)
    back = read_cocycle_file(path, c.group)
    assert back.order == c.order
    assert np.array_equal(back.exps, c.exps)


def test_cocycle_file_rejects_invalid_tables(tmp_path):
    G = build_group("cyclic:2")
    path = tmp_path / "bad.cocycle"
    path.write_text("order 2\n0 0 0\n0 1 0\n1 0 1\n1 1 0\n")  # breaks normalization
    with pytest.raises(CocycleError):
        read_cocycle_file(path, G)


def test_cocycle_file_requires_full_table(tmp_path):
    G = build_group("cyclic:2")
    path = tmp_path / "partial.cocycle"
    path.write_text("order 2\n0 0 0\n")
    with pytest.raises(CocycleError):
        read_cocycle_file(path, G)


def _full_table_lines(n):
    return [f"{i} {j} 0" for i in range(n) for j in range(n)]


@pytest.mark.parametrize("edit,line,message", [
    (lambda ls: ls + ["2 0 0"], 6, "outside"),          # index >= #G
    (lambda ls: ls[:-1] + ["-1 -1 1"], 5, "outside"),   # would wrap onto (1, 1)
    (lambda ls: ls + ["0 1 1"], 6, "given twice"),      # repeated pair
    (lambda ls: ls[:-1] + ["1 one 0"], 5, "three integers"),
    (lambda ls: ls[:-1] + ["1 1 0 0"], 5, "three integers"),
])
def test_cocycle_file_rejects_bad_lines_by_number(tmp_path, edit, line, message):
    G = build_group("cyclic:2")
    path = tmp_path / "bad.cocycle"
    path.write_text("\n".join(["order 2"] + edit(_full_table_lines(2))) + "\n")
    with pytest.raises(CocycleError, match=f"line {line}: .*{message}"):
        read_cocycle_file(path, G)


@pytest.mark.parametrize("header", ["order 0", "order -2", "order two", "order", "N 2",
                                    "order 100000000"])
def test_cocycle_file_rejects_bad_headers(tmp_path, header):
    G = build_group("cyclic:2")
    path = tmp_path / "bad.cocycle"
    path.write_text("\n".join([header] + _full_table_lines(2)) + "\n")
    with pytest.raises(CocycleError, match="'order N' header"):
        read_cocycle_file(path, G)
