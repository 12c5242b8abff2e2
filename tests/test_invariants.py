import json
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwsurf import groups, invariants
from dwsurf.algebra import TwistedGroupAlgebra, wedderburn_decompose
from dwsurf.cli import Q8_OVER_V4, main
from dwsurf.cocycles import (TwoCocycle, c_regular_count, heisenberg_cocycle, parse_cocycle,
                             sign_cocycles_catalog, trivial_cocycle, twist, verify_cocycle)
from dwsurf.groups import build_group, conjugacy_classes, involution_set
from dwsurf.invariants import (ORIENTABLE_CATALOG, InvariantError, boundary_hom_count,
                               boundary_hom_count_brute, catalog_pairs, count_homs, cross_check,
                               dw_direct, dw_labeling_oracle, mednykh_count, sign_catalog_pairs,
                               verlinde)
from dwsurf.invariants import _direct_counts
from dwsurf.state_sum import run_state_sum
from dwsurf.surfaces import (RelatorPresentation, SurfaceSpec, relator_presentation,
                             seven_vertex_torus, standard_triangulation, tetrahedron_sphere)
from oracles import boundary_tuples, enumerate_homs, relator_weight, weight_sum

TORUS = SurfaceSpec(True, 1)
SPHERE = SurfaceSpec(True, 0)
GENUS2 = SurfaceSpec(True, 2)
P2 = SurfaceSpec(False, 1)
KLEIN = SurfaceSpec(False, 2)
N3 = SurfaceSpec(False, 3)


# ---------------------------------------------------------------------------
# homomorphism enumeration

def test_torus_homs_are_commuting_pairs():
    G = build_group("symmetric:3")
    homs = list(enumerate_homs(G, relator_presentation(TORUS)))
    assert len(homs) == 18
    assert all(G.cayley[a, b] == G.cayley[b, a] for a, b in homs)


def test_klein_homs_on_z3():
    G = build_group("cyclic:3")
    homs = list(enumerate_homs(G, relator_presentation(KLEIN)))
    assert len(homs) == 3


def test_sphere_has_the_empty_assignment():
    G = build_group("quaternion:8")
    assert list(enumerate_homs(G, relator_presentation(SPHERE))) == [()]


def test_vectorized_count_matches_streaming():
    for gspec, spec in [("symmetric:3", TORUS), ("cyclic:3", KLEIN),
                        ("cyclic:2", GENUS2), ("quaternion:8", TORUS)]:
        G = build_group(gspec)
        pres = relator_presentation(spec)
        assert count_homs(G, pres) == len(list(enumerate_homs(G, pres)))


def test_count_homs_pins_a_large_count():
    """dihedral:20 at genus 3 has 20^6 tuples; cut between handles, the two
    halves histogram 20^2 and 20^4 of them."""
    G, spec = build_group("dihedral:20"), SurfaceSpec(True, 3)
    assert count_homs(G, relator_presentation(spec)) == mednykh_count(G, spec) == 13600000


@pytest.mark.parametrize("word,cut", [
    ((), 0), ((1, 1), 2), ((1, -1), 2), ((1, 2, -1, -2), 4), ((1, 2, 1, 2), 4),
    ((1, 1, 2, 2), 2), ((1, 1, 2, 2, 3, 3), 2), ((1, 2, -1, -2, 3, 4, -3, -4), 4),
    ((1, 2, -1, -2, 3, 4, -3, -4, 5, 6, -5, -6), 4), ((1, 2, 3, -1, -2, -3, 4, 4), 6),
])
def test_relator_cut_is_the_most_balanced(word, cut):
    assert invariants._relator_cut(word) == cut


def test_count_homs_cap(monkeypatch):
    G = build_group("quaternion:8")
    monkeypatch.setattr(invariants, "MAX_HOM_TUPLES", 10 ** 4)
    with pytest.raises(InvariantError, match="exceed the cap of 10000"):
        count_homs(G, relator_presentation(SurfaceSpec(True, 3)))


# ---------------------------------------------------------------------------
# weights

def test_trivial_weight_is_one():
    G = build_group("symmetric:3")
    c = trivial_cocycle(G)
    pres = relator_presentation(TORUS)
    for hom in enumerate_homs(G, pres):
        assert relator_weight(c, pres, hom) == 0


def test_heisenberg_torus_weight_is_the_commutator_pairing():
    c = heisenberg_cocycle(2)
    pres = relator_presentation(TORUS)
    # generators mapped to (1,0) and (0,1): indices 2 and 1
    assert relator_weight(c, pres, (2, 1)) == 1   # -1 = zeta_2^1


def test_weight_with_one_generator_trivialized():
    c = heisenberg_cocycle(3)
    pres = relator_presentation(TORUS)
    for a in range(9):
        assert relator_weight(c, pres, (a, 0)) == 0


def test_orientation_convention_pin():
    # frozen: generators of the order-3 case mapped to ((1,0),(0,1)) weigh zeta_3^2
    c = heisenberg_cocycle(3)
    assert relator_weight(c, relator_presentation(TORUS), (3, 1)) == 2


def test_weight_rejects_non_homomorphisms():
    G = build_group("symmetric:3")
    c = trivial_cocycle(G)
    with pytest.raises(InvariantError):
        relator_weight(c, relator_presentation(TORUS), (1, 3))  # non-commuting


def test_projective_plane_weight_is_diagonal_value():
    G = build_group("product(cyclic:2,cyclic:2)")
    pres = relator_presentation(P2)
    for c in sign_cocycles_catalog(G):
        for g in involution_set(G):
            assert relator_weight(c, pres, (int(g),)) == c.exps[g, g]


def test_klein_weight_example():
    c = heisenberg_cocycle(2)
    pres = relator_presentation(KLEIN)
    assert relator_weight(c, pres, (1, 2)) == 0


def test_weight_sum_is_rotation_invariant():
    # individual weights may move under cyclic rotation of the relator; the sum may not
    c = heisenberg_cocycle(2)
    word = relator_presentation(TORUS).word
    base = None
    for r in range(len(word)):
        total = weight_sum(c, RelatorPresentation(2, word[r:] + word[:r]))
        if base is None:
            base = total
        assert abs(total - base) < 1e-10


# ---------------------------------------------------------------------------
# direct invariant

def test_sphere_value_is_reciprocal_order():
    for gspec in ["cyclic:2", "symmetric:3", "quaternion:8"]:
        G = build_group(gspec)
        assert dw_direct(G, trivial_cocycle(G), SPHERE) == Fraction(1, G.order)


def test_direct_matches_streaming_route():
    cases = [(trivial_cocycle(build_group("symmetric:3")), TORUS),
             (heisenberg_cocycle(2), TORUS),
             (heisenberg_cocycle(2), GENUS2)]
    for c, spec in cases:
        G = c.group
        total = weight_sum(c, relator_presentation(spec))
        # the float sum of embedded weights pins the integer it must equal
        assert abs(total - round(total.real)) < 1e-9
        assert dw_direct(G, c, spec) == Fraction(round(total.real), G.order)


def test_direct_nonorientable_matches_streaming_route():
    G = build_group("product(cyclic:2,cyclic:2)")
    for c in sign_cocycles_catalog(G):
        for spec in [P2, KLEIN]:
            total = weight_sum(c, relator_presentation(spec))
            assert abs(total - round(total.real)) < 1e-9
            assert dw_direct(G, c, spec) == Fraction(round(total.real), G.order)


def test_direct_spot_values():
    c = heisenberg_cocycle(2)
    assert dw_direct(c.group, c, TORUS) == 1
    assert dw_direct(c.group, c, GENUS2) == 4
    assert dw_direct(c.group, c, P2) == Fraction(1, 2)
    S3 = build_group("symmetric:3")
    assert dw_direct(S3, trivial_cocycle(S3), TORUS) == 3


def test_direct_requires_sign_values_on_nonorientable():
    c = heisenberg_cocycle(3)
    with pytest.raises(InvariantError):
        dw_direct(c.group, c, P2)


def test_direct_workers_agree():
    """workers is accepted for compatibility and changes nothing."""
    G = build_group("quaternion:8")
    c = trivial_cocycle(G)
    assert cross_check(G, c, GENUS2, workers=2).values == cross_check(G, c, GENUS2).values


def test_direct_coboundary_invariance():
    c = heisenberg_cocycle(3)
    rng = np.random.default_rng(9)
    base = dw_direct(c.group, c, GENUS2)
    for _ in range(5):
        b = [0] + [int(rng.integers(6)) for _ in range(8)]
        assert dw_direct(c.group, twist(c, b, 6), GENUS2) == base


# ---------------------------------------------------------------------------
# twisted-ring products against the brute-force enumeration

def _weight_histogram(c, spec):
    """Histogram over k mod N of the relator weights zeta_N^k of every homomorphism."""
    pres = relator_presentation(spec)
    want = np.zeros(c.order, dtype=np.int64)
    for hom in enumerate_homs(c.group, pres):
        want[relator_weight(c, pres, hom)] += 1
    return want


SMALL_GROUPS = ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "product(cyclic:2,cyclic:2)",
                "cyclic:5", "symmetric:3", "cyclic:6", "quaternion:8", "dihedral:8", "cyclic:8")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_transfer_histogram_equals_brute_force_on_random_tables(data):
    """Any table in [0, N), cocycle or not, normalized or not: up to genus 1
    the handle histogram reads the definition letter by letter."""
    G = build_group(data.draw(st.sampled_from(SMALL_GROUPS)))
    orientable = data.draw(st.booleans())
    genus = data.draw(st.integers(0, 1) if orientable else st.just(1))
    N = data.draw(st.integers(1, 6))
    flat = data.draw(st.lists(st.integers(0, N - 1), min_size=G.order ** 2,
                              max_size=G.order ** 2))
    c = TwoCocycle(G, N, np.reshape(flat, (G.order, G.order)))
    spec = SurfaceSpec(orientable, genus)
    assert np.array_equal(_direct_counts(G, c, spec), _weight_histogram(c, spec))


@st.composite
def twisted_catalog_cases(draw):
    """(group, cocycle, twist order, b, surface): a catalog cocycle
    (orientable) or a sign catalog cocycle (non-orientable), to be twisted
    by a random normalized b of order 1-6, at genus 2, or 3 where at most
    4^6 or 8^3 homomorphisms are enumerated."""
    orientable = draw(st.booleans())
    names = (ORIENTABLE_CATALOG if orientable
             else [(G.name, c.name) for G, c in sign_catalog_pairs()])
    gspec, cname = draw(st.sampled_from(names))
    n = build_group(gspec).order
    genus = draw(st.integers(2, 3 if n <= 4 or not orientable else 2))
    order = draw(st.integers(1, 6))
    b = [0] + draw(st.lists(st.integers(0, order - 1), min_size=n - 1, max_size=n - 1))
    return gspec, cname, order, b, SurfaceSpec(orientable, genus)


@settings(max_examples=40, deadline=None)
@given(case=twisted_catalog_cases())
@example(case=("quaternion:8", "q8:cup", 3, [0, 1, 0, 1, 2, 2, 1, 1], N3))
@example(case=("dihedral:8", "d8:lift", 5, [0, 2, 1, 3, 4, 1, 4, 3], N3))
def test_transfer_histogram_equals_brute_force_on_random_cocycles(case):
    """From genus 2 on, the handles are coupled to their prefix by c(h, y),
    which needs a normalized cocycle.  Twists of order <= 2 keep a sign
    table sign-valued; the others give N >= 3, where a wrong sign of
    c(h, y) shows (as in the two examples).  Genus 3 passes through the
    handle histogram, one ring product and the closing read."""
    gspec, cname, order, b, spec = case
    G = build_group(gspec)
    c = twist(parse_cocycle(cname, G), b, order)
    assert np.array_equal(_direct_counts(G, c, spec), _weight_histogram(c, spec))


@pytest.mark.parametrize("gspec,cname", [("dihedral:8", "trivial"), ("quaternion:8", "trivial"),
                                         ("symmetric:3", "trivial"), ("symmetric:4", "trivial"),
                                         ("product(cyclic:3,cyclic:3)", "heisenberg:3")])
@pytest.mark.parametrize("genus", [3, 4])
def test_direct_equals_verlinde_on_twelfth_root_twists(gspec, cname, genus):
    """Past the brute force's reach: order-12 coboundary twists, so N >= 3
    and every ring product reads its coupling c(h, y).
    Only symmetric:4 has prefixes h and commutators y that do not commute,
    so only there does c(y, h) in place of c(h, y) change the value."""
    G = build_group(gspec)
    rng = np.random.default_rng(12)
    c = twist(parse_cocycle(cname, G), [0, *rng.integers(0, 12, G.order - 1)], 12)
    assert c.order == 12
    spec = SurfaceSpec(True, genus)
    want = verlinde(wedderburn_decompose(TwistedGroupAlgebra(G, c)), spec)
    assert dw_direct(G, c, spec) == want


@pytest.mark.parametrize("gspec,cname", ORIENTABLE_CATALOG)
def test_direct_equals_verlinde_on_twelfth_root_twists_up_to_genus_ten(gspec, cname):
    """Genus 4-10, while #G^(2g) < 2^63, square H^(g//2) for g//2 = 2..5:
    every bit pattern up to 5, each with g even (A = B) and odd (A = B H)."""
    G = build_group(gspec)
    rng = np.random.default_rng(12)
    c = twist(parse_cocycle(cname, G), [0, *rng.integers(0, 12, G.order - 1)], 12)
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
    for genus in range(4, 11):
        if G.order ** (2 * genus) >= 2 ** 63:
            break
        spec = SurfaceSpec(True, genus)
        assert dw_direct(G, c, spec) == verlinde(dec, spec), genus


def test_direct_equals_verlinde_on_sign_catalog_crosscaps():
    """Crosscaps 1-12: H^(k//2) for k//2 = 0..6, with k even and odd."""
    for G, c in sign_catalog_pairs():
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
        for k in range(1, 13):
            spec = SurfaceSpec(False, k)
            assert dw_direct(G, c, spec) == verlinde(dec, spec), (G.name, c.name, k)


def test_genus_takes_logarithmically_many_products(monkeypatch):
    calls, real = [], invariants._times

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(invariants, "_times", counted)
    G = build_group("cyclic:2")
    for genus in (3, 4, 5, 8, 31):
        calls.clear()
        assert dw_direct(G, trivial_cocycle(G), SurfaceSpec(True, genus)) == 2 ** (2 * genus - 1)
        assert 0 < len(calls) <= 2 * (genus.bit_length() - 1), genus


def test_trivial_group_at_genus_ten_million_takes_under_a_second():
    G = build_group("cyclic:1")
    start = time.perf_counter()
    assert dw_direct(G, trivial_cocycle(G), SurfaceSpec(True, 10_000_000)) == 1
    assert time.perf_counter() - start < 1


@settings(max_examples=60, deadline=None)
@given(gspec=st.sampled_from(SMALL_GROUPS), orientable=st.booleans(), genus=st.integers(0, 2),
       block=st.one_of(st.none(), st.integers(1, 1 << 15)))
def test_count_homs_equals_enumeration_for_any_block_size(gspec, orientable, genus, block):
    """Blocks of every size, from one tuple to all of them, with a block
    limit that is mostly not a power of the order."""
    G = build_group(gspec)
    pres = relator_presentation(SurfaceSpec(orientable, genus if orientable else genus + 1))
    with mock.patch.object(invariants, "_BLOCK_ENTRIES", block or invariants._BLOCK_ENTRIES):
        assert count_homs(G, pres) == len(list(enumerate_homs(G, pres)))


@st.composite
def hom_inputs(draw):
    """A small group and a relator with up to 3 generators (4 for order <= 4),
    each occurring twice, in any order and with any signs."""
    gspec = draw(st.sampled_from(SMALL_GROUPS))
    m = draw(st.integers(0, 4 if build_group(gspec).order <= 4 else 3))
    letters = draw(st.permutations([g for g in range(1, m + 1) for _ in range(2)]))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=2 * m, max_size=2 * m))
    return gspec, RelatorPresentation(m, tuple(s * g for s, g in zip(signs, letters)))


@settings(max_examples=80, deadline=None)
@given(inputs=hom_inputs(), block=st.one_of(st.none(), st.integers(1, 1 << 12)))
@example(inputs=("symmetric:3", RelatorPresentation(2, (1, 2, -1, -2))), block=None)
@example(inputs=("quaternion:8", RelatorPresentation(3, (1, 2, 3, 1, 2, 3))), block=5)
@example(inputs=("dihedral:8", RelatorPresentation(3, (1, 1, -2, 3, 2, 3))), block=1)
@example(inputs=("cyclic:4", RelatorPresentation(0, ())), block=None)
def test_count_homs_equals_enumeration_on_any_word(inputs, block):
    """Arbitrary relator words: with and without an inner cut, orientable
    and not, with blocks of every size."""
    gspec, pres = inputs
    G = build_group(gspec)
    with mock.patch.object(invariants, "_BLOCK_ENTRIES", block or invariants._BLOCK_ENTRIES):
        assert count_homs(G, pres) == len(list(enumerate_homs(G, pres)))


def test_direct_route_peaks_below_two_megabytes():
    """The order-64 ring product of genus 3 fills one n x n matrix per
    exponent, so no temporary grows past n^2 (n N for the product)."""
    c = heisenberg_cocycle(8)
    tracemalloc.start()
    try:
        _direct_counts(c.group, c, SurfaceSpec(True, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_transfer_histogram_equals_weights_on_sign_catalog():
    for G, c in sign_catalog_pairs():
        for k in (1, 2, 3):
            spec = SurfaceSpec(False, k)
            assert np.array_equal(_direct_counts(G, c, spec), _weight_histogram(c, spec)), \
                (G.name, c.name, k)


@pytest.mark.parametrize("genus,value", [(2, 32152), (3, 417163552),
                                         (4, 5973872205952)])   # 120^8 < 2^63
def test_symmetric_five_direct_is_pinned(genus, value):
    G = build_group("symmetric:5")
    counts = _direct_counts(G, trivial_cocycle(G), SurfaceSpec(True, genus))
    assert counts.tolist() == [value * 120]


def test_symmetric_five_genus_three_routes_agree():
    G = build_group("symmetric:5")
    rep = cross_check(G, trivial_cocycle(G), SurfaceSpec(True, 3))
    assert rep.passed
    assert set(rep.values) == {"direct", "statesum", "verlinde"}
    assert set(rep.values.values()) == {417163552}
    assert rep.integrality["nearest"] == 417163552


@pytest.mark.parametrize("genus,value", [(1, 7), (2, 32152), (4, 5973872205952)])
def test_symmetric_five_routes_agree_exactly(genus, value):
    G = build_group("symmetric:5")
    rep = cross_check(G, trivial_cocycle(G), SurfaceSpec(True, genus))
    assert rep.passed
    assert set(rep.values) == {"direct", "statesum", "verlinde"}
    assert all(type(v) is Fraction and v == value for v in rep.values.values())
    assert rep.integrality == {"nearest": value, "integer": True, "positive_ok": True}


def test_every_route_returns_a_fraction():
    c = heisenberg_cocycle(2)
    G, A = c.group, TwistedGroupAlgebra(c.group, c)
    dec = wedderburn_decompose(A)
    values = [dw_direct(G, c, KLEIN), verlinde(dec, KLEIN), verlinde(dec, SPHERE),
              dw_labeling_oracle(G, c, tetrahedron_sphere()),
              run_state_sum(A, standard_triangulation(GENUS2)).value,
              run_state_sum(A, standard_triangulation(KLEIN)).value,
              run_state_sum(A, standard_triangulation(TORUS)).value]
    assert all(type(v) is Fraction for v in values)
    assert values[:4] == [1, 1, Fraction(1, 4), Fraction(1, 4)]


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a handle histogram or ring product was built")


def test_genus_two_builds_no_general_operator(monkeypatch):
    """Up to genus 2 the handle histogram is the only table read: [e_1] H^2
    is read without the product."""
    monkeypatch.setattr(invariants, "_times", _refuse_to_build)
    G = build_group("symmetric:5")
    assert _direct_counts(G, trivial_cocycle(G), GENUS2).tolist() == [32152 * 120]
    c = heisenberg_cocycle(8)
    assert dw_direct(c.group, c, GENUS2) == 64
    c = [x for x in sign_cocycles_catalog(build_group("dihedral:8")) if x.name == "d8:lift"][0]
    assert np.array_equal(_direct_counts(c.group, c, KLEIN), _weight_histogram(c, KLEIN))


def _refuse_to_read(monkeypatch):
    monkeypatch.setattr(invariants, "_handle_histogram", _refuse_to_build)
    monkeypatch.setattr(invariants, "_times", _refuse_to_build)


@pytest.mark.parametrize("genus", [5, 10_000_000])   # 120^10 >= 2^63
def test_direct_refuses_int64_overflow_before_building(monkeypatch, genus):
    """Refused on the exponent alone, before any histogram or power: at
    genus 10^7, 120^(2 * 10^7) would take about a minute to compute."""
    G = build_group("symmetric:5")
    _refuse_to_read(monkeypatch)
    with pytest.raises(InvariantError, match="overflow int64 counts"):
        dw_direct(G, trivial_cocycle(G), SurfaceSpec(True, genus))


def test_direct_overflow_is_a_computation_error(monkeypatch, capsys):
    _refuse_to_read(monkeypatch)
    code = main(["compute", "--group", "symmetric:5", "--surface", "orientable:5",
                 "--method", "direct"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"].startswith("InvariantError")


def test_boundary_brute_force_refuses_before_any_power(monkeypatch):
    monkeypatch.setattr(invariants, "_product_histogram", _refuse_to_build)
    with pytest.raises(InvariantError, match="exceed the cap"):
        boundary_hom_count_brute(build_group("symmetric:5"), 10_000_000, ())


# ---------------------------------------------------------------------------
# labeling oracle

def test_oracle_on_tetrahedron():
    G = build_group("cyclic:2")
    val = dw_labeling_oracle(G, trivial_cocycle(G), tetrahedron_sphere())
    assert val == Fraction(1, 2)


def test_oracle_on_seven_vertex_torus():
    G = build_group("cyclic:2")
    assert dw_labeling_oracle(G, trivial_cocycle(G), seven_vertex_torus()) == 2
    c = heisenberg_cocycle(2)
    assert dw_labeling_oracle(c.group, c, seven_vertex_torus()) == dw_direct(c.group, c, TORUS)


def test_oracle_guard_rejects_large_scans(monkeypatch):
    c = heisenberg_cocycle(3)
    monkeypatch.setattr(invariants, "MAX_ORACLE_STATES", 10 ** 5)
    with pytest.raises(InvariantError, match="beyond the limit 100000"):
        dw_labeling_oracle(c.group, c, seven_vertex_torus())


class EngineReached(Exception):
    pass


def _refuse_to_enumerate(*args, **kwargs):
    raise EngineReached("the labeling engine ran")


@pytest.mark.parametrize("gspec,error,match", [
    ("cyclic:7", EngineReached, "the labeling engine ran"),    # 37451589 states
    ("quaternion:8", InvariantError, "needs 107816072 states"),
])
def test_oracle_guard_counts_states_before_enumerating(monkeypatch, gspec, error, match):
    """The default limit of 10^8 states runs every order up to 7 on the
    seven-vertex torus and refuses order 8 without building a table."""
    G = build_group(gspec)
    monkeypatch.setattr(invariants, "exact_contraction", _refuse_to_enumerate)
    with pytest.raises(error, match=match):
        dw_labeling_oracle(G, trivial_cocycle(G), seven_vertex_torus())


V4 = "product(cyclic:2,cyclic:2)"
LABELING_PINS = [
    ("cyclic:2", "trivial", tetrahedron_sphere, 34, [8]),
    ("cyclic:3", "trivial", tetrahedron_sphere, 102, [27]),
    (V4, "heisenberg:2", tetrahedron_sphere, 228, [64, 0]),
    ("cyclic:2", "trivial", seven_vertex_torus, 2234, [256]),
    ("cyclic:3", "trivial", seven_vertex_torus, 48837, [6561]),
    (V4, "heisenberg:2", seven_vertex_torus, 457380, [40960, 24576]),
]


@pytest.mark.parametrize("block,gspec,cname,surface,visited,counts",
                         [(block, *pin) for block in (None, 1 << 10, 1) for pin in LABELING_PINS
                          if block != 1 or pin[3] < 10 ** 4])
def test_labeling_engine_is_pinned(monkeypatch, block, gspec, cname, surface, visited, counts):
    """States and exponent histograms of the labeling oracle's engine, as a
    label-by-label backtracking search counts them, whatever the block size;
    a one-entry block holds one row, and the engine is that search."""
    (G, c), = catalog_pairs([(gspec, cname)])
    runs = []
    engine = invariants.exact_contraction

    def record(group, modulus, n_vars, terms, plan):
        out = engine(group, modulus, n_vars, terms, plan)
        runs.append((out, plan))
        return out

    monkeypatch.setattr(invariants, "exact_contraction", record)
    if block is not None:
        monkeypatch.setattr(invariants, "_BLOCK_ENTRIES", block)
    dw_labeling_oracle(G, c, surface())
    ((got_counts, got_visited), plan), = runs
    assert got_counts.tolist() == counts
    assert got_visited == visited == plan.estimate_nodes(G.order)


# ---------------------------------------------------------------------------
# block-dimension formulas

def test_verlinde_spot_values():
    c = heisenberg_cocycle(2)
    dec = wedderburn_decompose(TwistedGroupAlgebra(c.group, c))
    assert verlinde(dec, GENUS2) == 4
    S3 = build_group("symmetric:3")
    decS3 = wedderburn_decompose(TwistedGroupAlgebra(S3, trivial_cocycle(S3)))
    assert verlinde(decS3, GENUS2) == 81
    assert verlinde(decS3, TORUS) == 3
    assert verlinde(decS3, SPHERE) == Fraction(1, 6)


def test_verlinde_torus_counts_blocks():
    for gspec in ["cyclic:5", "dihedral:8", "quaternion:8"]:
        G = build_group(gspec)
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G)))
        assert verlinde(dec, TORUS) == dec.block_count()


def test_verlinde_klein_bottle_z3():
    G = build_group("cyclic:3")
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G)))
    assert verlinde(dec, KLEIN) == 1


def test_verlinde_needs_indicators_for_nonorientable():
    c = heisenberg_cocycle(3)       # not sign-valued: no involution, so no indicators
    dec = wedderburn_decompose(TwistedGroupAlgebra(c.group, c))
    with pytest.raises(InvariantError):
        verlinde(dec, KLEIN)


def test_hom_count_formula():
    S3 = build_group("symmetric:3")
    assert mednykh_count(S3, TORUS) == 18
    assert mednykh_count(build_group("cyclic:2"), GENUS2) == 16
    assert mednykh_count(S3, SPHERE) == 1
    # 120 * sum (120/d)^10 over d = 1,1,4,4,5,5,6: past 2^53, so summed exactly
    assert (mednykh_count(build_group("symmetric:5"), SurfaceSpec(True, 6))
            == 148601832300811431690240)
    with pytest.raises(InvariantError):
        mednykh_count(S3, KLEIN)


def test_boundary_formula_matches_brute_force():
    S3 = build_group("symmetric:3")
    for rep in conjugacy_classes(S3).representatives:
        assert boundary_hom_count(S3, 1, (rep,)) == boundary_hom_count_brute(S3, 1, (rep,))
    Z2 = build_group("cyclic:2")
    assert boundary_hom_count(Z2, 0, (1, 1)) == boundary_hom_count_brute(Z2, 0, (1, 1)) == 1
    assert boundary_hom_count(S3, 0, (0,)) == 1   # disk: only the trivial assignment


def test_boundary_formula_is_exact_past_double_precision():
    S5 = build_group("symmetric:5")
    assert boundary_hom_count(S5, 2, (0,)) == mednykh_count(S5, GENUS2) == 120 * 32152
    # past 2^53: 120 times the Verlinde value 1238348602506761930752 at genus 6
    assert (boundary_hom_count(S5, 6, (0,)) == mednykh_count(S5, SurfaceSpec(True, 6))
            == 148601832300811431690240 == 120 * 1238348602506761930752)


def test_boundary_formula_two_holes():
    S3 = build_group("symmetric:3")
    reps = conjugacy_classes(S3).representatives
    for r1 in reps:
        for r2 in reps:
            assert (boundary_hom_count(S3, 0, (r1, r2))
                    == boundary_hom_count_brute(S3, 0, (r1, r2)))


def test_boundary_formula_genus_one_two_holes():
    S3 = build_group("symmetric:3")
    reps = conjugacy_classes(S3).representatives
    for r1 in reps:
        assert (boundary_hom_count(S3, 1, (r1, reps[1]))
                == boundary_hom_count_brute(S3, 1, (r1, reps[1])))


def test_classes_and_regular_count_are_built_once(monkeypatch):
    built = []
    make = groups.ConjugacyClasses
    monkeypatch.setattr(groups, "ConjugacyClasses", lambda *a: built.append(a) or make(*a))
    G = build_group("dihedral:8")
    c = sign_cocycles_catalog(G)[1]
    assert conjugacy_classes(G) is conjugacy_classes(G)
    assert c_regular_count(G, c) == 2
    # a second count returns the stored one and does not scan the table again
    object.__setattr__(c, "exps", np.zeros((8, 8), dtype=np.int64))
    assert c_regular_count(G, c) == 2
    assert c_regular_count(G, TwoCocycle(G, 2, c.exps)) == conjugacy_classes(G).count == 5
    assert len(built) == 1
    # one Verlinde cross_check reads the classes of its group once
    Q = build_group("quaternion:8")
    assert cross_check(Q, trivial_cocycle(Q), TORUS, methods=("verlinde",)).passed
    assert len(built) == 2


SMALL_GROUPS = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "cyclic:8",
                "symmetric:3", "dihedral:8", "quaternion:8", "product(cyclic:2,cyclic:2)",
                "product(cyclic:2,cyclic:4)"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.integers(0, 1), st.data())
def test_boundary_brute_force_matches_tuple_enumeration(gspec, genus, data):
    G = build_group(gspec)
    boundary = tuple(data.draw(st.lists(st.integers(0, G.order - 1), max_size=2)))
    assert boundary_hom_count_brute(G, genus, boundary) == boundary_tuples(G, genus, boundary)


def test_boundary_brute_force_cap(monkeypatch):
    G = build_group("quaternion:8")
    monkeypatch.setattr(invariants, "MAX_HOM_TUPLES", 10 ** 4)
    with pytest.raises(InvariantError, match="exceed the cap of 10000"):
        boundary_hom_count_brute(G, 3, (0,))
    assert boundary_hom_count_brute(G, 2, (0,)) == count_homs(G, relator_presentation(GENUS2))


def test_larger_bilinear_cocycles_keep_routes_in_step():
    # orders beyond the validation catalog exercise the chunked enumerator
    # and the contraction on larger domains
    from dwsurf.state_sum import run_state_sum
    from dwsurf.surfaces import standard_triangulation
    for n in (4, 5):
        c = heisenberg_cocycle(n)
        G = c.group
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
        assert dec.dims == (n,)
        direct = dw_direct(G, c, GENUS2)
        formula = verlinde(dec, GENUS2)
        assert direct == formula == n * n
        res = run_state_sum(TwistedGroupAlgebra(G, c), standard_triangulation(GENUS2))
        assert Fraction(G.order) ** (-GENUS2.chi) * res.value == n * n


# ---------------------------------------------------------------------------
# cross-check reports

def test_cross_check_symmetric3_genus2():
    S3 = build_group("symmetric:3")
    rep = cross_check(S3, trivial_cocycle(S3), GENUS2, oracle=False)
    assert rep.passed
    assert all(v == 81 for v in rep.values.values())
    assert rep.integrality["nearest"] == 81
    assert rep.diagnostics["block_dims"] == [1, 1, 2]


def test_cross_check_with_oracle_on_torus():
    c = heisenberg_cocycle(2)
    rep = cross_check(c.group, c, TORUS, oracle=True)
    assert rep.passed
    assert "labeling_oracle" in rep.values


def test_cross_check_nonorientable():
    c = heisenberg_cocycle(2)
    rep = cross_check(c.group, c, P2)
    assert rep.passed
    assert all(v == Fraction(1, 2) for v in rep.values.values())
    assert rep.integrality is None   # chi = 1
    rep = cross_check(c.group, c, KLEIN)
    assert rep.passed
    assert rep.integrality["nearest"] == 1
    assert (rep.diagnostics["prime"], rep.diagnostics["split_steps"]) == (17, 0)   # one block


def test_cross_check_report_is_jsonable():
    import json
    G = build_group("cyclic:4")
    rep = cross_check(G, trivial_cocycle(G), N3)
    data = json.loads(json.dumps(rep.to_json()))
    assert data["passed"]
    assert set(data["values"]) == set(data["exact"]) == {"direct", "statesum", "verlinde"}
    assert set(data["exact"].values()) == {str(rep.values["direct"])}
    assert not {"tol", "max_deviation"} & set(data)
    assert "residual" not in data["integrality"]


def test_cross_check_sees_differences_below_double_resolution(monkeypatch):
    S3 = build_group("symmetric:3")
    real_verlinde = invariants.verlinde
    monkeypatch.setattr(invariants, "verlinde",
                        lambda dec, spec: real_verlinde(dec, spec) + Fraction(1, 10 ** 30))
    rep = cross_check(S3, trivial_cocycle(S3), GENUS2)
    assert not rep.passed
    assert rep.values["direct"] == rep.values["statesum"] == 81
    assert rep.integrality == {"nearest": 81, "integer": True, "positive_ok": True}
    monkeypatch.setattr(invariants, "dw_direct",
                        lambda G, c, spec: Fraction(2 ** 60 + 1, 2))
    rep = cross_check(S3, trivial_cocycle(S3), GENUS2, methods=("direct",))
    assert not rep.passed
    assert rep.integrality["integer"] is False and rep.integrality["positive_ok"]


def test_q8_over_v4_is_negative_at_odd_crosscaps():
    """The class of Q8 over (Z/2)^2 has one block, of dimension 2 and
    indicator -1: the value is (-2)^(k-2) at k crosscaps, and every route
    gives it, negative values included."""
    G = build_group("product(cyclic:2,cyclic:2)")
    c = TwoCocycle(G, 2, Q8_OVER_V4, "q8-over-v4")
    assert verify_cocycle(c).ok
    for k, want in enumerate((Fraction(-1, 2), 1, -2, 4, -8), start=1):
        rep = cross_check(G, c, SurfaceSpec(False, k))
        assert rep.passed, k
        assert set(rep.values) == {"direct", "statesum", "verlinde"}
        assert set(rep.values.values()) == {want}, k
        assert rep.diagnostics["block_dims"] == [2] and rep.diagnostics["fs"] == [-1]


@pytest.mark.parametrize("k,value,passed", [(3, -2, True), (5, -8, True), (4, -4, False),
                                            (2, -1, False), (3, Fraction(-3, 2), False)])
def test_nonorientable_sign_rule(monkeypatch, k, value, passed):
    """An integer from 2 crosscaps on, and >= 0 only at even k."""
    G = build_group("cyclic:2")
    monkeypatch.setattr(invariants, "dw_direct", lambda G, c, spec: Fraction(value))
    rep = cross_check(G, trivial_cocycle(G), SurfaceSpec(False, k), methods=("direct",))
    assert rep.passed is passed
    assert rep.integrality["positive_ok"] is (k % 2 == 1)


def test_block_dimensions_must_divide_the_group_order(monkeypatch):
    """The degree of an irreducible projective representation divides #G.
    On the torus the Verlinde value counts the blocks whatever their
    dimensions, so a symmetric:3 decomposition with dimensions 1, 1, 4 has
    the right count and the integer value 3, and fails on the divisibility
    alone."""
    S3 = build_group("symmetric:3")
    rep = cross_check(S3, trivial_cocycle(S3), TORUS, methods=("verlinde",))
    assert rep.passed and rep.diagnostics["dims_divide_order"] is True
    decompose = invariants.wedderburn_decompose

    def four(A):
        dec = decompose(A)
        return replace(dec, blocks=(*dec.blocks[:2], replace(dec.blocks[2], dim=4)))

    monkeypatch.setattr(invariants, "wedderburn_decompose", four)
    rep = cross_check(S3, trivial_cocycle(S3), TORUS, methods=("verlinde",))
    assert rep.values == {"verlinde": 3} and rep.integrality["integer"]
    assert rep.diagnostics["block_count_matches_regular_classes"] is True
    assert rep.diagnostics["dims_divide_order"] is False and not rep.passed


def test_cross_check_has_no_tolerance():
    G = build_group("cyclic:2")
    with pytest.raises(TypeError):
        cross_check(G, trivial_cocycle(G), TORUS, tol=1e-8)


def test_regression_fixture_of_catalog_values():
    # frozen invariants on the torus and genus-2 surface, one per catalog pair
    expected_torus = {
        "cyclic:1": 1, "cyclic:2": 2, "cyclic:3": 3, "cyclic:4": 4, "cyclic:5": 5,
        "cyclic:6": 6, "symmetric:3": 3, "quaternion:8": 5, "dihedral:8": 5,
    }
    for gspec, want in expected_torus.items():
        G = build_group(gspec)
        assert dw_direct(G, trivial_cocycle(G), TORUS) == want
    assert dw_direct(*(lambda c: (c.group, c))(heisenberg_cocycle(2)), TORUS) == 1
    assert dw_direct(*(lambda c: (c.group, c))(heisenberg_cocycle(3)), TORUS) == 1
    # genus-3 value equals #Hom/#G for the trivial class: 16038/6
    S3 = build_group("symmetric:3")
    assert dw_direct(S3, trivial_cocycle(S3), SurfaceSpec(True, 3)) == 2673
