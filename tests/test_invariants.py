import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwsurf import invariants
from dwsurf.algebra import TwistedGroupAlgebra, fs_indicators, wedderburn_decompose
from dwsurf.cli import main
from dwsurf.cocycles import (RootOfUnity, TwoCocycle, heisenberg_cocycle,
                             sign_cocycles_catalog, trivial_cocycle, twist)
from dwsurf.groups import build_group, conjugacy_classes, involution_set
from dwsurf.invariants import (InvariantError, boundary_hom_count, boundary_hom_count_brute,
                               catalog_pairs, count_homs, cross_check, dw_direct,
                               dw_labeling_oracle, mednykh_count, sign_catalog_pairs, verlinde)
from dwsurf.invariants import _direct_counts
from dwsurf.state_sum import fhk_state_sum, run_state_sum, star_state_sum
from dwsurf.surfaces import (RelatorPresentation, SurfaceSpec, relator_presentation,
                             seven_vertex_torus, standard_triangulation, tetrahedron_sphere)
from oracles import enumerate_homs, relator_weight, weight_sum

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
    assert all(G.mul(a, b) == G.mul(b, a) for a, b in homs)


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


def test_count_homs_cap():
    G = build_group("quaternion:8")
    with pytest.raises(InvariantError):
        count_homs(G, relator_presentation(SurfaceSpec(True, 3)), cap=10 ** 4)


# ---------------------------------------------------------------------------
# weights

def test_trivial_weight_is_one():
    G = build_group("symmetric:3")
    c = trivial_cocycle(G)
    pres = relator_presentation(TORUS)
    for hom in enumerate_homs(G, pres):
        assert relator_weight(c, pres, hom) == RootOfUnity.one()


def test_heisenberg_torus_weight_is_the_commutator_pairing():
    c = heisenberg_cocycle(2)
    pres = relator_presentation(TORUS)
    # generators mapped to (1,0) and (0,1): indices 2 and 1
    assert relator_weight(c, pres, (2, 1)) == RootOfUnity(1, 2)


def test_weight_with_one_generator_trivialized():
    c = heisenberg_cocycle(3)
    pres = relator_presentation(TORUS)
    for a in range(9):
        assert relator_weight(c, pres, (a, 0)) == RootOfUnity.one()


def test_orientation_convention_pin():
    # frozen: generators of the order-3 case mapped to ((1,0),(0,1)) weigh zeta_3^2
    c = heisenberg_cocycle(3)
    assert relator_weight(c, relator_presentation(TORUS), (3, 1)) == RootOfUnity(2, 3)


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
            w = relator_weight(c, pres, (int(g),))
            assert np.isclose(w.value, c.complex_table[g, g])


def test_klein_weight_example():
    c = heisenberg_cocycle(2)
    pres = relator_presentation(KLEIN)
    assert relator_weight(c, pres, (1, 2)) == RootOfUnity.one()


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
        b = [RootOfUnity(0, 1)] + [RootOfUnity(int(rng.integers(6)), 6) for _ in range(8)]
        assert dw_direct(c.group, twist(c, b), GENUS2) == base


# ---------------------------------------------------------------------------
# transfer operator against the brute-force enumeration

def _weight_histogram(c, spec):
    """Histogram over k mod N of the relator weights zeta_N^k of every homomorphism."""
    pres = relator_presentation(spec)
    want = np.zeros(c.order, dtype=np.int64)
    for hom in enumerate_homs(c.group, pres):
        w = relator_weight(c, pres, hom)
        want[w.numerator * c.order // w.order] += 1
    return want


SMALL_GROUPS = ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "product(cyclic:2,cyclic:2)",
                "cyclic:5", "symmetric:3", "cyclic:6", "quaternion:8", "dihedral:8", "cyclic:8")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_transfer_histogram_equals_brute_force_on_random_tables(data):
    """Any table in [0, N), cocycle or not, normalized or not."""
    G = build_group(data.draw(st.sampled_from(SMALL_GROUPS)))
    orientable = data.draw(st.booleans())
    genus = data.draw(st.integers(0, 2) if orientable else st.integers(1, 3))
    N = data.draw(st.integers(1, 6))
    flat = data.draw(st.lists(st.integers(0, N - 1), min_size=G.order ** 2,
                              max_size=G.order ** 2))
    c = TwoCocycle(G, N, np.reshape(flat, (G.order, G.order)))
    spec = SurfaceSpec(orientable, genus)
    assert np.array_equal(_direct_counts(G, c, spec), _weight_histogram(c, spec))


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
    dec = fs_indicators(wedderburn_decompose(A))
    values = [dw_direct(G, c, KLEIN), verlinde(dec, KLEIN), verlinde(dec, SPHERE),
              dw_labeling_oracle(G, c, tetrahedron_sphere()),
              fhk_state_sum(A, standard_triangulation(GENUS2)),
              star_state_sum(A, standard_triangulation(KLEIN)),
              run_state_sum(A, standard_triangulation(TORUS)).value]
    assert all(type(v) is Fraction for v in values)
    assert values[:4] == [1, 1, Fraction(1, 4), Fraction(1, 4)]


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("the transfer operator was built")


def test_direct_refuses_int64_overflow_before_building(monkeypatch):
    G = build_group("symmetric:5")
    monkeypatch.setattr(invariants, "_operator_rows", _refuse_to_build)
    with pytest.raises(InvariantError, match="overflow"):
        dw_direct(G, trivial_cocycle(G), SurfaceSpec(True, 5))   # 120^10 >= 2^63


def test_direct_overflow_is_a_computation_error(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "_operator_rows", _refuse_to_build)
    code = main(["compute", "--group", "symmetric:5", "--surface", "orientable:5",
                 "--method", "direct"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"].startswith("InvariantError")


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


def test_oracle_guard_rejects_large_scans():
    c = heisenberg_cocycle(3)
    with pytest.raises(InvariantError):
        dw_labeling_oracle(c.group, c, seven_vertex_torus(), node_limit=10 ** 5)


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

    def record(group, modulus, n_vars, var_exp, terms, plan):
        out = engine(group, modulus, n_vars, var_exp, terms, plan)
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
    dec = fs_indicators(wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G))))
    assert verlinde(dec, KLEIN) == 1


def test_verlinde_needs_indicators_for_nonorientable():
    G = build_group("cyclic:3")
    dec = wedderburn_decompose(TwistedGroupAlgebra(G, trivial_cocycle(G)))
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


def test_boundary_formula_refuses_counts_past_double_precision():
    S5 = build_group("symmetric:5")
    assert boundary_hom_count(S5, 2, (0,)) == mednykh_count(S5, GENUS2) == 120 * 32152
    # the true count, 148601832300811431690240, needs more than a double's 53 bits
    with pytest.raises(InvariantError, match="2\\^53"):
        boundary_hom_count(S5, 6, (0,))


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
    assert rep.diagnostics["fs_rounding_residual"] < 1e-12


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
