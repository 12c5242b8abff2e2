import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dwsurf import invariants, state_sum
from dwsurf.algebra import AlgebraError, TwistedGroupAlgebra
from dwsurf.cocycles import heisenberg_cocycle, sign_cocycles_catalog, trivial_cocycle, twist
from dwsurf.groups import build_group, conjugacy_classes
from dwsurf.memo import run_scope
from dwsurf.invariants import dw_labeling_oracle
from dwsurf.state_sum import ContractionError, plan_from_terms, run_state_sum
from dwsurf.surfaces import (GluedTriangulation, SurfaceSpec, flip_triangle, pachner_13,
                             pachner_22, pachner_variants, seven_vertex_torus,
                             standard_triangulation, tetrahedron_sphere)
from oracles import dense_state_sum, rescan_plan, simplicial_to_glued, structure_constants


def algebra(gspec, c=None):
    G = build_group(gspec)
    return TwistedGroupAlgebra(G, c if c is not None else trivial_cocycle(G))


def matrix_structure_constants(d):
    """Structure constants of the d x d matrix algebra in the unit basis."""
    C = np.zeros((d * d, d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    if b == c:
                        C[a * d + b, c * d + e, a * d + e] = 1.0
    return C


# ---------------------------------------------------------------------------
# contraction plans: they depend only on the triangulation's edges

def plan_of(tri):
    return run_state_sum(algebra("cyclic:1"), tri).plan


def test_torus_plan_has_two_free_edges():
    tri = standard_triangulation(SurfaceSpec(True, 1))
    plan = plan_of(tri)
    assert plan.free_count == 2
    assert plan.kinds.count("forced") == 1


def test_sphere_plan_fixes_two_edges_and_frees_none():
    # three vertices: a spanning tree of two edges is fixed, and it forces the third
    plan = plan_of(standard_triangulation(SurfaceSpec(True, 0)))
    assert plan.kinds == ("fixed", "fixed", "forced")
    assert plan.free_count == 0


@pytest.mark.parametrize("orientable", [True, False])
def test_standard_plans_have_the_fewest_free_edges(orientable):
    """Every gauge-fixed plan has at least 2 - chi free edges, the bound the
    state sum refuses by before planning; the standard fans meet it exactly."""
    for genus in range(0 if orientable else 1, 9):
        tri = standard_triangulation(SurfaceSpec(orientable, genus))
        assert plan_of(tri).free_count == 2 - tri.euler_characteristic, genus
        for variant in pachner_variants(tri, 3, seed=genus):
            assert plan_of(variant).free_count >= 2 - variant.euler_characteristic


def test_fixed_edges_form_a_spanning_tree():
    """The fixed steps come first and are the edges of a spanning tree of
    the 1-skeleton: V - 1 edges that reach every vertex."""
    tris = [standard_triangulation(SurfaceSpec(o, g)) for o, g in
            [(True, 0), (True, 1), (True, 2), (False, 1), (False, 2), (False, 3)]]
    tris += [variant for tri in list(tris) for variant in pachner_variants(tri, 4, seed=3)]
    tris += [subdivided_torus(), simplicial_to_glued(seven_vertex_torus()),
             flip_triangle(simplicial_to_glued(tetrahedron_sphere()), 1)]
    for tri in tris:
        plan = plan_of(tri)
        fixed = plan.order[:plan.kinds.count("fixed")]
        assert "fixed" not in plan.kinds[len(fixed):]
        oriented = tri.oriented() if tri.orientable else tri
        flags = [f for f in range(oriented.n_flags) if f < oriented.pairing[f]]
        vertex = oriented.corner_vertices
        ends = [{vertex[flags[v]], vertex[3 * (flags[v] // 3) + (flags[v] + 1) % 3]}
                for v in fixed]
        reached, grown = set(), {0}
        while grown != reached:
            reached, grown = grown, grown.union(*(e for e in ends if e & grown))
        assert len(fixed) == tri.n_vertices - 1
        assert reached == set(range(tri.n_vertices))


def _plan_inputs(tri):
    """(n_vars, edge-variable triples) of the state sum on tri, oriented first
    as the engine does."""
    n_vars, slots, _ = state_sum._gluing_slots(tri)
    return n_vars, [edges for edges, _, _ in slots]


def test_plans_match_the_rescan_reference(monkeypatch):
    """The heap planner picks what a rescan of every term at every step picks:
    on the standard triangulations, Pachner variants and one-triangle flips
    of seven bases, and on the labeling oracle's two simplicial surfaces."""
    tris = [standard_triangulation(SurfaceSpec(True, g)) for g in range(13)]
    tris += [standard_triangulation(SurfaceSpec(False, g)) for g in range(1, 13)]
    for orientable, genus in [(True, 0), (True, 1), (True, 2), (True, 3),
                              (False, 1), (False, 2), (False, 3)]:
        base = standard_triangulation(SurfaceSpec(orientable, genus))
        for seed in range(20):
            tris += pachner_variants(base, 4, seed)
        tris += [flip_triangle(base, t) for t in range(base.n_triangles)]
    inputs = [_plan_inputs(tri) for tri in tris]
    plan = invariants.plan_from_terms
    monkeypatch.setattr(invariants, "plan_from_terms",
                        lambda n, term_vars: inputs.append((n, term_vars)) or plan(n, term_vars))
    G = build_group("cyclic:1")
    for surf in (tetrahedron_sphere(), seven_vertex_torus()):
        dw_labeling_oracle(G, trivial_cocycle(G), surf)
    assert len(inputs) == 613 + 2
    for n_vars, term_vars in inputs:
        got = plan_from_terms(n_vars, term_vars)
        assert (got.order, got.kinds) == rescan_plan(n_vars, term_vars)


def test_planning_is_near_linear_at_large_genus():
    # a rescan of every term at every step needs O(E T), tens of seconds at this genus;
    # the heap planner needs O((E + T) log(E + T)), hundredths of a second
    tri = standard_triangulation(SurfaceSpec(True, 3000))
    n_vars, term_vars = _plan_inputs(tri)
    start = time.perf_counter()
    plan = plan_from_terms(n_vars, term_vars)
    assert time.perf_counter() - start < 2
    assert plan.free_count == tri.n_edges - tri.n_triangles + 1


def test_genus_two_plan_bound():
    tri = standard_triangulation(SurfaceSpec(True, 2))
    plan = plan_of(tri)
    assert plan.free_count <= 5           # node bound |G|^free <= |G|^5
    assert len(plan.order) == tri.n_edges
    assert sorted(plan.order) == list(range(tri.n_edges))


def test_estimate_bounds_actual_visits():
    for name in ["orientable:1", "orientable:2", "nonorientable:3"]:
        spec = SurfaceSpec.parse(name)
        tri = standard_triangulation(spec)
        A = algebra("symmetric:3") if spec.orientable else algebra("cyclic:4")
        res = run_state_sum(A, tri)
        assert res.states_visited <= res.plan.estimate_nodes(A.group.order)


# ---------------------------------------------------------------------------
# closed-form values

@pytest.mark.parametrize("gspec,c", [
    ("cyclic:2", None), ("symmetric:3", None), ("quaternion:8", None),
    (None, heisenberg_cocycle(2)), (None, heisenberg_cocycle(3))])
def test_sphere_state_sum_is_algebra_dimension(gspec, c):
    A = TwistedGroupAlgebra(c.group, c) if c else algebra(gspec)
    val = run_state_sum(A, standard_triangulation(SurfaceSpec(True, 0))).value
    assert val == A.dim


def test_torus_state_sum_counts_regular_classes():
    A = algebra("symmetric:3")
    val = run_state_sum(A, standard_triangulation(SurfaceSpec(True, 1))).value
    assert val == conjugacy_classes(A.group).count
    c = heisenberg_cocycle(2)
    A2 = TwistedGroupAlgebra(c.group, c)
    assert run_state_sum(A2, standard_triangulation(SurfaceSpec(True, 1))).value == 1


def test_admissible_labelings_are_counted_exactly():
    A = algebra("symmetric:3")
    res = run_state_sum(A, standard_triangulation(SurfaceSpec(True, 1)))
    # one-vertex torus: admissible labelings = commuting pairs
    assert res.counts.sum() == 18
    assert res.modulus == 1


def test_run_scope_contracts_each_state_sum_once(monkeypatch):
    # keyed by the cocycle table and the gluing; the shared counts are frozen
    calls = []
    contract = state_sum.exact_contraction
    monkeypatch.setattr(state_sum, "exact_contraction",
                        lambda *args: calls.append(args[1]) or contract(*args))
    c = heisenberg_cocycle(2)
    twisted = twist(c, [0, 1, 0, 0], 2)
    torus = standard_triangulation(SurfaceSpec(True, 1))
    with run_scope():
        results = [run_state_sum(TwistedGroupAlgebra(c.group, x), tri)
                   for x, tri in ((c, torus), (c, torus), (twisted, torus),
                                  (c, pachner_13(torus, 0)))]
    assert len(calls) == 3 and results[1] is results[0]
    assert results[2] is not results[0] and results[2].value == results[0].value
    assert not results[0].counts.flags.writeable
    run_state_sum(TwistedGroupAlgebra(c.group, c), torus)
    assert len(calls) == 4    # outside the scope nothing is kept


def test_run_scope_derives_each_gluing_once(monkeypatch):
    """A gluing's slots and plan, with its schedule, are derived once inside
    a run scope, whichever cocycle is contracted on it and whichever object
    holds the gluing; outside the scope every call derives them again.  The
    labeling oracle plans its surface on every call, in a scope or not."""
    derived, planned, oracle_planned = [], [], []
    derive, plan = state_sum._derive_gluing_slots, state_sum.plan_from_terms
    monkeypatch.setattr(state_sum, "_derive_gluing_slots",
                        lambda tri: derived.append(tri) or derive(tri))
    monkeypatch.setattr(state_sum, "plan_from_terms",
                        lambda n, term_vars, tree: planned.append(n) or plan(n, term_vars, tree))
    monkeypatch.setattr(invariants, "plan_from_terms",
                        lambda n, term_vars, *tree: oracle_planned.append(tree)
                        or plan(n, term_vars, *tree))
    c = heisenberg_cocycle(2)
    twisted = twist(c, [0, 1, 0, 0], 2)
    torus = standard_triangulation(SurfaceSpec(True, 1))
    copy = GluedTriangulation(torus.n_triangles, torus.pairing.copy(), torus.reversal.copy())
    with run_scope():
        results = [run_state_sum(TwistedGroupAlgebra(c.group, x), tri)
                   for x, tri in ((c, torus), (twisted, copy))]
        oracle = [dw_labeling_oracle(c.group, x, seven_vertex_torus()) for x in (c, twisted)]
    assert len(derived) == len(planned) == 1
    assert oracle_planned == [(), ()] and oracle[0] == oracle[1] == results[0].value
    assert results[1] is not results[0] and results[1].value == results[0].value
    assert results[1].plan is results[0].plan
    assert results[1].plan.steps is results[0].plan.steps
    for x in (c, twisted):
        run_state_sum(TwistedGroupAlgebra(c.group, x), torus)
    assert len(derived) == len(planned) == 3    # outside the scope nothing is kept


def test_projective_plane_star_values():
    A = algebra("cyclic:3")
    assert run_state_sum(A, standard_triangulation(SurfaceSpec(False, 1))).value == 1
    A2 = algebra("cyclic:2")
    assert run_state_sum(A2, standard_triangulation(SurfaceSpec(False, 1))).value == 2


def test_klein_bottle_heisenberg_value():
    c = heisenberg_cocycle(2)
    A = TwistedGroupAlgebra(c.group, c)
    assert run_state_sum(A, standard_triangulation(SurfaceSpec(False, 2))).value == 1


# ---------------------------------------------------------------------------
# dense reference contraction

@pytest.mark.parametrize("d", [1, 2, 3])
def test_matrix_algebra_closed_form(d):
    C = matrix_structure_constants(d)
    sphere = standard_triangulation(SurfaceSpec(True, 0))
    torus = standard_triangulation(SurfaceSpec(True, 1))
    assert abs(dense_state_sum(C, sphere) - d ** 2) < 1e-8
    assert abs(dense_state_sum(C, torus) - 1) < 1e-8


@pytest.mark.parametrize("c", [None, heisenberg_cocycle(2)])
def test_dense_contraction_matches_sparse_engine(c):
    A = TwistedGroupAlgebra(c.group, c) if c else algebra("quaternion:8")
    C = structure_constants(A)
    for name in ["orientable:0", "orientable:1"]:
        tri = standard_triangulation(SurfaceSpec.parse(name))
        dense = dense_state_sum(C, tri)
        sparse = run_state_sum(A, tri).value
        assert abs(dense - sparse) < 1e-8 * max(1.0, abs(sparse))


# ---------------------------------------------------------------------------
# invariance properties

def test_pachner_invariance_on_spheres():
    sphere = standard_triangulation(SurfaceSpec(True, 0))
    for A in [algebra("symmetric:3"), TwistedGroupAlgebra(*(lambda c: (c.group, c))(heisenberg_cocycle(2)))]:
        base = run_state_sum(A, sphere).value
        for tri in pachner_variants(sphere, 3, seed=11):
            assert run_state_sum(A, tri).value == base


def test_seven_vertex_torus_gluing_matches_one_vertex_torus():
    from dwsurf.surfaces import seven_vertex_torus
    big = simplicial_to_glued(seven_vertex_torus())
    small = standard_triangulation(SurfaceSpec(True, 1))
    for c in [trivial_cocycle(build_group("cyclic:2")), heisenberg_cocycle(2)]:
        A = TwistedGroupAlgebra(c.group, c)
        # the invariant scales by #G^chi = 1 on the torus, so raw sums agree
        want = run_state_sum(A, small).value
        got = run_state_sum(A, big).value
        assert got == want


def test_pachner_invariance_on_torus():
    torus = standard_triangulation(SurfaceSpec(True, 1))
    A = algebra("dihedral:8")
    base = run_state_sum(A, torus).value
    for tri in pachner_variants(torus, 3, seed=5):
        assert run_state_sum(A, tri).value == base


def test_orientation_flip_invariance():
    for name in ["nonorientable:1", "nonorientable:2"]:
        tri = standard_triangulation(SurfaceSpec.parse(name))
        G = build_group("product(cyclic:2,cyclic:2)")
        for c in sign_cocycles_catalog(G):
            A = TwistedGroupAlgebra(G, c)
            base = run_state_sum(A, tri).value
            for t in range(tri.n_triangles):
                assert run_state_sum(A, flip_triangle(tri, t)).value == base


def test_star_agrees_with_plain_sum_on_orientable_surfaces():
    G = build_group("dihedral:8")
    for c in sign_cocycles_catalog(G):
        A = TwistedGroupAlgebra(G, c)
        for name in ["orientable:0", "orientable:1"]:
            tri = standard_triangulation(SurfaceSpec.parse(name))
            # a mixed orientation of an orientable surface is oriented first
            assert run_state_sum(A, flip_triangle(tri, 0)).value == run_state_sum(A, tri).value


def test_coboundary_invariance_of_state_sums():
    c = heisenberg_cocycle(2)
    G = c.group
    A = TwistedGroupAlgebra(G, c)
    rng = np.random.default_rng(8)
    torus = standard_triangulation(SurfaceSpec(True, 1))
    klein = standard_triangulation(SurfaceSpec(False, 2))
    base_t, base_k = run_state_sum(A, torus).value, run_state_sum(A, klein).value
    for _ in range(20):
        b = [0] + [int(rng.integers(2)) for _ in range(3)]
        At = TwistedGroupAlgebra(G, twist(c, b, 2))
        assert run_state_sum(At, torus).value == base_t
        assert run_state_sum(At, klein).value == base_k


# ---------------------------------------------------------------------------
# errors and bounds

def test_star_rejects_complex_valued_cocycles():
    c = heisenberg_cocycle(3)
    A = TwistedGroupAlgebra(c.group, c)
    with pytest.raises(AlgebraError):
        run_state_sum(A, standard_triangulation(SurfaceSpec(False, 2)))


def test_int64_overflow_is_refused_before_contracting():
    # symmetric:5 at genus 5 has 10 free edges: 120^10 labelings exceed 2^63
    A = algebra("symmetric:5")
    with pytest.raises(ContractionError, match="2\\^63"):
        run_state_sum(A, standard_triangulation(SurfaceSpec(True, 5)))


def test_overflow_is_refused_before_planning(monkeypatch):
    """2^(E - T + 1) already reaches 2^63 at genus 1000; the refusal comes
    before the terms and the plan are built."""
    monkeypatch.setattr(state_sum, "plan_from_terms", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ContractionError, match="2\\^2000 labelings reach the int64 bound"):
        run_state_sum(algebra("cyclic:2"), standard_triangulation(SurfaceSpec(True, 1000)))


def test_contraction_keeps_its_own_overflow_guard():
    A = algebra("symmetric:5")
    n_vars, terms, plan = state_sum._edge_terms(A, standard_triangulation(SurfaceSpec(True, 5)))
    with pytest.raises(ContractionError, match="120\\^10 labelings"):
        state_sum.exact_contraction(A.group, A.cocycle.order, n_vars, terms, plan)


def subdivided_torus():
    """The torus after 11 round-robin subdivisions: an 11-edge frontier."""
    tri = standard_triangulation(SurfaceSpec(True, 1))
    for i in range(11):
        tri = pachner_13(tri, i % tri.n_triangles)
    return tri


def test_table_size_is_bounded():
    """Gauge-fixed, the subdivided torus costs quaternion:8 what the
    one-vertex torus does; the same terms planned without the tree still
    outgrow MAX_TABLE_ROWS, and the contraction refuses them."""
    tri = subdivided_torus()
    A = algebra("quaternion:8")
    res = run_state_sum(A, tri)
    assert res.value == 5 and res.states_visited <= 1000
    assert run_state_sum(algebra("cyclic:2"), tri).value == 2
    n_vars, terms, _ = state_sum._edge_terms(A, tri)
    unfixed = plan_from_terms(n_vars, [term.vars for term in terms])
    with pytest.raises(ContractionError, match=str(state_sum.MAX_TABLE_ROWS)):
        state_sum.exact_contraction(A.group, A.cocycle.order, n_vars, terms, unfixed)


def test_symmetric5_refined_genus2_state_sum():
    """Eleven subdivisions give 12 vertices and E - T + 1 = 15: the labelings
    of every edge would be 120^15, past 2^63, but the gauge-fixed plan has
    the 4 free edges of the one-vertex surface."""
    A = algebra("symmetric:5")
    tri = standard_triangulation(SurfaceSpec(True, 2))
    for i in range(11):
        tri = pachner_13(tri, i % tri.n_triangles)
    assert tri.n_vertices == 12 and tri.n_edges - tri.n_triangles + 1 == 15
    res = run_state_sum(A, tri)
    assert res.plan.free_count == 4
    assert Fraction(120) ** 2 * res.value == 32152


def test_symmetric5_genus2_state_sum():
    A = algebra("symmetric:5")
    spec = SurfaceSpec(True, 2)
    res = run_state_sum(A, standard_triangulation(spec))
    # sum over the irreducible degrees 1,1,4,4,5,5,6 of (120/d)^2
    assert isinstance(res.value, Fraction)
    assert Fraction(120) ** (-spec.chi) * res.value == 32152


# ---------------------------------------------------------------------------
# frontier table against the labeling oracle's block-wise enumeration engine

def _property_pairs():
    pairs = []
    for gspec in ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "symmetric:3",
                  "dihedral:8", "quaternion:8", "product(cyclic:2,cyclic:2)"):
        G = build_group(gspec)
        pairs.append((G, trivial_cocycle(G)))
    c = heisenberg_cocycle(2)
    pairs.append((c.group, c))
    for gspec in ("cyclic:2", "cyclic:4", "dihedral:8", "quaternion:8"):
        G = build_group(gspec)
        pairs.extend((G, c) for c in sign_cocycles_catalog(G))
    # order-12 coboundary twists, where a weight and its negative differ
    rng = np.random.default_rng(12)
    for gspec in ("symmetric:3", "dihedral:8", "quaternion:8"):
        G = build_group(gspec)
        b = [0] + [int(rng.integers(12)) for _ in range(G.order - 1)]
        pairs.append((G, twist(trivial_cocycle(G), b, 12)))
    return pairs


PROPERTY_PAIRS = _property_pairs()
MOVES = st.lists(st.tuples(st.sampled_from(["13", "22", "flip"]), st.integers(0, 10 ** 6)),
                 max_size=4)


def apply_moves(tri, moves):
    for move, k in moves:
        if move == "13":
            tri = pachner_13(tri, k % tri.n_triangles)
        elif move == "flip":
            tri = flip_triangle(tri, k % tri.n_triangles)
        else:
            flippable = [f for f, p in tri.edge_flags() if f // 3 != p // 3]
            if flippable:
                tri = pachner_22(tri, flippable[k % len(flippable)])
    return tri


def oracle_counts(A, tri):
    """The labeling oracle's engine on the state sum's terms of tri, along
    the plan without the gauge tree: it labels every edge, so it counts
    each gauge-fixed labeling #G^(V - 1) times.  It refuses the gauge-fixed
    plan itself."""
    n_vars, terms, plan = state_sum._edge_terms(A, tri)
    if "fixed" in plan.kinds:
        with pytest.raises(invariants.InvariantError, match="fixed steps"):
            invariants.exact_contraction(A.group, A.cocycle.order, n_vars, terms, plan)
    unfixed = plan_from_terms(n_vars, [term.vars for term in terms])
    assert "fixed" not in unfixed.kinds
    return invariants.exact_contraction(A.group, A.cocycle.order, n_vars, terms, unfixed)[0]


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from(["orientable:0", "orientable:1", "nonorientable:2"]),
       pair=st.sampled_from(range(len(PROPERTY_PAIRS))), moves=MOVES)
def test_frontier_table_matches_backtracking(base, pair, moves):
    G, c = PROPERTY_PAIRS[pair]
    spec = SurfaceSpec.parse(base)
    assume(spec.orientable or c.is_sign_valued)
    A = TwistedGroupAlgebra(G, c)
    tri = apply_moves(standard_triangulation(spec), moves)
    table = run_state_sum(A, tri)
    assert table.counts.dtype == np.int64
    assert np.array_equal(oracle_counts(A, tri), G.order ** (tri.n_vertices - 1) * table.counts)
    assert Fraction(G.order) ** (-spec.chi) * table.value == invariants.dw_direct(G, c, spec)
    assert table.states_visited <= table.plan.estimate_nodes(G.order)


LONG_MOVES = st.lists(st.tuples(st.sampled_from(["13", "22", "flip"]), st.integers(0, 10 ** 6)),
                      min_size=4, max_size=16)


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from(["orientable:0", "orientable:1", "orientable:2", "nonorientable:1",
                             "nonorientable:2", "nonorientable:3"]),
       pair=st.sampled_from(range(len(PROPERTY_PAIRS))), moves=LONG_MOVES)
def test_gauge_fixed_state_sum_matches_direct_after_many_moves(base, pair, moves):
    """Long Pachner and flip sequences, with twisted and sign cocycles: the
    gauge-fixed state sum equals the direct route, and its plan fixes V - 1
    edges and keeps at least 2 - chi free."""
    G, c = PROPERTY_PAIRS[pair]
    spec = SurfaceSpec.parse(base)
    assume(spec.orientable or c.is_sign_valued)
    tri = apply_moves(standard_triangulation(spec), moves)
    res = run_state_sum(TwistedGroupAlgebra(G, c), tri)
    assert res.plan.kinds.count("fixed") == tri.n_vertices - 1
    assert res.plan.free_count >= 2 - spec.chi
    assert Fraction(G.order) ** (-spec.chi) * res.value == invariants.dw_direct(G, c, spec)


def test_engines_index_products_past_the_label_type():
    """Order 20: a label fits one byte but the flat index of a product of
    two labels does not, so both engines must widen it before they gather."""
    G = build_group("dihedral:20")
    b = [0] + [(5 * g) % 12 for g in range(1, G.order)]
    c = twist(trivial_cocycle(G), b, 12)
    A = TwistedGroupAlgebra(G, c)
    torus = SurfaceSpec(True, 1)
    for tri in (standard_triangulation(torus), pachner_13(standard_triangulation(torus), 0)):
        table = run_state_sum(A, tri)
        assert np.array_equal(oracle_counts(A, tri), G.order ** (tri.n_vertices - 1) * table.counts)
        assert table.value == invariants.dw_direct(G, c, torus)
    sphere = SurfaceSpec(True, 0)
    assert dw_labeling_oracle(G, c, tetrahedron_sphere()) == invariants.dw_direct(G, c, sphere)
