"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every route returns an exact Fraction, so the criteria hold with no
tolerance: routes agree when their values are equal, a value is an integer
when its denominator is 1, and invariance under Pachner moves, coboundary
twists and orientation flips is equality.
"""

import time
from fractions import Fraction

import numpy as np

from dwsurf.algebra import TwistedGroupAlgebra, fs_indicators, wedderburn_decompose
from dwsurf.cocycles import RootOfUnity, c_regular_count, trivial_cocycle, twist
from dwsurf.groups import build_group, involution_set
from dwsurf.invariants import (boundary_hom_count, boundary_hom_count_brute, catalog_pairs,
                               count_homs, dw_direct, mednykh_count,
                               nonorientable_catalog_pairs, sign_catalog_pairs, verlinde)
from dwsurf.state_sum import fhk_state_sum, star_state_sum
from dwsurf.surfaces import (SurfaceSpec, flip_triangle, pachner_variants,
                             relator_presentation, standard_triangulation)


def report(criterion, failures, context=""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} cases)"
    print(f"criterion {criterion}: {status} {context}")
    assert not failures, failures


def test_criterion_1_verlinde_matches_direct_enumeration():
    failures = []
    for G, c in catalog_pairs():
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
        for genus in (1, 2, 3):
            spec = SurfaceSpec(True, genus)
            start = time.monotonic()
            direct = dw_direct(G, c, spec)
            formula = verlinde(dec, spec)
            elapsed = time.monotonic() - start
            if direct != formula or elapsed > 60:
                failures.append((G.name, c.name, genus, direct, formula, elapsed))
    report(1, failures, "block-dimension formula vs direct enumeration, genus 1-3")


def test_criterion_2_state_sum_route_matches_direct():
    failures = []
    for G, c in catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        for genus in (0, 1, 2):
            spec = SurfaceSpec(True, genus)
            tri = standard_triangulation(spec)
            scaled = Fraction(G.order) ** (-spec.chi) * fhk_state_sum(A, tri)
            direct = dw_direct(G, c, spec)
            if direct != scaled:
                failures.append((G.name, c.name, genus, direct, scaled))
    report(2, failures, "scaled state sum vs direct enumeration, genus 0-2")


def test_criterion_3_positive_integrality():
    failures = []
    for G, c in catalog_pairs():
        for genus in (1, 2, 3):
            v = dw_direct(G, c, SurfaceSpec(True, genus))
            if v.denominator != 1 or v < 1:
                failures.append((G.name, c.name, genus, v))
    spots = [("symmetric:3", "trivial", 1, 3), ("product(cyclic:2,cyclic:2)", "heisenberg:2", 1, 1),
             ("product(cyclic:2,cyclic:2)", "heisenberg:2", 2, 4)]
    lookup = {(G.name, c.name): (G, c) for G, c in catalog_pairs()}
    for gname, cname, genus, want in spots:
        G, c = lookup[(gname, cname)]
        v = dw_direct(G, c, SurfaceSpec(True, genus))
        if v != want:
            failures.append((gname, cname, genus, v, "expected", want))
    for G, c in catalog_pairs():
        v = dw_direct(G, c, SurfaceSpec(True, 1))
        if v != c_regular_count(G, c):
            failures.append((G.name, c.name, "torus vs regular classes", v))
    report(3, failures, "genus 1-3 values are positive integers; torus counts classes")


def test_criterion_4_hom_count_formula_equals_brute_force():
    failures = []
    for G, c in catalog_pairs():
        if c.name != "trivial":
            continue
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
        for genus in (1, 2, 3):
            spec = SurfaceSpec(True, genus)
            if G.order ** (2 * genus) > 10 ** 8:
                continue
            formula = mednykh_count(G, spec, dec)
            brute = count_homs(G, relator_presentation(spec))
            if formula != brute:
                failures.append((G.name, genus, formula, brute))
    report(4, failures, "homomorphism counts, formula vs enumeration")


def test_criterion_5_block_dimensions_square_sum_and_count():
    failures = []
    seen = set()
    for G, c in catalog_pairs() + sign_catalog_pairs():
        if (G.name, c.name) in seen:
            continue
        seen.add((G.name, c.name))
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
        if sum(d * d for d in dec.dims) != G.order:
            failures.append((G.name, c.name, "sum d^2", dec.dims))
        if dec.block_count() != c_regular_count(G, c):
            failures.append((G.name, c.name, "block count", dec.block_count()))
    report(5, failures, "sum of squared dims = #G and block count = regular classes")


def test_criterion_6_sphere_state_sums_equal_group_order():
    failures = []
    sphere = standard_triangulation(SurfaceSpec(True, 0))
    variants = [sphere] + pachner_variants(sphere, 5, seed=0)
    for G, c in catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        for k, tri in enumerate(variants):
            val = fhk_state_sum(A, tri)
            if val != G.order:
                failures.append((G.name, c.name, k, val))
    report(6, failures, "sphere state sum = #G on 6 triangulations per algebra")


def test_criterion_7_nonorientable_routes_agree():
    failures = []
    for G, c in nonorientable_catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        dec = fs_indicators(wedderburn_decompose(A))
        for genus in (1, 2, 3):
            spec = SurfaceSpec(False, genus)
            direct = dw_direct(G, c, spec)
            scaled = (Fraction(G.order) ** (-spec.chi)
                      * star_state_sum(A, standard_triangulation(spec)))
            formula = verlinde(dec, spec)
            if not direct == scaled == formula:
                failures.append((G.name, c.name, genus, direct, scaled, formula))
            if spec.chi <= 0:
                if direct.denominator != 1 or direct < 0:
                    failures.append((G.name, c.name, genus, "integrality", direct))
    h2 = [(G, c) for G, c in nonorientable_catalog_pairs() if c.name == "heisenberg:2"][0]
    if dw_direct(*h2, SurfaceSpec(False, 1)) != Fraction(1, 2):
        failures.append(("heisenberg:2", "projective plane", "expected 1/2"))
    z2 = build_group("cyclic:2")
    if dw_direct(z2, trivial_cocycle(z2), SurfaceSpec(False, 1)) != 1:
        failures.append(("cyclic:2", "projective plane", "expected 1"))
    report(7, failures, "non-orientable routes agree; non-negative integers off the projective plane")


def test_criterion_8_indicator_sum_counts_twisted_involutions():
    failures = []
    for G, c in sign_catalog_pairs():
        dec = fs_indicators(wedderburn_decompose(TwistedGroupAlgebra(G, c)))
        lhs = sum(b.fs * b.dim for b in dec.blocks)
        rhs = sum(int(round(c.complex_table[g, g].real)) for g in involution_set(G))
        if lhs != rhs:
            failures.append((G.name, c.name, lhs, rhs))
    Q8 = build_group("quaternion:8")
    dec = fs_indicators(wedderburn_decompose(TwistedGroupAlgebra(Q8, trivial_cocycle(Q8))))
    if sum(b.fs * b.dim for b in dec.blocks) != 2:
        failures.append(("quaternion:8", "expected indicator sum 2"))
    report(8, failures, "sum of fs * dim equals the diagonal cocycle sum over involutions")


def test_criterion_9_invariance_suites():
    failures = []
    rng = np.random.default_rng(0)
    # Pachner moves on the torus and the genus-2 surface
    for G, c in catalog_pairs([("symmetric:3", "trivial"),
                               ("product(cyclic:2,cyclic:2)", "heisenberg:2"),
                               ("product(cyclic:3,cyclic:3)", "heisenberg:3")]):
        A = TwistedGroupAlgebra(G, c)
        for name in ["orientable:1", "orientable:2"]:
            tri = standard_triangulation(SurfaceSpec.parse(name))
            base = fhk_state_sum(A, tri)
            for variant in pachner_variants(tri, 3, seed=1):
                if fhk_state_sum(A, variant) != base:
                    failures.append(("pachner", G.name, c.name, name))
    # coboundary invariance of the direct route and of both state sums
    for G, c in catalog_pairs():
        base = dw_direct(G, c, SurfaceSpec(True, 1))
        for _ in range(20):
            b = [RootOfUnity(0, 1)] + [RootOfUnity(int(rng.integers(12)), 12)
                                       for _ in range(G.order - 1)]
            if dw_direct(G, twist(c, b), SurfaceSpec(True, 1)) != base:
                failures.append(("coboundary direct", G.name, c.name))
    torus = standard_triangulation(SurfaceSpec(True, 1))
    klein = standard_triangulation(SurfaceSpec(False, 2))
    for G, c in nonorientable_catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        base_t = fhk_state_sum(A, torus)
        base_k = star_state_sum(A, klein)
        for _ in range(20):
            b = [RootOfUnity(0, 1)] + [RootOfUnity(int(rng.integers(2)), 2)
                                       for _ in range(G.order - 1)]
            At = TwistedGroupAlgebra(G, twist(c, b))
            if fhk_state_sum(At, torus) != base_t:
                failures.append(("coboundary plain sum", G.name, c.name))
            if star_state_sum(At, klein) != base_k:
                failures.append(("coboundary star sum", G.name, c.name))
    # orientation-flip invariance of the star state sum
    for G, c in nonorientable_catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        for name in ["nonorientable:1", "nonorientable:2", "nonorientable:3"]:
            tri = standard_triangulation(SurfaceSpec.parse(name))
            base = star_state_sum(A, tri)
            for t in range(tri.n_triangles):
                if star_state_sum(A, flip_triangle(tri, t)) != base:
                    failures.append(("orientation flip", G.name, c.name, name, t))
    report(9, failures, "Pachner, coboundary, and orientation-flip invariance")


def test_criterion_10_boundary_character_formula():
    failures = []
    S3 = build_group("symmetric:3")
    from dwsurf.groups import conjugacy_classes
    for rep in conjugacy_classes(S3).representatives:
        formula = boundary_hom_count(S3, 1, (rep,))
        brute = boundary_hom_count_brute(S3, 1, (rep,))
        if formula != brute:
            failures.append(("symmetric:3", rep, formula, brute))
    Z2 = build_group("cyclic:2")
    formula = boundary_hom_count(Z2, 0, (1, 1))
    brute = boundary_hom_count_brute(Z2, 0, (1, 1))
    if formula != brute:
        failures.append(("cyclic:2", (1, 1), formula, brute))
    report(10, failures, "boundary-class homomorphism counts, formula vs brute force")
