"""Acceptance gate: every row of every `dw check` suite passes at seed 0.

The criteria (the routes agree, chi <= 0 values are integers, the counting
formulas match brute force, the invariants survive Pachner moves, coboundary
twists and orientation flips) are stated once, as the rows of
dwsurf.cli.SUITES; `pytest tests/test_acceptance.py -v -s` prints one
PASS/FAIL line per row.  The tests after the suite gate hold the few checks
that no suite row and no other test states.  Every value is an exact
Fraction, so each check is an equality.
"""

import time

import numpy as np
import pytest

from dwsurf.algebra import TwistedGroupAlgebra, wedderburn_decompose
from dwsurf.cli import SUITES
from dwsurf.cocycles import c_regular_count, trivial_cocycle, twist
from dwsurf.groups import build_group
from dwsurf.invariants import (catalog_pairs, dw_direct, nonorientable_catalog_pairs,
                               sign_catalog_pairs)
from dwsurf.state_sum import run_state_sum
from dwsurf.surfaces import SurfaceSpec, flip_triangle, pachner_variants, standard_triangulation


@pytest.mark.parametrize("suite", list(SUITES))
def test_check_suite_rows_pass(suite):
    start = time.monotonic()
    rows = SUITES[suite](0)
    elapsed = time.monotonic() - start
    for name, passed, detail in rows:
        print(f"{'PASS' if passed else 'FAIL'}  {suite}: {name}  {detail}")
    failing = [(name, detail) for name, passed, detail in rows if not passed]
    assert not failing, failing
    assert elapsed < 60, f"suite {suite} took {elapsed:.1f} s"


def test_torus_counts_regular_classes():
    for G, c in catalog_pairs():
        assert dw_direct(G, c, SurfaceSpec(True, 1)) == c_regular_count(G, c), (G.name, c.name)


def test_sign_catalog_block_dimensions():
    for G, c in sign_catalog_pairs():
        dec = wedderburn_decompose(TwistedGroupAlgebra(G, c))
        assert sum(d * d for d in dec.dims) == G.order, (G.name, c.name, dec.dims)
        assert dec.block_count() == c_regular_count(G, c), (G.name, c.name)


def test_quaternion_indicator_sum():
    Q8 = build_group("quaternion:8")
    dec = wedderburn_decompose(TwistedGroupAlgebra(Q8, trivial_cocycle(Q8)))
    assert sum(b.fs * b.dim for b in dec.blocks) == 2


def test_cyclic2_projective_plane():
    Z2 = build_group("cyclic:2")
    assert dw_direct(Z2, trivial_cocycle(Z2), SurfaceSpec(False, 1)) == 1


def test_pachner_variants_of_handle_surfaces():
    for G, c in catalog_pairs([("symmetric:3", "trivial"),
                               ("product(cyclic:2,cyclic:2)", "heisenberg:2"),
                               ("product(cyclic:3,cyclic:3)", "heisenberg:3")]):
        A = TwistedGroupAlgebra(G, c)
        for name in ["orientable:1", "orientable:2"]:
            tri = standard_triangulation(SurfaceSpec.parse(name))
            base = run_state_sum(A, tri).value
            for variant in pachner_variants(tri, 3, seed=1):
                assert run_state_sum(A, variant).value == base, (G.name, c.name, name)


def test_catalog_coboundary_invariance_of_state_sums():
    rng = np.random.default_rng(0)
    torus = standard_triangulation(SurfaceSpec(True, 1))
    klein = standard_triangulation(SurfaceSpec(False, 2))
    for G, c in nonorientable_catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        base_t, base_k = run_state_sum(A, torus).value, run_state_sum(A, klein).value
        for _ in range(20):
            b = [0] + [int(rng.integers(2)) for _ in range(G.order - 1)]
            At = TwistedGroupAlgebra(G, twist(c, b, 2))
            assert run_state_sum(At, torus).value == base_t, (G.name, c.name)
            assert run_state_sum(At, klein).value == base_k, (G.name, c.name)


def test_orientation_flips_on_three_crosscaps():
    tri = standard_triangulation(SurfaceSpec(False, 3))
    for G, c in nonorientable_catalog_pairs():
        A = TwistedGroupAlgebra(G, c)
        base = run_state_sum(A, tri).value
        for t in range(tri.n_triangles):
            assert run_state_sum(A, flip_triangle(tri, t)).value == base, (G.name, c.name, t)
