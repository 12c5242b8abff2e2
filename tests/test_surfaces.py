import numpy as np
import pytest

from dwsurf.surfaces import (GluedTriangulation, RelatorPresentation, SurfaceError,
                             SurfaceSpec, flip_triangle, pachner_13, pachner_22, pachner_variants,
                             relator_presentation, seven_vertex_torus, standard_triangulation,
                             tetrahedron_sphere)
from oracles import simplicial_to_glued


def counts(tri):
    return (tri.n_triangles, tri.n_edges, tri.n_vertices, tri.euler_characteristic)


# ---------------------------------------------------------------------------
# specs and builders

def test_spec_parsing_and_chi():
    assert SurfaceSpec.parse("orientable:2").chi == -2
    assert SurfaceSpec.parse("nonorientable:1").chi == 1
    assert SurfaceSpec.parse("nonorientable:3").chi == -1
    with pytest.raises(SurfaceError):
        SurfaceSpec.parse("torus")
    with pytest.raises(SurfaceError, match="'orientable:x'"):
        SurfaceSpec.parse("orientable:x")
    with pytest.raises(SurfaceError):
        SurfaceSpec(False, 0)


@pytest.mark.parametrize("name,expected", [
    ("orientable:0", (2, 3, 3, 2)),
    ("orientable:1", (2, 3, 1, 0)),
    ("orientable:2", (6, 9, 1, -2)),
    ("orientable:3", (10, 15, 1, -4)),
    ("nonorientable:1", (2, 3, 2, 1)),
    ("nonorientable:2", (2, 3, 1, 0)),
    ("nonorientable:3", (4, 6, 1, -1)),
])
def test_standard_triangulation_counts(name, expected):
    spec = SurfaceSpec.parse(name)
    tri = standard_triangulation(spec)
    assert counts(tri) == expected
    assert 2 * tri.n_edges == 3 * tri.n_triangles
    assert tri.euler_characteristic == spec.chi
    assert tri.surface == spec


@pytest.mark.parametrize("name,orientable", [
    ("orientable:0", True), ("orientable:1", True), ("orientable:2", True),
    ("nonorientable:1", False), ("nonorientable:2", False), ("nonorientable:3", False),
])
def test_orientability_verdicts(name, orientable):
    tri = standard_triangulation(SurfaceSpec.parse(name))
    for variant in (tri, flip_triangle(tri, 1)):
        assert variant.orientable == orientable
        if orientable:
            assert variant.oriented().reversal.all()
            assert counts(variant.oriented()) == counts(tri)
        else:
            with pytest.raises(SurfaceError, match="no coherent orientation"):
                variant.oriented()


def test_surface_is_not_a_constructor_argument():
    torus = standard_triangulation(SurfaceSpec(True, 1))
    with pytest.raises(TypeError):
        GluedTriangulation(2, torus.pairing, torus.reversal, SurfaceSpec(True, 1))


def test_validator_rejects_fixed_points():
    with pytest.raises(SurfaceError):
        GluedTriangulation(2, np.arange(6), np.ones(6, dtype=bool))


# ---------------------------------------------------------------------------
# Pachner moves

def test_flip_then_flip_back_restores_counts():
    tri = standard_triangulation(SurfaceSpec(True, 2))
    flipped = pachner_22(tri, 0)
    back = pachner_22(flipped, 2)  # the new diagonal sits at slot 2 of the first triangle
    assert counts(back) == counts(tri)
    assert back.orientable


def test_torus_flip_preserves_everything():
    tri = standard_triangulation(SurfaceSpec(True, 1))
    for f, _ in tri.edge_flags():
        out = pachner_22(tri, f)
        assert counts(out) == counts(tri)
        assert out.orientable


def test_flip_rejects_self_glued_configuration():
    klein = standard_triangulation(SurfaceSpec(False, 2))
    # the two flags of the first crosscap edge live on one triangle
    self_glued = [f for f, p in klein.edge_flags() if f // 3 == p // 3]
    assert self_glued
    with pytest.raises(SurfaceError):
        pachner_22(klein, self_glued[0])


def test_flip_preserves_nonorientability():
    p2 = standard_triangulation(SurfaceSpec(False, 1))
    flippable = [f for f, p in p2.edge_flags() if f // 3 != p // 3]
    for f in flippable:
        out = pachner_22(p2, f)
        assert counts(out) == counts(p2)
        assert not out.orientable


def test_subdivision_bookkeeping():
    sphere = standard_triangulation(SurfaceSpec(True, 0))
    out = pachner_13(sphere, 0)
    assert counts(out) == (4, 6, 4, 2)
    for _ in range(4):
        out = pachner_13(out, out.n_triangles - 1)
    assert out.n_triangles == 12
    assert out.euler_characteristic == 2


def test_subdivision_preserves_orientability_class():
    klein = standard_triangulation(SurfaceSpec(False, 2))
    assert not pachner_13(klein, 1).orientable
    torus = standard_triangulation(SurfaceSpec(True, 1))
    assert pachner_13(torus, 0).orientable


def test_subdividing_a_self_glued_triangle():
    klein = standard_triangulation(SurfaceSpec(False, 2))
    self_glued = [f for f, p in klein.edge_flags() if f // 3 == p // 3][0]
    out = pachner_13(klein, self_glued // 3)
    assert counts(out) == (4, 6, 2, 0)
    assert not out.orientable


def test_pachner_variants_are_deterministic():
    sphere = standard_triangulation(SurfaceSpec(True, 0))
    a = pachner_variants(sphere, 5, seed=3)
    b = pachner_variants(sphere, 5, seed=3)
    assert [v.to_json() for v in a] == [v.to_json() for v in b]
    assert all(v.euler_characteristic == 2 for v in a)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("spec", [SurfaceSpec(True, 0), SurfaceSpec(True, 1), SurfaceSpec(False, 1)])
def test_pachner_variants_are_distinct_gluings(spec, seed):
    tri = standard_triangulation(spec)
    variants = pachner_variants(tri, 5, seed=seed)
    keys = {(t.pairing.tobytes(), t.reversal.tobytes()) for t in [tri, *variants]}
    assert len(keys) == 6
    assert all(v.euler_characteristic == spec.chi for v in variants)


def test_flip_triangle_is_involutive():
    p2 = standard_triangulation(SurfaceSpec(False, 1))
    twice = flip_triangle(flip_triangle(p2, 1), 1)
    assert np.array_equal(twice.pairing, p2.pairing)
    assert np.array_equal(twice.reversal, p2.reversal)


def test_json_roundtrip():
    tri = standard_triangulation(SurfaceSpec(False, 3))
    back = GluedTriangulation.from_json(tri.to_json())
    assert np.array_equal(back.pairing, tri.pairing)
    assert np.array_equal(back.reversal, tri.reversal)
    assert back.surface == tri.surface


TORUS_JSON = standard_triangulation(SurfaceSpec(True, 1)).to_json()


@pytest.mark.parametrize("data,message", [
    ([1, 2], "must be a JSON object, not list"),
    ({k: v for k, v in TORUS_JSON.items() if k != "triangles"}, "no 'triangles' field"),
    ({k: v for k, v in TORUS_JSON.items() if k != "reversal"}, "no 'reversal' field"),
    (dict(TORUS_JSON, triangles="2"), "'triangles' must be an integer"),
    (dict(TORUS_JSON, pairing={"0": 1}), "'pairing' must be a list of integers"),
    (dict(TORUS_JSON, reversal=[1.0] * 6), "'reversal' must be a list of integers"),
    (dict(TORUS_JSON, surface=1), "'surface' must be a surface descriptor"),
    (dict(TORUS_JSON, surface="nonorientable:2"),
     "the gluing is orientable:1 \\(chi=0\\), not the declared nonorientable:2"),
    (dict(TORUS_JSON, surface="orientable:0"),
     "the gluing is orientable:1 \\(chi=0\\), not the declared orientable:0"),
    # the range is checked before pairing[pairing] is read: 6 would overrun, -1 wrap
    (dict(TORUS_JSON, pairing=[3, 4, 5, 0, 1, 6]), "pairing entries must be flags 0..5"),
    (dict(TORUS_JSON, pairing=[3, 4, 5, 0, 1, -1]), "pairing entries must be flags 0..5"),
])
def test_from_json_rejects_malformed_data(data, message):
    with pytest.raises(SurfaceError, match=message):
        GluedTriangulation.from_json(data)


# ---------------------------------------------------------------------------
# simplicial surfaces

def test_tetrahedron_counts():
    surf = tetrahedron_sphere()
    assert (surf.n_vertices, len(surf.edges), len(surf.triangles)) == (4, 6, 4)
    assert surf.euler_characteristic == 2


def test_seven_vertex_torus_counts():
    surf = seven_vertex_torus()
    assert (surf.n_vertices, len(surf.edges), len(surf.triangles)) == (7, 21, 14)
    assert surf.euler_characteristic == 0


def test_simplicial_to_glued_matches():
    glued = simplicial_to_glued(tetrahedron_sphere())
    assert counts(glued) == (4, 6, 4, 2)
    assert glued.surface == SurfaceSpec(True, 0)
    glued = simplicial_to_glued(seven_vertex_torus())
    assert counts(glued) == (14, 21, 7, 0)
    assert glued.surface == SurfaceSpec(True, 1)
    assert glued.reversal.all()   # builders are coherently oriented already


# ---------------------------------------------------------------------------
# presentations

def test_torus_presentation():
    pres = relator_presentation(SurfaceSpec(True, 1))
    assert pres.generators == 2
    assert pres.word == (1, 2, -1, -2)


def test_klein_presentation():
    pres = relator_presentation(SurfaceSpec(False, 2))
    assert pres.word == (1, 1, 2, 2)


def test_genus_two_presentation_shape():
    pres = relator_presentation(SurfaceSpec(True, 2))
    assert pres.generators == 4
    assert len(pres.word) == 8
    for g in range(1, 5):
        assert sum(1 for letter in pres.word if abs(letter) == g) == 2


def test_sphere_presentation_is_trivial():
    pres = relator_presentation(SurfaceSpec(True, 0))
    assert pres.generators == 0
    assert pres.word == ()


def test_presentation_validator():
    with pytest.raises(SurfaceError):
        RelatorPresentation(2, (1, 1, 1, 2))
    with pytest.raises(SurfaceError):
        RelatorPresentation(1, (1, 2))
