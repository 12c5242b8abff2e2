import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwsurf import groups
from dwsurf.groups import (MAX_ORDER, FiniteGroup, GroupError, build_group, conjugacy_classes,
                           cyclic_group, dihedral_group, involution_set, symmetric_group)
from oracles import (dihedral_table, inverse_table, is_associative, product_table,
                     quaternion_table, symmetric_table)


def brute_classes(G):
    """Independent conjugation orbit computation, one pair at a time."""
    n = G.order
    seen, classes = set(), []
    for g in range(n):
        if g in seen:
            continue
        orbit = {int(G.cayley[G.cayley[h, g], G.inverse[h]]) for h in range(n)}
        seen |= orbit
        classes.append(orbit)
    return classes


def test_trivial_group():
    G = build_group("cyclic:1")
    assert G.order == 1
    assert G.cayley[0, 0] == 0 and G.inverse[0] == 0


def test_klein_four_all_self_inverse():
    G = build_group("product(cyclic:2,cyclic:2)")
    assert G.order == 4
    assert np.array_equal(G.inverse, np.arange(4))
    assert len(involution_set(G)) == 4


def element_order(G, g):
    k, x = 1, g
    while x != 0:
        x = G.cayley[x, g]
        k += 1
    return k


def test_quaternion_has_unique_order_two_element():
    G = build_group("quaternion:8")
    orders = [element_order(G, g) for g in range(8)]
    assert orders.count(2) == 1
    assert sorted(set(orders)) == [1, 2, 4]
    assert list(involution_set(G)) == [0, orders.index(2)]


def test_identity_is_index_zero_everywhere():
    for spec in ["cyclic:5", "dihedral:8", "quaternion:8", "symmetric:4",
                 "product(cyclic:2,symmetric:3)"]:
        G = build_group(spec)
        idx = np.arange(G.order)
        assert np.array_equal(G.cayley[0], idx)
        assert np.array_equal(G.cayley[:, 0], idx)


@pytest.mark.parametrize("spec,order", [
    ("cyclic:6", 6), ("dihedral:8", 8), ("dihedral:12", 12), ("symmetric:3", 6),
    ("symmetric:4", 24), ("product(cyclic:2,cyclic:4)", 8),
    ("product(product(cyclic:2,cyclic:2),cyclic:3)", 12),
])
def test_builder_orders(spec, order):
    assert build_group(spec).order == order


def test_rejects_bad_descriptors():
    for bad in ["cyclic:0", "cyclic:-3", "symmetric:6", "quaternion:16", "frobnicate:5",
                "cyclic", "product(cyclic:2)", ""]:
        with pytest.raises(GroupError):
            build_group(bad)


def test_order_cap_on_products():
    build_group("product(cyclic:8,cyclic:8)")  # exactly at the cap
    with pytest.raises(GroupError):
        build_group("product(cyclic:8,cyclic:16)")


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a group table was built")


@pytest.mark.parametrize("builder,order", [(cyclic_group, MAX_ORDER + 1),
                                           (dihedral_group, MAX_ORDER + 2),   # even, above the cap
                                           (cyclic_group, 3000)])
def test_builders_apply_the_order_cap_before_building(monkeypatch, builder, order):
    monkeypatch.setattr(groups, "FiniteGroup", _refuse_to_build)
    with pytest.raises(GroupError, match="exceeds the cap"):
        builder(order)


def test_builders_accept_the_cap_itself():
    assert cyclic_group(MAX_ORDER).order == dihedral_group(MAX_ORDER).order == MAX_ORDER


def test_symmetric_five_is_the_sanctioned_large_case():
    G = build_group("symmetric:5")
    assert G.order == 120


def test_construction_rejects_broken_tables():
    # swap two entries of a valid table: associativity or identity must break
    G = build_group("symmetric:3")
    bad = G.cayley.copy()
    bad.setflags(write=True)
    bad[3, 4], bad[3, 5] = bad[3, 5], bad[3, 4]
    with pytest.raises(GroupError):
        FiniteGroup("broken", bad)


@pytest.mark.parametrize("table,message", [
    (np.zeros((0, 0), dtype=np.int64), "empty"),
    ([], "square"),
    (np.zeros((2, 3), dtype=np.int64), "square"),
    (np.arange(4), "square"),
    ([[0, 1], [1, 2]], "out of range"),
    ([[0, 1], [0, 1]], "identity"),
    # a Latin square with identity 0 and inverses, but (1*1)*2 = 2 != 1*(1*2) = 4
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     "not associative"),
])
def test_construction_rejects_malformed_tables(table, message):
    with pytest.raises(GroupError, match=message):
        FiniteGroup("malformed", table)


# ---------------------------------------------------------------------------
# associativity on the generators (Light's test) against every triple

AXIOM_GROUPS = ("cyclic:6", "cyclic:9", "dihedral:8", "dihedral:12", "quaternion:8",
                "symmetric:3", "symmetric:4", "symmetric:5", "product(cyclic:2,cyclic:4)",
                "product(cyclic:2,symmetric:3)", "product(cyclic:3,cyclic:3)")


@pytest.mark.parametrize("spec,gens", [
    ("cyclic:1", ()), ("cyclic:64", (1,)), ("dihedral:64", (1, 32)),
    ("quaternion:8", (1, 2, 4)), ("product(cyclic:8,cyclic:8)", (1, 8)),
    ("symmetric:5", (1, 2, 6, 24)),
])
def test_generators_are_greedy_and_generate(spec, gens):
    G = build_group(spec)
    assert G.generators == gens
    reached = {0}
    frontier = [0]
    while frontier:
        frontier = [int(G.cayley[x, s]) for x in frontier for s in gens
                    if int(G.cayley[x, s]) not in reached]
        reached.update(frontier)
    assert reached == set(range(G.order))


@st.composite
def corrupted_tables(draw):
    """A catalog table with one to three corruptions outside row and column 0:
    two entries of a row or of a column swapped, or one entry replaced.  No
    zero moves, so identity and inverses still hold and associativity alone
    decides."""
    cay = build_group(draw(st.sampled_from(AXIOM_GROUPS))).cayley.copy()
    n = len(cay)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["row swap", "column swap", "change"]))
        i = draw(st.integers(1, n - 1))
        line = cay[i] if kind != "column swap" else cay[:, i]
        spots = [j for j in range(1, n) if line[j]]
        j = draw(st.sampled_from(spots))
        if kind == "change":
            line[j] = draw(st.integers(1, n - 1))
        else:
            j2 = draw(st.sampled_from(spots))
            line[j], line[j2] = line[j2], line[j]
    return cay


@settings(max_examples=300, deadline=None)
@given(cay=corrupted_tables())
def test_associativity_verdict_matches_the_full_check(cay):
    if is_associative(cay):
        assert np.array_equal(FiniteGroup("corrupted", cay).cayley, cay)
    else:
        with pytest.raises(GroupError, match="not associative"):
            FiniteGroup("corrupted", cay)


def test_symmetric_five_builds_in_under_two_megabytes():
    """No #G^3 gather: the largest temporaries are the n^2 x degree
    composition and the n^2 tables of Light's test."""
    tracemalloc.start()
    try:
        symmetric_group(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_order_and_inverse_are_derived_from_the_table():
    G = FiniteGroup("klein", [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    assert G.order == 4 and G.inverse.tolist() == [0, 1, 2, 3] and G.generators == (1, 2)
    with pytest.raises(TypeError):
        FiniteGroup("klein", G.cayley, 4, G.inverse)


def _cyclic_table(n):
    return np.add.outer(np.arange(n), np.arange(n)) % n


REFERENCE_TABLES = {
    **{f"symmetric:{n}": (lambda n=n: symmetric_table(n)) for n in range(1, 6)},
    **{f"dihedral:{k}": (lambda k=k: dihedral_table(k)) for k in range(2, MAX_ORDER + 1, 2)},
    "quaternion:8": quaternion_table,
    "product(quaternion:8,cyclic:8)": lambda: product_table(quaternion_table(), _cyclic_table(8)),
    "product(dihedral:8,symmetric:3)": lambda: product_table(dihedral_table(8),
                                                             symmetric_table(3)),
}


@pytest.mark.parametrize("spec", REFERENCE_TABLES)
def test_builders_match_the_pairwise_reference_tables(spec):
    cay = REFERENCE_TABLES[spec]()
    G = build_group(spec)
    assert G.order == len(cay)
    assert G.cayley.dtype == G.inverse.dtype == np.int64
    assert np.array_equal(G.cayley, cay)
    assert np.array_equal(G.inverse, inverse_table(cay))


def test_cyclic_four_classes_are_singletons():
    cc = conjugacy_classes(build_group("cyclic:4"))
    assert cc.sizes == (1, 1, 1, 1)


def test_symmetric_three_class_sizes():
    G = build_group("symmetric:3")
    cc = conjugacy_classes(G)
    assert sorted(cc.sizes) == [1, 2, 3]
    assert sorted(len(o) for o in brute_classes(G)) == [1, 2, 3]
    for orbit in brute_classes(G):
        ids = {cc.class_of[g] for g in orbit}
        assert len(ids) == 1


def test_quaternion_class_count():
    G = build_group("quaternion:8")
    assert conjugacy_classes(G).count == len(brute_classes(G)) == 5


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:12", "dihedral:10", "dihedral:64",
                                  "quaternion:8", "symmetric:4", "symmetric:5",
                                  "product(symmetric:3,cyclic:4)", "product(quaternion:8,cyclic:2)"])
def test_classes_match_the_brute_orbits(spec):
    # brute_classes lists the orbits by least element; class ids follow that
    # order and each representative is its class's least element
    G = build_group(spec)
    cc = conjugacy_classes(G)
    orbits = brute_classes(G)
    assert cc.representatives == tuple(min(orbit) for orbit in orbits)
    assert cc.sizes == tuple(len(orbit) for orbit in orbits)
    assert [set(cc.members(i).tolist()) for i in range(cc.count)] == orbits
    assert cc.class_of.dtype == np.int64 and not cc.class_of.flags.writeable


def test_involutions_of_odd_cyclic():
    assert list(involution_set(build_group("cyclic:3"))) == [0]


@pytest.mark.parametrize("spec", ["cyclic:6", "symmetric:3", "quaternion:8", "dihedral:8"])
def test_inverse_antihomomorphism(spec):
    G = build_group(spec)
    for a, b in itertools.product(range(G.order), repeat=2):
        assert G.inverse[G.cayley[a, b]] == G.cayley[G.inverse[b], G.inverse[a]]


def test_product_class_count_multiplies():
    A, B = build_group("symmetric:3"), build_group("cyclic:4")
    P = build_group("product(symmetric:3,cyclic:4)")
    assert conjugacy_classes(P).count == conjugacy_classes(A).count * conjugacy_classes(B).count


@pytest.mark.parametrize("spec", ["cyclic:5", "dihedral:12", "symmetric:4"])
def test_class_sizes_sum_to_order(spec):
    G = build_group(spec)
    assert sum(conjugacy_classes(G).sizes) == G.order


def test_tables_are_frozen():
    G = build_group("cyclic:3")
    with pytest.raises(ValueError):
        G.cayley[0, 0] = 1
