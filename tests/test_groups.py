import itertools

import numpy as np
import pytest

from dwsurf import groups
from dwsurf.groups import (MAX_ORDER, FiniteGroup, GroupError, build_group, conjugacy_classes,
                           cyclic_group, dihedral_group, involution_set)


def brute_classes(G):
    """Independent conjugation orbit computation, one pair at a time."""
    n = G.order
    seen, classes = set(), []
    for g in range(n):
        if g in seen:
            continue
        orbit = {G.conjugate(h, g) for h in range(n)}
        seen |= orbit
        classes.append(orbit)
    return classes


def test_trivial_group():
    G = build_group("cyclic:1")
    assert G.order == 1
    assert G.mul(0, 0) == 0


def test_klein_four_all_self_inverse():
    G = build_group("product(cyclic:2,cyclic:2)")
    assert G.order == 4
    assert all(G.inv(g) == g for g in range(4))
    assert len(involution_set(G)) == 4


def test_quaternion_has_unique_order_two_element():
    G = build_group("quaternion:8")
    orders = [G.element_order(g) for g in range(8)]
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
        FiniteGroup("broken", 6, bad, G.inverse)


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


def test_involutions_of_odd_cyclic():
    assert list(involution_set(build_group("cyclic:3"))) == [0]


@pytest.mark.parametrize("spec", ["cyclic:6", "symmetric:3", "quaternion:8", "dihedral:8"])
def test_inverse_antihomomorphism(spec):
    G = build_group(spec)
    for a, b in itertools.product(range(G.order), repeat=2):
        assert G.inv(G.mul(a, b)) == G.mul(G.inv(b), G.inv(a))


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
