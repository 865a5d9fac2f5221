"""Group structure, conjugacy classes, square roots, and level fusion."""
from __future__ import annotations

import itertools

import pytest

from chebrace.groups import (
    DIHEDRAL,
    Element,
    FLIP_EVEN,
    FLIP_ODD,
    MINUS_ONE,
    ONE,
    QUATERNION,
    Group,
    GroupKind,
    power,
)
from oracles import (
    brute_force_fusion,
    brute_force_order,
    class_members,
    elements,
    embed,
    identity,
    inverse,
    multiply,
)

FAMILIES = (DIHEDRAL, QUATERNION)
SMALL = [Group(GroupKind(f, n)) for f in FAMILIES for n in (3, 4, 5)]


@pytest.mark.parametrize("group", SMALL, ids=str)
def test_group_axioms_exhaustively(group):
    els = elements(group)
    assert len(els) == group.order == len(set(els))
    e = identity()
    for g in els:
        assert multiply(group, g, e) == multiply(group, e, g) == g
        assert multiply(group, g, inverse(group, g)) == e
    for g, h, k in itertools.islice(itertools.product(els, els, els), 4096):
        assert multiply(group, multiply(group, g, h), k) == \
            multiply(group, g, multiply(group, h, k))


@pytest.mark.parametrize("group", SMALL, ids=str)
def test_defining_relations(group):
    a = Element(1, 0)
    b = Element(0, 1)
    n = group.n
    # a has order 2^(n-1); b a b^-1 = a^-1
    aa = identity()
    for _ in range(group.rotation_order):
        aa = multiply(group, aa, a)
    assert aa == identity()
    conj = multiply(group, multiply(group, b, a), inverse(group, b))
    assert conj == inverse(group, a)
    bb = multiply(group, b, b)
    if group.family == DIHEDRAL:
        assert bb == identity()
    else:
        assert bb == Element(1 << (n - 2), 0)  # b^2 is the central involution


@pytest.mark.parametrize("group", SMALL, ids=str)
def test_class_partition(group):
    labels = group.class_labels()
    assert len(labels) == (1 << (group.n - 2)) + 3
    seen: set[Element] = set()
    for lab in labels:
        members = class_members(group, lab)
        assert len(members) == group.class_size(lab)
        for m in members:
            assert group.conjugacy_class_of(m) == lab
            assert m not in seen
            seen.add(m)
    assert len(seen) == group.order
    assert sum(group.class_size(lab) for lab in labels) == group.order


@pytest.mark.parametrize("group", SMALL, ids=str)
def test_classes_are_closed_under_conjugation(group):
    for lab in group.class_labels():
        rep = group.class_representative(lab)
        orbit = {
            multiply(group, multiply(group, t, rep), inverse(group, t))
            for t in elements(group)
        }
        assert orbit == set(class_members(group, lab))


@pytest.mark.parametrize("group", SMALL, ids=str)
def test_square_root_count_matches_brute_force(group):
    counts = {lab: 0 for lab in group.class_labels()}
    for g in elements(group):
        counts[group.conjugacy_class_of(multiply(group, g, g))] += 1
    for lab, brute in counts.items():
        assert group.square_root_count(lab) == brute, lab


def test_square_root_density_families_differ_at_center():
    q = Group(GroupKind(QUATERNION, 5))
    d = Group(GroupKind(DIHEDRAL, 5))
    # flips square to the central involution in one family, to 1 in the other
    assert q.square_root_count(MINUS_ONE) == 2 + q.rotation_order
    assert q.square_root_count(ONE) == 2
    assert d.square_root_count(ONE) == 2 + d.rotation_order
    assert d.square_root_count(MINUS_ONE) == 2


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", (4, 5, 6))
def test_class_fusion_matches_brute_force(family, n):
    group = Group(GroupKind(family, n))
    for i in range(3, n + 1):
        for lab in group.level(i).class_labels():
            assert group.class_fusion(i, lab) == brute_force_fusion(group, i, lab)


def test_fusion_merges_exactly_the_flip_pair_below_the_top_level():
    group = Group(GroupKind(QUATERNION, 6))
    for i in range(3, 6):
        labels = group.level(i).class_labels()
        fused = [group.class_fusion(i, lab) for lab in labels]
        assert fused.count(FLIP_EVEN) == 2
        assert FLIP_ODD not in fused
        rotations = fused[:-2]
        assert len(set(rotations)) == len(rotations)
    top = [group.class_fusion(6, lab) for lab in group.class_labels()]
    assert top == group.class_labels()


def test_level_subgroup_embedding_is_a_homomorphism():
    group = Group(GroupKind(QUATERNION, 6))
    level = group.level(4)
    for g in elements(level):
        for h in elements(level):
            lhs = embed(group, 4, multiply(level, g, h))
            rhs = multiply(group, embed(group, 4, g), embed(group, 4, h))
            assert lhs == rhs


def test_kind_validation():
    with pytest.raises(Exception):
        GroupKind(QUATERNION, 2)
    with pytest.raises(Exception):
        GroupKind("cyclic", 4)
    with pytest.raises(ValueError):
        Group(GroupKind(QUATERNION, 4)).level(2)


def test_element_orders():
    q = Group(GroupKind(QUATERNION, 3))
    assert q.element_order(Element(0, 1)) == 4  # quaternion flips have order 4
    d = Group(GroupKind(DIHEDRAL, 3))
    assert d.element_order(Element(0, 1)) == 2
    assert q.element_order(Element(1, 0)) == 4
    assert q.element_order(Element(2, 0)) == 2
    # at the largest order, where repeated multiplication takes 2^19 steps
    big = Group(GroupKind(QUATERNION, 20))
    assert big.element_order(Element(1, 0)) == 1 << 19
    assert big.element_order(Element(3 << 17, 0)) == 4
    assert big.element_order(Element(1 << 18, 0)) == 2
    assert big.element_order(Element(0, 0)) == 1
    assert big.element_order(Element(5, 1)) == 4


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(3, 9))
def test_element_order_closed_form_matches_repeated_multiplication(family, n):
    group = Group(GroupKind(family, n))
    for g in elements(group):
        assert group.element_order(g) == brute_force_order(group, g), g


def test_power_label_str():
    assert str(power(3)) == "power(3)"
    assert str(ONE) == "one"
