"""Exact character tables, induction against brute force, and the
symplectic block structure used by the race engine."""
from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from chebrace.characters import (
    character_ids,
    character_value,
    psi_id,
    sr_partition,
    symplectic_mask,
)
from chebrace.cyclotomic import add, cos_pair, cyclo_zero
from chebrace.groups import DIHEDRAL, QUATERNION, Group, GroupKind, power
from oracles import (
    PUBLISHED_SR,
    sr_split,
    as_int,
    brute_force_induce,
    character_degree,
    character_table,
    conjugate,
    degree_two_matrices,
    frobenius_schur,
    induce,
    induced_components,
    inner_product,
    is_faithful,
    is_symplectic,
    is_zero,
    mul,
    multiplicity,
    orthogonality_mod_p,
    restrict,
    symplectic_value_sum,
    to_complex,
)

FAMILIES = (DIHEDRAL, QUATERNION)


def _groups(ns):
    return [Group(GroupKind(f, n)) for f in FAMILIES for n in ns]


@pytest.mark.parametrize("group", _groups((3, 4, 5)), ids=str)
def test_row_orthogonality_exact(group):
    table = character_table(group)
    for a, chi in enumerate(table.characters):
        for phi in table.characters[a:]:
            ip = inner_product(group, chi.values, phi.values)
            assert ip == Fraction(1 if chi.cid == phi.cid else 0)


@pytest.mark.parametrize("group", _groups((3, 4, 5)), ids=str)
def test_column_orthogonality_exact(group):
    table = character_table(group)
    labels = group.class_labels()
    m = group.rotation_order
    for la in labels:
        for lb in labels:
            acc = cyclo_zero(m)
            for chi in table.characters:
                acc = add(acc, mul(chi.value(la), conjugate(chi.value(lb))))
            expected = group.order // group.class_size(la) if la == lb else 0
            assert as_int(acc) == expected, (la, lb)


@pytest.mark.parametrize("group", _groups((3, 4, 5)), ids=str)
def test_orthogonality_mod_p_agrees_with_the_ring(group):
    # the two tests above decide both identities in Z[zeta]; the modular
    # matrix check must reach the same verdict
    assert orthogonality_mod_p(character_table(group)) == (True, True)


@pytest.mark.parametrize("family", FAMILIES)
def test_orthogonality_mod_p_rejects_a_changed_entry(family):
    group = Group(GroupKind(family, 6))
    table = character_table(group)
    m = group.rotation_order
    psi = table.by_id("psi_1")
    # psi_1 at a^1 is zeta + zeta^-1; zeta^3 + zeta^-3 is another psi's value
    # there, so only the orthogonality relations can tell them apart
    values = dict(psi.values)
    values[power(1)] = cos_pair(m, 3)
    changed = dataclasses.replace(psi, values=values)
    bad = dataclasses.replace(table, characters=tuple(
        changed if chi is psi else chi for chi in table.characters))
    rows_ok, cols_ok = orthogonality_mod_p(bad)
    assert not rows_ok and not cols_ok


@pytest.mark.parametrize("group", _groups((3, 4, 5, 6)), ids=str)
def test_character_values_against_matrix_models(group):
    # degree-2 characters are traces of the explicit matrix model
    for j in range(1, 1 << (group.n - 2)):
        cid = psi_id(j)
        for lab in group.class_labels():
            rep = group.class_representative(lab)
            mat = degree_two_matrices(group, j, rep)
            trace = mat[0][0] + mat[1][1]
            assert abs(to_complex(character_value(group, cid, lab)) - trace) < 1e-9


@pytest.mark.parametrize("group", _groups((3, 4, 5, 6)), ids=str)
def test_frobenius_schur_classification(group):
    table = character_table(group)
    mask = symplectic_mask(group)
    for chi in table.characters:
        ind = frobenius_schur(table, chi)
        if group.family == QUATERNION and chi.cid.startswith("psi_"):
            j = int(chi.cid.split("_")[1])
            assert ind == (-1 if j % 2 == 1 else 1), chi.cid
        else:
            assert ind == 1, chi.cid  # all real and orthogonally realizable
        # the closed-form symplectic mask is the FS index test
        assert mask[character_ids(group).index(chi.cid)] == (ind == -1)


def test_is_symplectic_closed_form_matches_quaternion_indicator():
    group = Group(GroupKind(QUATERNION, 5))
    table = character_table(group)
    mask = symplectic_mask(group)
    for c, chi in enumerate(table.characters):
        assert chi.cid == character_ids(group)[c]
        assert mask[c] == (frobenius_schur(table, chi) == -1)
        assert is_symplectic(chi.cid) == mask[c]


@pytest.mark.parametrize("group", _groups((3, 4, 5)), ids=str)
def test_faithfulness_is_exactly_the_odd_psi_block(group):
    table = character_table(group)
    for chi in table.characters:
        expected = (chi.cid.startswith("psi_")
                    and int(chi.cid.split("_")[1]) % 2 == 1)
        assert is_faithful(table, chi) == expected, chi.cid


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", (4, 5, 6))
def test_induction_matches_brute_force(family, n):
    group = Group(GroupKind(family, n))
    table = character_table(group)
    for i in range(3, n + 1):
        level = group.level(i)
        pairs = induced_components(group, i)
        for cid in character_ids(level):
            values = {lab: character_value(level, cid, lab)
                      for lab in level.class_labels()}
            brute = brute_force_induce(table, i, values)
            closed = induce(group, i, cid)
            assert dict(closed.components) == brute, (family, n, i, cid)
            assert pairs[cid] == brute, (family, n, i, cid)


@pytest.mark.parametrize("family", FAMILIES)
def test_frobenius_reciprocity(family):
    n = 5
    group = Group(GroupKind(family, n))
    level_i = 3
    level = group.level(level_i)
    pairs = induced_components(group, level_i)
    for src in character_ids(level):
        dec = induce(group, level_i, src)
        src_values = {lab: character_value(level, src, lab)
                      for lab in level.class_labels()}
        for cid in character_ids(group):
            res = restrict(group, level_i, cid)
            ip = inner_product(level, res, src_values)
            assert ip == Fraction(multiplicity(dec, cid)), (src, cid)
            assert ip == pairs[src].get(cid, 0), (src, cid)


def test_induced_degree_bookkeeping():
    group = Group(GroupKind(QUATERNION, 6))
    for i in range(3, 7):
        pairs = induced_components(group, i)
        for cid in character_ids(group.level(i)):
            dec = induce(group, i, cid)
            total = sum(m * character_degree(c) for c, m in dec.components)
            assert total == (1 << (6 - i)) * character_degree(cid)
            total = sum(m * character_degree(c) for c, m in pairs[cid].items())
            assert total == (1 << (6 - i)) * character_degree(cid)


def test_symplectic_value_sum_vanishes():
    for i in range(3, 11):
        for k in range(1, (1 << (i - 2))):
            assert is_zero(symplectic_value_sum(i, k)), (i, k)


def test_symplectic_value_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        symplectic_value_sum(2, 1)
    with pytest.raises(ValueError):
        symplectic_value_sum(4, 4)


@pytest.mark.parametrize("family", FAMILIES)
def test_sr_partition_shapes(family):
    group = Group(GroupKind(family, 6))
    for i in range(3, 6):
        s_ids, r_ids = sr_split(group, i)
        assert sr_partition(group, i) == (
            max(character_degree(cid) for cid in r_ids), len(r_ids))
        if i <= 4:
            # chi0 and chi1 share a nonempty induced psi block, so chi1 is
            # in the overlapping part too (chi0 is excluded by convention)
            assert r_ids == ("chi1", "chi2", "chi3")
            assert sr_partition(group, i) == (1, 3)
            psi_only = {cid for cid in character_ids(group.level(i))
                        if cid.startswith("psi_")}
            assert set(s_ids) == psi_only
        else:
            # one level below the top the shared psi block is empty and
            # only the pair inducing identically remains entangled
            assert r_ids == ("chi2", "chi3")
            assert sr_partition(group, i) == (1, 2)
            assert set(s_ids) == {
                cid for cid in character_ids(group.level(i))
                if cid.startswith("psi_") or cid in ("chi0", "chi1")
            }
        # the quoted b1, b2 and entangled pair match neither shape
        assert PUBLISHED_SR != (*sr_partition(group, i), r_ids)
    s_ids, r_ids = sr_split(group, 6)
    assert r_ids == ()
    assert set(s_ids) == set(character_ids(group))
    assert sr_partition(group, 6) == (0, 0)


def test_induced_blocks_of_the_shared_part_overlap():
    group = Group(GroupKind(QUATERNION, 6))
    for i in range(3, 6):
        comp = {cid: induce(group, i, cid).component_ids()
                for cid in ("chi0", "chi1", "chi2", "chi3")}
        if i <= 4:
            assert comp["chi0"] & comp["chi1"]  # share the same psi block
        else:
            assert not comp["chi0"] & comp["chi1"]  # block empty at i = n-1
        assert comp["chi2"] == comp["chi3"]
        for cid in character_ids(group.level(i)):
            if cid.startswith("psi_"):
                mine = induce(group, i, cid).component_ids()
                assert mine.isdisjoint(comp["chi0"] | comp["chi1"])


def test_restriction_of_trivial_character_is_trivial():
    group = Group(GroupKind(DIHEDRAL, 5))
    res = restrict(group, 3, "chi0")
    level = group.level(3)
    for lab in level.class_labels():
        assert as_int(res[lab]) == 1


def test_character_ids_enumeration():
    g = Group(GroupKind(QUATERNION, 4))
    assert character_ids(g) == ["chi0", "chi1", "chi2", "chi3",
                                "psi_1", "psi_2", "psi_3"]
    assert character_degree("psi_3") == 2
    assert character_degree("chi2") == 1
