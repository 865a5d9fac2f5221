"""Tame conductors, the conductor-discriminant identity (over the oracles'
literal primes), and scenario plumbing."""
from __future__ import annotations

import math

import numpy as np
import pytest

from chebrace.arithmetic import (
    ArithmeticScenario,
    VirtualPrime,
    conductor_exponents,
    horizontal_scenario,
    scenario_generator,
)
from chebrace.characters import character_ids
from chebrace.groups import DIHEDRAL, QUATERNION, Element, Group, GroupKind
from oracles import (
    RamificationData,
    RamifiedPrime,
    central_order,
    character_degree,
    conductor_discriminant,
    conductor_exponent,
    conductor_report,
    degree_two_matrices,
    discriminant_exponent_tame,
    elements,
    explicit_scenario,
    identity,
    invariant_dimension,
    invariant_dimension_average,
    log_conductor,
    multiply,
    random_ramification,
    scenario_regime,
    vanishing_orders,
)

FAMILIES = (DIHEDRAL, QUATERNION)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
def test_invariant_dimension_matches_averaging_oracle(family, n):
    group = Group(GroupKind(family, n))
    ids = character_ids(group)
    for gen in elements(group):
        if gen == identity():
            continue
        average = [invariant_dimension_average(group, cid, gen) for cid in ids]
        assert conductor_exponents(group, gen).tolist() == [
            character_degree(cid) - dim for cid, dim in zip(ids, average)], gen
        for cid, dim in zip(ids, average):
            assert invariant_dimension(group, cid, gen) == dim, (gen, cid)


@pytest.mark.parametrize("family", FAMILIES)
def test_invariant_dimension_matches_matrix_rank_oracle(family):
    # projector P = (1/e) sum over the inertia subgroup of the matrix model;
    # dim of invariants is its trace
    group = Group(GroupKind(family, 5))
    for gen in (Element(1, 0), Element(2, 0), Element(4, 0),
                Element(0, 1), Element(3, 1)):
        e = group.element_order(gen)
        powers = []
        g = identity()
        for _ in range(e):
            powers.append(g)
            g = multiply(group, g, gen)
        for j in range(1, 1 << (group.n - 2)):
            mats = [np.array(degree_two_matrices(group, j, h)) for h in powers]
            proj = sum(mats) / e
            dim = int(round(np.trace(proj).real))
            assert invariant_dimension(group, f"psi_{j}", gen) == dim, (gen, j)
            assert conductor_exponents(group, gen)[3 + j] == 2 - dim, (gen, j)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(100))
def test_conductor_discriminant_identity_on_random_scenarios(family, seed):
    n = 3 + seed % 4
    kind = GroupKind(family, n)
    group = Group(kind)
    ram = random_ramification(kind, seed)
    disc = conductor_discriminant(group, ram)
    report = conductor_report(group, ram)
    for rp in ram.primes:
        # per-prime: sum over irreducibles of deg * conductor exponent
        total = sum(character_degree(cid) * dict(report[cid].exponents)[rp.p]
                    for cid in character_ids(group))
        assert disc[rp.p] == total
        # and the closed form (e-1)|G|/e for tame inertia
        e = group.element_order(rp.inertia)
        assert total == (e - 1) * (group.order // e)
        assert total == discriminant_exponent_tame(group, rp.inertia)


def test_conductor_exponents_are_degree_minus_invariants():
    group = Group(GroupKind(QUATERNION, 4))
    for gen in elements(group):
        if gen == identity():
            continue
        expos = conductor_exponents(group, gen)
        assert expos.dtype == np.int64
        for cid, array_expo in zip(character_ids(group), expos.tolist(), strict=True):
            expo = conductor_exponent(group, cid, gen)
            assert expo == character_degree(cid) - invariant_dimension(
                group, cid, gen)
            assert 0 <= expo <= character_degree(cid)
            assert array_expo == expo, (gen, cid)


def test_order_8_conductor_pattern_and_discriminant_bracket():
    group = Group(GroupKind(QUATERNION, 3))
    central = Element(2, 0)
    axes = (Element(1, 0), Element(0, 1), Element(1, 1))
    # central inertia ramifies only the two-dimensional character
    assert conductor_exponents(group, central).tolist() == [0, 0, 0, 0, 2]
    assert discriminant_exponent_tame(group, central) == 4
    for axis in axes:
        expos = dict(zip(character_ids(group),
                         conductor_exponents(group, axis).tolist()))
        assert expos["chi0"] == 0
        assert expos["psi_1"] == 2
        assert sorted(expos[c] for c in ("chi1", "chi2", "chi3")) == [0, 1, 1]
        assert discriminant_exponent_tame(group, axis) == 6
    # A(psi)^2 <= |d| <= A(psi)^3 for every single-prime scenario
    for gen in (central,) + axes:
        fpsi = conductor_exponents(group, gen)[4]  # psi_1
        d = discriminant_exponent_tame(group, gen)
        assert 2 * fpsi <= d <= 3 * fpsi


@pytest.mark.parametrize("family", FAMILIES)
def test_vanishing_orders(family):
    for n in (4, 5, 6):
        kind = GroupKind(family, n)
        for i in range(3, n + 1):
            for w in (+1, -1):
                if family == DIHEDRAL and w == -1:
                    continue
                orders = vanishing_orders(kind, w, i)
                for cid, order in orders.items():
                    symplectic = (cid.startswith("psi_")
                                  and int(cid.split("_")[1]) % 2 == 1)
                    if family == QUATERNION and w == -1 and symplectic:
                        assert order == 1 << (n - i), (cid, i)
                    else:
                        assert order == 0, (cid, i)
        with pytest.raises(ValueError):
            vanishing_orders(kind, +1, 2)
        with pytest.raises(ValueError):
            vanishing_orders(kind, +1, n + 1)


def test_scenario_central_orders_and_overrides():
    kind = GroupKind(QUATERNION, 4)
    vp = VirtualPrime(math.log(5.0), Element(1, 0))
    scen = ArithmeticScenario(kind, -1, (vp,), 10.0)
    ids = character_ids(scen.group)
    assert dict(zip(ids, scen.central_orders.tolist())) == {
        "chi0": 0, "chi1": 0, "chi2": 0, "chi3": 0,
        "psi_1": 1, "psi_2": 0, "psi_3": 1}
    forced = ArithmeticScenario(kind, +1, (vp,), 10.0,
                                order_overrides=(("psi_1", 7),))
    assert forced.central_orders.tolist() == [0, 0, 0, 0, 7, 0, 0]
    assert not forced.central_orders.flags.writeable
    for family in FAMILIES:
        for n in (3, 4, 7):
            for w in ((+1,) if family == DIHEDRAL else (+1, -1)):
                for overrides in ((), (("psi_1", 3), ("chi2", 2))):
                    sc = ArithmeticScenario(GroupKind(family, n), w, (vp,), 10.0,
                                            order_overrides=overrides)
                    assert sc.central_orders.tolist() == [
                        central_order(sc, cid) for cid in character_ids(sc.group)]


def test_dihedral_scenarios_store_w_plus_one():
    # W is vacuous for the dihedral family: -1 is stored as +1
    kind = GroupKind(DIHEDRAL, 4)
    vp = VirtualPrime(math.log(5.0), Element(1, 0))
    scen = ArithmeticScenario(kind, -1, (vp,), 10.0)
    assert scen.w_axiom == 1
    assert scen == ArithmeticScenario(kind, +1, (vp,), 10.0)
    assert scenario_generator(DIHEDRAL, 5, -1, 3) == scenario_generator(DIHEDRAL, 5, +1, 3)


def test_scenario_checks_raise_value_errors():
    # raised, not asserted, so they also hold under python -O
    kind = GroupKind(QUATERNION, 4)
    vp = VirtualPrime(math.log(5.0), Element(1, 0))
    for family in (QUATERNION, DIHEDRAL):
        for w in (0, 2, True, 1.0, "1"):
            with pytest.raises(ValueError, match="w_axiom must be the integer 1 or -1"):
                ArithmeticScenario(GroupKind(family, 4), w, (vp,), 10.0)
    for log_disc in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="log_disc"):
            ArithmeticScenario(kind, -1, (vp,), log_disc)


def test_virtual_prime_validation():
    # raised, not asserted, so they also hold under python -O
    for log_p in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="log_p must be positive"):
            VirtualPrime(log_p, Element(1, 0))


def test_explicit_scenario_log_disc_is_exact():
    kind = GroupKind(QUATERNION, 4)
    ram = RamificationData(kind, (RamifiedPrime(5, Element(1, 0)),
                                  RamifiedPrime(7, Element(0, 1))))
    scen = explicit_scenario(ram)
    group = Group(kind)
    degrees = [character_degree(cid) for cid in character_ids(group)]
    expected = float(np.dot(degrees, scen.log_conductors))
    assert math.isclose(scen.log_disc, expected, rel_tol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_scenario_generator_is_deterministic_and_in_regime(family):
    a = scenario_generator(family, 6, +1, seed=42)
    b = scenario_generator(family, 6, +1, seed=42)
    assert a == b
    lo, hi = scenario_regime(6)
    assert lo <= a.log_disc <= hi
    c = scenario_generator(family, 6, +1, seed=43)
    assert c.log_disc != a.log_disc
    # the log conductors are the per-id sums, bit for bit, and read-only
    for n in range(3, 13):
        for seed in range(8):
            for w in ((+1,) if family == DIHEDRAL else (+1, -1)):
                scen = scenario_generator(family, n, w, seed=seed)
                logs = scen.log_conductors
                assert logs.dtype == np.float64 and not logs.flags.writeable
                assert logs.tolist() == [log_conductor(scen, cid)
                                         for cid in character_ids(scen.group)]


def test_horizontal_scenario_conductor_growth():
    prev = None
    for idx, f in enumerate((1, 2, 3, 4)):
        scen = horizontal_scenario(idx, float(f), -1)
        log_a = scen.log_conductors[4]  # psi_1
        assert log_a == log_conductor(scen, "psi_1")
        assert math.isclose(log_a, 2.0 * f**3 + math.log(2.0 + idx),
                            rel_tol=1e-12)
        assert log_a >= 2.0 * f**3
        if prev is not None:
            assert log_a > prev
        prev = log_a
    with pytest.raises(ValueError):
        horizontal_scenario(0, 0.0, +1)


def test_ramification_data_validation():
    kind = GroupKind(DIHEDRAL, 4)
    with pytest.raises(ValueError):
        RamifiedPrime(9, Element(1, 0))  # composite
    with pytest.raises(ValueError):
        RamifiedPrime(2, Element(1, 0))  # even
    with pytest.raises(ValueError):
        RamificationData(kind, (RamifiedPrime(5, Element(1, 0)),
                                RamifiedPrime(5, Element(0, 1))))
    with pytest.raises(ValueError):
        RamificationData(kind, (RamifiedPrime(5, Element(0, 0)),))
