"""Race means, weights, variance assembly, and the mean tables."""
from __future__ import annotations

import math

import numpy as np
import pytest

from chebrace.arithmetic import ArithmeticScenario, VirtualPrime, scenario_generator
from chebrace.characters import character_degree, character_ids
from chebrace.groups import (
    DIHEDRAL,
    FLIP_EVEN,
    FLIP_ODD,
    MINUS_ONE,
    ONE,
    Element,
    Group,
    GroupKind,
    power,
)
from chebrace.races import (
    InternalInconsistencyError,
    MeanRow,
    RaceModel,
    RaceSpec,
    RaceUndefinedError,
    STATUS_MATCH,
    STATUS_OPEN_QUESTION,
    STATUS_UNDEFINED,
    assemble_race_model,
    level_data,
    level_orders,
    mean,
    mean_table,
    published_mean,
    pair_weights,
    race_mean_closed_form,
    weights,
    z_values,
)
from chebrace.zeros import ZeroCountModel, ZeroSet, sample_zero_set
from oracles import (
    b0,
    bias_factor,
    mean_table_per_pair,
    vanishing_orders,
    variance,
    weights_cyclo,
    weights_per_pair,
    z_value_cyclo,
)

FAMILIES = (DIHEDRAL, "quaternion")


def _scen(family, n, w):
    return scenario_generator(family, n, w, seed=17)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_mean_table_internal_closed_form_agreement(family, n):
    # mean_table asserts closed form == formula evaluation for every row
    for w in ((+1,) if family == DIHEDRAL else (+1, -1)):
        for level in range(3, n + 1):
            rows = mean_table(family, n, level, w)
            classes = (1 << (level - 2)) + 3
            assert len(rows) == classes * (classes - 1) // 2
            undefined = [r for r in rows if r.status == STATUS_UNDEFINED]
            if level < n:
                assert len(undefined) == 1
                r = undefined[0]
                assert {r.c1.kind, r.c2.kind} == {"flip_even", "flip_odd"}
                assert r.mean_formula is None and r.mean_published is None
            else:
                assert not undefined


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(3, 9))
def test_mean_table_matches_per_pair_loop(family, n):
    # mean_table reads both printed means as differences of per-class values
    # against the first class; every pair's own value must be that difference
    kind = GroupKind(family, n)
    for w in ((+1,) if family == DIHEDRAL else (+1, -1)):
        for level in range(3, n + 1):
            labels = Group(kind).level(level).class_labels()
            ref = labels[0]
            for form in (race_mean_closed_form, published_mean):
                per_class = {lab: form(kind, w, level, ref, lab) for lab in labels[1:]}
                per_class[ref] = 0
                for a in range(len(labels)):
                    for b in range(a + 1, len(labels)):
                        value = form(kind, w, level, labels[a], labels[b])
                        assert value in (None, per_class[labels[b]] - per_class[labels[a]])
            assert mean_table(family, n, level, w) == mean_table_per_pair(family, n, level, w)


def test_mean_self_check_names_the_first_failing_row(monkeypatch):
    # a closed form off by one at one class fails first at (one, that class)
    from chebrace import races

    closed_form = races.race_mean_closed_form

    def off_at_power_2(kind, w, level, c1, c2):
        value = closed_form(kind, w, level, c1, c2)
        return value + (c2 == power(2)) - (c1 == power(2))

    monkeypatch.setattr(races, "race_mean_closed_form", off_at_power_2)
    for family in FAMILIES:
        messages = []
        for table in (mean_table, mean_table_per_pair):
            with pytest.raises(InternalInconsistencyError) as err:
                table(family, 6, 5, -1)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("for (one, power(2))")


@pytest.mark.parametrize("family", FAMILIES)
def test_mean_reads_only_its_two_classes(family):
    scen = _scen(family, 6, -1)
    for level in range(3, 7):
        data = level_data(scen, level)
        labels = scen.group.level(level).class_labels()
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                spec = RaceSpec(scen, level, labels[a], labels[b])
                if spec.is_defined():
                    assert mean(spec) == data.mean(labels[a], labels[b])


def test_mean_table_statuses_by_family():
    for level in (3, 4, 5):
        for w in (+1, -1):
            rows = mean_table("quaternion", 5, level, w)
            assert all(r.status in (STATUS_MATCH, STATUS_UNDEFINED)
                       for r in rows)
        rows = mean_table(DIHEDRAL, 5, level, +1)
        for r in rows:
            if r.status == STATUS_UNDEFINED:
                continue
            if ONE in (r.c1, r.c2):
                assert r.status == STATUS_OPEN_QUESTION
                shift = +1 if r.c1 == ONE else -1
                assert r.mean_published == r.mean_formula + shift
            else:
                assert r.status == STATUS_MATCH
                assert r.mean_published == r.mean_formula


@pytest.mark.parametrize("family", FAMILIES)
def test_mean_antisymmetry_and_weight_symmetry(family):
    scen = _scen(family, 5, -1)
    lg = scen.group.level(4)
    labels = lg.class_labels()
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            fwd = RaceSpec(scen, 4, labels[a], labels[b])
            bwd = RaceSpec(scen, 4, labels[b], labels[a])
            if not fwd.is_defined():
                assert not bwd.is_defined()
                continue
            assert mean(fwd) == -mean(bwd)
            assert weights(fwd) == weights(bwd)


def test_quaternion_mean_depends_on_w_only_through_central_classes():
    plus = _scen("quaternion", 5, +1)
    minus = ArithmeticScenario(plus.kind, -1, plus.primes, plus.log_disc)
    for level in (3, 4, 5):
        lg = plus.group.level(level)
        for lab in lg.class_labels():
            if lab in (ONE, MINUS_ONE):
                continue
            if lab.kind.startswith("flip") and level < 5:
                continue
            pair_mean = {
                w: mean(RaceSpec(s, level, lab, MINUS_ONE))
                for w, s in ((+1, plus), (-1, minus))
            }
            # W shifts the mean through z(-1) = -2^(n-2)(1-W) only
            assert pair_mean[-1] - pair_mean[+1] == -16


def test_order_8_symbolic_means_through_order_overrides():
    kind = GroupKind("quaternion", 3)
    vp = VirtualPrime(5, math.log(5.0), Element(1, 0))
    for o in (0, 1, 2):
        scen = ArithmeticScenario(kind, +1, (vp,), 6.0 * math.log(5.0),
                                  order_overrides=(("psi_1", o),))
        m = {
            (c1, c2): mean(RaceSpec(scen, 3, c1, c2))
            for c1, c2 in (
                (ONE, MINUS_ONE), (ONE, FLIP_EVEN),
                (MINUS_ONE, FLIP_EVEN), (FLIP_EVEN, FLIP_ODD),
            )
        }
        assert m[(ONE, MINUS_ONE)] == 4 - 8 * o
        assert m[(ONE, FLIP_EVEN)] == -2 - 4 * o
        assert m[(MINUS_ONE, FLIP_EVEN)] == -6 + 4 * o
        assert m[(FLIP_EVEN, FLIP_ODD)] == 0


def test_level_orders_agree_with_closed_form_vanishing_orders():
    # induction bookkeeping vs the direct 2^(n-i) count, independent paths
    for family in FAMILIES:
        for w in ((+1,) if family == DIHEDRAL else (+1, -1)):
            scen = _scen(family, 6, w)
            for i in range(3, 7):
                assert level_orders(scen, i) == vanishing_orders(
                    scen.kind, w, i)


def _z(level_group, label, orders):
    return z_values(level_group, [label], orders)[0]


def test_z_value_exact_integers():
    group = Group(GroupKind("quaternion", 3))
    orders = {"psi_1": 1}
    assert _z(group, ONE, orders) == 4
    assert _z(group, MINUS_ONE, orders) == -4
    assert _z(group, power(1), orders) == 0
    assert _z(group, FLIP_EVEN, orders) == 0
    assert _z(group, ONE, {"psi_1": 0, "chi1": 0}) == 0
    # psi_1(power(1)) = zeta_8 + zeta_8^-1 = sqrt(2): not a rational integer
    with pytest.raises(ValueError, match="not a rational integer"):
        _z(Group(GroupKind("quaternion", 4)), power(1), {"psi_1": 1})


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
def test_array_path_matches_cyclo_oracle(family, n):
    # every label's z at every level (both W), and the weights of every
    # top-level pair, which covers every fused pair of the lower levels
    for w in (+1, -1):
        scen = _scen(family, n, w)
        for level in range(3, n + 1):
            lg = scen.group.level(level)
            orders = level_orders(scen, level)
            labels = lg.class_labels()
            assert z_values(lg, labels, orders) == [
                z_value_cyclo(lg, lab, orders) for lab in labels]
    labels = scen.group.class_labels()
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            spec = RaceSpec(scen, n, labels[a], labels[b])
            got, want = weights(spec), weights_cyclo(spec)
            assert list(got) == list(want)
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


def _assert_batch_matches_per_pair_oracle(scen, specs):
    group = scen.group
    fused = [spec.fused_pair() for spec in specs]
    batch = pair_weights(group, fused)
    want = np.array([weights_per_pair(group, c1, c2) for c1, c2 in fused])
    assert batch.shape == (len(specs), len(character_ids(group)))
    assert (batch == want).all()  # bit for bit: no NaN, and -0.0 never occurs
    for spec, row in zip(specs, batch):
        assert list(weights(spec).values()) == row.tolist()


@pytest.mark.parametrize("family,w", ((DIHEDRAL, +1), ("quaternion", +1),
                                      ("quaternion", -1)))
@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
def test_pair_weights_match_the_per_pair_oracle_at_every_level(family, w, n):
    scen = _scen(family, n, w)
    for level in range(3, n + 1):
        labels = scen.group.level(level).class_labels()
        specs = [RaceSpec(scen, level, labels[a], labels[b])
                 for a in range(len(labels)) for b in range(a + 1, len(labels))]
        _assert_batch_matches_per_pair_oracle(
            scen, [spec for spec in specs if spec.is_defined()])


def test_pair_weights_match_the_oracle_on_the_monotonicity_pair():
    # the (one, minus_one) race of monotonicity's quaternion n = 12 run, at
    # every level: 1023 psi characters over Z[zeta_2048]
    scen = _scen("quaternion", 12, -1)
    _assert_batch_matches_per_pair_oracle(
        scen, [RaceSpec(scen, level, ONE, MINUS_ONE) for level in range(3, 13)])


def test_non_integer_z_raises_on_both_paths():
    # orders not constant on the Galois orbit {psi_1, psi_3}
    group = Group(GroupKind("quaternion", 5))
    orders = {"psi_1": 1, "psi_3": 2}
    for z in (z_value_cyclo, _z):
        with pytest.raises(ValueError, match="not a rational integer"):
            z(group, power(1), orders)
    assert _z(group, MINUS_ONE, orders) == -12


def test_weights_structure_for_the_central_pair():
    scen = _scen("quaternion", 5, +1)
    w = weights(RaceSpec(scen, 5, ONE, MINUS_ONE))
    for cid in character_ids(scen.group):
        if cid.startswith("psi_") and int(cid.split("_")[1]) % 2 == 1:
            assert w[cid] == 4.0
        else:
            assert w[cid] == 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_variance_and_bias_match_the_materialized_model(family):
    scen = _scen(family, 4, +1)
    spec = RaceSpec(scen, 4, ONE, MINUS_ONE)
    w = weights(spec)
    zero_sets = {}
    b0_map = {}
    for ix, (cid, wv) in enumerate(sorted(w.items())):
        if wv == 0.0:
            continue
        model = ZeroCountModel(max(scen.log_conductor(cid), 1.0),
                               character_degree(cid))
        zs = sample_zero_set(model, 64.0, seed=ix, character_id=cid)
        zero_sets[cid] = zs
        b0_map[cid] = b0(zs)
    race = assemble_race_model(mean(spec), weights(spec), zero_sets)
    assert race.mean == mean(spec)
    assert math.isclose(race.variance, variance(spec, b0_map), rel_tol=1e-12)
    assert math.isclose(race.bias_factor, bias_factor(spec, b0_map),
                        rel_tol=1e-12)
    assert math.isclose(race.bias_factor,
                        race.mean / math.sqrt(race.variance), rel_tol=1e-15)
    # terms are the descending amplitudes 2w/sqrt(1/4+gamma^2)
    assert np.all(np.diff(race.terms) <= 0.0)
    assert math.isclose(0.5 * float(np.sum(race.terms**2)), race.variance,
                        rel_tol=1e-12)
    n_zeros = sum(len(zs) for cid, zs in zero_sets.items() if w[cid] > 0)
    assert race.terms.size == n_zeros


def test_undefined_race_raises_below_top_level_only():
    scen = _scen(DIHEDRAL, 5, +1)
    below = RaceSpec(scen, 4, FLIP_EVEN, FLIP_ODD)
    assert not below.is_defined()
    assert below.fused_pair()[0] == below.fused_pair()[1]
    with pytest.raises(RaceUndefinedError):
        mean(below)
    with pytest.raises(RaceUndefinedError):
        weights(below)
    top = RaceSpec(scen, 5, FLIP_EVEN, FLIP_ODD)
    assert top.is_defined()
    assert isinstance(mean(top), int)
    assert race_mean_closed_form(scen.kind, +1, 4, FLIP_EVEN, FLIP_ODD) is None


def test_race_spec_validation():
    scen = _scen("quaternion", 4, +1)
    with pytest.raises(ValueError):
        RaceSpec(scen, 2, ONE, MINUS_ONE)  # level below 3
    with pytest.raises(ValueError):
        RaceSpec(scen, 5, ONE, MINUS_ONE)  # level above n
    with pytest.raises(ValueError):
        RaceSpec(scen, 3, ONE, ONE)  # identical classes
    with pytest.raises(ValueError):
        RaceSpec(scen, 3, ONE, power(2))  # power out of range at level 3
    spec = RaceSpec(scen, 3, ONE, power(1))
    assert spec.fused_pair() == (ONE, power(2))


def test_assemble_race_model_coverage_errors():
    w = {"chi1": 2.0, "chi2": 0.0}
    zs = ZeroSet("chi1", 10.0, (1.0, 3.0), source="test")
    model = assemble_race_model(-2, {"chi1": 2.0}, {"chi1": zs})
    assert model.mean == -2 and model.terms.size == 2
    with pytest.raises(KeyError):
        assemble_race_model(1, w, {"chi2": zs})  # weighted chi1 uncovered
    # zero-weight characters need no zero set
    assert assemble_race_model(1, w, {"chi1": zs}).terms.size == 2
    with pytest.raises(ValueError):
        assemble_race_model(1, {"chi1": 2.0},
                            {"chi1": ZeroSet("chi1", 10.0, (), source="t")})


def test_published_mean_rule():
    kind = GroupKind(DIHEDRAL, 5)
    for level in (3, 4, 5):
        group = Group(kind).level(level)
        labels = group.class_labels()
        for a in range(len(labels)):
            for b in range(len(labels)):
                if a == b:
                    continue
                c1, c2 = labels[a], labels[b]
                base = race_mean_closed_form(kind, +1, level, c1, c2)
                pub = published_mean(kind, +1, level, c1, c2)
                if base is None:
                    assert pub is None
                elif c1 == ONE:
                    assert pub == base + 1
                elif c2 == ONE:
                    assert pub == base - 1
                else:
                    assert pub == base
    qkind = GroupKind("quaternion", 5)
    assert published_mean(qkind, -1, 5, ONE, MINUS_ONE) == \
        race_mean_closed_form(qkind, -1, 5, ONE, MINUS_ONE)


def test_mean_table_rows():
    rows = mean_table("quaternion", 4, 3, -1)
    assert all(isinstance(r, MeanRow) for r in rows)
    assert {r.status for r in rows} <= {
        STATUS_MATCH, STATUS_OPEN_QUESTION, STATUS_UNDEFINED}
    by_pair = {(str(r.c1), str(r.c2)): r for r in rows}
    assert by_pair[("one", "minus_one")].mean_formula == 4 - 16


def test_race_model_checks_raise_value_errors():
    # raised, not asserted, so they also hold under python -O
    terms = np.array([2.0, 1.0])
    with pytest.raises(ValueError, match="variance"):
        RaceModel(1, -1.0, 0.0, terms)
    with pytest.raises(ValueError, match="variance"):
        RaceModel(1, float("nan"), 0.0, terms)
    with pytest.raises(ValueError, match="amplitudes"):
        RaceModel(1, 2.5, 0.5, np.array([2.0, 0.0]))
