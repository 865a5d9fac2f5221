"""Race means, weights, variance assembly, and the mean tables."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebrace.arithmetic import ArithmeticScenario, VirtualPrime, scenario_generator
from chebrace.characters import (
    character_ids,
    character_index,
    sr_partition,
)
from chebrace.experiments import _h8_scenario
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
    RaceTable,
    STATUS_MATCH,
    STATUS_OPEN_QUESTION,
    STATUS_UNDEFINED,
    level_data,
    level_orders,
    mean_table,
    published_mean,
    pair_weights,
    race_mean_closed_form,
    race_table,
    z_values,
)
from chebrace.density import (
    RaceModel,
    SpectralTable,
    density_montecarlo,
    race_model,
)
from chebrace.zeros import ZeroCountModel, ZeroSet, sample_zero_set
from oracles import (
    RaceSpec,
    RaceUndefinedError,
    b0,
    bias_factor,
    character_degree,
    density_fourier,
    induce,
    induced_components,
    level_orders_by_induction,
    mean_rows,
    mean,
    mean_table_per_pair,
    spectral_table,
    sr_split,
    vanishing_orders,
    variance,
    weights,
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
            rows = mean_rows(mean_table(family, n, level, w))
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
            assert (mean_rows(mean_table(family, n, level, w))
                    == mean_table_per_pair(family, n, level, w))


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
        labels = scen.group.level(level).class_labels()
        constant = level_data(scen, level, labels)
        assert constant.dtype == np.int64 and constant.shape == (len(labels),)
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                spec = RaceSpec(scen, level, labels[a], labels[b])
                if spec.is_defined():
                    assert mean(spec) == constant[b] - constant[a]


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(3, 8), data=st.data())
def test_race_table_matches_the_per_pair_oracle(family, n, data):
    # at every level, a random list of pairs (repeats allowed, the
    # undefined flip pair always in below the top): the table's defined
    # column, means and weight rows are the per-pair oracle's, bit for bit,
    # and an undefined race's row is all +0.0
    w = +1 if family == DIHEDRAL else data.draw(st.sampled_from((+1, -1)))
    scen = _scen(family, n, w)
    for level in range(3, n + 1):
        labels = scen.group.level(level).class_labels()
        index = st.integers(0, len(labels) - 1)
        pairs = data.draw(st.lists(st.tuples(index, index).filter(lambda p: p[0] != p[1]),
                                   max_size=12))
        if level < n:
            at = data.draw(st.integers(0, len(pairs)))
            pairs.insert(at, data.draw(st.permutations((len(labels) - 2, len(labels) - 1))))
        races = race_table(scen, level, labels, [a for a, _ in pairs],
                           [b for _, b in pairs])
        rows = races.weights()
        assert rows.shape == (len(pairs), len(character_ids(scen.group)))
        assert races.means.dtype == np.int64
        for k, (a, b) in enumerate(pairs):
            spec = RaceSpec(scen, level, labels[a], labels[b])
            assert bool(races.defined[k]) == spec.is_defined()
            if spec.is_defined():
                assert races.means[k] == mean(spec)
                assert rows[k].tobytes() == weights(spec).tobytes()
            else:
                assert rows[k].tobytes() == np.zeros(rows.shape[1]).tobytes()


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(3, 8), data=st.data())
def test_race_table_names_the_first_bad_pair_as_the_per_pair_oracle(family, n, data):
    # pairs over the level's classes and two powers outside it, a class
    # against itself allowed, with the labels the pairs name, as run_race
    # takes them: the table raises the message the oracle's first failing
    # pair raises, or nothing when every pair is good
    scen = _scen(family, n, +1)
    level = data.draw(st.integers(3, n))
    top = (1 << (level - 2)) - 1
    pool = scen.group.level(level).class_labels() + [power(top + 1), power(2 * top + 3)]
    pick = st.sampled_from(pool)
    pairs = data.draw(st.lists(st.tuples(pick, pick), min_size=1, max_size=6))
    want = None
    for c1, c2 in pairs:
        try:
            RaceSpec(scen, level, c1, c2)
        except ValueError as exc:
            want = str(exc)
            break
    labels = list(dict.fromkeys(c for pair in pairs for c in pair))
    try:
        race_table(scen, level, labels, [labels.index(c1) for c1, _ in pairs],
                   [labels.index(c2) for _, c2 in pairs])
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want


def test_mean_table_statuses_by_family():
    for level in (3, 4, 5):
        for w in (+1, -1):
            rows = mean_rows(mean_table("quaternion", 5, level, w))
            assert all(r.status in (STATUS_MATCH, STATUS_UNDEFINED)
                       for r in rows)
        rows = mean_rows(mean_table(DIHEDRAL, 5, level, +1))
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
            assert weights(fwd).tolist() == weights(bwd).tolist()


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
    vp = VirtualPrime(math.log(5.0), Element(1, 0))
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
                assert level_orders(scen, i).tolist() == list(vanishing_orders(
                    scen.kind, w, i).values())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", range(3, 13))
def test_array_induction_matches_the_per_character_reference(family, n):
    # the index pairs against the per-source decompositions, the level
    # orders against the per-character induce-and-sum, and the S/R split
    # against the pairwise scan, at every level
    group = Group(GroupKind(family, n))
    for i in range(3, n + 1):
        pairs = induced_components(group, i)
        for cid in character_ids(group.level(i)):
            assert pairs[cid] == dict(induce(group, i, cid).components), (i, cid)
        _, r_ids = sr_split(group, i)
        assert sr_partition(group, i) == (
            max((character_degree(cid) for cid in r_ids), default=0), len(r_ids))
    scenarios = [scenario_generator(family, n, w, seed)
                 for w in ((+1,) if family == DIHEDRAL else (+1, -1))
                 for seed in (0, 5)]
    if (family, n) == ("quaternion", 3):
        scenarios += [_h8_scenario(o) for o in (0, 1, 2)]
    for scen in scenarios:
        for i in range(3, n + 1):
            assert level_orders(scen, i).tolist() == list(
                level_orders_by_induction(scen, i).values()), i


@pytest.mark.parametrize("family", FAMILIES)
def test_induction_arrays_reach_n_20(family):
    # linear in the group's characters: the pairwise scan took about an
    # hour for one of these calls
    group = Group(GroupKind(family, 20))
    assert sr_partition(group, 19) == (1, 2)
    assert sr_partition(group, 18) == (1, 3)
    if family == DIHEDRAL:
        return
    scen = scenario_generator(family, 20, -1, seed=5)
    for i in (3, 10, 19, 20):
        assert level_orders(scen, i).tolist() == list(
            vanishing_orders(scen.kind, -1, i).values())


def _z(level_group, label, orders):
    return z_values(level_group, [label], orders)[0]


def _orders(group, **by_id):
    """An order array in ``character_ids`` order, zero but at the ids given."""
    orders = np.zeros(len(character_ids(group)), dtype=np.int64)
    for cid, order in by_id.items():
        orders[character_index(group, cid)] = order
    return orders


def test_z_value_exact_integers():
    # an id of no irreducible of the group never reaches z_values: the zero
    # files' ids are converted at load (tests/test_cli.py) and the
    # order_overrides' in ArithmeticScenario.central_orders
    group = Group(GroupKind("quaternion", 3))
    orders = _orders(group, psi_1=1)
    assert _z(group, ONE, orders) == 4
    assert _z(group, MINUS_ONE, orders) == -4
    assert _z(group, power(1), orders) == 0
    assert _z(group, FLIP_EVEN, orders) == 0
    assert _z(group, ONE, _orders(group)) == 0
    # chi0's order never counts
    assert _z(group, ONE, _orders(group, chi0=3, psi_1=1)) == 4
    # psi_1(power(1)) = zeta_8 + zeta_8^-1 = sqrt(2): not a rational integer
    quartic = Group(GroupKind("quaternion", 4))
    with pytest.raises(ValueError, match="not a rational integer"):
        _z(quartic, power(1), _orders(quartic, psi_1=1))


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
            assert list(want) == character_ids(scen.group)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.values()]


def _assert_batch_matches_per_pair_oracle(scen, specs):
    group = scen.group
    fused = [spec.fused_pair() for spec in specs]
    labels = [lab for pair in fused for lab in pair]
    batch = pair_weights(group, labels, np.arange(0, len(labels), 2),
                         np.arange(1, len(labels), 2))
    want = np.array([weights_per_pair(group, c1, c2) for c1, c2 in fused])
    assert batch.shape == (len(specs), len(character_ids(group)))
    assert (batch == want).all()  # bit for bit: no NaN, and -0.0 never occurs
    for spec, row in zip(specs, batch):
        assert weights(spec).tolist() == row.tolist()


def _defined_pairs(scen, level):
    labels = scen.group.level(level).class_labels()
    specs = [RaceSpec(scen, level, labels[a], labels[b])
             for a in range(len(labels)) for b in range(a + 1, len(labels))]
    return [spec for spec in specs if spec.is_defined()]


TOWER_CASES = ((DIHEDRAL, +1), ("quaternion", +1), ("quaternion", -1))


@pytest.mark.parametrize("family,w", TOWER_CASES)
@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
def test_pair_weights_match_the_per_pair_oracle_at_every_level(family, w, n):
    scen = _scen(family, n, w)
    for level in range(3, n + 1):
        _assert_batch_matches_per_pair_oracle(scen, _defined_pairs(scen, level))


@pytest.mark.parametrize("family,w", TOWER_CASES)
@pytest.mark.parametrize("n", (5, 8))
def test_pair_weights_gather_across_chunks(family, w, n, monkeypatch):
    # seven pairs a chunk: the gather from the value table spans several
    # chunks, and the top level's 55 or 2211 pairs leave a ragged last one
    from chebrace import races

    scen = _scen(family, n, w)
    monkeypatch.setattr(races, "_CHUNK_ENTRIES", 7 * len(character_ids(scen.group)))
    assert len(_defined_pairs(scen, n)) % 7
    for level in range(3, n + 1):
        _assert_batch_matches_per_pair_oracle(scen, _defined_pairs(scen, level))


@pytest.mark.parametrize("chunk_pairs", (None, 1))
def test_pair_weights_of_power_pairs_evaluate_each_entry(chunk_pairs, monkeypatch):
    # power(1):power(3) takes 65 value ids and power(2):power(6) 33, against
    # 67 characters at n = 8: u^2 exceeds pairs x characters, so each
    # entry's own difference is evaluated, alone, together, and one pair a
    # chunk
    from chebrace import races
    from chebrace.characters import value_table

    scen = _scen("quaternion", 8, -1)
    group = scen.group
    if chunk_pairs is not None:
        monkeypatch.setattr(races, "_CHUNK_ENTRIES",
                            chunk_pairs * len(character_ids(group)))
    pairs = ((power(1), power(3)), (power(2), power(6)))
    for batch in ((pairs[0],), (pairs[1],), pairs):
        labels = [lab for pair in batch for lab in pair]
        u = np.unique(value_table(group, labels)[0]).size
        assert u * u > len(batch) * len(character_ids(group))
        _assert_batch_matches_per_pair_oracle(
            scen, [RaceSpec(scen, 8, c1, c2) for c1, c2 in batch])


def test_pair_weights_match_the_oracle_on_the_monotonicity_pair():
    # the (one, minus_one) race of monotonicity's quaternion n = 12 run, at
    # every level: 1023 psi characters over Z[zeta_2048]
    scen = _scen("quaternion", 12, -1)
    _assert_batch_matches_per_pair_oracle(
        scen, [RaceSpec(scen, level, ONE, MINUS_ONE) for level in range(3, 13)])


def test_non_integer_z_raises_on_both_paths():
    # orders not constant on the Galois orbit {psi_1, psi_3}
    group = Group(GroupKind("quaternion", 5))
    orders = _orders(group, psi_1=1, psi_3=2)
    for z in (z_value_cyclo, _z):
        with pytest.raises(ValueError, match="not a rational integer"):
            z(group, power(1), orders)
    assert _z(group, MINUS_ONE, orders) == -12


def test_weights_structure_for_the_central_pair():
    scen = _scen("quaternion", 5, +1)
    w = weights(RaceSpec(scen, 5, ONE, MINUS_ONE))
    assert w.shape == (len(character_ids(scen.group)),)
    for cid, wv in zip(character_ids(scen.group), w.tolist()):
        if cid.startswith("psi_") and int(cid.split("_")[1]) % 2 == 1:
            assert wv == 4.0
        else:
            assert wv == 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_variance_and_bias_match_the_materialized_model(family):
    scen = _scen(family, 4, +1)
    spec = RaceSpec(scen, 4, ONE, MINUS_ONE)
    w = weights(spec)
    zero_sets = {}
    b0_map = {}
    for c, (cid, wv) in enumerate(zip(character_ids(scen.group), w.tolist())):
        if wv == 0.0:
            continue
        model = ZeroCountModel(max(float(scen.log_conductors[c]), 1.0),
                               character_degree(cid))
        zs = sample_zero_set(model, 64.0, seed=c, character_id=cid)
        zero_sets[c] = zs
        b0_map[cid] = b0(zs)
    race = race_model(mean(spec), w, SpectralTable.of(zero_sets))
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
    n_zeros = sum(len(zs) for c, zs in zero_sets.items() if w[c] > 0)
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
    # the table keeps the undefined race, with an all-zero weight row
    for level, defined in ((4, False), (5, True)):
        races = race_table(scen, level, [FLIP_EVEN, FLIP_ODD], [0], [1])
        assert races.defined.tolist() == [defined]
        assert races.weights()[0].any() == defined


def test_race_spec_validation():
    scen = _scen("quaternion", 4, +1)
    cases = (
        (2, [ONE, MINUS_ONE], [0], [1], "level must satisfy 3 <= level <= 4, got 2"),
        (5, [ONE, MINUS_ONE], [0], [1], "level must satisfy 3 <= level <= 4, got 5"),
        (3, [ONE], [0], [0], "classes must differ"),
        (3, [ONE, power(2)], [0], [1], "power(2) out of range at level 3"),
    )
    for level, labels, first, second, message in cases:
        for build in (lambda: race_table(scen, level, labels, first, second),
                      lambda: RaceSpec(scen, level, labels[first[0]], labels[second[0]])):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message
    races = race_table(scen, 3, [ONE, power(1)], [0], [1])
    assert races.fused == [ONE, power(2)]
    assert RaceSpec(scen, 3, ONE, power(1)).fused_pair() == (ONE, power(2))


def test_race_model_coverage_errors():
    # rows in character_ids order: column 1 is chi1, column 2 chi2
    w = np.array([0.0, 2.0, 0.0])
    zs = ZeroSet("chi1", 10.0, (1.0, 3.0), source="test")
    model = race_model(-2, w, SpectralTable.of({1: zs}))
    assert model.mean == -2 and model.terms.size == 2
    with pytest.raises(KeyError):
        race_model(1, w, SpectralTable.of({2: zs}))  # weighted chi1 uncovered
    # zero-weight characters need no zero set, and one that has a set
    # gets scale 0
    model = race_model(1, w, SpectralTable.of({1: zs, 0: zs}))
    assert model.terms.size == 2 and model.row.tolist() == [0.0, 4.0]
    # a weighted character without zeros gets scale 0 and no terms
    empty = ZeroSet("chi2", 10.0, (), source="t")
    model = race_model(1, np.array([0.0, 2.0, 1.0]), SpectralTable.of({1: zs, 2: empty}))
    assert model.table.sizes.tolist() == [2, 0] and model.row.tolist() == [4.0, 0.0]
    assert model.terms.size == 2


def test_race_model_components_follow_the_columns():
    # column order, not id order: psi_10 (column 13) comes after psi_2
    # (column 5), as in the tower's table
    row = np.zeros(14)
    row[[5, 13]] = [1.0, 3.0]
    sets = {5: ZeroSet("psi_2", 10.0, (2.0,), source="t"),
            13: ZeroSet("psi_10", 10.0, (1.0, 4.0), source="t")}
    model = race_model(1, row, SpectralTable.of(sets))
    assert model.table.columns.tolist() == [5, 13]
    assert model.table.sizes.tolist() == [1, 2]
    assert model.row.tolist() == [2.0, 6.0]


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
    table = mean_table("quaternion", 4, 3, -1)
    races, published = table
    assert isinstance(races, RaceTable)
    pairs = len(races.labels) * (len(races.labels) - 1) // 2
    for column in (races.first, races.second, races.defined, races.means,
                   published):
        assert column.shape == (pairs,)
    assert races.means.dtype == np.int64
    rows = mean_rows(table)
    assert {r.status for r in rows} <= {
        STATUS_MATCH, STATUS_OPEN_QUESTION, STATUS_UNDEFINED}
    by_pair = {(str(r.c1), str(r.c2)): r for r in rows}
    assert by_pair[("one", "minus_one")].mean_formula == 4 - 16


def test_race_model_checks_raise_value_errors():
    # raised, not asserted, so they also hold under python -O
    empty = ZeroSet("chi1", 10.0, (), source="t")
    with pytest.raises(ValueError, match="no oscillation terms"):
        race_model(1, [0.0, 2.0], SpectralTable.of({1: empty}))
    with pytest.raises(ValueError, match="no oscillation terms"):
        race_model(1, [0.0, 0.0], SpectralTable.of({}))
    # a row of zero scales has no terms, and neither engine takes it
    table = spectral_table([np.array([1.0, 3.0])])
    silent = RaceModel(0, table, np.zeros(1))
    assert silent.terms.size == 0
    with pytest.raises(ValueError, match="empty term list"):
        density_fourier(silent)
    with pytest.raises(ValueError, match="empty term list"):
        density_montecarlo(silent, 10_000, seed=0)
