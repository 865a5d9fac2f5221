"""Experiment drivers: claims data, provisioning, reports, and reproducibility."""
from __future__ import annotations

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chebrace import cli, density, experiments
from chebrace.arithmetic import scenario_generator
from chebrace.characters import character_ids, sr_partition
from chebrace.density import DensityEstimate, SpectralTable
from chebrace.experiments import (
    EXACTLY_HALF,
    EXTREME_TOWARD_0,
    EXTREME_TOWARD_1,
    MODERATE,
    MOD4_PUBLISHED_DELTA,
    TABLE_CLAIMS,
    TABLE_IDS,
    UNDETERMINED,
    ConfigError,
    InternalInconsistencyError,
    _check_claim,
    class_tag,
    classify_pair,
    expected_row,
    horizontal_experiment,
    mod4_experiment,
    monotonicity_experiment,
    pair_tags,
    parse_class_label,
    provision_zero_sets,
    race_row,
    report_json,
    report_rows_csv,
    reproduce_table,
    run_race,
    sandwich_experiment,
    series_csv,
    tower_experiment,
    write_report,
)
from chebrace.groups import (
    DIHEDRAL,
    FLIP_EVEN,
    FLIP_ODD,
    MINUS_ONE,
    ONE,
    QUATERNION,
    Group,
    GroupKind,
    power,
)
from chebrace.races import RaceTable, race_table
from chebrace.zeros import (
    ZeroCountModel,
    ZeroSet,
    expected_zero_count,
    load_zero_file,
    sample_zero_set,
    save_zero_file,
)

import numpy as np

from oracles import (
    assemble_race_model,
    character_degree,
    column_set,
    density_fourier_quadpack,
    engine_rows,
    log_conductor,
    report_json_indent,
    sorted_t_max,
    sorted_tail_bounds,
    tower_rows_per_pair,
    zero_set_column,
)


# -- claims data ---------------------------------------------------------------


def test_class_tags_and_pair_ordering():
    assert class_tag(ONE) == "one"
    assert class_tag(MINUS_ONE) == "minus_one"
    assert class_tag(power(2)) == "power_even"
    assert class_tag(power(5)) == "power_odd"
    assert class_tag(FLIP_EVEN) == class_tag(FLIP_ODD) == "flip"
    assert pair_tags(FLIP_EVEN, ONE) == ("one", "flip")
    assert pair_tags(ONE, FLIP_EVEN) == ("one", "flip")
    assert pair_tags(power(3), power(2)) == ("power_even", "power_odd")


def test_claims_cover_every_class_pair():
    group = Group(GroupKind(QUATERNION, 6))
    labels = group.class_labels()
    for family, w in ((DIHEDRAL, +1), (QUATERNION, +1), (QUATERNION, -1)):
        seen = set()
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                rec = expected_row(family, w, labels[a], labels[b])
                assert rec["class"] in (EXACTLY_HALF, EXTREME_TOWARD_0,
                                        EXTREME_TOWARD_1, MODERATE, UNDETERMINED)
                seen.add(rec["tags"])
        assert len(seen) == 13  # every published tag pair is exercised
    assert len(TABLE_CLAIMS) == 3
    for claims in TABLE_CLAIMS.values():
        assert len(claims) == 13


def test_expected_row_rejects_unknown_tag_pairs():
    with pytest.raises(InternalInconsistencyError):
        expected_row(QUATERNION, +1, ONE, ONE)


def test_dihedral_claims_ignore_w():
    assert expected_row(DIHEDRAL, -1, ONE, MINUS_ONE) == \
        expected_row(DIHEDRAL, +1, ONE, MINUS_ONE)


def test_classify_pair_edges():
    assert classify_pair(0, 5) == EXACTLY_HALF
    # level 4: cut = max(4, 2^3 - 2) = 6
    assert classify_pair(5, 4) == MODERATE
    assert classify_pair(6, 4) == EXTREME_TOWARD_1
    assert classify_pair(-6, 4) == EXTREME_TOWARD_0
    # level 3: cut = max(4, 2) = 4
    assert classify_pair(4, 3) == EXTREME_TOWARD_1
    assert classify_pair(-4, 3) == EXTREME_TOWARD_0
    assert classify_pair(3, 3) == MODERATE
    assert classify_pair(-1, 3) == MODERATE


# -- zero-set provisioning -------------------------------------------------------


def test_provisioning_is_deterministic_and_extension_stable():
    scen = scenario_generator(QUATERNION, 4, +1, seed=5)
    psi_1, psi_3, chi1 = 4, 6, 1  # indices into character_ids
    a = provision_zero_sets(scen, [psi_1, psi_3], seed=9)
    b = provision_zero_sets(scen, [psi_1, psi_3], seed=9)
    assert a.columns.tolist() == b.columns.tolist() == [psi_1, psi_3]
    assert all(column_set(a, c) == column_set(b, c) for c in (psi_1, psi_3))
    # adding characters never reshuffles previously sampled sets
    c = provision_zero_sets(scen, [psi_1, psi_3, chi1], seed=9)
    assert column_set(c, psi_1) == column_set(a, psi_1)
    assert column_set(c, psi_3) == column_set(a, psi_3)
    d = provision_zero_sets(scen, [psi_1], seed=10)
    assert column_set(d, psi_1) != column_set(a, psi_1)


def test_provisioning_seeds_by_position_in_the_full_id_list():
    # the seed index is the character's position in character_ids, as the
    # list.index form gave it, and the key of its set
    scen = scenario_generator(DIHEDRAL, 9, +1, seed=2)
    ids = character_ids(scen.group)
    cids = ids[::13] + ["psi_127", ids[-1]]
    indices = [ids.index(cid) for cid in cids]
    zeros = provision_zero_sets(scen, np.array(indices[::-1]), seed=4, t_max=12.0)
    assert zeros.columns.tolist() == sorted(set(indices))
    assert zeros.columns.dtype == np.intp
    for cid, c in zip(cids, indices):
        child = experiments._child_seed(experiments._PROVISION_SALT, 4, c)
        model = ZeroCountModel(log_conductor(scen, cid), character_degree(cid))
        assert column_set(zeros, c) == zero_set_column(
            sample_zero_set(model, 12.0, child, character_id=cid))


def test_provisioning_honors_min_count_and_t_max():
    scen = scenario_generator(QUATERNION, 4, +1, seed=5)
    zeros = provision_zero_sets(scen, [4], seed=0, min_count=200)  # psi_1
    model = ZeroCountModel(log_conductor(scen, "psi_1"), character_degree("psi_1"))
    assert expected_zero_count(model, float(zeros.t_max[0])) >= 200
    fixed = provision_zero_sets(scen, [4], seed=0, t_max=48.0)
    assert fixed.t_max.tolist() == [48.0]
    assert zeros.log_conductors.dtype == np.float64
    assert zeros.log_conductors.tolist() == [log_conductor(scen, "psi_1")]


def test_provisioning_past_the_zero_count_limit_is_a_config_error(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    scen = experiments._rotation_tower_scenario(5, 400.0)  # sandwich's top aim
    with pytest.raises(ConfigError, match="psi_1: expected .* zeros up to "
                                          "t_max = 1048576.0, past the limit"):
        provision_zero_sets(scen, [4], seed=0, t_max=float(1 << 20))


# -- report plumbing -------------------------------------------------------------


def test_report_json_converts_numpy_types():
    report = {
        "a": np.float64(1.5),
        "b": [np.int64(2), {"c": np.float32(0.25)}],
        "d": np.arange(3),
    }
    payload = json.loads(report_json(report))
    assert payload == {"a": 1.5, "b": [2, {"c": 0.25}], "d": [0, 1, 2]}


_LEAF_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from(["", "\n", "a\"b\\c\t", "\u00e9\u2603\U0001f600", "\x00\x1f"]),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
)
_REPORT_VALUES = st.recursive(_LEAF_VALUES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), kids, max_size=4),
    st.dictionaries(st.integers(), kids, max_size=4),
    st.dictionaries(st.floats(), kids, max_size=3),
    st.dictionaries(st.sampled_from([True, False]), kids),
    st.dictionaries(st.none(), kids),
), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_REPORT_VALUES)
def test_report_json_matches_indented_json(value):
    assert report_json(value) == report_json_indent(value)


@settings(max_examples=100, deadline=None)
@given(_REPORT_VALUES, st.sampled_from([
    np.bool_(True), {1, 2}, 1j, object(), {1: 0, "a": 0}, {(1, 2): 0},
    {1: [0], "a": 0}, {(1, 2): [0]}, {np.int64(1): [0]},
    {"k": np.arange(2)[None, :].astype(object) * 1j},
]))
def test_report_json_raises_where_json_does(value, bad):
    for report in ({"ok": value, "bad": bad}, [value, [bad]]):
        with pytest.raises(TypeError):
            report_json_indent(report)
        with pytest.raises(TypeError):
            report_json(report)


_ODD_TEXT = ["", "%", "%s", "a%%b", "\"q\"", "\\", "\n", "\x00", "é☃\U0001f600"]
_FLAT_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
    st.sampled_from(_ODD_TEXT + [math.nan, math.inf, -math.inf]),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
)
# one key type per dict, so that json can sort the keys; rows of one list
# may still mix key types, and keys such as True and 1 or 1 and 1.0 compare
# equal across rows
_FLAT_KEYS = st.sampled_from([
    st.one_of(st.text(max_size=3), st.sampled_from(_ODD_TEXT)),
    st.integers(-3, 3), st.floats(allow_nan=False), st.booleans(), st.none(),
])
_NESTED = st.one_of(st.lists(_FLAT_LEAVES, max_size=2), st.just({"k": [1]}),
                    st.just(np.arange(2)), st.just(()))


@st.composite
def _flat_row_lists(draw):
    """Lists of dicts of leaves, as report rows are: rows of a few shared
    key sets, rows of their own key sets, empty rows, and at times one
    nested value, which sends the list down the walk."""
    shared = [draw(st.lists(st.text(max_size=3), max_size=5, unique=True))
              for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        how = draw(st.sampled_from(["shared", "shared", "own", "empty"]))
        if how == "shared":
            keys = draw(st.sampled_from(shared))
            rows.append({k: draw(_FLAT_LEAVES) for k in keys})
        elif how == "own":
            rows.append(draw(st.dictionaries(draw(_FLAT_KEYS), _FLAT_LEAVES,
                                             max_size=4)))
        else:
            rows.append({})
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), {"x": 1, "y": draw(_NESTED)})
    return rows


def _with_row_chunk(chunk: int, fn):
    """``fn()`` with the writer taking ``chunk`` rows per pass."""
    saved = experiments._ROW_CHUNK
    experiments._ROW_CHUNK = chunk
    try:
        return fn()
    finally:
        experiments._ROW_CHUNK = saved


@settings(max_examples=300, deadline=None)
@given(_flat_row_lists(), st.integers(0, 2), st.sampled_from([1, 2, 5, 4096]))
def test_report_json_matches_indented_json_on_flat_rows(rows, depth, chunk):
    value = rows
    for _ in range(depth):
        value = {"rows": value, "n": 1}
    assert _with_row_chunk(chunk, lambda: report_json(value)) == report_json_indent(value)


@settings(max_examples=100, deadline=None)
@given(_flat_row_lists(), st.sampled_from([
    {"a": np.bool_(True)}, {"a": {1, 2}}, {"a": 1j}, {"a": object()},
    {1: 0, "a": 0}, {(1, 2): 0}, {np.int64(1): 0}, {"a": 0, None: 1},
]), st.sampled_from([1, 4096]))
def test_report_json_raises_where_json_does_on_flat_rows(rows, bad, chunk):
    report = {"rows": rows + [bad]}
    with pytest.raises(TypeError):
        report_json_indent(report)
    with pytest.raises(TypeError):
        _with_row_chunk(chunk, lambda: report_json(report))


class _CountingEncoder(json.JSONEncoder):
    calls = 0

    def encode(self, o):
        self.calls += 1
        return super().encode(o)


@pytest.mark.parametrize("make,keysets", [
    (lambda: reproduce_table("esp-q", 6), 1),
    (lambda: tower_experiment(QUATERNION, 5, -1, 0), 3),
])
def test_report_rows_take_the_column_path(make, keysets, monkeypatch):
    # one encoder call per key of each key set (its text) and per column,
    # and the walk enters only the report and its values, however many rows
    report = make()
    rows = report["rows"]
    assert len({tuple(sorted(row)) for row in rows}) == keysets
    columns = _CountingEncoder(default=experiments._json_scalar,
                               separators=("\n", ": "))
    monkeypatch.setattr(experiments, "_COLUMN_ENCODER", columns)
    walked = []
    walk = experiments._json

    def counted(value, depth):
        walked.append(depth)
        return walk(value, depth)

    monkeypatch.setattr(experiments, "_json", counted)
    assert report_json(report) == report_json_indent(report)
    keys = sum(len(k) for k in {tuple(sorted(row)) for row in rows})
    assert columns.calls == 2 * keys
    assert len(walked) == 1 + len(report)


def test_report_csv_needs_a_row_list(tmp_path):
    with pytest.raises(ConfigError, match="mod4 report has no rows"):
        experiments.report_csv({"experiment": "mod4", "delta_fourier": 0.5})
    levels = [{"level": 3, "delta_mc": 0.5}, {"level": 4, "delta_mc": 0.25}]
    assert experiments.report_csv({"levels": levels}) == report_rows_csv(levels)
    out = tmp_path / "none.csv"
    with pytest.raises(ConfigError, match="no rows"):
        write_report({"experiment": "race", "rows": []}, str(out), "csv")
    assert not out.exists()


def test_report_rows_csv_flattens_with_stable_header():
    rows = [
        {"b": 1.5, "a": None, "flag": True},
        {"a": "x", "extra": {"k": [1, 2]}},
    ]
    text = report_rows_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["a", "b", "extra", "flag"]
    assert parsed[1] == ["", "1.5", "", "true"]
    assert parsed[2] == ["x", "", '{"k": [1, 2]}', ""]


def test_series_csv_shape():
    text = series_csv({"x": "f", "y": "gap", "points": [[1, 0.25], [2, 0.125]]})
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed == [["f", "gap"], ["1", "0.25"], ["2", "0.125"]]


def test_write_report_files(tmp_path):
    report = {"rows": [{"a": 1}], "series": {"x": "u", "y": "v",
                                             "points": [[1, 2]]}}
    out = tmp_path / "report.json"
    written = write_report(report, str(out), "json")
    assert written == [str(out), str(out) + ".series.csv"]
    assert json.loads(out.read_text())["rows"] == [{"a": 1}]
    assert (tmp_path / "report.json.series.csv").read_text() == "u,v\n1,2\n"
    out2 = tmp_path / "report.csv"
    write_report({"rows": [{"a": 1}]}, str(out2), "csv")
    assert out2.read_text() == "a\n1\n"
    with pytest.raises(ConfigError):
        write_report(report, str(out), "xml")


def test_parse_class_label():
    assert parse_class_label("one") == ONE
    assert parse_class_label(" minus_one ") == MINUS_ONE
    assert parse_class_label("power(3)") == power(3)
    assert parse_class_label("flip_odd") == FLIP_ODD
    for bad in ("power(0)", "power(x)", "rotation", "", "One"):
        with pytest.raises(ConfigError):
            parse_class_label(bad)


# -- race rows and the ad-hoc driver ----------------------------------------------


def test_race_row_fields_and_flags():
    scen = scenario_generator(QUATERNION, 3, -1, seed=11)
    races = race_table(scen, 3, [ONE, MINUS_ONE], [0], [1])
    zeros = provision_zero_sets(scen, [4], seed=11)  # psi_1
    row = race_row(races, 0, races.weights()[0], zeros, samples=10000, mc_seed=1,
                   partition=(2, 2))
    assert row["status"] == "match"
    assert row["mean_formula"] == row["mean_published"] == -4
    assert row["n_terms"] == zeros.sizes[0] == zeros.moduli.size
    assert 0.0 <= row["delta_fourier"] <= 1.0
    assert row["q"] == 2.0  # top level, single weighted character
    assert row["truncation_shift_bound"] is not None
    assert row["flags"]["methods_agree"]["ok"]
    assert row["flags"]["side_matches_mean"]["ok"]
    assert row["pass"] is True


def test_race_row_undefined_and_half_pairs():
    scen = scenario_generator(DIHEDRAL, 4, +1, seed=3)
    flips = race_table(scen, 3, [FLIP_EVEN, FLIP_ODD], [0], [1])
    below = race_row(flips, 0, flips.weights()[0], SpectralTable.of({}), 10000, 0,
                     sr_partition(scen.group, 3))
    assert below["status"] == "undefined"
    assert "reason" in below and "mean_formula" not in below
    # defined at the top, mean 0
    races = race_table(scen, 4, [FLIP_EVEN, FLIP_ODD], [0], [1])
    needed = [1, 2, 3, 4, 6]  # chi1, chi2, chi3, psi_1, psi_3
    zeros = provision_zero_sets(scen, needed, seed=3)
    row = race_row(races, 0, races.weights()[0], zeros, 10000, 0, (2, 2))
    assert row["mean_formula"] == 0
    assert row["delta_fourier"] == 0.5
    assert row["delta_mc"] == 0.5
    assert row["flags"]["half_exact"]["ok"]


def test_race_row_file_backed_sets_have_no_truncation_bound(tmp_path):
    scen = scenario_generator(QUATERNION, 3, +1, seed=4)
    zeros = provision_zero_sets(scen, [4], seed=4)  # psi_1
    child = experiments._child_seed(experiments._PROVISION_SALT, 4, 4)
    synthetic = sample_zero_set(ZeroCountModel(log_conductor(scen, "psi_1"), 2),
                                float(zeros.t_max[0]), child, character_id="psi_1")
    assert column_set(zeros, 4) == zero_set_column(synthetic)
    file_like = ZeroSet("psi_1", synthetic.t_max, synthetic.ordinates,
                        source="file", log_conductor=None)
    races = race_table(scen, 3, [ONE, MINUS_ONE], [0], [1])
    weight_row = races.weights()[0]
    row = race_row(races, 0, weight_row, SpectralTable.of({4: file_like}), 10000, 2,
                   (2, 2))
    assert row["truncation_shift_bound"] is None
    # with the sampled log conductor in its header, a file gives the
    # synthetic set's bound bit for bit
    path = tmp_path / "psi_1.txt"
    save_zero_file(synthetic, str(path))
    with_header = load_zero_file(str(path))
    assert with_header.source == "file"
    assert with_header.log_conductor == synthetic.log_conductor
    want = race_row(races, 0, weight_row, zeros, 10000, 2, (2, 2))
    got = race_row(races, 0, weight_row, SpectralTable.of({4: with_header}), 10000, 2,
                   (2, 2))
    assert want["truncation_shift_bound"] is not None
    assert got["truncation_shift_bound"] == want["truncation_shift_bound"]


def test_run_race_reports_are_reproducible():
    config = dict(
        family=QUATERNION, n=3, w_axiom=-1, seed=11, samples=10000,
        pairs=((ONE, MINUS_ONE), (power(1), FLIP_EVEN)))
    a = run_race(**config)
    b = run_race(**config)
    assert report_json(a) == report_json(b)
    assert a["level"] == 3
    assert a["w_axiom"] == -1
    assert [r["c1"] for r in a["rows"]] == ["one", "power(1)"]
    assert all(r["pass"] for r in a["rows"])


def test_run_race_default_pairs_include_the_undefined_row():
    report = run_race(family=DIHEDRAL, n=4, w_axiom=+1, level=3, seed=2,
                      samples=10000)
    classes = (1 << (3 - 2)) + 3
    assert len(report["rows"]) == classes * (classes - 1) // 2
    undefined = [r for r in report["rows"] if r["status"] == "undefined"]
    assert len(undefined) == 1
    assert {undefined[0]["c1"], undefined[0]["c2"]} == {"flip_even", "flip_odd"}


def test_run_race_rejects_bad_pairs_and_uncovered_files(tmp_path):
    with pytest.raises(ConfigError):  # out of range at level 3
        run_race(family=QUATERNION, n=3, samples=10000, pairs=((ONE, power(2)),))
    with pytest.raises(ConfigError):
        run_race(family=QUATERNION, n=3, samples=10000, pairs=((ONE, ONE),))
    # a files run whose zero data does not cover the weighted characters
    zs = sample_zero_set(ZeroCountModel(4.0, 1), 32.0, 0, character_id="chi1")
    path = tmp_path / "chi1.txt"
    from chebrace.zeros import save_zero_file

    save_zero_file(zs, str(path))
    with pytest.raises(ConfigError):  # needs psi_1, only chi1 was supplied
        run_race(family=QUATERNION, n=3, samples=10000, zero_files=(str(path),),
                 pairs=((ONE, MINUS_ONE),))


def test_load_zero_sets_rejects_duplicates(tmp_path):
    from chebrace.experiments import load_zero_sets
    from chebrace.zeros import save_zero_file

    zs = sample_zero_set(ZeroCountModel(4.0, 1), 32.0, 0, character_id="chi1")
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_zero_file(zs, str(p1))
    save_zero_file(zs, str(p2))
    group = Group(GroupKind(QUATERNION, 3))
    assert list(load_zero_sets([str(p1)], group)) == [1]  # keyed by index
    with pytest.raises(ConfigError, match="duplicate zero file for chi1"):
        load_zero_sets([str(p1), str(p2)], group)


# -- table reproduction ------------------------------------------------------------


def test_h8_table_rows():
    report = reproduce_table("h8")
    rows = {(r["c1"], r["c2"]): r for r in report["rows"]}
    assert len(rows) == 10
    assert report["open_questions"] == 0
    assert all(r["status"] == "match" for r in rows.values())
    central = rows[("one", "minus_one")]
    assert central["mean_symbolic"] == "4-8o"
    assert central["variance_coefficients"] == {"psi_1": 16}
    axis = rows[("one", "power(1)")]
    assert axis["mean_symbolic"] == "-2-4o"
    assert axis["variance_coefficients"] == {"chi2": 4, "chi3": 4, "psi_1": 4}
    pair = rows[("power(1)", "flip_even")]
    assert pair["mean_symbolic"] == "0"
    assert pair["variance_coefficients"] == {"chi1": 4, "chi2": 4}
    down = rows[("minus_one", "flip_odd")]
    assert down["mean_symbolic"] == "-6+4o"


def test_reproduce_quaternion_table_has_no_open_questions():
    report = reproduce_table("esp-q", n=6)
    assert report["open_questions"] == 0
    assert len(report["rows"]) == 514
    assert {r["status"] for r in report["rows"]} == {"match", "undefined"}
    assert all(r["diff"] in (0, None) for r in report["rows"])


def test_reproduce_dihedral_table_flags_identity_rows():
    report = reproduce_table("esp-d", n=6)
    assert len(report["rows"]) == 257
    assert report["open_questions"] == 38
    for r in report["rows"]:
        involves_one = "one" in (r["c1"], r["c2"])
        if r["status"] == "undefined":
            assert r["diff"] is None
        elif involves_one:
            assert r["status"] == "open-question"
            assert r["diff"] == (1 if r["c1"] == "one" else -1)
        else:
            assert r["status"] == "match"
            assert r["diff"] == 0


def test_reproduce_table_rejects_unknown_id():
    with pytest.raises(ConfigError):
        reproduce_table("nope")


# -- claim checking ------------------------------------------------------------------


def _est(value, budget=1e-9):
    return DensityEstimate(value, budget, 100)


def test_check_claim_exactly_half():
    claim = {"class": EXACTLY_HALF, "side": None}
    row = {"mean_formula": 0, "computed_class": EXACTLY_HALF}
    assert _check_claim(row, claim, _est(0.5, 0.0))["comparison"] == "agrees"
    assert _check_claim(row, claim, _est(0.5004))["comparison"] == "fails"


def test_check_claim_undetermined_rows_never_gate():
    claim = {"class": UNDETERMINED, "side": None}
    row = {"mean_formula": 2, "computed_class": MODERATE}
    out = _check_claim(row, claim, _est(0.62))
    assert out == {"comparison": "undetermined-in-source"}


def test_check_claim_sided_classes():
    claim = {"class": EXTREME_TOWARD_0, "side": -1}
    row = {"mean_formula": -8, "computed_class": EXTREME_TOWARD_0}
    assert _check_claim(row, claim, _est(0.02))["comparison"] == "agrees"
    wrong_side = {"mean_formula": 8, "computed_class": EXTREME_TOWARD_1}
    assert _check_claim(wrong_side, claim, _est(0.98))["comparison"] == "fails"
    unresolved = _check_claim(row, claim, _est(0.499, budget=0.1))
    assert unresolved["comparison"] == "fails"


def test_check_claim_open_question_rows():
    claim = {"class": EXACTLY_HALF, "side": None, "formula_class": MODERATE,
             "formula_side": -1, "open_question": True}
    row = {"mean_formula": -2, "computed_class": MODERATE}
    out = _check_claim(row, claim, _est(0.42))
    assert out["comparison"] == "open-question"
    assert out["open_question"] is True
    assert "note" in out
    bad = _check_claim(row, claim, _est(0.58))
    assert bad["comparison"] == "fails"


# -- drivers (light runs) --------------------------------------------------------------


def test_horizontal_experiment_gates():
    report = horizontal_experiment((1, 2), w_axiom=-1, seed=3, samples=10000)
    assert [r["f"] for r in report["rows"]] == [1, 2]
    for r in report["rows"]:
        assert r["flags"]["conductor_large"]["ok"]
        assert r["flags"]["w_controlled_side"]["ok"]
        assert r["delta_fourier"] < 0.5  # W = -1 pushes the bias below 1/2
    assert report["gap_decreasing_fourier"] is True
    assert report["all_rows_pass"] is True
    assert report["series"]["points"][0][0] == 1


def test_horizontal_experiment_validation():
    with pytest.raises(ConfigError):
        horizontal_experiment((), -1, 0)
    with pytest.raises(ConfigError):
        horizontal_experiment((0, 1), -1, 0)
    with pytest.raises(ConfigError):
        horizontal_experiment((2, 1), -1, 0)
    with pytest.raises(ConfigError):
        horizontal_experiment((1, 2), 0, 0)


def test_tower_experiment_quaternion_minus_one():
    report = tower_experiment(QUATERNION, 4, -1, seed=7)
    assert report["experiment"] == "tabQ"
    assert report["all_published_rows_confirmed"] is True
    rows = {(r["c1"], r["c2"]): r for r in report["rows"]}
    # the two parity-swapped print rows surface as open questions
    assert rows[("minus_one", "power(1)")]["comparison"] == "open-question"
    assert rows[("minus_one", "power(2)")]["comparison"] == "open-question"
    # rows the published table leaves undetermined are never asserted
    assert rows[("power(1)", "power(2)")]["comparison"] == "undetermined-in-source"
    assert rows[("one", "minus_one")]["comparison"] == "agrees"
    assert rows[("one", "minus_one")]["computed_class"] == EXTREME_TOWARD_0


TOWER_CASES = [(family, n, w) for n in (3, 4, 5, 6)
               for family, w in ((DIHEDRAL, 1), (QUATERNION, 1), (QUATERNION, -1))
               ] + [(DIHEDRAL, 7, 1), (QUATERNION, 7, -1)]


@pytest.mark.parametrize("family,n,w", TOWER_CASES)
def test_tower_shared_inversions_match_per_pair_oracle(family, n, w):
    # one inversion per (|mean|, weights) on the call's spectral table,
    # complemented for negative means, must give every row the bits of its
    # own inversion on a table that holds only that row's characters
    report = tower_experiment(family, n, w, seed=3)
    oracle = tower_rows_per_pair(family, n, w, seed=3)
    assert len(report["rows"]) == len(oracle)
    for row, want in zip(report["rows"], oracle):
        assert (row["c1"], row["c2"]) == (want["c1"], want["c2"])
        assert row["mean_formula"] == want["mean_formula"]
        for field in ("bias_factor", "delta_fourier", "delta_fourier_budget"):
            assert row[field].hex() == want[field].hex(), (row["c1"], row["c2"], field)
    if n >= 5:  # the sharing is exercised: some rows repeat a model
        sides = {(abs(r["mean_formula"]), r["weights"]) for r in oracle}
        assert len(sides) < len(oracle)


@pytest.mark.parametrize("family,w", [(DIHEDRAL, 1), (QUATERNION, -1)])
@pytest.mark.parametrize("n", (6, 7))
def test_race_and_tower_give_one_answer(family, w, n, monkeypatch):
    # the same pair over the same zero sets is one model, whichever driver
    # builds it: race's model per pair against the tower's batch, bit for
    # bit.  The Monte Carlo, which the tower does not run, is stubbed out.
    monkeypatch.setattr(experiments, "density_montecarlo",
                        lambda model, samples, seed: DensityEstimate(0.5, 0.0, samples))
    for seed in (0, 3):
        tower = tower_experiment(family, n, w, seed)["rows"]
        race = run_race(family=family, n=n, w_axiom=w, seed=seed,
                        samples=10_000)["rows"]
        assert [(r["c1"], r["c2"]) for r in race] == [(r["c1"], r["c2"]) for r in tower]
        for got, want in zip(race, tower):
            for field in ("bias_factor", "delta_fourier", "delta_fourier_budget"):
                assert got[field].hex() == want[field].hex(), \
                    (seed, got["c1"], got["c2"], field)


def _record_tower_models(monkeypatch) -> list[density.RaceModel]:
    """Every (row, mean) the tower hands its Fourier batch from now on, as
    a race model over the call's spectral table."""
    models = []
    real = experiments.density_fourier_batch

    def recorded(table, rows, pairs):
        models.extend(density.RaceModel(mean, table, rows[i]) for i, mean in pairs)
        return real(table, rows, pairs)

    monkeypatch.setattr(experiments, "density_fourier_batch", recorded)
    return models


@pytest.mark.parametrize("family,w", [(DIHEDRAL, 1), (QUATERNION, -1)])
def test_tower_inverts_once_per_distinct_mean_and_weights(family, w, monkeypatch):
    batches, grids = [], []
    real_batch, real_grid = experiments.density_fourier_batch, density._grid_integral

    def counted_batch(table, rows, pairs):
        batches.append(1)
        return real_batch(table, rows, pairs)

    def counted_grid(m, *args, **kwargs):
        grids.append(m.size)
        return real_grid(m, *args, **kwargs)

    monkeypatch.setattr(experiments, "density_fourier_batch", counted_batch)
    models = _record_tower_models(monkeypatch)
    monkeypatch.setattr(density, "_grid_integral", counted_grid)
    tower_experiment(family, 6, w, seed=0)
    inverted = [(model.mean, model.row.tobytes())
                for model in models if model.mean != 0]
    runs = sum(grids)
    assert len(batches) == 1  # the whole call in one batch
    oracle = tower_rows_per_pair(family, 6, w, seed=0)
    sides = {(abs(r["mean_formula"]), r["weights"])
             for r in oracle if r["mean_formula"] != 0}
    # each once, positive side only
    assert len(set(inverted)) == len(inverted) == len(sides)
    assert all(m > 0 for m, _ in inverted)
    assert sorted(m for m, _ in inverted) == sorted(m for m, _ in sides)
    assert runs == len(sides)
    assert sum(r["mean_formula"] != 0 for r in oracle) > len(sides)


@pytest.mark.parametrize("family,w", [(QUATERNION, 1), (QUATERNION, -1),
                                      (DIHEDRAL, 1)])
def test_fourier_grid_matches_quadpack_on_tower_models(family, w, monkeypatch):
    # every inversion tower makes at n = 3..6, which gives every row its
    # density; mean-0 rows are exactly 1/2 either way
    models = _record_tower_models(monkeypatch)
    real_fourier = density.density_fourier
    for n in range(3, 7):
        tower_experiment(family, n, w, seed=0)
    assert len(models) > 100
    for model in models:
        grid = real_fourier(model)
        oracle = density_fourier_quadpack(model)
        assert grid.error_bound <= 1e-11
        assert abs(grid.value - oracle.value) <= \
            grid.error_bound + oracle.error_bound, \
            (model.mean, model.terms.size, grid, oracle)


def test_tower_experiment_rejects_large_n():
    for n in (11, 13):
        with pytest.raises(ConfigError, match="3 <= n <= 10"):
            tower_experiment(QUATERNION, n, +1, seed=0)


def test_monotonicity_dihedral_holds():
    report = monotonicity_experiment(DIHEDRAL, 6, 0.25, +1, seed=1,
                                     samples=20000, t_max=16.0)
    assert report["verdict"] == "holds"
    assert report["quantity"] == "delta"
    assert report["formula_consistent"] is True
    assert report["qualifying_i"] == [3]
    assert report["qualifying_j"] == [6]
    deltas = [r["delta_mc"] for r in report["levels"]]
    assert deltas[0] > deltas[-1]
    assert "open_question" not in report


def test_monotonicity_quaternion_plus_holds():
    report = monotonicity_experiment(QUATERNION, 6, 0.25, +1, seed=1,
                                     samples=20000, t_max=16.0)
    assert report["verdict"] == "holds"
    assert report["quantity"] == "one-minus-delta"
    deltas = [r["delta_mc"] for r in report["levels"]]
    assert deltas[-1] > deltas[0]  # 1 - delta decreasing means delta rising


def test_monotonicity_quaternion_minus_is_open_question():
    report = monotonicity_experiment(QUATERNION, 6, 0.25, -1, seed=1,
                                     samples=20000, t_max=16.0)
    assert report["formula_consistent"] is False
    assert report["open_question"] is True
    assert "note" in report
    assert all(rec["mean_increasing"]
               for rec in report["mean_ordering_by_formula"])
    assert report["verdict"] in ("holds", "fails", "inconclusive", "vacuous")


def test_monotonicity_validation():
    with pytest.raises(ConfigError):
        monotonicity_experiment(DIHEDRAL, 6, 0.0, +1, seed=0)


def test_sandwich_experiment_light():
    report = sandwich_experiment(count=6, seed=2, samples=10000, t_max=32.0)
    assert report["population_bias_above_1"] == 6
    assert report["inside"] == 6
    assert report["success_rate"] == 1.0
    for r in report["rows"]:
        assert r["counted"] is True
        assert 1.0 < r["bias_factor"] < 3.5
        assert r["q"] == 2.0
        assert r["lower"] <= r["one_minus_delta_mc"] <= r["upper"]


def test_mod4_experiment_synthetic_and_file(tmp_path):
    report = mod4_experiment(seed=1, t_max=200.0)
    assert report["gating"] is False
    assert report["published_delta"] == MOD4_PUBLISHED_DELTA
    assert 0.9 < report["delta_fourier"] < 1.0
    assert math.isclose(report["difference"],
                        report["delta_fourier"] - MOD4_PUBLISHED_DELTA,
                        rel_tol=1e-15)
    assert report["zero_source"].startswith("synthetic")
    from chebrace.zeros import save_zero_file

    zs = sample_zero_set(ZeroCountModel(math.log(4.0), 1), 200.0, 1,
                         character_id="chi4")
    path = tmp_path / "mod4.txt"
    save_zero_file(zs, str(path))
    from_file = mod4_experiment(zero_file=str(path))
    assert from_file["zero_source"] == "file"
    assert from_file["n_zeros"] == len(zs)
    assert math.isclose(from_file["delta_fourier"], report["delta_fourier"],
                        abs_tol=2e-2)
    with pytest.raises(ConfigError):
        mod4_experiment(zero_file=str(tmp_path / "missing.txt"))


# -- configuration -------------------------------------------------------------------


def test_table_id_inventory():
    assert TABLE_IDS == ("esp-q", "esp-d", "h8")


def test_config_validation_messages():
    cases = [
        (dict(family="cyclic"), "family"),
        (dict(n=2), "n"),
        (dict(n=21), "n"),
        (dict(n="4"), "n must be an integer"),
        (dict(w_axiom=0), "w_axiom"),
        (dict(w_axiom="-1"), "w_axiom"),
        (dict(level=2), "level"),
        (dict(n=4, level=5), "level"),
        (dict(pairs=[("one", "minus_one")]), "pairs"),
        (dict(seed=-1), "seed must be a non-negative integer"),
        (dict(seed=1.5), "seed must be a non-negative integer"),
        (dict(samples=9999), "samples"),
        (dict(zero_files="a.txt"), "zero_files"),
        (dict(zero_files=("/no/such/file",)), "zero file"),
        (dict(min_zeros=0), "min_zeros"),
    ]
    for kwargs, needle in cases:
        with pytest.raises(ConfigError) as err:
            run_race(**kwargs)
        assert needle in str(err.value), (kwargs, str(err.value))
    # every other default is valid
    report = run_race(pairs=((ONE, MINUS_ONE),), samples=10000)
    assert (report["n"], report["zero_source"]) == (3, "synthetic")


def test_config_from_dict(tmp_path):
    path = tmp_path / "race.json"

    def load(data):
        path.write_text(json.dumps(data))
        return cli._race_config(str(path))

    config = load({"family": "dihedral", "n": 5, "pairs": [["one", "power(2)"]],
                   "zero_files": []})
    assert config["family"] == DIHEDRAL
    assert config["pairs"] == [(ONE, power(2))]
    assert config["zero_files"] == []
    with pytest.raises(ConfigError):
        load({"mystery": 1})
    with pytest.raises(ConfigError):
        load({"pairs": [["one"]]})
    with pytest.raises(ConfigError):
        load({"pairs": [["one", "power(zero)"]]})


@pytest.mark.parametrize("family,w", [(DIHEDRAL, 1), (QUATERNION, -1)])
def test_tower_tail_search_matches_the_full_grid(family, w, monkeypatch):
    # every inversion of the towers n = 3..8: the windowed search picks the
    # grid point the whole grid picks, and its bound is at least the whole
    # grid's (a minimum over fewer splits; the sums run in another order,
    # which moves a bound by far less than 1e-9 relative)
    searched = []
    real = density._t_max_and_tail

    def recorded(rows, m, log_m):
        t_max, tail = real(rows, m, log_m)
        for i in range(rows.size):
            at = slice(rows.first[i], rows.first[i + 1])
            row = np.zeros(rows.table.sizes.size)
            row[rows.comp[at]] = rows.scale[at]
            searched.append((density.RaceModel(1, rows.table, row), m[i], t_max[i], tail[i]))
        return t_max, tail

    monkeypatch.setattr(density, "_t_max_and_tail", recorded)
    for n in range(3, 9):
        tower_experiment(family, n, w, seed=0)
    assert len(searched) > 900
    for model, m, t_max, tail in searched:
        r = np.sort(model.terms)
        i, _ = sorted_t_max(r, m, density._PANEL_CAP)
        u = density._GRID / math.sqrt(2.0 * model.variance)
        assert t_max == u[i]
        assert tail >= sorted_tail_bounds(r, u)[i] * (1 - 1e-9)


@pytest.mark.parametrize("family,w", [(DIHEDRAL, 1), (QUATERNION, -1)])
def test_fourier_grid_matches_quadpack_on_tower_models_up_to_n_7(family, w, monkeypatch):
    # every 8th inversion of the towers n = 5..7
    models = _record_tower_models(monkeypatch)
    real_fourier = density.density_fourier
    for n in range(5, 8):
        tower_experiment(family, n, w, seed=0)
    inverted = [m for m in models if m.mean != 0][::8]
    assert len(inverted) > 30
    for model in inverted:
        grid = real_fourier(model)
        oracle = density_fourier_quadpack(model)
        assert grid.error_bound <= 1e-11
        assert abs(grid.value - oracle.value) <= grid.error_bound + oracle.error_bound


# -- every driver's race model against the sorted term list it replaced ---------


def _driver_models(driver, family, seed):
    """(model, weight row, spectral table) of every race model the driver
    builds on a small run: the builder's arguments for the drivers that
    call it, and for the tower each inverted row with its weights read back
    from the row (scales are twice the weights, exactly)."""
    found = []
    real_builder, real_provision = experiments.race_model, experiments.provision_zero_sets
    provisioned = {}

    def builder(mean_value, row, table):
        model = real_builder(mean_value, row, table)
        found.append((model, np.array(row), table))
        return model

    def provision(scenario, indices, *args, **kwargs):
        zeros = real_provision(scenario, indices, *args, **kwargs)
        provisioned["columns"], provisioned["table"] = np.array(indices), zeros
        return zeros

    def fourier(table, rows, pairs):
        columns = provisioned["columns"]
        for i, mean in pairs:
            row = np.zeros(columns.max() + 1)
            row[columns] = rows[i] / 2.0
            found.append((density.RaceModel(mean, table, rows[i]), row,
                          provisioned["table"]))
        return density.density_fourier_batch(table, rows, pairs)

    w = -1 if seed % 2 else 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "race_model", builder)
        if driver == "tower":
            patch.setattr(experiments, "provision_zero_sets", provision)
            patch.setattr(experiments, "density_fourier_batch", fourier)
            tower_experiment(family, 3 + seed % 3, w, seed)
        elif driver == "race":
            run_race(family=family, n=3 + seed % 2, w_axiom=w, seed=seed,
                     samples=10_000, min_zeros=16 + seed % 64)
        elif driver == "sandwich":
            sandwich_experiment(count=1 + seed % 2, seed=seed, samples=10_000,
                                t_max=16.0 + seed % 48)
        else:
            monotonicity_experiment(family, 3 + seed % 4, 0.25, w, seed,
                                    samples=20, t_max=8.0 + seed % 24)
    return found


@settings(max_examples=40, deadline=None)
@given(driver=st.sampled_from(["tower", "race", "sandwich", "monotonicity"]),
       family=st.sampled_from([DIHEDRAL, QUATERNION]), seed=st.integers(0, 10**6))
def test_driver_models_list_the_sorted_terms_of_their_characters(driver, family, seed):
    # the terms are assemble_race_model's list bit for bit, order included,
    # and the variance lies within (7 + depth) ulps of the list's own sum of
    # squares, taken in long double (within (n + 2) 2^-64 of exact)
    found = _driver_models(driver, family, seed)
    assert found
    for model, row, zeros in found:
        oracle = assemble_race_model(model.mean, row, zeros)
        assert model.terms.tobytes() == oracle.terms.tobytes()
        r2 = np.asarray(oracle.terms, dtype=np.longdouble) ** 2
        want = float(0.5 * np.sum(r2))
        slack = (engine_rows(model).depth[0] + 7) * density._U + (r2.size + 2) * 2.0 ** -64
        assert abs(model.variance - want) <= slack * want
        assert model.bias_factor == model.mean / math.sqrt(model.variance)
        if driver in ("sandwich", "monotonicity"):
            # the Monte Carlo drivers never ask for the table's matrices
            table = model.table
            assert not {"bases", "squares", "_power"} & vars(table).keys()


def test_run_race_takes_each_pairs_weights_once(monkeypatch):
    # one weight row per pair, undefined ones included, from one call
    calls = []
    real = RaceTable.weights

    def counted(self):
        rows = real(self)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(RaceTable, "weights", counted)
    report = run_race(family=DIHEDRAL, n=4, level=3, samples=10_000)
    defined = [row for row in report["rows"] if row["status"] != "undefined"]
    assert calls == [len(report["rows"])]
    assert len(defined) < len(report["rows"])
