"""Synthetic zero sampling calibration, B0 sums, and zero-file round trips."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebrace.density import SpectralTable
from chebrace.zeros import (
    ParseError,
    RATE_FLOOR,
    ValidationError,
    ZeroCountModel,
    ZeroSet,
    b0_tail,
    expected_zero_count,
    load_zero_file,
    sample_zero_set,
    save_zero_file,
)
from oracles import (
    HorizonError,
    b0,
    partial_inverse_main_term,
    partial_inverse_sum,
    partial_inverse_tolerance,
    same_zero_set,
    sampled_ordinates_by_block,
    zero_set_problem,
)


@pytest.mark.parametrize("log_conductor,t_max", [(5.0, 100.0), (50.0, 50.0),
                                                 (500.0, 20.0)])
def test_sampler_count_calibration(log_conductor, t_max):
    # across 100 seeds the mean count must match the counting main term
    model = ZeroCountModel(log_conductor, 2)
    expected = expected_zero_count(model, t_max)
    assert expected > 100.0  # enough mass for a tight relative check
    counts = [len(sample_zero_set(model, t_max, seed)) for seed in range(100)]
    ratio = float(np.mean(counts)) / expected
    assert 0.9 <= ratio <= 1.1, ratio


def test_counting_function_matches_along_the_axis():
    # not only at t_max: the realized counting function tracks the main term
    model = ZeroCountModel(50.0, 2)
    t_max = 200.0
    sets = [sample_zero_set(model, t_max, seed) for seed in range(20)]
    for t in (25.0, 50.0, 100.0, 200.0):
        counts = [sum(1 for g in zs.ordinates if g <= t) for zs in sets]
        expected = expected_zero_count(model, t)
        band = 5.0 * math.sqrt(expected)  # ~5 sigma of the mean of 20 Poissons
        assert abs(float(np.mean(counts)) - expected) <= band, t


def test_expected_zero_count_clamps_and_validates():
    model = ZeroCountModel(0.0, 2)
    assert expected_zero_count(model, 2.0 * math.pi) == 0.0  # negative main term
    assert expected_zero_count(model, 1e4) > 0.0
    with pytest.raises(ValueError):
        expected_zero_count(model, 0.0)
    with pytest.raises(ValueError):
        expected_zero_count(model, -3.0)


def test_model_validation_and_onset():
    with pytest.raises(ValueError):
        ZeroCountModel(-1.0, 2)
    with pytest.raises(ValueError):
        ZeroCountModel(3.0, 0)
    model = ZeroCountModel(4.0, 2)
    onset = model.onset
    assert math.isclose(model.rate(onset), 0.0, abs_tol=1e-12)
    assert model.rate(2.0 * onset) > 0.0


def test_sampler_determinism_and_seed_sensitivity():
    model = ZeroCountModel(20.0, 2)
    a = sample_zero_set(model, 64.0, 7, "chi1")
    b = sample_zero_set(model, 64.0, 7, "chi1")
    assert same_zero_set(a, b)
    c = sample_zero_set(model, 64.0, 8, "chi1")
    assert not np.array_equal(a.ordinates, c.ordinates)
    assert a.character_id == "chi1"
    assert a.source == "synthetic(7)"
    assert a.log_conductor == 20.0
    assert a.t_max == 64.0
    for t_max in (0.5, math.nan, math.inf, 2.0 ** 20 + 1.0):
        with pytest.raises(ValueError, match="need 1 <= t_max <= 2"):
            sample_zero_set(model, t_max, 1)


def test_sampled_ordinates_are_strictly_increasing_and_bounded():
    model = ZeroCountModel(30.0, 2)
    zs = sample_zero_set(model, 40.0, 3)
    arr = zs.ordinates
    assert arr.dtype == np.float64 and arr.size > 0
    assert np.all(arr > 0.0)
    assert np.all(np.diff(arr) > 0.0)
    assert arr[-1] <= 40.0


def test_sampler_continues_across_proposal_blocks():
    # about 19,600 proposals at the majorant rate, so five blocks of 4096:
    # each block after the first starts from the last point of the one before
    model = ZeroCountModel(50.0, 2)
    t_max = 2000.0
    zs = sample_zero_set(model, t_max, 11)
    want, blocks = sampled_ordinates_by_block(model, t_max, 11)
    assert blocks == 5
    assert zs.ordinates.tobytes() == want.tobytes()
    g = zs.ordinates
    assert g[0] > 0.0 and g[-1] <= t_max and np.all(np.diff(g) > 0.0)
    expected = expected_zero_count(model, t_max)
    assert abs(g.size - expected) <= 5.0 * math.sqrt(expected), (g.size, expected)


def test_b0_one_sided_and_two_sided():
    zs = ZeroSet("chi1", 10.0, (1.0, 2.0, 4.0), source="test")
    one = 1.0 / (0.25 + 1.0) + 1.0 / (0.25 + 4.0) + 1.0 / (0.25 + 16.0)
    assert math.isclose(b0(zs), one, rel_tol=1e-15)
    assert math.isclose(b0(zs, two_sided=True), 2.0 * one, rel_tol=1e-15)
    empty = ZeroSet("chi1", 10.0, (), source="test")
    assert b0(empty) == 0.0


def test_b0_doubles_when_log_conductor_doubles():
    # b0 is dominated by the rate near the origin, which is proportional to
    # log A up to the degree term; doubling log A from 50 to 100 multiplies
    # the mean b0 by about 2.1 analytically
    t_max = 64.0
    lo = [b0(sample_zero_set(ZeroCountModel(50.0, 2), t_max, s))
          for s in range(20)]
    hi = [b0(sample_zero_set(ZeroCountModel(100.0, 2), t_max, 1000 + s))
          for s in range(20)]
    ratio = float(np.mean(hi)) / float(np.mean(lo))
    assert 1.8 <= ratio <= 2.4, ratio


def test_b0_tail_estimates_the_truncated_mass():
    # the window (t, t_max] mass should match tail(t) - tail(t_max) on average
    model = ZeroCountModel(50.0, 2)
    t, t_max = 16.0, 64.0
    windows = []
    for seed in range(20):
        zs = sample_zero_set(model, t_max, seed)
        g = zs.ordinates
        windows.append(float(np.sum(1.0 / (0.25 + g[g > t] ** 2))))
    estimate = b0_tail(model, t) - b0_tail(model, t_max)
    ratio = float(np.mean(windows)) / estimate
    assert 0.8 <= ratio <= 1.2, ratio
    assert b0_tail(model, 128.0) < b0_tail(model, 64.0)


def test_partial_inverse_sum_matches_main_term():
    model = ZeroCountModel(50.0, 2)
    t_max = 200.0
    for seed in (0, 1, 2):
        zs = sample_zero_set(model, t_max, seed)
        for t in (50.0, 100.0, 200.0):
            s = partial_inverse_sum(zs, t)
            main = partial_inverse_main_term(model, t)
            tol = partial_inverse_tolerance(model, t)
            assert abs(s - main) <= tol, (seed, t, s, main, tol)


def test_partial_inverse_sum_horizon_and_domain():
    zs = ZeroSet("chi1", 10.0, (1.0, 5.0), source="test")
    assert partial_inverse_sum(zs, 10.0) > 0.0
    with pytest.raises(HorizonError):
        partial_inverse_sum(zs, 10.5)
    with pytest.raises(ValueError):
        partial_inverse_sum(zs, 0.5)


def test_zero_set_validation():
    with pytest.raises(ValidationError):
        ZeroSet("chi1", 10.0, (1.0, 1.0), source="test")  # tie
    with pytest.raises(ValidationError):
        ZeroSet("chi1", 10.0, (2.0, 1.0), source="test")  # decreasing
    with pytest.raises(ValidationError):
        ZeroSet("chi1", 10.0, (-1.0, 1.0), source="test")  # nonpositive
    with pytest.raises(ValidationError):
        ZeroSet("chi1", 10.0, (1.0, 11.0), source="test")  # beyond horizon
    with pytest.raises(ValidationError):
        ZeroSet("chi1", 0.0, (), source="test")  # empty horizon
    for t_max in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="T_max must be finite"):
            ZeroSet("chi1", t_max, (1.0,), source="test")
    for log_a in (-3.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="log_conductor must be finite"):
            ZeroSet("chi1", 10.0, (1.0,), source="test", log_conductor=log_a)
    assert len(ZeroSet("chi1", 10.0, (1.0, 2.0), source="test")) == 2


_SPECIAL = [0.0, -0.0, -1.0, 1.0, 2.0, 9.5, 10.0, 10.5, 5e-324,
            math.nan, math.inf, -math.inf]


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(_SPECIAL),
                                 st.floats(-1.0, 12.0)), max_size=8),
       ordered=st.booleans())
def test_zero_set_checks_match_the_per_ordinate_loop(values, ordered):
    # ties, decreasing pairs, zero, negatives, NaN, inf, values past T_max
    # and the empty set: rejected exactly when the loop finds a problem,
    # with its message; sorting first makes the sets that pass common
    if ordered:
        values = sorted(values, key=lambda g: (math.isnan(g), g))
    want = zero_set_problem(values, 10.0)
    if want is None:
        zs = ZeroSet("chi1", 10.0, values, source="test")
        assert zs.ordinates.tolist() == values
    else:
        with pytest.raises(ValidationError) as info:
            ZeroSet("chi1", 10.0, values, source="test")
        assert str(info.value) == want


def test_ordinates_and_moduli_are_read_only(tmp_path):
    sampled = sample_zero_set(ZeroCountModel(10.0, 2), 32.0, 1)
    path = tmp_path / "zeros.txt"
    save_zero_file(sampled, str(path))
    given_array = np.array([1.0, 2.0])
    built = [ZeroSet("chi1", 10.0, (1.0, 2.0), source="test"),
             ZeroSet("chi1", 10.0, given_array, source="test")]
    for zs in [sampled, load_zero_file(str(path))] + built:
        for values in (zs.ordinates, SpectralTable.of({0: zs}).moduli):
            assert values.dtype == np.float64 and not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 3.0
    # an array handed over is the set's own, not a copy
    assert built[1].ordinates is given_array


def test_zero_file_round_trip_is_bit_exact(tmp_path):
    model = ZeroCountModel(10.0, 2)
    zs = sample_zero_set(model, 32.0, 11, "psi_3")
    path = tmp_path / "zeros.txt"
    save_zero_file(zs, str(path))
    back = load_zero_file(str(path))
    # %.17g round-trips float64: the arrays are equal value for value
    assert np.array_equal(back.ordinates, zs.ordinates)
    assert back.t_max == zs.t_max
    assert back.character_id == "psi_3"
    assert back.log_conductor == zs.log_conductor
    assert back.source == "file"


def test_zero_file_parse_errors(tmp_path):
    path = tmp_path / "zeros.txt"

    def load(text):
        path.write_text(text)
        return load_zero_file(str(path))

    with pytest.raises(ParseError):
        load("# T_max: 10\n1.0\nnot-a-number\n")
    with pytest.raises(ParseError):
        load("# T_max: 10\ninf\n")
    with pytest.raises(ParseError):
        load("# T_max: ten\n1.0\n")
    with pytest.raises(ParseError):
        load("# character: chi1\n")  # no body and no T_max
    with pytest.raises(ValidationError):
        load("# T_max: 10\n-1.0\n")
    with pytest.raises(ValidationError):
        load("# T_max: 10\n2.0\n1.0\n")
    with pytest.raises(ValidationError):
        load("# T_max: 10\n1.0\n1.0\n")


@pytest.mark.parametrize("comments", [
    "# a plain comment without separator\n",
    "# note\n\n",  # a one-word comment and a blank line
])
def test_zero_file_header_forms(comments, tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text(comments + "# character: chi2\n" + "1.0\n2.5\n7.25\n")
    zs = load_zero_file(str(path))
    # T_max defaults to the last ordinate when the header is absent
    assert zs.t_max == 7.25
    assert zs.character_id == "chi2"
    assert zs.log_conductor is None
    assert zs.ordinates.tolist() == [1.0, 2.5, 7.25]


def test_rate_floor_keeps_tiny_conductors_sampleable():
    model = ZeroCountModel(0.0, 1)
    zs = sample_zero_set(model, 4.0, 5)
    # below onset the clamped rate is RATE_FLOOR, so few but valid ordinates
    assert np.all(zs.ordinates > 0)
    assert RATE_FLOOR > 0.0
