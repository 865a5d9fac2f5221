"""Density estimators (Monte Carlo and Fourier inversion) and tail bounds."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from chebrace import density
from chebrace.density import (
    C1,
    C2,
    C3,
    DensityEstimate,
    RaceModel,
    SpectralTable,
    Z99,
    clt_estimate,
    complement,
    density_montecarlo,
    lower_bound,
    q_factor,
    race_model,
    truncation_shift_bound,
    upper_bound,
)
from chebrace.arithmetic import scenario_generator
from chebrace.characters import character_ids
from chebrace.experiments import (
    _SHARED_MC_SALT,
    provision_zero_sets,
    run_race,
    sandwich_experiment,
    tower_experiment,
)
from chebrace.groups import DIHEDRAL, QUATERNION, Group, GroupKind
from chebrace.races import level_races
from chebrace.zeros import ZeroCountModel, ZeroSet, sample_zero_set

import oracles
from oracles import (
    angle_words,
    assemble_race_model,
    column_moduli,
    density_fourier,
    density_fourier_quadpack,
    density_montecarlo_loop,
    engine_grid,
    engine_rows,
    engine_t_max,
    engine_top,
    one_row_model,
    q_factor_extremes,
    shared_mc_loop,
    sorted_bulk_power_sums,
    sorted_tail_bounds,
    spectral_table,
    term_model,
)


def _zs(cid, ordinates, t_max=None):
    t = t_max if t_max is not None else ordinates[-1]
    return ZeroSet(cid, t, tuple(ordinates), source="test")


def _synthetic_model(mean_value, weight_map, seed0=0, t_max=64.0, log_a=20.0):
    """The race of these weights, one column per id in sorted id order."""
    cids = sorted(weight_map)
    zero_sets = {
        k: sample_zero_set(ZeroCountModel(log_a, 2), t_max, seed0 + k, cid)
        for k, cid in enumerate(cids)
    }
    return race_model(mean_value, [weight_map[cid] for cid in cids],
                      SpectralTable.of(zero_sets))


def test_mean_zero_is_exactly_half_for_both_methods():
    model = _synthetic_model(0, {"chi1": 2.0, "chi2": 1.0})
    f = density_fourier(model)
    assert f.value == 0.5
    assert f.error_bound == 0.0
    mc = density_montecarlo(model, 10000, seed=3)
    assert mc.value == 0.5
    assert mc.error_bound == 0.0  # antithetic pairs cancel exactly at mean 0
    assert mc.samples_or_nodes == 10000


def test_fourier_negative_mean_is_the_bitwise_complement():
    weight_map = {"chi1": 2.0, "psi_1": 4.0, "psi_2": 1.0}
    for m in (1, 3, 8):
        plus = density_fourier(_synthetic_model(m, weight_map))
        minus = density_fourier(_synthetic_model(-m, weight_map))
        assert minus.value.hex() == (1.0 - plus.value).hex()
        assert minus.error_bound.hex() == plus.error_bound.hex()
        assert minus.samples_or_nodes == plus.samples_or_nodes > 0
        assert complement(plus) == minus


def test_montecarlo_determinism_and_seed_sensitivity():
    model = _synthetic_model(2, {"chi1": 2.0})
    a = density_montecarlo(model, 20000, seed=5)
    b = density_montecarlo(model, 20000, seed=5)
    assert (a.value, a.error_bound) == (b.value, b.error_bound)
    c = density_montecarlo(model, 20000, seed=6)
    assert a.value != c.value
    with pytest.raises(ValueError):
        density_montecarlo(model, 9999, seed=1)


def test_complementarity_under_mean_flip():
    weight_map = {"chi1": 2.0, "psi_1": 4.0}
    plus = _synthetic_model(3, weight_map)
    minus = _synthetic_model(-3, weight_map)
    f_plus = density_fourier(plus)
    f_minus = density_fourier(minus)
    assert f_plus.value + f_minus.value == 1.0  # exact complement by design
    assert f_plus.error_bound == f_minus.error_bound
    mc_plus = density_montecarlo(plus, 30000, seed=9)
    mc_minus = density_montecarlo(minus, 30000, seed=9)
    assert math.isclose(mc_plus.value + mc_minus.value, 1.0, abs_tol=1e-12)


def test_fourier_matches_the_arccos_law_for_a_single_cosine():
    # X = 1 + 2 cos(theta): P(X > 0) = 1 - arccos(1/2)/pi = 2/3 exactly
    model = race_model(1, [1.0], SpectralTable.of({0: _zs("chi1", [math.sqrt(0.75)])}))
    assert math.isclose(model.terms[0], 2.0, rel_tol=1e-12)
    with pytest.warns(UserWarning):
        est = density_fourier(model)
    assert abs(est.value - 2.0 / 3.0) < 0.02
    # the declared budget is honest about the unbounded Bessel tail
    assert est.error_bound >= 1.0 / math.pi
    mc = density_montecarlo(model, 100000, seed=2)
    assert abs(mc.value - 2.0 / 3.0) <= max(3.0 * mc.error_bound, 1e-3)


def test_few_term_warning_names_the_caller_of_the_public_entry():
    model = race_model(1, [1.0], SpectralTable.of({0: _zs("chi1", [math.sqrt(0.75)])}))
    with pytest.warns(UserWarning, match="fewer than 3") as record:
        density.density_fourier_batch(model.table, model.row[None, :], [(0, 1)])
    assert [w.filename for w in record] == [__file__]


def test_fourier_and_montecarlo_agree_on_random_models():
    rng = np.random.default_rng(np.random.SeedSequence([0xA5, 1]))
    for k in range(8):
        cids = [f"chi{j}" for j in range(1 + int(rng.integers(1, 4)))]
        weight_map = {cid: float(rng.uniform(0.5, 4.0)) for cid in cids}
        mean_value = int(rng.integers(-6, 7)) or 1
        model = _synthetic_model(mean_value, weight_map, seed0=100 * k,
                                 log_a=float(rng.uniform(5.0, 40.0)))
        f = density_fourier(model)
        mc = density_montecarlo(model, 20000, seed=k)
        tol = max(3.0 * mc.error_bound + f.error_bound, 2e-3)
        assert abs(f.value - mc.value) <= tol, (k, f.value, mc.value, tol)


def test_fourier_is_monotone_in_the_mean():
    weight_map = {"chi1": 2.0, "chi2": 1.5}
    values = [density_fourier(_synthetic_model(m, weight_map)).value
              for m in (0, 1, 2, 4, 8)]
    assert values == sorted(values)
    assert values[0] == 0.5


def test_clt_estimate_formula_and_validation():
    est, budget = clt_estimate(0.5, 100.0)
    assert math.isclose(est, 0.5 + 0.5 / math.sqrt(2.0 * math.pi), rel_tol=1e-15)
    assert math.isclose(budget, 0.125 + 100.0 ** (-1.0 / 3.0), rel_tol=1e-15)
    with pytest.raises(ValueError):
        clt_estimate(0.5, 0.0)
    with pytest.raises(ValueError):
        clt_estimate(0.5, -1.0)


def test_upper_and_lower_bounds():
    assert upper_bound(0.0) is None
    assert upper_bound(-2.0) is None
    assert lower_bound(0.0, 2.0) is None
    b = 2.0
    assert math.isclose(upper_bound(b), math.exp(-C3 * 4.0), rel_tol=1e-15)
    assert math.isclose(lower_bound(b, 3.0),
                        C1 * math.exp(-C2 * 3.0 * 4.0),
                        rel_tol=1e-15)
    assert upper_bound(3.0) < upper_bound(2.0)
    assert lower_bound(3.0, 2.0) < lower_bound(2.0, 2.0)
    # sandwich consistency: the lower floor sits below the upper ceiling
    for bias in (1.1, 1.5, 2.0, 3.0):
        assert lower_bound(bias, 2.0) < upper_bound(bias)


def _q_row(weights):
    """A weight row of the order-32 groups, in ``character_ids`` order."""
    ids = character_ids(Group(GroupKind(QUATERNION, 5)))
    return np.array([weights.get(cid, 0.0) for cid in ids])


def test_q_factor_regimes():
    # top level, equal weights: Q = C (b3/b4 + 1) = 2
    weights = {"psi_1": 4.0, "psi_3": 4.0}
    assert q_factor(_q_row(weights), level=5, n=5, b1=0, b2=0) == 2.0
    assert q_factor_extremes(weights)[:2] == (4.0, 4.0)
    # proper level: the exponential of sqrt(M b1 b2 / (deg* b3)) wins here
    weights = {"psi_1": 4.0, "chi1": 2.0}
    q = q_factor(_q_row(weights), level=3, n=5, b1=2, b2=2)
    assert q_factor_extremes(weights) == (4.0, 2.0, "psi_1", 2)
    assert math.isclose(q, math.exp(math.sqrt(0.5)), rel_tol=1e-12)
    assert q >= 1.0
    # ties on b3 resolve toward the larger degree: deg* = 2, not 1
    weights = {"chi1": 4.0, "psi_1": 4.0}
    assert q_factor_extremes(weights)[2:] == ("psi_1", 2)
    q = q_factor(_q_row(weights), level=3, n=5, b1=2, b2=2)
    assert math.isclose(q, math.exp(math.sqrt(0.5)), rel_tol=1e-12)
    # a degree-1 maximum alone gives deg* = 1
    weights = {"chi1": 4.0, "psi_1": 2.0}
    assert q_factor_extremes(weights)[2:] == ("chi1", 1)
    q = q_factor(_q_row(weights), level=3, n=5, b1=2, b2=2)
    assert math.isclose(q, math.exp(1.0), rel_tol=1e-12)
    # a large weight ratio makes the ratio term dominate
    assert q_factor(_q_row({"psi_1": 16.0, "chi1": 0.25}), level=3, n=5,
                    b1=2, b2=2) == 64.0
    with pytest.raises(ValueError):
        q_factor(_q_row({}), level=3, n=5, b1=2, b2=2)


def test_report_rows_carry_the_bounds_of_their_bias():
    # a race row's bounds are the bound functions at the row's own bias
    # factor, variance and Q; a row of negative bias has no tail bound
    signs = set()
    for row in run_race(n=3, w_axiom=+1, samples=10_000)["rows"]:
        bias = row["bias_factor"]
        assert (row["clt_estimate"], row["clt_error_budget"]) == clt_estimate(
            bias, row["variance"])
        assert row["upper_one_minus_delta"] == upper_bound(bias)
        assert row["lower_one_minus_delta"] == lower_bound(bias, row["q"])
        signs.add(bias > 0)
    assert signs == {True, False}
    (row,) = sandwich_experiment(count=1, samples=10_000)["rows"]
    assert row["bias_factor"] > 1.0
    assert row["upper"] == upper_bound(row["bias_factor"])
    assert row["lower"] == lower_bound(row["bias_factor"], row["q"]) < row["upper"]


def test_truncation_shift_bound():
    assert truncation_shift_bound(2.0, 0.0) == 0.0
    val = truncation_shift_bound(2.0, 0.25)
    assert math.isclose(val, 1.4 * 0.125 ** (2.0 / 3.0), rel_tol=1e-15)
    assert truncation_shift_bound(2.0, 0.5) > val
    with pytest.raises(ValueError):
        truncation_shift_bound(0.0, 0.1)
    with pytest.raises(ValueError):
        truncation_shift_bound(1.0, -0.1)


def test_density_estimate_validation():
    # raised ValueErrors, not asserts, so the checks hold under python -O
    for value, error_bound in [(1.5, 0.0), (-0.1, 0.0), (math.nan, 0.0),
                               (0.5, -0.1), (0.5, math.nan)]:
        with pytest.raises(ValueError):
            DensityEstimate(value, error_bound, 10)
    est = DensityEstimate(0.25, 0.01, 10000)
    assert est.value == 0.25
    assert Z99 > 2.5


def _amplitudes(n_terms, scale, seed):
    return np.sort(np.random.default_rng(seed).random(n_terms) * scale)[::-1] + 1e-3


def _amplitude_model(mean_value, n_terms, scale, seed):
    return term_model(mean_value, _amplitudes(n_terms, scale, seed))


def _hex(values):
    return [float(v).hex() for v in values]


# (mean, terms, amplitude scale, samples): three chunks with a partial last
# one, for both signs of the mean; one partial chunk at mean 0; forty chunks
# of the 128-pair floor (past 16384 terms), the last one partial
MC_CASES = [(2, 300, 0.3, 30_000), (-1, 301, 0.3, 30_002), (0, 300, 0.3, 10_000),
            (3, 16_400, 0.05, 10_000)]


@pytest.mark.parametrize("mean_value,n_terms,scale,samples", MC_CASES)
def test_mc_kernel_matches_single_thread_loop(monkeypatch, mean_value, n_terms,
                                              scale, samples):
    model = _amplitude_model(mean_value, n_terms, scale, seed=n_terms)
    want = density_montecarlo_loop(model, samples, seed=7)
    for workers in (1, 2, 3):
        monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: workers)
        got = density_montecarlo(model, samples, seed=7)
        assert _hex([got.value, got.error_bound]) == \
            _hex([want.value, want.error_bound]), workers
        assert got.samples_or_nodes == want.samples_or_nodes


# (terms, amplitude scale, samples): four chunks with a partial last one;
# three chunks of the 16-pair floor (past 131072 terms), partial last,
# where W1 is wide against the spread of S, so tier 1 leaves each chunk's
# first row open and is dropped for the rest of the chunk
SHARED_CASES = [(3000, 0.1, 5001), (140_000, 0.01, 66)]


@pytest.mark.parametrize("n_terms,scale,samples", SHARED_CASES)
def test_shared_mc_kernel_matches_monotonicity_loop(monkeypatch, n_terms, scale,
                                                    samples):
    terms = _amplitudes(n_terms, scale, seed=n_terms)
    level_means = [-4.0, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0]
    want_deltas, want_cis = shared_mc_loop(terms, level_means, samples, 11)
    for workers in (1, 2, 3):
        monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: workers)
        deltas, cis = density._mc_race(terms, level_means, max(samples // 2, 1),
                                       11, _SHARED_MC_SALT, 16)
        assert _hex(deltas) == _hex(want_deltas), workers
        assert _hex(cis) == _hex(want_cis), workers


def _angles32(k):
    """The float32 angles fl32(fl32(k) fl32(2 pi 2^-32)) the kernel forms
    from the 32-bit integers k."""
    return k.astype(np.uint32).astype(np.float32) * np.float32(density._TURN)


def _row_sums(terms, k):
    """The exact S of each row of uniforms k 2^-32, the tier-2 sum S'
    (float32 products, float64 sum) and the tier-1 float32 dot S'_1, as the
    kernel forms them."""
    exact = np.sum(np.cos(2.0 * np.pi * (k * 2.0 ** -32)) * terms, axis=1)
    cos32 = np.cos(_angles32(k))
    terms32 = terms.astype(np.float32)
    fast = np.sum(cos32 * terms32, axis=1, dtype=np.float64)
    dot = (cos32 @ terms32).astype(np.float64)
    return exact, fast, dot


def _chunk_rows(terms, salt, seed, rows):
    """Row sums, as ``_row_sums``, for the first rows of chunk 0."""
    rng = np.random.default_rng(np.random.SeedSequence([salt, seed, 0]))
    return _row_sums(terms, angle_words(rng, rows, terms.size))


def test_mc_kernel_recomputes_rows_the_float32_sum_cannot_decide(monkeypatch):
    # means at an exact tie m + S = 0 with a drawn row, and one ulp either
    # side of it; S' lies on the wrong side of the tie, so deciding with
    # S' alone would move the estimate
    terms = _amplitudes(300, 0.3, seed=300)
    exact, fast, _ = _chunk_rows(terms, _SHARED_MC_SALT, 11, 16)
    k = int(np.flatnonzero(fast > exact)[0])
    tie = -float(exact[k])
    level_means = [tie, math.nextafter(tie, -math.inf), math.nextafter(tie, math.inf),
                   -tie, 1.0]
    want = shared_mc_loop(terms, level_means, 2 * 16, 11)
    for workers in (1, 2):
        monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: workers)
        got = density._mc_race(terms, level_means, 16, 11, _SHARED_MC_SALT, 16)
        assert _hex(got[0]) == _hex(want[0]) and _hex(got[1]) == _hex(want[1])
    # m + S of the tied row is 0 at the tie and positive one ulp above it,
    # which moves its antithetic mean y by 1/2
    assert got[0][2] - got[0][0] == 0.5 / 16

    exact, fast, _ = _chunk_rows(terms, density._MC_SALT, 5, 64)
    k = int(np.flatnonzero(fast > exact)[0])
    model = term_model(-float(exact[k]), terms)
    got = density_montecarlo(model, 10_000, seed=5)
    want = density_montecarlo_loop(model, 10_000, seed=5)
    assert _hex([got.value, got.error_bound]) == _hex([want.value, want.error_bound])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 150_000), magnitude=st.floats(-30.0, 3.0),
       spread=st.floats(0.0, 12.0), seed=st.integers(0, 2 ** 32 - 1))
def test_float32_sums_lie_within_the_mc_windows(n, magnitude, spread, seed):
    # amplitudes over up to 12 decades below 10^magnitude, down into float32
    # underflow; a block's worth of rows
    rng = np.random.default_rng(seed)
    terms = 10.0 ** (magnitude - spread * rng.random(n))
    k = rng.integers(0, 1 << 32, (min(16, max(1, (1 << 17) // n)), n),
                     dtype=np.uint64)
    exact, fast, dot = _row_sums(terms, k)
    window, window1 = density._mc_windows(terms)
    assert window < window1 < math.inf
    assert np.all(np.abs(fast - exact) <= window)
    assert np.all(np.abs(dot - exact) <= window1)


def test_mc_tier_1_window_is_infinite_where_the_float32_dot_may_overflow(
        monkeypatch):
    # each amplitude fits float32 but their sum does not, so the dot can
    # overflow; every row then goes on to the float32 products
    terms = np.linspace(4e37, 2e37, 20)
    terms32 = terms.astype(np.float32)
    with np.errstate(over="ignore"):
        assert np.isinf(np.ones(20, dtype=np.float32) @ terms32)
    window, window1 = density._mc_windows(terms)
    assert window < math.inf and window1 == math.inf
    level_means = [0.0, 1e38, -2e38, 4e38]
    want = shared_mc_loop(terms, level_means, 2 * 3000, 2)
    for workers in (1, 2):
        monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: workers)
        got = density._mc_race(terms, level_means, 3000, 2, _SHARED_MC_SALT, 16)
        assert _hex(got[0]) == _hex(want[0]) and _hex(got[1]) == _hex(want[1])
    # gamma_n is unbounded from n 2^-24 = 1/2 on
    assert density._mc_windows(np.full(1 << 23, 1e-3))[1] == math.inf
    assert density._mc_windows(np.full((1 << 23) - 1, 1e-3))[1] < math.inf


def test_mc_kernel_decides_rows_the_float32_dot_leaves_open(monkeypatch):
    # means at -S'_1, the float32 dot of a drawn row, one ulp either side of
    # it and mirrored, and two windows W either side of the exact S: tier 1
    # leaves the row open for all of them, tier 2 decides the last two and
    # tier 3 the rest
    terms = _amplitudes(3000, 0.1, seed=3000)
    window, window1 = density._mc_windows(terms)
    exact, fast, dot = _chunk_rows(terms, _SHARED_MC_SALT, 11, 64)
    k = int(np.argmax(np.abs(dot - exact)))
    tie = -float(dot[k])
    level_means = [tie, math.nextafter(tie, -math.inf), math.nextafter(tie, math.inf),
                   -tie, -float(exact[k]) - 2 * window, -float(exact[k]) + 2 * window]
    for m in level_means[-2:]:
        assert abs(m + dot[k]) <= window1 and abs(m + fast[k]) > window
    want = shared_mc_loop(terms, level_means, 2 * 2000, 11)
    for workers in (1, 2, 3):
        monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: workers)
        got = density._mc_race(terms, level_means, 2000, 11, _SHARED_MC_SALT, 16)
        assert _hex(got[0]) == _hex(want[0]) and _hex(got[1]) == _hex(want[1]), \
            workers

    exact, fast, dot = _chunk_rows(terms, density._MC_SALT, 5, 1)
    model = term_model(-float(dot[0]), terms)
    want = density_montecarlo_loop(model, 10_000, seed=5)
    for workers in (1, 2, 3):
        monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: workers)
        got = density_montecarlo(model, 10_000, seed=5)
        assert _hex([got.value, got.error_bound]) == \
            _hex([want.value, want.error_bound]), workers


# (model terms, shared terms, samples, shared pairs): even rows, the shared
# draw in four chunks; odd rows, three chunks of 6967 pairs at 301 terms
# and three of 2095 at 1001, where a 2^10-element block holds one row
BLOCK_CASES = [(1000, 3000, 30_000, 2500), (301, 301, 30_000, 15_000),
               (1001, 1001, 10_000, 5000)]


@pytest.mark.parametrize("model_terms,shared_terms,samples,pairs", BLOCK_CASES)
def test_mc_results_do_not_depend_on_the_block_size(
        monkeypatch, model_terms, shared_terms, samples, pairs):
    # nor on the worker count; an odd row leaves the last half of its last
    # word unused, whatever the block holds
    model = _amplitude_model(1, model_terms, 0.1, seed=model_terms)
    terms = _amplitudes(shared_terms, 0.1, seed=shared_terms)
    level_means = [-2.0, 0.0, 0.5, 1.0, 3.0]
    est = density_montecarlo_loop(model, samples, seed=4)
    deltas, cis = shared_mc_loop(terms, level_means, 2 * pairs, 4)
    want = _hex([est.value, est.error_bound, *deltas, *cis])
    for block in (1 << 10, 1 << 15, 1 << 17):
        monkeypatch.setattr(density, "_MC_BLOCK", block)
        for workers in (1, 2, 3):
            monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: workers)
            est = density_montecarlo(model, samples, seed=4)
            deltas, cis = density._mc_race(terms, level_means, pairs, 4,
                                           _SHARED_MC_SALT, 16)
            assert _hex([est.value, est.error_bound, *deltas, *cis]) == want, \
                (block, workers)


def test_mc_kernel_decides_exact_zero_sums_at_mean_zero(monkeypatch):
    # half-turn angles (k in {0, 2^31}) and paired amplitudes make S
    # exactly 0 on many rows; at mean 0 those rows score 0, the others 1/2
    real_rng = np.random.default_rng

    class HalfTurns:
        def __init__(self, seed):
            self._bits = real_rng(seed).bit_generator
            self.bit_generator = self

        def random_raw(self, size=None):
            return self._bits.random_raw(size) & np.uint64(0x8000000080000000)

    monkeypatch.setattr(np.random, "default_rng", HalfTurns)
    terms = np.repeat([0.75, 0.5, 0.375, 0.125], 2)
    model = term_model(0, terms)
    got = density_montecarlo(model, 10_000, seed=3)
    want = density_montecarlo_loop(model, 10_000, seed=3)
    assert _hex([got.value, got.error_bound]) == _hex([want.value, want.error_bound])
    assert 0.0 < got.value < 0.5
    deltas, cis = density._mc_race(terms, [0.0, 0.25, -0.25], 5000, 3,
                                   _SHARED_MC_SALT, 16)
    want_deltas, want_cis = shared_mc_loop(terms, [0.0, 0.25, -0.25], 10_000, 3)
    assert _hex(deltas) == _hex(want_deltas) and _hex(cis) == _hex(want_cis)


def test_mc_kernel_recomputes_few_rows_on_a_sandwich_sized_model(monkeypatch):
    # exact recomputes are float64 cos calls; every row goes through one
    # float32 cos call first
    cos = np.cos
    elements = {np.dtype(np.float32): 0, np.dtype(np.float64): 0}

    def counted_cos(x, *args, **kwargs):
        elements[x.dtype] += x.size
        return cos(x, *args, **kwargs)

    model = _amplitude_model(1, 1000, 0.1, seed=1000)
    assert 0.2 < density_montecarlo_loop(model, 10_000, seed=0).value < 0.8
    monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: 1)
    monkeypatch.setattr(np, "cos", counted_cos)
    density_montecarlo(model, 100_000, seed=0)
    assert elements[np.dtype(np.float32)] == 50_000 * 1000
    assert elements[np.dtype(np.float64)] < 0.01 * 50_000 * 1000


def test_float32_cos_error_behind_the_mc_window():
    # numpy's float32 cos, on a strided sweep of every float32 angle the
    # kernel can form, within density._COS32_ULPS units of 2^-24 of cos
    top = np.float32(2.0 * np.pi).view(np.int32)
    bits = np.arange(0, int(top) + 1, 997, dtype=np.int32)
    x = np.append(bits, top).view(np.float32)
    err = np.abs(np.cos(x).astype(np.float64) - np.cos(x.astype(np.float64)))
    assert float(err.max()) <= density._COS32_ULPS * 2.0 ** -24 - 2.0 ** -52


def test_mc_kernel_angles_lie_within_their_bound(monkeypatch):
    # every float32 angle the kernel forms, read at its float32 cos call,
    # is fl32(fl32(k) fl32(2 pi 2^-32)) for its half-word k, within
    # 2 pi u ((1 + 2^-24)^3 - 1) of 2 pi u = 2 pi k 2^-32, and in
    # [0, fl32(2 pi)], where the float32 cos sweep above runs; for the
    # edge words and a strided sweep of [0, 2^32)
    n = 1000
    edges = [0, 1, (1 << 24) - 1, 1 << 24, (1 << 24) + 1, 1 << 31, (1 << 32) - 1]
    k = np.concatenate([np.array(edges, dtype=np.uint64),
                        np.arange(0, 1 << 32, 4093, dtype=np.uint64)])
    take = -(-k.size // n)
    k = np.append(k, np.zeros(take * n - k.size, dtype=np.uint64))
    words = k[0::2] | (k[1::2] << np.uint64(32))

    class Fed:
        def __init__(self, seed):
            self.bit_generator = self
            self._at = 0

        def random_raw(self, size=None):
            self._at += size
            return words[self._at - size:self._at]

    cos = np.cos
    angles = []

    def captured_cos(x, *args, **kwargs):
        if x.dtype == np.float32:
            angles.append(x.ravel().copy())
        return cos(x, *args, **kwargs)

    terms = _amplitudes(n, 0.1, seed=n)
    monkeypatch.setattr(np.random, "default_rng", Fed)
    monkeypatch.setattr(np, "cos", captured_cos)
    density._mc_chunk(terms, np.zeros(1), 0, 0, 0, take)
    monkeypatch.undo()
    theta = np.concatenate(angles)
    assert theta.tobytes() == _angles32(k).tobytes()
    # fl32(2^24 + 1) = 2^24, and fl32(2^32 - 1) = 2^32 gives fl32(2 pi)
    at = dict(zip(edges, theta[:len(edges)].tolist()))
    assert at[0] == 0.0 and at[1] == np.float32(density._TURN)
    assert at[(1 << 24) + 1] == at[1 << 24] == np.float32(2.0 ** -7 * np.pi)
    assert at[1 << 31] == np.float32(np.pi)
    assert at[(1 << 32) - 1] == np.float32(2.0 * np.pi)
    exact = 2.0 * np.pi * (k * 2.0 ** -32)
    err = np.abs(theta.astype(np.float64) - exact)
    assert np.all(err <= exact * ((1.0 + 2.0 ** -24) ** 3 - 1.0))
    assert theta.min() == 0.0 and theta.max() == np.float32(2.0 * np.pi)


def test_fourier_reports_integrand_evaluations(monkeypatch):
    # the grid's nodes, read from the shape of the head terms' j0 calls
    model = _synthetic_model(2, {"psi_1": 2.0, "psi_2": 4.0})
    nodes = []

    j0 = density.j0

    def counted_j0(x):
        nodes.append(x.shape[-1])
        return j0(x)

    monkeypatch.setattr(density, "j0", counted_j0)
    est = density_fourier(model)
    assert est.samples_or_nodes == sum(nodes) > 0
    assert est.samples_or_nodes % 24 == 0  # whole panels


def test_log_j0_series_matches_scipy_below_one():
    assert list(density.LOG_J0[:4]) == [-1.0, -0.25, -1.0 / 9.0, -11.0 / 192.0]
    x = np.linspace(1e-3, 1.0, 4001)[:-1]
    series = np.polynomial.polynomial.polyval(
        (x / 2.0) ** 2, np.concatenate(([0.0], density.LOG_J0)))
    assert np.max(np.abs(series - np.log(special.j0(x)))) <= 1e-15


def test_bessel_kernels_match_scipy_bit_for_bit():
    # density's j0 and i0e perform Cephes' operations in Cephes' order, so
    # they are scipy.special's values to the bit, on both sides of every
    # branch edge, and every report of the Fourier engine with them
    grid = np.geomspace(5e-324, 1e7, 1_000_001)
    edges = np.array([0.0, 1e-5, 5.0, 8.0])
    x = np.concatenate((grid, edges, np.nextafter(edges, -np.inf),
                        np.nextafter(edges, np.inf), -grid[::1000]))
    # in 3-D, in C order and transposed, the branches interleaved
    rng = np.random.default_rng(3)
    cube = rng.permutation(grid[:999_900]).reshape(99, 101, 100)
    for ours, theirs in ((density.j0, special.j0), (density._i0e, special.i0e)):
        for values in (x, cube, cube.transpose(2, 0, 1)):
            got = ours(values)
            assert got.shape == values.shape
            assert np.array_equal(got.view(np.int64), theirs(values).view(np.int64))


def test_j0_bounds_behind_the_fourier_budget():
    # j_{0,1} = 2.40482555769577276862..., rounded down keeps every bound safe
    assert density.J0_ZERO == special.jn_zeros(0, 1)[0]
    assert density.j0(density.J0_ZERO) > 0.0
    # the tail's majorants: Gaussian up to the first zero, envelope beyond
    x = np.linspace(0.0, density.J0_ZERO, 200_001)
    assert np.all(np.abs(density.j0(x)) <= np.exp(-x * x / 4.0) * (1.0 + 2.0**-51))
    x = np.linspace(1e-3, 200.0, 200_001)
    assert np.all(np.abs(density.j0(x)) <= np.sqrt(2.0 / (np.pi * x)) * (1.0 + 2.0**-51))
    # the quadrature's: |J0(x + iy)| <= I0(y) on the Bernstein ellipses
    rng = np.random.default_rng(7)
    z = rng.uniform(-60.0, 60.0, 20_000) + 1j * rng.uniform(-12.0, 12.0, 20_000)
    assert np.all(np.abs(special.jv(0, z)) <= special.i0(z.imag) * (1.0 + 1e-12))


def test_rounding_assumptions_behind_the_fourier_budget():
    # the Gauss-Legendre nodes and weights correctly rounded, and j0, as
    # accurate as the rounding bound of density._grid_integral takes them
    mp = pytest.importorskip("mpmath")
    ulp = density._U
    n = density._GL_NODES
    assert density._GL_X.size == density._GL_W.size == n
    assert np.all(np.diff(density._GL_X) > 0)
    with mp.workdps(50):
        roots = [mp.findroot(lambda z: mp.legendre(n, z), mp.mpf(float(x)))
                 for x in density._GL_X]
        # 24 distinct roots of P_24, so all of them
        assert all(b - a > mp.mpf(10) ** -3 for a, b in zip(roots, roots[1:]))
        for x, w, root in zip(density._GL_X, density._GL_W, roots):
            exact = 2 * (1 - root**2) / (n * mp.legendre(n - 1, root)) ** 2
            # nearest floats: within half a spacing of the exact values
            for got, want in ((x, root), (w, exact)):
                half = mp.mpf(float(np.spacing(abs(got)))) / 2
                assert abs(mp.mpf(float(got)) - want) <= half, (got, want)
        rng = np.random.default_rng(11)
        for x in np.concatenate([rng.uniform(0.0, 30.0, 300),
                                 rng.uniform(30.0, 5000.0, 300)]):
            err = abs(mp.besselj(0, mp.mpf(float(x))) - mp.mpf(float(density.j0(x))))
            assert err <= (4.0 + math.sqrt(x)) * ulp, x


def test_fourier_grid_matches_an_mpmath_evaluation():
    # the grid, rounding included, against the same Gil-Pelaez integral
    # over [0, t_max] in 25-digit arithmetic with exact Gauss-Legendre
    # nodes, twice as many panels and twice the nodes per panel
    mp = pytest.importorskip("mpmath")
    from mpmath.calculus.quadrature import GaussLegendre

    model = _synthetic_model(3, {"chi1": 2.0, "psi_1": 4.0}, t_max=24.0)
    assert model.terms.size >= 100
    est = density_fourier(model)
    t_max = engine_t_max(model)[0]
    panels = 2 * est.samples_or_nodes // 24
    with mp.workdps(25):
        rule = GaussLegendre(mp.mp).calc_nodes(5, mp.mp.prec)  # 48 nodes
        amplitudes = [mp.mpf(float(r)) for r in model.terms]
        half = mp.mpf(t_max) / (2 * panels)
        total = mp.mpf(0)
        for p in range(panels):
            for x, w in rule:
                t = (2 * p + 1 + x) * half
                total += (w * half * mp.sin(model.mean * t) / t
                          * mp.fprod(mp.besselj(0, r * t) for r in amplitudes))
        exact = float(0.5 + total / mp.pi)
    assert abs(est.value - exact) <= est.error_bound


def test_fourier_t_max_may_fall_below_one_and_its_tail_is_honest():
    model = _synthetic_model(3, {"chi1": 2.0, "psi_1": 4.0, "psi_2": 4.0},
                             t_max=200.0)
    t_max, tail = engine_t_max(model)
    assert t_max < 1.0 and tail <= 1e-13
    est = density_fourier(model)
    longer = density_fourier_quadpack(model, t_max=4.0 * t_max)
    assert abs(est.value - longer.value) <= est.error_bound + longer.error_bound


def test_fourier_panel_cap_reports_the_larger_bound(monkeypatch):
    model = _synthetic_model(40, {"chi1": 2.0, "psi_1": 4.0})
    full = density_fourier(model)
    assert full.samples_or_nodes > 24 and full.error_bound <= 1e-11
    monkeypatch.setattr(density, "_PANEL_CAP", 1)
    capped = density_fourier(model)
    assert capped.samples_or_nodes == 24
    assert capped.error_bound > full.error_bound
    assert abs(capped.value - full.value) <= capped.error_bound + full.error_bound


def test_fourier_few_terms_trade_tail_against_panels():
    # three cosines never meet the tail target with a panel count the cap
    # allows, so t_max minimises the sum of the two bounds instead
    terms = np.array([1.7, 1.1, 0.6])
    model = term_model(1, terms)
    est = density_fourier(model)
    assert est.error_bound <= 1e-6
    mc = density_montecarlo(model, 200_000, seed=4)
    assert abs(est.value - mc.value) <= 3.0 * mc.error_bound + est.error_bound


# -- the batched engine: each estimate is the one its model gets alone ---------


def _bits(est: DensityEstimate) -> tuple:
    return est.value.hex(), est.error_bound.hex(), est.samples_or_nodes


def _family(seed: int, count: int):
    """A spectral table of four sampled characters and three components of
    one base 1 each, and count rows of scales over the characters, then a
    row of three terms over the one-base components."""
    rng = np.random.default_rng(seed)
    sets = {k: sample_zero_set(ZeroCountModel(float(rng.uniform(5.0, 25.0)), 2),
                               float(rng.uniform(20.0, 80.0)), seed + k, f"psi_{k}")
            for k in range(4)}
    sampled = SpectralTable.of(sets)
    table = spectral_table([column_moduli(sampled, k) for k in range(4)] + [np.ones(1)] * 3)
    rows = np.zeros((count + 1, 7))
    for i in range(count):
        weights = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], size=4)
        weights[rng.integers(4)] = 2.0
        rows[i, :4] = 2.0 * weights
    # too few terms to meet the tail target below the panel cap
    rows[count, 4:] = [1.7, 1.1, 0.6]
    return table, rows


def test_fourier_batch_takes_rows_without_head_terms():
    # 400 amplitudes of 0.02 all have r t_max < 1, so that row's head is
    # empty; batched with a row that has head terms, every estimate is
    # still the one its model gets alone
    table = spectral_table([np.full(400, 100.0), np.array([2.0, 2.5, 3.3, 5.0])])
    rows = np.array([[2.0, 0.0], [2.0, 1.0]])
    t_max = [engine_t_max(RaceModel(1, table, row))[0] for row in rows]
    assert 0.02 * t_max[0] < 1.0 <= 0.5 * t_max[1]
    models = [(0, 1), (1, 1), (0, -3), (1, 2)]
    batch = density.density_fourier_batch
    alone = [_bits(batch(table, rows, [model])[0]) for model in models]
    assert [_bits(est) for est in batch(table, rows, models)] == alone


def test_fourier_batch_inverts_each_row_and_abs_mean_once(monkeypatch):
    # repeated rows, repeated |mean|, mirrored means and means of 0: one
    # inversion per distinct (row, |mean|) of nonzero mean, in key order;
    # a mirror is the complement bit for bit, a mean of 0 exactly 1/2, and
    # every estimate is the one-row batch of its race (row 2 equals row 0
    # but has its own index, so it has its own inversions)
    table = spectral_table([np.full(400, 100.0), np.array([2.0, 2.5, 3.3, 5.0]),
                            np.array([1.5, 4.0, 7.5, 9.0])])
    rows = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 4.0], [2.0, 1.0, 0.0]])
    races = [(0, 3), (1, 2), (0, -3), (1, 0), (0, 3), (2, 3), (1, -5), (1, 2),
             (0, 0), (1, 5), (0, 1), (2, -3)]
    inverted = []
    real = density._invert

    def recorded(engine_rows, m):
        for r, mean in enumerate(m.tolist()):
            at = engine_rows.owner == r
            inverted.append((engine_rows.comp[at].tolist(),
                             engine_rows.scale[at].tolist(), mean))
        return real(engine_rows, m)

    monkeypatch.setattr(density, "_invert", recorded)
    found = density.density_fourier_batch(table, rows, races)
    assert len(found) == len(races)
    assert inverted == [(np.flatnonzero(rows[i]).tolist(), rows[i][rows[i] != 0].tolist(),
                         float(m)) for i, m in sorted({(i, abs(m)) for i, m in races if m})]
    inverted.clear()
    alone = [density.density_fourier_batch(table, rows[i][None, :], [(0, m)])[0]
             for i, m in races]
    assert [_bits(est) for est in found] == [_bits(est) for est in alone]
    by_race = dict(zip(races, found))
    for (i, m), est in by_race.items():
        if m == 0:
            assert est == DensityEstimate(0.5, 0.0, 0)
        elif m < 0:
            assert _bits(est) == _bits(complement(by_race[i, -m]))
            assert est.value.hex() == (1.0 - by_race[i, -m].value).hex()
    assert _bits(by_race[2, 3]) == _bits(by_race[0, 3])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), count=st.integers(2, 5), data=st.data())
def test_fourier_batch_estimates_do_not_depend_on_the_batch(seed, count, data):
    # each estimate bit for bit as its model gets it alone: in the whole
    # batch, in the batch shuffled, and in the batch split in two; over
    # means of 0 and negative means, rows of one or two panels (a mean of 1
    # on every row, since the drawn means may all need more) and a row of
    # three terms at the panel cap
    table, rows = _family(seed, count)
    means = data.draw(st.lists(st.integers(-40, 40), min_size=count, max_size=count))
    models = ([(i, mean) for i, mean in enumerate(means)] + [(i, 1) for i in range(count)]
              + [(0, 0), (1, -7), (count, 1), (count, -2)])
    order = data.draw(st.permutations(range(len(models))))
    half = data.draw(st.integers(1, len(models) - 1))
    batch = density.density_fourier_batch
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the three-term row warns
        alone = [_bits(batch(table, rows, [model])[0]) for model in models]
        full = [_bits(est) for est in batch(table, rows, models)]
        shuffled = batch(table, rows, [models[k] for k in order])
        split = batch(table, rows, models[:half]) + batch(table, rows, models[half:])
        single = _bits(density_fourier(RaceModel(models[1][1], table, rows[1])))
    assert full == alone
    assert [alone[k] for k in order] == [_bits(est) for est in shuffled]
    assert [_bits(est) for est in split] == alone
    assert single == alone[1]
    nodes = {bits[2] for bits in alone}
    assert 0 in nodes and density._PANEL_CAP * density._GL_NODES in nodes
    assert nodes & {density._GL_NODES, 2 * density._GL_NODES}


def test_fourier_results_do_not_depend_on_the_block_size(monkeypatch):
    # a tower call's batch and a model at the panel cap, with every working
    # array held a few values at a time and one model a block
    few = term_model(1, np.array([1.7, 1.1, 0.6]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        capped = _bits(density_fourier(few))
        report = tower_experiment(QUATERNION, 6, -1, seed=1)
        monkeypatch.setattr(density, "_BLOCK", 64)
        monkeypatch.setattr(density, "_ROWS_BLOCK", 1)
        assert _bits(density_fourier(few)) == capped
        assert tower_experiment(QUATERNION, 6, -1, seed=1) == report


# -- the spectral table against the sorted term list it replaces ---------------


def _row_and_model(family, n, pick, seed):
    """A tower pair's model of mean 1 on its own table, and its assembled
    model, over the zero sets the tower samples."""
    w_axiom = -1 if family == QUATERNION else +1
    scen = scenario_generator(family, n, w_axiom, seed)
    rows = level_races(scen, n).weights()
    row = rows[pick % len(rows)]
    needed = np.flatnonzero(row).tolist()
    zeros = provision_zero_sets(scen, needed, seed)
    one = one_row_model(1, row[needed], [column_moduli(zeros, c) for c in needed])
    return one, assemble_race_model(1, row, zeros)


def _long_power_sums(r, order):
    """sum r^(2k), k = 1..order, in long double: within (n + 2k) 2^-64
    relative of the exact sums of the float terms."""
    r2 = np.asarray(r, dtype=np.longdouble) ** 2
    out, power = [], np.ones_like(r2)
    for _ in range(order):
        power = power * r2
        out.append(np.sum(power))
    return np.array(out)


def _assert_same_classes(top, r, u):
    """The top terms are the largest terms of r, and every term they leave
    out lies below each threshold the tail bound compares with at u."""
    top = np.sort(top)
    rest = r.size - top.size
    assert np.array_equal(top, r[rest:])
    for x, side in ((density._H_KNEE / u, "right"), (density.J0_ZERO / u, "left")):
        assert np.array_equal(np.searchsorted(r, x, side=side),
                              rest + np.searchsorted(top, x, side=side))


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from([DIHEDRAL, QUATERNION]), n=st.integers(3, 8),
       pick=st.integers(0, 10**6), seed=st.integers(0, 3))
def test_spectral_row_matches_its_sorted_terms(family, n, pick, seed):
    one, model = _row_and_model(family, n, pick, seed)
    r = np.sort(model.terms)
    unit = density._U
    rows = engine_rows(one)
    depth = int(rows.depth[0])
    # the variance within (7 + depth) ulps of the terms' own
    want = 0.5 * _long_power_sums(r, 1)[0]
    assert abs(one.variance - want) <= (7 + depth) * unit * want * (1 + 1e-6)
    assert rows.count[0] == r.size
    # the tail bound classifies every term as the sorted list does, at every
    # grid point of the whole grid and of the stretch past t_max
    u = density._GRID / math.sqrt(rows.sq[0])
    _assert_same_classes(engine_top(one, u[-1]), r, u)
    t_max, _ = engine_t_max(one)
    u = t_max * density._GRID[:density._TAIL_AHEAD + 1]
    _assert_same_classes(engine_top(one, u[-1]), r, u)
    # the head is the sorted list's, and the bulk's power sums lie within
    # (7k + depth) ulps of the sums of its float terms
    head, _, largest, split = density._head_and_bulk(rows, np.array([t_max]))
    largest = largest[0]
    power_sums = density._bulk_power_sums(rows, split, np.array([density._SERIES_MAX]))[0]
    old_head, old_sums = sorted_bulk_power_sums(r, t_max, density._SERIES_MAX)
    assert np.array_equal(head, old_head)
    bulk = r[:r.size - head.size]
    assert largest == (bulk[-1] if bulk.size else 0.0)
    want = _long_power_sums(bulk, density._SERIES_MAX)
    order = np.arange(1, density._SERIES_MAX + 1)
    slack = (bulk.size + 2 * order) * 2.0 ** -64  # the long double sums' own
    normal = want > 1e-290  # away from float64 underflow
    want = want.astype(float)
    err = np.abs(power_sums - want)
    assert np.all((err <= ((7 * order + depth) * unit + slack) * want * (1 + 1e-6))[normal])
    # and within both bounds of the loop over the sorted bulk, whose r^(2k)
    # carry 2k - 1 roundings and whose sums bulk - 1 more
    err = np.abs(power_sums - old_sums)
    bound = (7 * order + depth + bulk.size + 2 * order) * unit * want * (1 + 1e-6)
    assert np.all((err <= bound)[normal])


def test_table_power_sums_do_not_depend_on_what_was_asked_before():
    # the memo is summed again for more orders, then for a wider span, and
    # read as it is for fewer orders and a narrower span; the sums equal a
    # fresh table's bit for bit, and those of each component's suffix lie
    # within (7k + depth) ulps
    rng = np.random.default_rng(5)
    bases = np.sort(rng.uniform(0.3, 60.0, (3, 50)), axis=1)
    bases[2, 30:] = np.inf  # a shorter component
    moduli = [row[np.isfinite(row)] for row in bases]
    comps, starts = np.array([0, 1, 2]), np.array([40, 0, 30])
    most, span = density._SERIES_MAX, int(starts.max()) + 1
    grown = spectral_table(moduli)
    memos = [grown.power(order, width) for order, width in (
        (3, 4), (1, 2), (most, 4), (2, span), (most, span))]
    assert [m.shape[::2] for m in memos] == [(3, 4), (3, 4), (most, 4), (most, span),
                                           (most, span)]
    assert memos[1] is memos[0] and memos[4] is memos[3]
    sums = memos[-1][:, comps, starts].T
    fresh = spectral_table(moduli).power(most, span)
    assert np.array_equal(fresh[:, comps, starts].T, sums)
    assert np.array_equal(fresh[:, :, :4], memos[2])
    order = np.arange(1, density._SERIES_MAX + 1)
    for c, j in zip(comps, starts):
        tail = bases[c, j:][np.isfinite(bases[c, j:])]
        want = _long_power_sums(1.0 / tail, density._SERIES_MAX).astype(float)
        bound = ((7 * order + tail.size) * density._U + 2.0 ** -60) * want
        assert np.all(np.abs(sums[c] - want) <= bound)
    assert np.array_equal(grown.squares[comps, starts], sums[:, 0])


def _square_sum_table(case: str):
    """A spectral table and its components' moduli: five components of
    assorted sizes, one empty; zero sets by column, one of them empty; or
    one component of 10^5 bases between two short ones."""
    rng = np.random.default_rng(6)
    if case == "sets":
        sets = {c: ZeroSet(f"psi_{c - 3}", 90.0, np.sort(rng.uniform(0.1, 90.0, size)),
                           source="test") for c, size in ((7, 12), (4, 0), (5, 30))}
        return SpectralTable.of(sets), [np.sqrt(0.25 + g * g) for g in
                                        (sets[4].ordinates, sets[5].ordinates, sets[7].ordinates)]
    sizes = (1, 7, 300, 0, 41) if case == "assorted" else (3, 100_000, 5)
    moduli = [np.sort(rng.uniform(0.5, 80.0, size)) for size in sizes]
    return spectral_table(moduli), moduli


def test_table_square_sums_are_its_suffix_sums_from_the_start():
    # the variance's sums, taken without the suffix matrices, are their
    # first column bit for bit, and the inverse sums run the same way
    for case in ("assorted", "sets", "long"):
        table, moduli = _square_sum_table(case)
        assert np.array_equal(table.sizes, [m.size for m in moduli])
        assert np.array_equal(table.moduli, np.concatenate(moduli))
        sums = table.square_sums
        assert not {"bases", "squares", "_power"} & vars(table).keys()
        assert table.bases.shape == (len(moduli), max(m.size for m in moduli) + 1)
        assert np.array_equal(sums, table.squares[:, 0])
        for c, m in enumerate(moduli):
            assert np.array_equal(table.bases[c, :m.size], m)
            assert np.all(table.bases[c, m.size:] == math.inf)
            want = np.cumsum((1.0 / m)[::-1])[-1] if m.size else 0.0
            assert table.inverse_sums[c] == want


@pytest.mark.parametrize("block", [density._BLOCK, 4])
def test_ascending_sorts_each_run_as_numpy_sorts_it_alone(monkeypatch, block):
    # runs of these lengths padded to rows of one matrix and sorted along
    # them: empty runs, duplicates, runs wider than a block (one run per
    # block) and a single run; and each run summed as numpy sums it alone
    monkeypatch.setattr(density, "_BLOCK", block)
    rng = np.random.default_rng(8)
    for lengths in ([0, 3, 0, 0, 5, 1, 0], [9], [0], [], [2, 7, 7, 1, 12, 0, 3],
                    [130, 9, 130, 0, 9]):
        lengths = np.array(lengths, dtype=np.intp)
        values = rng.choice(np.geomspace(1e-3, 40.0, 6), int(lengths.sum()))  # many equal
        got = density._ascending(values, lengths)
        ends = density._starts(lengths)
        want = [np.sort(values[a:b]) for a, b in zip(ends[:-1], ends[1:])]
        assert got.view(np.int64).tolist() == np.concatenate(
            [np.empty(0), *want]).view(np.int64).tolist()
        sums = [np.sum(values[a:b]) for a, b in zip(ends[:-1], ends[1:])]
        assert density._row_sums(values, ends[:-1], lengths).tolist() == sums


def test_tail_bounds_of_a_padded_block_are_the_sorted_terms_bounds():
    # rows of 0 to 3 terms, of many equal amplitudes and of 40, padded
    # with inf to the block's widest row: each point's bound is the sorted
    # list's over the same splits (the point and _TAIL_AHEAD more), to the
    # bit, whatever the padding
    rng = np.random.default_rng(12)
    rows = [[], [0.7], [0.2, 0.2], [0.05, 0.3, 1.1], [0.01] * 6 + [0.1] * 6 + [2.0],
            np.sort(rng.uniform(0.001, 2.0, 40)).tolist()]
    n = np.array([len(r) for r in rows], dtype=np.intp)
    count, ahead = 4, density._TAIL_AHEAD
    u = density._GRID[:count + ahead] * np.geomspace(0.5, 40.0, len(rows))[:, None]
    for width in (n.max(), n.max() + 3):
        block = np.full((len(rows), width), math.inf)
        for i, r in enumerate(rows):
            block[i, :len(r)] = r
        got = density._tail_bounds(block, n, np.zeros(len(rows)), u, count)
        for i, r in enumerate(rows):
            want = [sorted_tail_bounds(np.array(r, dtype=float), u[i, j:j + ahead + 1])[0]
                    for j in range(count)]
            assert got[i].tolist() == want, i


@pytest.mark.parametrize("block", [density._BLOCK, 40, 1])
def test_stretch_bounds_each_row_as_it_bounds_it_alone(monkeypatch, block):
    # a batch of rows with 0 to 4 and 6 top terms (100 equal amplitudes,
    # none of them top at these points), equal amplitudes across and within
    # components, and long rows, a run at a time within _BLOCK (one row per
    # run at 1): each row's bounds are its own alone, bit for bit, and the
    # sorted list's within the summation order of the terms left out
    rng = np.random.default_rng(13)
    moduli = [np.array([0.5]), np.array([2.0, 2.0, 3.0]), np.array([2.0, 50.0, 60.0]),
              np.sort(rng.uniform(1.0, 80.0, 60)), np.array([400.0, 500.0]), np.full(100, 7.0)]
    table = spectral_table(moduli)
    rows = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0], [0, 0.5, 0.5, 0, 0, 0],
                     [0, 0, 0, 0, 1.0, 0], [0.2, 0, 0, 3.0, 0, 0], [0, 2.0, 0, 1.0, 0.5, 0],
                     [0, 0, 0, 0, 0, 1.0]])
    engine = density._Rows.of(table, rows)
    lo = np.array([0, 2, 5, 9, 1, 3, 0])
    count, span = density._TAIL_WINDOW, density._TAIL_WINDOW + density._TAIL_AHEAD
    monkeypatch.setattr(density, "_BLOCK", block)
    u, got = density._stretch(engine, lo, count, span)
    tops = density._top(engine, density._GRID[lo + span - 1] / np.sqrt(engine.sq))
    assert np.diff(density._starts(tops)[engine.first]).tolist() == [1, 3, 4, 2, 4, 6, 0]
    for i in range(rows.shape[0]):
        alone, bounds = density._stretch(engine.take(np.array([i])), lo[i:i + 1], count, span)
        assert np.array_equal(alone[0], u[i]) and got[i].tolist() == bounds[0].tolist()
        r = np.sort(np.concatenate([s / m for s, m in zip(rows[i], moduli) if s]))
        full = density._GRID[lo[i]:lo[i] + span] / math.sqrt(engine.sq[i])
        want = [sorted_tail_bounds(r, full[j:j + density._TAIL_AHEAD + 1])[0]
                for j in range(count)]
        assert np.allclose(got[i], want, rtol=1e-12, atol=0.0)


@st.composite
def _panel_rows(draw):
    """A batch of _panel_count's inputs: rows without head terms, of one
    head term, of a tower's few dozen, and mod4-like rows of a few terms
    at a large t_max that run to _PANEL_CAP, against means from 1 to 2^10."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["none", "one", "tower", "few"]),
                          min_size=1, max_size=40))
    heads, sizes, t_max, bulk_sq = [], [], [], []
    for kind in kinds:
        size = {"none": 0, "one": 1, "tower": int(rng.integers(2, 60)),
                "few": int(rng.integers(1, 5))}[kind]
        t = float(rng.uniform(100.0, 4000.0) if kind == "few" else rng.uniform(0.5, 60.0))
        heads.append(np.sort(np.exp(rng.uniform(0.0, 3.0, size)) / t))  # r t >= 1
        sizes.append(size)
        t_max.append(t)
        bulk_sq.append(0.0 if kind == "few" else float(rng.uniform(0.0, 2.0)))
    m = np.floor(2.0 ** rng.uniform(0.0, 10.0, len(kinds)))
    m[rng.random(len(kinds)) < 0.2] = 1.0
    head = np.concatenate([np.empty(0), *heads])
    sizes = np.array(sizes, dtype=np.intp)
    return (m, np.array([math.log(x) for x in m.tolist()]), np.array(t_max), head, sizes,
            density._row_sums(head, density._starts(sizes), sizes), np.array(bulk_sq))


def _panel_bits(panels, log_err):
    return panels.tolist(), log_err.view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(args=_panel_rows(), block=st.sampled_from([density._BLOCK, 512, 64]))
def test_panel_search_is_the_whole_grid_bit_for_bit(args, block):
    # the Fibonacci search over rho, whole or a small block at a time,
    # gives the grid's panel counts and log bounds to the bit
    m, log_m, t_max, head, sizes, head_sum, bulk_sq = args
    want = _panel_bits(*oracles.panel_count_grid(m, log_m, t_max, head, sizes, bulk_sq))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_BLOCK", block)
        assert _panel_bits(*density._panel_count(*args)) == want
    assert max(want[0]) <= density._PANEL_CAP


def test_panel_search_falls_back_to_the_bracket_on_near_ties(monkeypatch):
    # a delta so wide that every comparison is a near tie sends each row
    # to its whole bracket at the first step, one of a few units to it
    # midway; the result is the grid's either way, and the search without
    # ties takes fewer i0e values than either.  The last rows have their
    # least bound at the bracket's ends: at the largest rho for a small
    # t_max, at the smallest for few terms that run to the panel cap
    rng = np.random.default_rng(11)
    size = 40
    sizes = np.concatenate((rng.integers(20, 40, size), [1, 3, 1, 2])).astype(np.intp)
    t_max = np.concatenate((rng.uniform(2.0, 40.0, size), [0.05, 0.5, 4000.0, 400.0]))
    head = np.concatenate([np.sort(np.exp(rng.uniform(0.0, 2.0, k)) / t)
                           for k, t in zip(sizes.tolist(), t_max.tolist())])
    m = np.concatenate((np.floor(2.0 ** rng.uniform(0.0, 10.0, size)), [1.0, 1.0, 512.0, 1024.0]))
    log_m = np.log(m)
    args = (m, log_m, t_max, head, sizes, density._row_sums(head, density._starts(sizes), sizes),
            rng.uniform(0.0, 1.0, sizes.size))
    want = _panel_bits(*oracles.panel_count_grid(*args[:5], args[6]))
    values = []
    real_i0e = density._i0e

    def counted(x):
        values[-1] += x.size
        return real_i0e(x)

    monkeypatch.setattr(density, "_i0e", counted)
    real_slack = density._search_slack
    for slack in (real_slack, lambda *a: np.full(a[0].shape, math.inf),
                  lambda *a: np.full(a[0].shape, 2.0)):
        monkeypatch.setattr(density, "_search_slack", slack)
        values.append(0)
        assert _panel_bits(*density._panel_count(*args)) == want
    assert values[0] < min(values[1:])
    assert values[1] >= density._RHO.size * sizes.sum()


@pytest.mark.parametrize("weight_map,t_max,log_a,window", [
    ({"psi_1": 2.0, "psi_2": 2.0, "chi1": 1.0}, 64.0, 30.0, 0),  # first window
    ({"chi1": 2.0, "psi_1": 4.0, "psi_2": 4.0}, 200.0, 20.0, 1),  # the second
    ({"psi_1": 4.0, "chi1": 1.0}, 32.0, 10.0, 1),
    ({"psi_1": 4.0, "chi1": 1.0}, 8.0, 10.0, 2),  # past both: the whole grid
    ({"psi_1": 4.0, "chi1": 1.0}, 8.0, 2.0, 2),  # 5 terms
])
def test_windowed_tail_bound_is_a_bound_and_picks_the_full_grid_t_max(
        weight_map, t_max, log_a, window):
    model = _synthetic_model(3, weight_map, t_max=t_max, log_a=log_a)
    rows = engine_rows(model)
    r = np.sort(model.terms)
    u = density._GRID / math.sqrt(rows.sq[0])
    full = sorted_tail_bounds(r, u)
    grid, windowed = engine_grid(model)
    assert np.array_equal(grid, u)
    # a minimum over fewer splits; the sums run in another order, which
    # moves a bound by far less than 1e-9 relative
    assert np.all(windowed >= full * (1 - 1e-9))
    reach = 4.0 * (math.log(min(math.log(density._TAIL_STEP), 2.0 / r.size))
                   - math.log(2.0 * density._TAIL_TARGET))
    lo = math.ceil(4.0 * math.log2(reach)) - 1
    assert density._window_starts(rows.count)[0] == lo
    # the first point meeting the target, in the window the search finds it
    first = bound = None
    for k in range(2):
        start = lo + k * density._TAIL_WINDOW
        _, bounds = density._stretch(rows, np.array([start]), density._TAIL_WINDOW,
                                     density._TAIL_WINDOW + density._TAIL_AHEAD)
        met = np.flatnonzero(bounds[0] <= density._TAIL_TARGET)
        if met.size:
            first, bound = start + int(met[0]), float(bounds[0, met[0]])
            break
    if first is None:
        first = int(np.flatnonzero(windowed <= density._TAIL_TARGET)[0])
        bound = float(windowed[first])
    assert min((first - lo) // density._TAIL_WINDOW, 2) == window
    assert bound <= density._TAIL_TARGET
    for mean in (1, 3, 40):
        i, tail = oracles.sorted_t_max(r, float(mean), density._PANEL_CAP)
        chosen, bound = engine_t_max(model, mean)
        assert chosen == u[i] and bound >= tail * (1 - 1e-9)
