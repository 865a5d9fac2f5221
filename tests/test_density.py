"""Density estimators (Monte Carlo and Fourier inversion) and tail bounds."""
from __future__ import annotations

import math

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
    Z99,
    bound_report,
    clt_estimate,
    complement,
    density_fourier,
    density_montecarlo,
    lower_bound,
    q_factor,
    truncation_shift_bound,
    upper_bound,
)
from chebrace.arithmetic import scenario_generator
from chebrace.characters import character_ids
from chebrace.experiments import _SHARED_MC_SALT, provision_zero_sets
from chebrace.groups import DIHEDRAL, QUATERNION
from chebrace.races import RaceModel, RaceSpec, assemble_race_model, weights
from chebrace.zeros import ZeroCountModel, ZeroSet, sample_zero_set

import oracles
from oracles import (
    density_montecarlo_loop,
    one_row_spectrum,
    q_factor_extremes,
    shared_mc_loop,
    sorted_bulk_power_sums,
    sorted_tail_bounds,
)


def _term_spectrum(terms):
    """A bare term list as density_fourier takes it: one component of base
    1 per term."""
    return density.Spectrum(density.spectral_table(np.ones((terms.size, 1))), terms)


def _zs(cid, ordinates, t_max=None):
    t = t_max if t_max is not None else ordinates[-1]
    return ZeroSet(cid, t, tuple(ordinates), source="test")


def _synthetic_model(mean_value, weight_map, seed0=0, t_max=64.0, log_a=20.0):
    zero_sets = {
        cid: sample_zero_set(ZeroCountModel(log_a, 2), t_max, seed0 + k, cid)
        for k, cid in enumerate(sorted(weight_map))
    }
    return assemble_race_model(mean_value, weight_map, zero_sets)


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
    model = assemble_race_model(1, {"chi1": 1.0}, {"chi1": _zs("chi1", [math.sqrt(0.75)])})
    assert math.isclose(model.terms[0], 2.0, rel_tol=1e-12)
    with pytest.warns(UserWarning):
        est = density_fourier(model, t_max=2000.0)
    assert abs(est.value - 2.0 / 3.0) < 0.02
    # the declared budget is honest about the unbounded Bessel tail
    assert est.error_bound >= 1.0 / math.pi
    mc = density_montecarlo(model, 100000, seed=2)
    assert abs(mc.value - 2.0 / 3.0) <= max(3.0 * mc.error_bound, 1e-3)


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


def test_q_factor_regimes():
    # top level, equal weights: Q = C (b3/b4 + 1) = 2
    weights = {"psi_1": 4.0, "psi_3": 4.0}
    assert q_factor(weights, level=5, n=5, b1=0, b2=0) == 2.0
    assert q_factor_extremes(weights)[:2] == (4.0, 4.0)
    # proper level: the exponential of sqrt(M b1 b2 / (deg* b3)) wins here
    weights = {"psi_1": 4.0, "chi1": 2.0}
    q = q_factor(weights, level=3, n=5, b1=2, b2=2)
    assert q_factor_extremes(weights) == (4.0, 2.0, "psi_1", 2)
    assert math.isclose(q, math.exp(math.sqrt(0.5)), rel_tol=1e-12)
    assert q >= 1.0
    # ties on b3 resolve toward the larger degree: deg* = 2, not 1
    weights = {"chi1": 4.0, "psi_1": 4.0}
    assert q_factor_extremes(weights)[2:] == ("psi_1", 2)
    q = q_factor(weights, level=3, n=5, b1=2, b2=2)
    assert math.isclose(q, math.exp(math.sqrt(0.5)), rel_tol=1e-12)
    # a large weight ratio makes the ratio term dominate
    assert q_factor({"psi_1": 16.0, "chi1": 0.25}, level=3, n=5, b1=2, b2=2) == 64.0
    with pytest.raises(ValueError):
        q_factor({"chi1": 0.0}, level=3, n=5, b1=2, b2=2)


def test_bound_report_wiring():
    model = _synthetic_model(40, {"psi_1": 4.0}, log_a=8.0)
    assert model.bias_factor > 1.0
    q = q_factor({"psi_1": 4.0}, level=4, n=4, b1=0, b2=0)
    rep = bound_report(model, q)
    est, budget = clt_estimate(model.bias_factor, model.variance)
    assert rep.clt_estimate == est
    assert rep.clt_error_budget == budget
    assert rep.upper_one_minus_delta == upper_bound(model.bias_factor)
    assert rep.lower_one_minus_delta == lower_bound(model.bias_factor, q)
    assert rep.lower_one_minus_delta < rep.upper_one_minus_delta
    assert rep.q == q
    negative = _synthetic_model(-40, {"psi_1": 4.0}, log_a=8.0)
    rep = bound_report(negative, q)
    assert rep.upper_one_minus_delta is None
    assert rep.lower_one_minus_delta is None


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


def _amplitude_model(mean_value, n_terms, scale, seed):
    terms = np.sort(np.random.default_rng(seed).random(n_terms) * scale)[::-1] + 1e-3
    variance = 0.5 * float(np.sum(terms * terms))
    return RaceModel(mean_value, variance, mean_value / math.sqrt(variance),
                     terms)


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
    terms = _amplitude_model(0, n_terms, scale, seed=n_terms).terms
    level_means = [-4.0, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0]
    want_deltas, want_cis = shared_mc_loop(terms, level_means, samples, 11)
    for workers in (1, 2, 3):
        monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: workers)
        deltas, cis = density._mc_race(terms, level_means, max(samples // 2, 1),
                                       11, _SHARED_MC_SALT, 16)
        assert _hex(deltas) == _hex(want_deltas), workers
        assert _hex(cis) == _hex(want_cis), workers


def _row_sums(terms, u):
    """The exact S of each row of uniforms u, the tier-2 sum S' (float32
    products, float64 sum) and the tier-1 float32 dot S'_1, as the kernel
    forms them."""
    exact = np.sum(np.cos(2.0 * np.pi * u) * terms, axis=1)
    cos32 = np.cos((2.0 * np.pi * u).astype(np.float32))
    terms32 = terms.astype(np.float32)
    fast = np.sum(cos32 * terms32, axis=1, dtype=np.float64)
    dot = (cos32 @ terms32).astype(np.float64)
    return exact, fast, dot


def _chunk_rows(terms, salt, seed, rows):
    """Row sums, as ``_row_sums``, for the first rows of chunk 0."""
    rng = np.random.default_rng(np.random.SeedSequence([salt, seed, 0]))
    return _row_sums(terms, rng.random((rows, terms.size)))


def test_mc_kernel_recomputes_rows_the_float32_sum_cannot_decide(monkeypatch):
    # means at an exact tie m + S = 0 with a drawn row, and one ulp either
    # side of it; S' lies on the wrong side of the tie, so deciding with
    # S' alone would move the estimate
    terms = _amplitude_model(0, 300, 0.3, seed=300).terms
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
    model = RaceModel(-float(exact[k]), 1.0, 0.0, terms)
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
    u = rng.random((min(16, max(1, (1 << 17) // n)), n))
    exact, fast, dot = _row_sums(terms, u)
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
    terms = _amplitude_model(0, 3000, 0.1, seed=3000).terms
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
    model = RaceModel(-float(dot[0]), 1.0, 0.0, terms)
    want = density_montecarlo_loop(model, 10_000, seed=5)
    for workers in (1, 2, 3):
        monkeypatch.setattr(density, "_mc_workers", lambda n_chunks: workers)
        got = density_montecarlo(model, 10_000, seed=5)
        assert _hex([got.value, got.error_bound]) == \
            _hex([want.value, want.error_bound]), workers


def test_mc_results_do_not_depend_on_the_block_size(monkeypatch):
    model = _amplitude_model(1, 1000, 0.1, seed=1000)
    terms = _amplitude_model(0, 3000, 0.1, seed=3000).terms
    level_means = [-2.0, 0.0, 0.5, 1.0, 3.0]
    results = []
    for block in (1 << 10, 1 << 15, 1 << 17):
        monkeypatch.setattr(density, "_MC_BLOCK", block)
        est = density_montecarlo(model, 30_000, seed=4)
        deltas, cis = density._mc_race(terms, level_means, 2500, 4,
                                       _SHARED_MC_SALT, 16)
        results.append(_hex([est.value, est.error_bound, *deltas, *cis]))
    assert results[0] == results[1] == results[2]
    want = density_montecarlo_loop(model, 30_000, seed=4)
    assert results[0][:2] == _hex([want.value, want.error_bound])


def test_mc_kernel_decides_exact_zero_sums_at_mean_zero(monkeypatch):
    # half-turn angles and paired amplitudes make S exactly 0 on many rows;
    # at mean 0 those rows score 0, the others 1/2
    real_rng = np.random.default_rng

    class HalfTurns:
        def __init__(self, seed):
            self._rng = real_rng(seed)

        def random(self, size=None, out=None):
            u = self._rng.random(size, out=out)
            u[...] = 0.5 * (u >= 0.5)
            return u

    monkeypatch.setattr(np.random, "default_rng", HalfTurns)
    terms = np.repeat([0.75, 0.5, 0.375, 0.125], 2)
    model = RaceModel(0, 1.0, 0.0, terms)
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


def test_fourier_reports_integrand_evaluations(monkeypatch):
    # the grid's nodes, read from the shape of the head terms' j0 calls
    model = _synthetic_model(2, {"psi_1": 2.0, "psi_2": 4.0})
    nodes = []

    def counted_j0(x):
        nodes.append(x.shape[-1])
        return special.j0(x)

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


def test_j0_bounds_behind_the_fourier_budget():
    # j_{0,1} = 2.40482555769577276862..., rounded down keeps every bound safe
    assert density.J0_ZERO == special.jn_zeros(0, 1)[0]
    assert special.j0(density.J0_ZERO) > 0.0
    # the tail's majorants: Gaussian up to the first zero, envelope beyond
    x = np.linspace(0.0, density.J0_ZERO, 200_001)
    assert np.all(np.abs(special.j0(x)) <= np.exp(-x * x / 4.0) * (1.0 + 2.0**-51))
    x = np.linspace(1e-3, 200.0, 200_001)
    assert np.all(np.abs(special.j0(x)) <= np.sqrt(2.0 / (np.pi * x)) * (1.0 + 2.0**-51))
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
            err = abs(mp.besselj(0, mp.mpf(float(x))) - mp.mpf(float(special.j0(x))))
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
    t_max = density._t_max_and_tail(_term_spectrum(model.terms), None,
                                     model.mean, 2000)[0]
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
    t_max, tail, _ = density._t_max_and_tail(_term_spectrum(model.terms), None,
                                             model.mean, 2000)
    assert t_max < 1.0 and tail <= 1e-13
    est = density_fourier(model)
    longer = density_fourier(model, t_max=4.0 * t_max)
    assert longer.samples_or_nodes > est.samples_or_nodes
    assert abs(est.value - longer.value) <= est.error_bound + longer.error_bound


def test_fourier_panel_cap_reports_the_larger_bound():
    model = _synthetic_model(40, {"chi1": 2.0, "psi_1": 4.0})
    full = density_fourier(model)
    assert full.samples_or_nodes > 24 and full.error_bound <= 1e-11
    capped = density_fourier(model, nodes=1)
    assert capped.samples_or_nodes == 24
    assert capped.error_bound > full.error_bound
    assert abs(capped.value - full.value) <= capped.error_bound + full.error_bound


def test_fourier_few_terms_trade_tail_against_panels():
    # three cosines never meet the tail target with a panel count the cap
    # allows, so t_max minimises the sum of the two bounds instead
    terms = np.array([1.7, 1.1, 0.6])
    model = RaceModel(1, 0.5 * float(terms @ terms), 0.0, terms)
    est = density_fourier(model)
    assert est.error_bound <= 1e-6
    mc = density_montecarlo(model, 200_000, seed=4)
    assert abs(est.value - mc.value) <= 3.0 * mc.error_bound + est.error_bound


# -- the spectral table against the sorted term list it replaces ---------------


def _row_and_model(family, n, pick, seed):
    """A tower pair's spectral row on its own table, and its assembled
    model, over the zero sets the tower samples."""
    w_axiom = -1 if family == QUATERNION else +1
    scen = scenario_generator(family, n, w_axiom, seed)
    labels = scen.group.class_labels()
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    w_map = weights(RaceSpec(scen, n, *pairs[pick % len(pairs)]))
    needed = [cid for cid in character_ids(scen.group) if w_map[cid] > 0]
    sets = provision_zero_sets(scen, needed, seed)
    spectrum = one_row_spectrum([w_map[cid] for cid in needed],
                                [sets[cid].moduli for cid in needed])
    return spectrum, assemble_race_model(1, w_map, sets)


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
    spectrum, model = _row_and_model(family, n, pick, seed)
    r = np.sort(model.terms)
    unit = density._U
    depth = spectrum._depth
    # the variance within (7 + depth) ulps of the terms' own
    want = 0.5 * _long_power_sums(r, 1)[0]
    assert abs(spectrum.variance - want) <= (7 + depth) * unit * want * (1 + 1e-6)
    assert spectrum._count == r.size
    # the tail bound classifies every term as the sorted list does, at every
    # grid point of the whole grid and of the stretch past t_max
    u, _, (top, _) = spectrum._grid
    _assert_same_classes(top, r, u)
    t_max, _, (top, starts) = density._t_max_and_tail(spectrum, None, 1.0, 2000)
    _assert_same_classes(top, r, t_max * density._GRID[:density._TAIL_AHEAD + 1])
    # the head is the sorted list's, and the bulk's power sums lie within
    # (7k + depth) ulps of the sums of its float terms
    head, largest, split = density._head_and_bulk(spectrum, t_max, (top, starts))
    power_sums = density._bulk_power_sums(spectrum, split, density._SERIES_MAX)
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
    # heads past the first span of 16 bases make the table sum again over
    # a wider span; the sums equal a fresh table's bit for bit, and those
    # of each component's suffix within (7k + depth) ulps
    rng = np.random.default_rng(5)
    bases = np.sort(rng.uniform(0.3, 60.0, (3, 50)), axis=1)
    bases[2, 30:] = np.inf  # a shorter component
    comps, starts = np.array([0, 1, 2]), np.array([40, 0, 30])
    grown = density.spectral_table(bases)
    grown.power(3, comps, np.array([1, 2, 3]))
    sums = grown.power(density._SERIES_MAX, comps, starts)
    fresh = density.spectral_table(bases).power(density._SERIES_MAX, comps, starts)
    assert np.array_equal(sums, fresh)
    order = np.arange(1, density._SERIES_MAX + 1)
    for c, j in zip(comps, starts):
        tail = bases[c, j:][np.isfinite(bases[c, j:])]
        want = _long_power_sums(1.0 / tail, density._SERIES_MAX).astype(float)
        bound = ((7 * order + tail.size) * density._U + 2.0 ** -60) * want
        assert np.all(np.abs(sums[c] - want) <= bound)
    assert np.array_equal(grown.squares[comps, starts], sums[:, 0])


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
    spectrum = _term_spectrum(model.terms)
    r = np.sort(model.terms)
    u = density._GRID / math.sqrt(spectrum._sq)
    full = sorted_tail_bounds(r, u)
    _, windowed, _ = spectrum._grid
    # a minimum over fewer splits; the sums run in another order, which
    # moves a bound by far less than 1e-9 relative
    assert np.all(windowed >= full * (1 - 1e-9))
    first = int(np.flatnonzero(u == spectrum._first[0])[0])
    reach = 4.0 * (math.log(min(math.log(density._TAIL_STEP), 2.0 / r.size))
                   - math.log(2.0 * density._TAIL_TARGET))
    lo = math.ceil(4.0 * math.log2(reach)) - 1
    assert min((first - lo) // density._TAIL_WINDOW, 2) == window
    assert spectrum._first[1] <= density._TAIL_TARGET
    for mean in (1, 3, 40):
        i, tail = oracles.sorted_t_max(r, float(mean), 2000)
        chosen, bound, _ = density._t_max_and_tail(spectrum, None, float(mean), 2000)
        assert chosen == u[i] and bound >= tail * (1 - 1e-9)
