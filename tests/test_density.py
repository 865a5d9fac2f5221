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
    FOURIER,
    MONTECARLO,
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
from chebrace.experiments import _SHARED_MC_SALT
from chebrace.races import RaceModel, assemble_race_model
from chebrace.zeros import ZeroCountModel, ZeroSet, sample_zero_set

from oracles import density_montecarlo_loop, shared_mc_loop


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
    assert f.method == FOURIER
    mc = density_montecarlo(model, 10000, seed=3)
    assert mc.value == 0.5
    assert mc.error_bound == 0.0  # antithetic pairs cancel exactly at mean 0
    assert mc.method == MONTECARLO
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
    qf = q_factor({"psi_1": 4.0, "psi_3": 4.0}, level=5, n=5, b1=0, b2=0)
    assert qf.q == 2.0
    assert qf.b3 == qf.b4 == 4.0
    # proper level: the exponential of sqrt(M b1 b2 / (deg* b3)) wins here
    qf = q_factor({"psi_1": 4.0, "chi1": 2.0}, level=3, n=5, b1=2, b2=2)
    assert qf.lambda_star == "psi_1"
    assert qf.lambda_star_degree == 2
    assert math.isclose(qf.q, math.exp(math.sqrt(0.5)), rel_tol=1e-12)
    assert qf.q >= 1.0
    # ties on b3 resolve toward the larger degree
    qf = q_factor({"chi1": 4.0, "psi_1": 4.0}, level=3, n=5, b1=2, b2=2)
    assert qf.lambda_star == "psi_1"
    # a large weight ratio makes the ratio term dominate
    qf = q_factor({"psi_1": 16.0, "chi1": 0.25}, level=3, n=5, b1=2, b2=2)
    assert qf.q == 64.0
    with pytest.raises(ValueError):
        q_factor({"chi1": 0.0}, level=3, n=5, b1=2, b2=2)


def test_bound_report_wiring():
    model = _synthetic_model(40, {"psi_1": 4.0}, log_a=8.0)
    assert model.bias_factor > 1.0
    qf = q_factor(model.per_character_weights, level=4, n=4, b1=0, b2=0)
    rep = bound_report(model, qf)
    est, budget = clt_estimate(model.bias_factor, model.variance)
    assert rep.clt_estimate == est
    assert rep.clt_error_budget == budget
    assert rep.upper_one_minus_delta == upper_bound(model.bias_factor)
    assert rep.lower_one_minus_delta == lower_bound(model.bias_factor, qf.q)
    assert rep.lower_one_minus_delta < rep.upper_one_minus_delta
    assert rep.q == qf.q
    negative = _synthetic_model(-40, {"psi_1": 4.0}, log_a=8.0)
    rep = bound_report(negative, qf)
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
            DensityEstimate(value, FOURIER, error_bound, 10)
    est = DensityEstimate(0.25, MONTECARLO, 0.01, 10000)
    assert est.value == 0.25
    assert Z99 > 2.5


def _amplitude_model(mean_value, n_terms, scale, seed):
    terms = np.sort(np.random.default_rng(seed).random(n_terms) * scale)[::-1] + 1e-3
    variance = 0.5 * float(np.sum(terms * terms))
    return RaceModel(mean_value, variance, mean_value / math.sqrt(variance),
                     terms, {})


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
    model = RaceModel(-float(exact[k]), 1.0, 0.0, terms, {})
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
    model = RaceModel(-float(dot[0]), 1.0, 0.0, terms, {})
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
    model = RaceModel(0, 1.0, 0.0, terms, {})
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
    # leggauss's nodes and weights, and j0, as accurate as the rounding
    # bound of density._grid_integral takes them to be
    mp = pytest.importorskip("mpmath")
    ulp = density._U
    n = density._GL_NODES
    with mp.workdps(40):
        for x, w in zip(density._GL_X, density._GL_W):
            root = mp.findroot(lambda z: mp.legendre(n, z), mp.mpf(float(x)))
            exact = 2 * (1 - root**2) / (n * mp.legendre(n - 1, root)) ** 2
            assert abs(mp.mpf(float(x)) - root) <= 2 * ulp
            assert abs(mp.mpf(float(w)) / exact - 1) <= density._GL_WEIGHT_ULPS * ulp
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
    t_max, _ = density._t_max_and_tail(np.sort(model.terms), None, model.mean, 2000)
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
    t_max, tail = density._t_max_and_tail(np.sort(model.terms), None, model.mean, 2000)
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
    model = RaceModel(1, 0.5 * float(terms @ terms), 0.0, terms, {})
    est = density_fourier(model)
    assert est.error_bound <= 1e-6
    mc = density_montecarlo(model, 200_000, seed=4)
    assert abs(est.value - mc.value) <= 3.0 * mc.error_bound + est.error_bound
