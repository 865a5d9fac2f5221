"""Estimate delta = P(X > 0) for a race model, plus analytic bound formulas.

X = mean + sum_j r_j cos(theta_j) with independent uniform angles.  Two
independent estimators are provided: vectorized Monte Carlo with antithetic
pairing, and Fourier inversion through the characteristic function
phi(t) = e^(i mean t) prod_j J0(r_j t) via the Gil-Pelaez formula

    delta = 1/2 + (1/pi) Integral_0^inf Im(phi(t))/t dt.

Both are deterministic (per seed / per quadrature settings) and report
explicit error budgets.  The Monte Carlo kernel splits the pairs into chunks
whose size depends only on the term count; chunk k draws from its own
generator seeded by (salt, seed, k), so its noise does not depend on which
worker thread runs it, and its indicator sums are exact (every antithetic
indicator is 0, 1/2 or 1).  The estimate and its interval therefore depend
only on (seed, samples), never on the worker count, the completion order or
the block size.  The bound calculators implement the central-limit
estimate and the exponential tail bounds in terms of the bias factor
B = mean/sqrt(Var X), including the Montgomery-Odlyzko two-regime primitive
and the Q factor built from character-degree data.
"""
from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import j0

from .characters import character_degree
from .races import RaceModel

MONTECARLO = "montecarlo"
FOURIER = "fourier"

_MC_SALT = 0x5CE9A813
# elements (256 KB of float64) drawn, transformed and reduced at a time, so
# one block stays in the per-core cache between the passes
_MC_BLOCK = 1 << 15
Z99 = 2.5758293035489004  # two-sided 99% normal quantile

# Pinned default constants for the bound shapes; the source results are
# shape-level with unspecified absolute constants, so reproducibility fixes
# these once (fitted on synthetic tower data, see tests).
C3_DEFAULT = 1.0 / 16.0
C1_DEFAULT = 0.5
C2_DEFAULT = 1.0
A1_DEFAULT = 0.5
A2_DEFAULT = 1.0
QC_DEFAULT = 1.0
M0_DEFAULT = 1  # maximal symplectic central order under the strong axiom


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    method: str
    error_bound: float
    samples_or_nodes: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"density must lie in [0, 1], got {self.value!r}")
        if not self.error_bound >= 0.0:
            raise ValueError(f"error bound must be >= 0, got {self.error_bound!r}")


def _mc_workers(n_chunks: int) -> int:
    """Threads for the Monte Carlo chunks: the usable CPUs, at most one per
    chunk."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_chunks))


def _mc_chunk(terms: np.ndarray, means: np.ndarray, salt: int, seed: int,
              index: int, take: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the antithetic indicator y and of y^2, per mean, over one
    chunk of `take` pairs.

    The chunk's uniforms are drawn block by block from its own generator,
    which yields the same numbers as one (take, terms) draw.  Each row's
    sum is numpy's pairwise sum over that row alone, so S does not depend
    on the block size; BLAS is avoided because its dot order depends on the
    matrix shape and its own thread pool contends with the workers.  Runs
    on a worker thread: numpy only, which releases the interpreter lock.
    """
    rng = np.random.default_rng(np.random.SeedSequence([salt, seed, index]))
    rows = max(1, _MC_BLOCK // terms.size)
    buf = np.empty((min(rows, take), terms.size))
    s = np.empty(take)
    for start in range(0, take, rows):
        block = buf[:min(rows, take - start)]
        rng.random(out=block)
        np.multiply(block, 2.0 * np.pi, out=block)
        np.cos(block, out=block)
        np.multiply(block, terms, out=block)
        np.sum(block, axis=1, out=s[start:start + len(block)])
    # pair (U, U + 1/2) gives (m + S, m - S): one noise draw decides every mean
    y = 0.5 * ((s[:, None] + means > 0.0).astype(float)
               + (means - s[:, None] > 0.0).astype(float))
    return y.sum(axis=0), (y * y).sum(axis=0)


def _mc_race(terms: np.ndarray, means: list[float], n_pairs: int, seed: int,
             salt: int, chunk_floor: int) -> tuple[np.ndarray, np.ndarray]:
    """P(mean + S > 0) for each mean from one shared set of n_pairs
    antithetic pairs, and the 99% normal half-width of each estimate.

    Chunks hold max(chunk_floor, 2^21 / terms) pairs and run on a thread
    pool; their sums are exact, so neither the split nor the order in which
    chunks finish can change the result.
    """
    m = np.asarray(means, dtype=float)
    chunk = max(chunk_floor, (1 << 21) // max(terms.size, 1))
    takes = [min(chunk, n_pairs - start) for start in range(0, n_pairs, chunk)]
    with ThreadPoolExecutor(_mc_workers(len(takes))) as pool:
        parts = list(pool.map(
            lambda k, take: _mc_chunk(terms, m, salt, seed, k, take),
            range(len(takes)), takes))
    sums = sum(p[0] for p in parts)
    sumsq = sum(p[1] for p in parts)
    deltas = sums / n_pairs
    var_y = np.maximum(sumsq / n_pairs - deltas * deltas, 0.0)
    return deltas, Z99 * np.sqrt(var_y / n_pairs)


def density_montecarlo(model: RaceModel, samples: int, seed: int) -> DensityEstimate:
    """P(X > 0) by direct simulation with antithetic pairing.

    Uses pairs (U, U + 1/2 mod 1): the cosine flips sign, pairing X with
    2*mean - X, which cancels the oscillation part of the estimator exactly.
    The confidence half-width is the 99% normal interval computed from the
    pair-level indicator variance.  Chunks are seeded independently from
    (seed, chunk index), so the result depends only on (seed, samples).
    """
    if samples < 10_000:
        raise ValueError(f"need samples >= 10000, got {samples}")
    terms = model.terms
    if terms.size == 0:
        raise ValueError("empty term list")
    n_pairs = samples // 2
    deltas, cis = _mc_race(terms, [float(model.mean)], n_pairs, seed,
                           _MC_SALT, 128)
    value = float(deltas[0])
    return DensityEstimate(min(max(value, 0.0), 1.0), MONTECARLO,
                           float(cis[0]), 2 * n_pairs)


def _envelope_tail(terms: np.ndarray, t: float) -> float:
    """Upper bound for |Integral_t^inf prod J0(r u)/u du| from the envelope
    |J0(x)| <= min(1, sqrt(2/(pi x))): the integrand is bounded by
    g(u) = prod_j min(1, sqrt(2/(pi r_j u)))/u which decays like u^-(k/2+1)
    with k the number of active terms, so the tail is <= g(t) * t / (k/2)."""
    active = terms * t > 2.0 / math.pi
    k = int(np.count_nonzero(active))
    if k < 3:
        return math.inf
    log_g = float(np.sum(0.5 * np.log(2.0 / (math.pi * terms[active] * t)))) \
        - math.log(t)
    return math.exp(log_g + math.log(t) - math.log(k / 2.0))


def density_fourier(model: RaceModel, t_max: float | None = None,
                    nodes: int = 2000) -> DensityEstimate:
    """P(X > 0) by Gil-Pelaez inversion of the characteristic function.

    The imaginary part of phi is sin(mean*t) prod J0(r_j t), so delta is
    1/2 + (1/pi) Integral_0^inf sin(mean*t) prod_j J0(r_j t) / t dt.  The
    removable singularity at 0 is handled by a series segment; the main
    segment uses oscillatory-weighted adaptive quadrature; the tail beyond
    t_max is bounded by the Bessel envelope and added to the error budget.
    A mean of zero short-circuits to exactly 1/2, and a negative mean is the
    ``complement`` of the mirrored race, so flipping the mean maps delta to
    1 - delta identically.
    """
    terms = model.terms
    if terms.size == 0:
        raise ValueError("empty term list")
    if model.mean == 0:
        return DensityEstimate(0.5, FOURIER, 0.0, 0)
    if terms.size < 3:
        warnings.warn("fewer than 3 oscillation terms: the integrand decays "
                      "slowly; consider raising t_max", stacklevel=2)
    m = abs(float(model.mean))
    sum_r2 = float(np.sum(terms * terms))

    # series segment on [0, eps]: sin(mt) prod J0 / t = m (1 - c t^2 + O(t^4))
    scale = math.sqrt(m * m / 6.0 + sum_r2 / 4.0)
    eps = min(1e-4, 1e-3 / scale) if scale > 0 else 1e-4
    c2 = m * (m * m / 6.0 + sum_r2 / 4.0)
    series = m * eps - c2 * eps**3 / 3.0
    series_err = m * (scale * eps) ** 4 * eps  # next even order, crude bound

    if t_max is None:
        t_max = 1.0
        while _envelope_tail(terms, t_max) > 1e-13 and t_max < 2.0**40:
            t_max *= 2.0
    tail = _envelope_tail(terms, t_max)
    if not math.isfinite(tail):
        tail = 1.0  # fewer than 3 active terms even at t_max; budget stays honest

    def integrand(t: float) -> float:
        return float(np.prod(j0(terms * t))) / t

    integral, quad_err, info, *message = quad(
        integrand, eps, t_max, weight="sin", wvar=m, limit=nodes,
        epsabs=1e-11, epsrel=1e-11, full_output=1)
    if message:  # full_output returns QUADPACK's warning instead of issuing it
        warnings.warn(message[0], IntegrationWarning)
    half_gap = (series + integral) / math.pi
    budget = (series_err + quad_err + tail) / math.pi
    est = DensityEstimate(min(max(0.5 + half_gap, 0.0), 1.0), FOURIER, budget,
                          info["neval"])
    return est if model.mean > 0 else complement(est)


def complement(estimate: DensityEstimate) -> DensityEstimate:
    """The estimate for the mirrored race, mean -> -mean.

    The oscillation part is symmetric and has no atom at 0, so delta maps
    to exactly 1 - delta; the error budget and node count carry over.
    """
    return replace(estimate, value=1.0 - estimate.value)


def clt_estimate(bias: float, variance: float) -> tuple[float, float]:
    """Central-limit estimate 1/2 + B/sqrt(2 pi) with the error budget
    |B|^3 + variance^(-1/3) (order terms with unit constants)."""
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    return 0.5 + bias / math.sqrt(2.0 * math.pi), abs(bias) ** 3 + variance ** (-1.0 / 3.0)


def upper_bound(bias: float, c3: float = C3_DEFAULT) -> float | None:
    """Tail bound 1 - delta < exp(-c3 B^2); None when B <= 0 (not applicable)."""
    if bias <= 0:
        return None
    return math.exp(-c3 * bias * bias)


def lower_bound(bias: float, q: float, c1: float = C1_DEFAULT,
                c2: float = C2_DEFAULT) -> float | None:
    """Tail bound c1 exp(-c2 Q B^2) <= 1 - delta; None when B <= 0."""
    if bias <= 0:
        return None
    return c1 * math.exp(-c2 * q * bias * bias)


@dataclass(frozen=True)
class QFactor:
    q: float
    b3: float
    b4: float
    lambda_star: str
    lambda_star_degree: int


def q_factor(weights: dict[str, float], level: int, n: int,
             b1: int, b2: int, m_bound: int = M0_DEFAULT,
             c: float = QC_DEFAULT) -> QFactor:
    """Q(C1, C2) from the character weight extremes.

    b3 is the largest weight |lambda(C2+)-lambda(C1+)|, b4 the smallest
    nonzero one, lambda* the maximizing character (largest degree wins ties).
    Over a proper base field Q = max(exp(C sqrt(M b1 b2 / (deg* b3))),
    C b3/b4, C); over the rationals (level = n) the shared part is empty and
    Q = C (b3/b4 + 1).
    """
    nonzero = {cid: w for cid, w in weights.items() if w > 0.0}
    if not nonzero:
        raise ValueError("all character weights vanish; race undefined")
    b3 = max(nonzero.values())
    b4 = min(nonzero.values())
    star = sorted((cid for cid, w in nonzero.items() if w == b3),
                  key=lambda cid: (-character_degree(cid), cid))[0]
    deg = character_degree(star)
    if level == n:
        q = c * (b3 / b4 + 1.0)
    else:
        q = max(math.exp(c * math.sqrt(m_bound * b1 * b2 / (deg * b3))),
                c * b3 / b4, c)
    return QFactor(q, b3, b4, star, deg)


@dataclass(frozen=True)
class MoTailReport:
    sum_large: float
    sum_small_sq: float
    upper_applicable: bool
    lower_applicable: bool
    upper_value: float | None
    lower_value: float | None


def mo_tail(model: RaceModel, v: float, alpha: float,
            a1: float = A1_DEFAULT, a2: float = A2_DEFAULT) -> MoTailReport:
    """Two-regime tail primitive for P(sum r_j cos(theta_j) > V)-type events.

    With S1 = sum of amplitudes at least alpha and S2 = sum of squares of the
    rest: the upper regime (S1 <= V/2) bounds the tail by exp(-V^2/(16 S2));
    the lower regime (S1 >= 2V) gives a floor a1 exp(-a2 V^2 / S2).
    """
    if v < 0:
        raise ValueError(f"need V >= 0, got {v}")
    if alpha <= 0:
        raise ValueError(f"need alpha > 0, got {alpha}")
    t = model.terms
    large = t >= alpha
    s1 = float(t[large].sum())
    s2 = float(np.sum(t[~large] ** 2))
    upper_app = s1 <= v / 2.0
    lower_app = s1 >= 2.0 * v

    def regime_value(coef: float, rate: float) -> float:
        if s2 == 0.0:
            return coef if v == 0.0 else 0.0
        return coef * math.exp(-rate * v * v / s2)

    upper_val = regime_value(1.0, 1.0 / 16.0) if upper_app else None
    lower_val = regime_value(a1, a2) if lower_app else None
    return MoTailReport(s1, s2, upper_app, lower_app, upper_val, lower_val)


@dataclass(frozen=True)
class BoundReport:
    clt_estimate: float
    clt_error_budget: float
    upper_one_minus_delta: float | None
    lower_one_minus_delta: float | None
    q: float
    b3: float
    b4: float
    c1: float
    c2: float
    c3: float


def bound_report(model: RaceModel, qf: QFactor, c1: float = C1_DEFAULT,
                 c2: float = C2_DEFAULT, c3: float = C3_DEFAULT) -> BoundReport:
    est, budget = clt_estimate(model.bias_factor, model.variance)
    return BoundReport(
        clt_estimate=est,
        clt_error_budget=budget,
        upper_one_minus_delta=upper_bound(model.bias_factor, c3),
        lower_one_minus_delta=lower_bound(model.bias_factor, qf.q, c1, c2),
        q=qf.q, b3=qf.b3, b4=qf.b4, c1=c1, c2=c2, c3=c3,
    )


def truncation_shift_bound(model_sigma: float, tail_sigma: float) -> float:
    """Bound on |P(X + Y > 0) - P(X > 0)| when a mean-zero tail Y with
    standard deviation tail_sigma is dropped from a variable of standard
    deviation model_sigma: optimizing Chebyshev-plus-concentration gives
    about (tail_sigma/model_sigma)^(2/3) with a modest constant."""
    if model_sigma <= 0:
        raise ValueError("model_sigma must be positive")
    if tail_sigma < 0:
        raise ValueError("tail_sigma must be nonnegative")
    return 1.4 * (tail_sigma / model_sigma) ** (2.0 / 3.0)
