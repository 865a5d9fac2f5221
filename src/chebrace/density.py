"""Estimate delta = P(X > 0) for a race model, plus analytic bound formulas.

X = mean + sum_j r_j cos(theta_j) with independent uniform angles.  Two
independent estimators are provided: vectorized Monte Carlo with antithetic
pairing, and Fourier inversion through the characteristic function
phi(t) = e^(i mean t) prod_j J0(r_j t) via the Gil-Pelaez formula

    delta = 1/2 + (1/pi) Integral_0^inf Im(phi(t))/t dt.

Both are deterministic (per seed / per model) and report explicit error
budgets.  The Fourier integrand is entire, so it is integrated on [0, t_max]
by equal Gauss-Legendre panels of 24 nodes; the ``nodes`` argument (the
CLI's ``--nodes``) caps the number of panels.  Amplitudes with
r t_max >= 1 go through J0 at every node; the rest enter through a
truncated power-sum series of log J0.  The budget adds three proven parts:
the series remainder (from the Rayleigh sums of J0's zeros), the panels'
Bernstein-ellipse bound (Trefethen, ATAP Thm 19.3, with |J0(x+iy)| <= I0(y)),
and the tail beyond t_max (|J0(x)| <= exp(-x^2/4) below J0's first zero,
the envelope sqrt(2/(pi x)) above it), which also picks t_max.  A
first-order bound on float rounding is added to it.

The Monte Carlo kernel splits the pairs into chunks whose size depends only
on the term count; chunk k draws from its own generator seeded by (salt,
seed, k), so its noise does not depend on which worker thread runs it, and
its indicator sums are exact (every antithetic indicator is 0, 1/2 or 1).
Each indicator is decided by the sign of m + S or m - S, S being the row's
float64 sum of r_j cos(2 pi u_j).  The kernel decides it in three tiers,
given float32 cos within _COS32_ULPS units of 2^-24 (the tests check it).
Tier 1 is one float32 BLAS dot per block of rows, S'_1, within a proven
window W1 of S for any summation order (W plus gamma_n sum r_j, gamma_n
~ n 2^-24).  Rows where some |m +- S'_1| <= W1 get tier 2, a float32 S'
with a float64 row sum, within W ~ 2^-20 sum r_j of S; rows where some
|m +- S'| <= W get tier 3, S itself.  The indicators, hence the estimate,
are those of the float64 sums.  The estimate and its interval therefore
depend only on (seed, samples), never on the worker count, the completion
order, the block size, BLAS's summation order or thread count, or float32
cos's accuracy within that bound.

The bound calculators implement the central-limit estimate and the
exponential tail bounds in terms of the bias factor B = mean/sqrt(Var X),
with the Q factor built from character-degree data.
"""
from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .characters import character_degree
from .races import RaceModel

MONTECARLO = "montecarlo"
FOURIER = "fourier"

_MC_SALT = 0x5CE9A813
_U = 2.0 ** -53  # unit roundoff
# elements (1 MB of float64 and 0.5 MB of float32) drawn, transformed and
# reduced at a time, so one block stays in a core's L2 cache between the
# passes, and the generator's fixed cost per call is spread thin
_MC_BLOCK = 1 << 17
# assumed bound on |float32 cos(x) - cos(x)| in units of 2^-24 for float32
# x in [0, fl32(2 pi)]; the tests sweep it (numpy 2.4 on x86-64: 1.2)
_COS32_ULPS = 8
_F32_MAX = float(np.finfo(np.float32).max)
Z99 = 2.5758293035489004  # two-sided 99% normal quantile

# Pinned constants of the bound shapes; the source results are shape-level
# with unspecified absolute constants, so reproducibility fixes these once
# (fitted on synthetic tower data, see tests).
C3 = 1.0 / 16.0
C1 = 0.5
C2 = 1.0
QC = 1.0
M0 = 1  # maximal symplectic central order under the strong axiom


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


def _mc_windows(terms: np.ndarray) -> tuple[float, float]:
    """The windows W and W1 within which the kernel's float32 row sums S'
    (float32 products, float64 sum) and S'_1 (one float32 dot) lie of the
    exact S; see ``_mc_chunk``.  Either is infinite where its float32
    arithmetic could overflow, and W1 also where n 2^-24 >= 1/2."""
    n = terms.size
    total = float(terms.sum())
    # |c_j| <= 1 + _COS32_ULPS 2^-24 and fl32(r) <= (1 + 2^-24) r, so
    # sum |c_j fl32(r_j)| <= bound
    slack = 1.0 + (_COS32_ULPS + 2) * 2.0 ** -24
    window = (total * ((2.0 * np.pi + _COS32_ULPS + 4) * 2.0 ** -24 + 2 * n * _U)
              + n * 2.0 ** -149)
    if not float(terms.max()) * slack < _F32_MAX:
        window = math.inf
    nu = n * 2.0 ** -24
    gamma = nu / (1.0 - nu)
    bound = total * slack
    if nu >= 0.5 or not bound * (1.0 + gamma) < _F32_MAX:
        return window, math.inf
    return window, window + gamma * bound + 2 * n * 2.0 ** -149


def _undecided(sums: np.ndarray, abs_means: np.ndarray,
               window: float) -> np.ndarray:
    """Indices of the rows where some |m + S| or |m - S| may be within
    ``window``: min(|m + S|, |m - S|) = ||m| - |S||, and NaN counts as
    undecided."""
    return np.flatnonzero(
        ~(np.abs(np.abs(sums)[:, None] - abs_means) > window).all(axis=1))


def _mc_chunk(terms: np.ndarray, means: np.ndarray, salt: int, seed: int,
              index: int, take: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the antithetic indicator y and of y^2, per mean, over one
    chunk of `take` pairs.

    The chunk's uniforms are drawn block by block from its own generator,
    which yields the same numbers as one (take, terms) draw.  The exact
    S of a row is numpy's pairwise sum of r_j cos(2 pi u_j) in float64
    over that row alone, so it does not depend on the block size.  Each
    row's signs of m + S and m - S are decided in three tiers, each
    computed only for the rows the one before leaves open.

    Every row first gets c_j = float32 cos of fl32(2 pi u_j).  Against
    E = sum r_j cos(2 pi u_j), c_j is off by 2 pi 2^-24 for the rounded
    angle and _COS32_ULPS 2^-24 for float32 cos (checked in the tests);
    fl32(r_j) by 2^-24 r_j; and S by its float64 cos, products and n-term
    sum, within 2^-52 r_j + n 2^-53 sum r.

    Tier 1 takes S'_1 = c . fl32(r), one float32 BLAS dot per row.  Any
    summation order, with or without fused multiply-adds, is within
    gamma_n sum |c_j fl32(r_j)| of the exact dot, gamma_n = n u / (1 - n u)
    with u = 2^-24 (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 3.1), plus 2^-150 per underflowed product, carried through at most
    n additions (factor (1 + u)^n < 2).  The exact dot is within W of S
    (W, below, counts every error it carries and more), and
    |c_j| <= 1 + _COS32_ULPS u, so |S'_1 - S| is at most

        W1 = W + gamma_n (1 + (_COS32_ULPS + 2) u) sum r + 2 n 2^-149.

    Half of the last term covers the dot's underflow, the other half
    fl32(r_j) <= r_j + 2^-150 for amplitudes in float32's subnormal range.
    W1 is infinite when n u >= 1/2, or when (1 + gamma_n) times that bound
    on sum |c_j fl32(r_j)|, which bounds every partial sum, reaches the
    float32 maximum, so that the dot might overflow; tier 1 is then
    skipped.  It is also dropped for the rest of the chunk once it has left
    more than half of the chunk's rows so far open, as it does when W1 is
    wide against the spread of S (about 30 sigma at 848,573 terms): a
    choice of speed, which cannot change a sum.

    Tier 2 takes S' = the float64 sum of the float32 products
    fl32(c_j fl32(r_j)), within

        W = sum r_j [(2 pi + _COS32_ULPS + 4) 2^-24 + 2 n 2^-53] + n 2^-149

    of S: the terms above, 2^-24 for each float32 product, the float64
    sum, and float32 underflow; the spare 2 units cover the second-order
    terms and the float64 rounding of sum r, W and W1.  W is infinite when
    a float32 product might overflow.

    In either tier, where the computed |m + S'| and |m - S'| exceed the
    window for every mean m, so do the exact ones (rounding is monotone),
    m + S and m - S have the signs of m + S' and m - S', and rounding keeps
    the sign of a sum, so each indicator is the one S gives.  Tier 3 sums
    the rows still open, exact ties m + S = 0 among them, again in float64
    as above.  The sums are therefore those of the exact S, whatever order
    BLAS sums in and however many threads it uses.  Runs on a worker
    thread: numpy only, which releases the interpreter lock.
    """
    rng = np.random.default_rng(np.random.SeedSequence([salt, seed, index]))
    n = terms.size
    rows = min(max(1, _MC_BLOCK // n), take)
    terms32 = terms.astype(np.float32)
    window, window1 = _mc_windows(terms)
    abs_means = np.abs(means)
    buf = np.empty((rows, n))
    fast = np.empty((rows, n), dtype=np.float32)
    s = np.empty(take)
    dot = window1 < math.inf
    opened = 0
    for start in range(0, take, rows):
        block = buf[:min(rows, take - start)]
        part = s[start:start + len(block)]
        rng.random(out=block)
        f = fast[:len(block)]
        np.multiply(block, 2.0 * np.pi, out=f, casting="same_kind")
        np.cos(f, out=f)
        if dot:
            part[:] = f @ terms32
            near = _undecided(part, abs_means, window1)
            # the dot pays only while it decides most rows
            opened += near.size
            dot = 2 * opened <= start + len(block)
        else:
            near = np.arange(len(block))
        if near.size:
            products = f if near.size == len(block) else f[near]
            np.multiply(products, terms32, out=products)
            part[near] = np.sum(products, axis=1, dtype=np.float64)
            near = near[_undecided(part[near], abs_means, window)]
        if near.size:
            exact = block[near]
            np.multiply(exact, 2.0 * np.pi, out=exact)
            np.cos(exact, out=exact)
            np.multiply(exact, terms, out=exact)
            part[near] = np.sum(exact, axis=1)
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


# Gil-Pelaez on a grid, and the constants of its error budget
J0_ZERO = 2.4048255576957724  # j_{0,1}, J0's first zero, rounded down
# |J0| has the non-increasing majorant H: exp(-x^2/4) (Weierstrass product,
# sum 1/j_{0,s}^2 = 1/4) up to _H_KNEE, the envelope's value at J0_ZERO
# from there to J0_ZERO, and the envelope sqrt(2/(pi x)) beyond
_H_FLAT = math.sqrt(2.0 / (math.pi * J0_ZERO))
_H_KNEE = 2.0 * math.sqrt(-math.log(_H_FLAT))
_TAIL_STEP = 2.0 ** 0.125  # geometric grid for t_max and the tail bound
_TAIL_STEPS = 512  # 64 doublings
_SERIES_MAX = 40  # most log-J0 orders the bulk series uses
_GL_NODES = 24  # Gauss-Legendre nodes per panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
# rounding assumptions, checked against mpmath in the tests: leggauss's
# nodes are within 2 _U and its weights within _GL_WEIGHT_ULPS _U relative
# (the end weights are the worst, near 1100); j0(x) is within
# (4 + sqrt(x)) _U absolute; sin and exp within one ulp
_GL_WEIGHT_ULPS = 2048
_J1_MAX = 0.5819  # max |J1| = max |J0'|
_RHO = 2.0 ** np.linspace(0.25, 6.0, 24)  # Bernstein ellipse parameters tried
# panel counts tried, growing by about 1.25 each
_PANEL_COUNTS = tuple(sorted({round(1.25 ** k) for k in range(64)}))
_BLOCK = 1 << 20  # most head-term Bessel values held at a time
# targets on |integral| error (delta moves by 1/pi of it)
_TAIL_TARGET = 1e-13
_QUAD_TARGET = 1e-13
_SERIES_TARGET = 1e-15


def j0(x):
    """Bessel J0, elementwise.  scipy.special loads on the first call: it
    is most of the package's import time, and only this engine uses it."""
    from scipy.special import j0 as bessel_j0
    return bessel_j0(x)


def _log_j0_coefficients(count: int) -> np.ndarray:
    """L_1..L_count with log J0(x) = sum_k L_k (x/2)^(2k), exactly: the
    logarithm of J0's series sum_k (-1)^k (x/2)^(2k) / k!^2 through
    k a_k = sum_j j L_j a_(k-j), in rationals."""
    a = [Fraction((-1) ** k, math.factorial(k) ** 2) for k in range(count + 1)]
    logs = [Fraction(0)] * (count + 1)
    for k in range(1, count + 1):
        logs[k] = a[k] - sum(j * logs[j] * a[k - j] for j in range(1, k)) / k
    return np.array([float(c) for c in logs[1:]])


LOG_J0 = _log_j0_coefficients(_SERIES_MAX)


def _tail_bounds(r: np.ndarray, sq: np.ndarray, logs: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Bounds B_i >= Integral_{u_i}^inf |prod_j J0(r_j t)| / t dt over the
    geometric grid u (ratio _TAIL_STEP), for ascending amplitudes r with
    prefix sums sq of r^2 and logs of log r.

    G(t) = prod_j H(r_j t) bounds the product and does not increase, so
    one grid step contributes at most G(u_i) log(_TAIL_STEP).  Past u_N,
    the k terms with r u_N >= J0_ZERO decay like t^(-1/2) each and the
    rest do not grow, so the remainder is at most G(u_N) 2/k, taken only
    when k >= 3 (infinite otherwise).  B_i is the best split min_{N >= i}
    of the steps from i to N plus the remainder at N.
    """
    n = r.size
    gauss = np.searchsorted(r, _H_KNEE / u, side="right")
    flat = np.searchsorted(r, J0_ZERO / u, side="left")
    k = n - flat
    log_g = (-0.25 * u * u * sq[gauss] + (flat - gauss) * math.log(_H_FLAT)
             + 0.5 * k * np.log(2.0 / (math.pi * u)) - 0.5 * (logs[n] - logs[flat]))
    g = np.exp(log_g)
    rest = np.full(u.size, math.inf)
    decays = k >= 3
    rest[decays] = 2.0 * g[decays] / k[decays]
    steps = np.cumsum((g * math.log(_TAIL_STEP))[::-1])[::-1]  # from i on
    return steps + np.minimum.accumulate((rest - steps)[::-1])[::-1]


def _series_order(m: float, t_max: float, bulk: np.ndarray,
                  bulk_sq: float) -> tuple[int, float]:
    """The fewest log-J0 orders K for the bulk, whose squares sum to
    bulk_sq = P_1, and the bound on what the rest of the series moves the
    integral.

    log J0(x) = -sum_k x^(2k) sigma_k / k with sigma_k = sum_s j_{0,s}^(-2k)
    <= J0_ZERO^(2-2k) / 4, so for x = r t < J0_ZERO the orders past K sum
    to at most eps(x) = (J0_ZERO^2 / (4 (K+1))) q^(K+1) / (1 - q), q =
    (x / J0_ZERO)^2.  Over the bulk at t <= t_max that is at most
    eps = t_max^2 P_1 q_max^K / (4 (K+1) (1 - q_max)).  The bulk's J0
    product is at most 1, so the series moves each Phi value by at most
    e^eps - 1 <= eps e^eps, hence the integral and every quadrature sum
    (|sin(m t)/t| <= m, weights summing to t_max) by m t_max eps e^eps.
    """
    if bulk.size == 0:
        return 1, 0.0
    q = (bulk[-1] * t_max / J0_ZERO) ** 2
    order = np.arange(1, _SERIES_MAX + 1)
    eps = t_max * t_max * bulk_sq * q ** order / (4.0 * (order + 1) * (1.0 - q))
    err = m * t_max * eps * np.exp(eps)
    ok = np.flatnonzero(err <= _SERIES_TARGET)
    i = int(ok[0]) if ok.size else _SERIES_MAX - 1
    return int(order[i]), float(err[i])


def _quad_log_bounds(m: float, t_max, count: int, log_i0) -> np.ndarray:
    """log of the Gauss-Legendre error bound for ``count`` equal panels on
    [0, t_max], minimised over _RHO, given log_i0(b) >= sum_j log I0(r_j b).

    On a panel of half-width h, Trefethen's Thm 19.3 (ATAP) bounds the
    error by h (64/15) M rho^(-2n) / (rho^2 - 1), where M bounds the
    integrand on the Bernstein ellipse E_rho, whose points have
    |Im z| <= b = h (rho - 1/rho) / 2.  There |sin(m z)/z| <= m cosh(m b)
    and |J0(r z)| <= I0(r b).  Every panel has the same bound, and the
    panels' half-widths sum to t_max/2.
    """
    t_max = np.asarray(t_max, dtype=float)[..., None]
    b = t_max / (2.0 * count) * (0.5 * (_RHO - 1.0 / _RHO))
    log_err = (np.log(32.0 / 15.0 * t_max) - 2 * _GL_NODES * np.log(_RHO)
               - np.log(_RHO * _RHO - 1.0) + math.log(m)
               + np.logaddexp(m * b, -m * b) - math.log(2.0) + log_i0(b))
    return log_err.min(axis=-1)


def _panel_count(m: float, t_max: float, head: np.ndarray, bulk_sq: float,
                 cap: int) -> tuple[int, float]:
    """The fewest equal Gauss-Legendre panels on [0, t_max], at most cap,
    whose error bound meets _QUAD_TARGET (or cap and its bound), with i0e
    for the head and log I0(x) <= x^2/4 for the bulk."""
    from scipy.special import i0e

    def log_i0(b):
        x = np.multiply.outer(b, head)
        return 0.25 * b * b * bulk_sq + np.sum(np.log(i0e(x)) + x, axis=-1)

    for count in [c for c in _PANEL_COUNTS if c < cap] + [cap]:
        log_err = float(_quad_log_bounds(m, t_max, count, log_i0))
        if log_err <= math.log(_QUAD_TARGET):
            break
    # past e^2 > pi the budget is at its cap of 1 anyway
    return count, math.exp(min(log_err, 2.0))


def _t_max_and_tail(r: np.ndarray, t_max: float | None, m: float,
                    cap: int) -> tuple[float, float]:
    """t_max, unless given, and the bound on the integral beyond it.

    t_max is the smallest grid point whose tail bound meets _TAIL_TARGET,
    provided ``cap`` panels can meet _QUAD_TARGET there, judged with
    sum log I0(r_j b) <= min(b^2 sum r^2 / 4, b sum r).  Models with few
    terms may fail that; they take the grid point that minimises tail plus
    quadrature bound instead.
    """
    sq = np.concatenate(([0.0], np.cumsum(r * r)))
    logs = np.concatenate(([0.0], np.cumsum(np.log(r))))
    steps = _TAIL_STEP ** np.arange(_TAIL_STEPS)
    if t_max is not None:
        tail = float(_tail_bounds(r, sq, logs, t_max * steps)[0])
        return t_max, tail if math.isfinite(tail) else 1.0
    u = steps / math.sqrt(sq[-1])
    bounds = _tail_bounds(r, sq, logs, u)
    ok = np.flatnonzero(bounds <= _TAIL_TARGET)
    total = float(r.sum())

    def quad(t):
        return _quad_log_bounds(
            m, t, cap, lambda b: np.minimum(0.25 * b * b * sq[-1], b * total))

    if ok.size and quad(u[ok[0]]) <= math.log(_QUAD_TARGET):
        i = int(ok[0])
    elif np.isfinite(bounds).any():
        with np.errstate(divide="ignore"):  # a tail bound may underflow to 0
            i = int(np.argmin(np.logaddexp(np.log(bounds), quad(u))))
    else:  # fewer than 3 terms: no tail bound; stop at 1024 / |r|
        return float(u[80]), 1.0
    return float(u[i]), float(bounds[i])


def _grid_integral(m: float, t_max: float, panels: int, order: int,
                   bulk: np.ndarray, head: np.ndarray) -> tuple[float, float]:
    """Integral_0^t_max sin(m t) Phi(t) / t dt by Gauss-Legendre on equal
    panels, Phi being exp(bulk series to ``order``) times the head's J0
    product, and a first-order bound on its floating-point rounding.  The
    head's Bessel values are taken a block of nodes at a time and never
    for every term at every node.

    Rounding, per node, in units of _U (standard model, Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3): each power sum is off by
    (bulk + k + 2) relative, so the series S, whose terms share one sign,
    by (bulk + 3 order + 3) |S|; the head's j0 values and products by
    5 head + sqrt(head t sum r) absolute; sin(m t)/t by m absolute; the
    nodes by 4 t_max absolute, which moves f by at most |f'| 4 t_max with
    |f'| <= B (m^2/2 + m (|S'| + _J1_MAX sum r)), B = e^S; the weights and
    the N-term sum by _GL_WEIGHT_ULPS + N + 8 relative.
    """
    r2 = bulk * bulk
    power = r2.copy()
    power_sums = np.empty(order)
    for k in range(order):
        power_sums[k] = power.sum()
        power *= r2
    half = t_max / (2.0 * panels)
    t = (np.arange(1, 2 * panels, 2)[:, None] * half + half * _GL_X).ravel()
    y = np.cumprod(np.broadcast_to((0.5 * t)[:, None], (t.size, order)) ** 2, axis=1)
    coef = LOG_J0[:order] * power_sums
    series = y @ coef
    slope = y @ (2.0 * np.arange(1, order + 1) * coef) / t  # S'(t)
    bulk_phi = np.exp(series)
    head_phi = np.ones(t.size)
    block = max(1, _BLOCK // max(head.size, 1))
    for start in range(0, t.size, block):
        part = slice(start, start + block)
        head_phi[part] = np.prod(j0(np.multiply.outer(head, t[part])), axis=0)
    g = np.sin(m * t) / t
    f = g * bulk_phi * head_phi
    weights = np.tile(half * _GL_W, panels)
    head_sum = float(head.sum())
    ulps = (bulk_phi * (np.abs(g) * (5 * head.size + np.sqrt(head.size * head_sum * t))
                        + m + 4.0 * t_max * (0.5 * m * m + m * (np.abs(slope)
                                                                  + _J1_MAX * head_sum)))
            + np.abs(f) * ((bulk.size + 3 * order + 3) * np.abs(series)
                           + _GL_WEIGHT_ULPS + t.size + 8))
    return float(f @ weights), _U * float(ulps @ weights)


def density_fourier(model: RaceModel, t_max: float | None = None,
                    nodes: int = 2000) -> DensityEstimate:
    """P(X > 0) by Gil-Pelaez inversion of the characteristic function.

    delta = 1/2 + (1/pi) Integral_0^inf sin(mean*t) Phi(t) / t dt with
    Phi(t) = prod_j J0(r_j t), an entire integrand, integrated on [0, t_max]
    by equal Gauss-Legendre panels (at most ``nodes`` of them).  Terms with
    r t_max >= 1 (the head) go through ``j0``; the rest (the bulk) enter as
    exp(sum_k L_k (t/2)^(2k) P_k) with power sums P_k = sum r^(2k).  The
    budget adds three proven parts: the bulk series remainder, the panels'
    Bernstein-ellipse bound, and the tail beyond t_max, which also picks
    t_max when it is not given; and a first-order bound on rounding.  A mean of zero short-circuits to exactly
    1/2, and a negative mean is the ``complement`` of the mirrored race, so
    flipping the mean maps delta to 1 - delta identically.
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
    r = np.sort(terms)
    t_max, tail = _t_max_and_tail(r, t_max, m, nodes)
    split = int(np.searchsorted(r, 1.0 / t_max, side="left"))
    bulk, head = r[:split], r[split:]
    bulk_sq = float(bulk @ bulk)
    order, series_err = _series_order(m, t_max, bulk, bulk_sq)
    panels, quad_err = _panel_count(m, t_max, head, bulk_sq, nodes)
    integral, rounding = _grid_integral(m, t_max, panels, order, bulk, head)
    # 2 _U for 1/2 + integral/pi; delta and its estimate both lie in [0, 1],
    # so 1 always bounds the error
    budget = min((series_err + quad_err + tail + rounding) / math.pi + 2 * _U, 1.0)
    est = DensityEstimate(min(max(0.5 + integral / math.pi, 0.0), 1.0), FOURIER,
                          budget, panels * _GL_NODES)
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


def upper_bound(bias: float) -> float | None:
    """Tail bound 1 - delta < exp(-C3 B^2); None when B <= 0 (not applicable)."""
    if bias <= 0:
        return None
    return math.exp(-C3 * bias * bias)


def lower_bound(bias: float, q: float) -> float | None:
    """Tail bound C1 exp(-C2 Q B^2) <= 1 - delta; None when B <= 0."""
    if bias <= 0:
        return None
    return C1 * math.exp(-C2 * q * bias * bias)


@dataclass(frozen=True)
class QFactor:
    q: float
    b3: float
    b4: float
    lambda_star: str
    lambda_star_degree: int


def q_factor(weights: dict[str, float], level: int, n: int,
             b1: int, b2: int) -> QFactor:
    """Q(C1, C2) from the character weight extremes.

    b3 is the largest weight |lambda(C2+)-lambda(C1+)|, b4 the smallest
    nonzero one, lambda* the maximizing character (largest degree wins ties).
    Over a proper base field Q = max(exp(QC sqrt(M0 b1 b2 / (deg* b3))),
    QC b3/b4, QC); over the rationals (level = n) the shared part is empty
    and Q = QC (b3/b4 + 1).
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
        q = QC * (b3 / b4 + 1.0)
    else:
        q = max(math.exp(QC * math.sqrt(M0 * b1 * b2 / (deg * b3))),
                QC * b3 / b4, QC)
    return QFactor(q, b3, b4, star, deg)


@dataclass(frozen=True)
class BoundReport:
    clt_estimate: float
    clt_error_budget: float
    upper_one_minus_delta: float | None
    lower_one_minus_delta: float | None
    q: float


def bound_report(model: RaceModel, qf: QFactor) -> BoundReport:
    est, budget = clt_estimate(model.bias_factor, model.variance)
    return BoundReport(
        clt_estimate=est,
        clt_error_budget=budget,
        upper_one_minus_delta=upper_bound(model.bias_factor),
        lower_one_minus_delta=lower_bound(model.bias_factor, qf.q),
        q=qf.q,
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
