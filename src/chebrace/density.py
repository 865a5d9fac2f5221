"""Estimate delta = P(X > 0) for a race model, plus analytic bound formulas.

X = mean + sum_j r_j cos(theta_j) with independent uniform angles.  Two
independent estimators are provided: vectorized Monte Carlo with antithetic
pairing, and Fourier inversion through the characteristic function
phi(t) = e^(i mean t) prod_j J0(r_j t) via the Gil-Pelaez formula

    delta = 1/2 + (1/pi) Integral_0^inf Im(phi(t))/t dt.

Both are deterministic (per seed / per model) and report explicit error
budgets.  The Fourier integrand is entire, so it is integrated on [0, t_max]
by equal Gauss-Legendre panels of 24 nodes, whose nodes and weights are
the correctly rounded constants.  It takes the fewest panels whose error
bound meets its target, at most the fixed _PANEL_CAP = 2000: one or two
for the verbs' models at their default sizes, hundreds up to the cap for
a model of a few terms (``mod4`` over three to seven zeros).  Amplitudes with r t_max >= 1 go through J0 at
every node; the rest enter through a truncated power-sum series of
log J0.  The budget adds three proven parts: the series
remainder (from the Rayleigh sums of J0's zeros), the panels'
Bernstein-ellipse bound (Trefethen, ATAP Thm 19.3, with |J0(x+iy)| <= I0(y)),
and the tail beyond t_max (|J0(x)| <= exp(-x^2/4) below J0's first zero,
the envelope sqrt(2/(pi x)) above it), which also picks t_max.  A
first-order bound on float rounding is added to it.

A ``RaceModel`` is an integer mean and a ``Spectrum``: a row of scales
(twice each character's weight) over a ``SpectralTable`` of zero moduli,
one component per character.  ``race_model`` builds one from a mean, a
weight map and zero sets; a driver with many rows over the same zero
sets builds one ``SpectralTable`` and a spectrum per row.  The variance
is a sum over the components, not over the terms, and the term list
itself, which only the Monte Carlo kernel reads, is listed when first
read.  The table sums the
powers of its moduli, each order and each stretch summed when an
inversion first needs it, so the Fourier engine lists only the terms that
reach a threshold at t_max.  The tail search visits a few grid points past
a floor that no point below can meet, each bound split within two
doublings of its point.

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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .characters import character_degree
from .zeros import ZeroSet

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
    return DensityEstimate(min(max(value, 0.0), 1.0),
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
_GRID = _TAIL_STEP ** np.arange(_TAIL_STEPS)  # the grid times sqrt(P_1)
_TAIL_AHEAD = 16  # most grid steps a tail bound looks past its point
_TAIL_WINDOW = 8  # grid points a window of the t_max search offers
_SERIES_MAX = 40  # most log-J0 orders the bulk series uses
_HEAD_SPAN = 16  # first bases of each component a table sums high orders for
_ORDERS = np.arange(1.0, _SERIES_MAX + 1)  # the orders 1.._SERIES_MAX
_GL_NODES = 24  # Gauss-Legendre nodes per panel
# the positive nodes of the 24-point Gauss-Legendre rule and their weights,
# each the float nearest the exact value (from mpmath at 60 digits; the
# tests check them at 50)
_GL_HALF_X = np.array([
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
    0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
    0.7401241915785544, 0.820001985973903, 0.8864155270044011,
    0.9382745520027328, 0.9747285559713095, 0.9951872199970213])
_GL_HALF_W = np.array([
    0.12793819534675216, 0.1258374563468283, 0.12167047292780339,
    0.1155056680537256, 0.10744427011596563, 0.09761865210411388,
    0.08619016153195327, 0.0733464814110803, 0.05929858491543678,
    0.04427743881741981, 0.028531388628933663, 0.0123412297999872])
_GL_X = np.concatenate((-_GL_HALF_X[::-1], _GL_HALF_X))
_GL_W = np.concatenate((_GL_HALF_W[::-1], _GL_HALF_W))
# rounding assumptions, checked against mpmath in the tests: the nodes and
# weights are correctly rounded, so within _U relative; j0(x) is within
# (4 + sqrt(x)) _U absolute; sin and exp within one ulp
# The budget still charges each weight the 2048 _U that numpy's leggauss
# weights needed (the end weights were off by about 1100).  One would do,
# but then one pinned call of the benchmark's tower workload fails its
# check: perfbench/reference.json holds densities from QUADPACK over a
# float64 J0 product, up to 6.2e-15 from this engine's (which a
# long-double product confirms) and its check allows only the two budgets'
# sum.  Charge 1 once those densities are pinned again.
_GL_WEIGHT_ULPS = 2048
_J1_MAX = 0.5819  # max |J1| = max |J0'|
_RHO = 2.0 ** np.linspace(0.25, 6.0, 24)  # Bernstein ellipse parameters tried
# per rho: the ellipse's half-height over the panel's half-width, and the
# logs of rho^(2 _GL_NODES) and rho^2 - 1 in Trefethen's bound
_RHO_HEIGHT = 0.5 * (_RHO - 1.0 / _RHO)
_RHO_POWER = 2 * _GL_NODES * np.log(_RHO)
_RHO_GAP = np.log(_RHO * _RHO - 1.0)
# panel counts tried, growing by about 1.25 each, and the most taken
_PANEL_COUNTS = tuple(sorted({round(1.25 ** k) for k in range(64)}))
_PANEL_CAP = 2000
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


@dataclass(eq=False)
class SpectralTable:
    """The zero data of a family of race models, summed once.

    A model of the family gives each component c a scale s_c and has the
    amplitudes r_ci = s_c / b_ci over the component's ascending bases b_c,
    a character's zero moduli |rho| with s_c = 2 w_c.  The table holds the
    bases of each component and their count.  It builds when first asked:
    sum_i b_ci^-2 (``square_sums``) and sum_i 1/b_ci (``inverse_sums``);
    the bases padded with inf to a common width L plus one (``bases``); and
    the suffix power sums sum_{i >= j} b_ci^(-2k), ``squares`` for k = 1
    and every j <= L, and ``power`` for k <= _SERIES_MAX.  So the terms of
    a row past the first j_c of each component have the power sums
    sum_c s_c^(2k) sum_{i >= j_c} b_ci^(-2k), whatever the j_c.  Every sum
    runs along one component, from its largest base down, so no entry
    depends on the other components or on the padding, and
    ``square_sums`` is ``squares[:, 0]`` bit for bit.  Only the Fourier
    engine asks for the matrices: a table that only the Monte Carlo kernel
    reads holds nothing but its components' bases.
    """

    moduli: Sequence[np.ndarray]

    def __post_init__(self) -> None:
        self._power = None

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([m.size for m in self.moduli], dtype=np.intp)

    def _down(self, f) -> np.ndarray:
        """sum_i f(b_ci) per component, from its largest base down."""
        return np.array([np.cumsum(f(b)[::-1])[-1] if b.size else 0.0
                         for b in self.moduli])

    @cached_property
    def square_sums(self) -> np.ndarray:
        return self._down(lambda b: 1.0 / (b * b))

    @cached_property
    def inverse_sums(self) -> np.ndarray:
        return self._down(lambda b: 1.0 / b)

    @cached_property
    def bases(self) -> np.ndarray:
        sizes = self.sizes
        bases = np.full((sizes.size, int(sizes.max(initial=0)) + 1), math.inf)
        bases[np.arange(bases.shape[1]) < sizes[:, None]] = np.concatenate(self.moduli)
        return bases

    @cached_property
    def _q(self) -> np.ndarray:
        return 1.0 / (self.bases * self.bases)  # b^-2, and 0 on the padding

    @cached_property
    def squares(self) -> np.ndarray:
        return np.cumsum(self._q[:, ::-1], axis=1)[:, ::-1]

    def _start(self, span: int) -> None:
        self._power = np.empty((_SERIES_MAX, self.bases.shape[0], span))
        self._qk = np.ones_like(self._q)
        self._orders = 0

    def power(self, order: int, components: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """sum_{i >= j} b_ci^(-2k) for k = 1..order at j = starts[n] of each
        component components[n], one row per component.

        The sums are kept for the orders and the first j that some model
        has asked for, an order after another and j over a span that
        starts at _HEAD_SPAN and doubles when a start falls beyond it (the
        head terms, where the bulk starts, are a few of each component's
        first bases).  The orders and starts no model reaches never take
        memory."""
        reach = int(starts.max(initial=0))
        if self._power is None or reach >= self._power.shape[2]:
            span = _HEAD_SPAN if self._power is None else 2 * self._power.shape[2]
            self._start(min(max(span, reach + 1), self.bases.shape[1]))
        while self._orders < order:
            self._qk *= self._q
            sums = np.cumsum(self._qk[:, ::-1], axis=1)[:, ::-1]
            self._power[self._orders] = sums[:, :self._power.shape[2]]
            self._orders += 1
        return self._power[:order, components, starts].T


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One model of a SpectralTable's family: its row of scales, one per
    component.  Its sums are taken on first use, over the components of
    nonzero scale in table order, so they do not depend on what else the
    table holds."""

    table: SpectralTable
    row: np.ndarray

    @cached_property
    def _components(self) -> np.ndarray:
        return np.flatnonzero(self.row)

    @cached_property
    def _scales(self) -> np.ndarray:
        return self.row[self._components]

    @cached_property
    def _sq(self) -> float:
        """P_1 = sum r^2 over every term."""
        s = self._scales
        return float((s * s * self.table.square_sums[self._components]).sum())

    @property
    def variance(self) -> float:
        """(1/2) sum r^2, the variance of the oscillation part."""
        return 0.5 * self._sq

    @cached_property
    def _count(self) -> int:
        return int(self.table.sizes[self._components].sum())

    @cached_property
    def _depth(self) -> int:
        """Most additions in a power sum: along a component, then across."""
        sizes = self.table.sizes[self._components]
        return int(sizes.max(initial=0)) + sizes.size

    @cached_property
    def _first(self):
        """The first grid point u_i = _TAIL_STEP^i / sqrt(P_1) whose tail
        bound meets _TAIL_TARGET, with its bound and the top terms reaching
        it, or None.

        G >= exp(-u^2 P_1 / 4) (each H(x) >= exp(-x^2/4)), and every split
        in ``_tail_bounds`` pays G(u_i) log(_TAIL_STEP) or 2 G(u_i)/k_i, so
        B_i >= exp(-2^(i/4) / 4) min(log(_TAIL_STEP), 2/n) for n terms.  No
        point below the first where that falls to twice the target can meet
        it; the search starts one point before, with two windows of
        _TAIL_WINDOW points, then the whole grid.  Each B_i depends on G at
        u_i..u_(i+_TAIL_AHEAD) alone, so the window it is taken in moves
        it at most in its last bits (through the sum over the terms the
        window leaves out)."""
        floor = min(math.log(_TAIL_STEP), 2.0 / self._count)
        reach = 4.0 * (math.log(floor) - math.log(2.0 * _TAIL_TARGET))
        lo = max(0, math.ceil(4.0 * math.log2(reach)) - 1) if reach > 1.0 else 0
        for start in range(lo, min(lo + 2 * _TAIL_WINDOW, _TAIL_STEPS), _TAIL_WINDOW):
            found = _first_met(*self._stretch(start, start + _TAIL_WINDOW))
            if found is not None:
                return found
        return _first_met(*self._grid)

    @cached_property
    def _grid(self):
        return self._stretch(0, _TAIL_STEPS)

    def _stretch(self, lo: int, hi: int):
        """Grid points lo..hi-1, their ``_tail_bounds`` over the top terms
        reaching the last point those bounds look at and the squares of
        the rest, and those top terms."""
        hi = min(hi, _TAIL_STEPS)
        u = _GRID[lo:min(hi + _TAIL_AHEAD, _TAIL_STEPS)] / math.sqrt(self._sq)
        top, starts = _top(self, float(u[-1]))
        comps, s = self._components, self._scales
        rest = (s * s * self.table.squares[comps, starts[1:] - starts[:-1]]).sum()
        r = top.copy()
        r.sort()
        sq = np.concatenate(([rest], r * r)).cumsum()
        logs = np.concatenate(([0.0], np.log(r).cumsum()))
        return u[:hi - lo], _tail_bounds(r, sq, logs, u, hi - lo), (top, starts)


@dataclass(frozen=True, eq=False)
class RaceModel:
    """The race X = mean + sum_ci r_ci cos(theta_ci) with r_ci = s_c / b_ci
    over a spectrum's components: what both density engines take."""

    mean: int
    spectrum: Spectrum

    @property
    def variance(self) -> float:
        return self.spectrum.variance

    @property
    def bias_factor(self) -> float:
        """B = mean / sqrt(Var X)."""
        return self.mean / math.sqrt(self.variance)

    @cached_property
    def terms(self) -> np.ndarray:
        """Every amplitude r_ci, largest first, divided out one component
        at a time, as the Monte Carlo kernel reads them; nothing the size
        of the padded table is built."""
        spectrum = self.spectrum
        moduli = spectrum.table.moduli
        chunks = [s / moduli[c] for c, s in zip(spectrum._components, spectrum._scales)]
        return np.sort(np.concatenate(chunks))[::-1] if chunks else np.empty(0)


def race_model(mean: int, weight_map: Mapping[str, float],
               zero_sets: Mapping[str, ZeroSet]) -> RaceModel:
    """The race of this mean and these character weights over these zero
    sets, on a table of its own: one component per weighted character
    with zeros, in sorted id order, of scale twice its weight.  Raises
    KeyError when a weighted character has no zero set, and ValueError
    when no weighted character has a zero."""
    cids = sorted(cid for cid, w in weight_map.items() if w != 0.0)
    for cid in cids:
        if cid not in zero_sets:
            raise KeyError(f"zero set missing for weighted character {cid}")
    cids = [cid for cid in cids if zero_sets[cid].moduli.size]
    if not cids:
        raise ValueError("no oscillation terms: provide nonempty zero sets "
                         "for the weighted characters")
    table = SpectralTable([zero_sets[cid].moduli for cid in cids])
    row = 2.0 * np.array([weight_map[cid] for cid in cids])
    return RaceModel(mean, Spectrum(table, row))


def _top(spectrum: Spectrum, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """The terms with r >= 1 / reach of a row, and perhaps a few just
    below: per component the leading ones, s_c / b_ci in the model's own
    floats.  Returns them component by component, with the offsets of
    each component's run.  A term left out has b > s reach (1 + 2^-30), so
    r < 1 / reach, the least threshold the tail bound (_H_KNEE / u) or the
    head split (1 / t_max) compares with at points up to ``reach``."""
    table = spectrum.table
    comps, s = spectrum._components, spectrum._scales
    limit = s * (reach * (1.0 + 2.0 ** -30))
    counts = (table.bases[comps] <= limit[:, None]).sum(axis=1)
    owner = np.arange(comps.size).repeat(counts)
    starts = np.zeros(comps.size + 1, dtype=np.intp)
    counts.cumsum(out=starts[1:])
    index = np.arange(owner.size) - starts[owner]
    return s[owner] / table.bases[comps[owner], index], starts


def _run_counts(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """How many terms of each component run (offsets ``starts``) are
    marked in ``mask``."""
    total = np.zeros(mask.size + 1, dtype=np.intp)
    mask.cumsum(out=total[1:])
    return total[starts[1:]] - total[starts[:-1]]


def _tail_bounds(r: np.ndarray, sq: np.ndarray, logs: np.ndarray,
                 u: np.ndarray, count: int) -> np.ndarray:
    """Bounds B_i >= Integral_{u_i}^inf |prod_j J0(r_j t)| / t dt at the
    first ``count`` points of the geometric stretch u (ratio _TAIL_STEP),
    for ascending amplitudes r with prefix sums sq of r^2 and logs of
    log r.  Smaller terms may be left out of r if none reaches _H_KNEE / u
    at any u; sq[0] is then their sum of squares.

    G(t) = prod_j H(r_j t) bounds the product and does not increase, so
    one grid step contributes at most G(u_i) log(_TAIL_STEP).  Past u_N,
    the k terms with r u_N >= J0_ZERO decay like t^(-1/2) each and the
    rest do not grow, so the remainder is at most G(u_N) 2/k, taken only
    when k >= 3 (infinite otherwise).  B_i is the best split
    min_{i <= N <= i + _TAIL_AHEAD} of the steps from i to N plus the
    remainder at N; a minimum over fewer N is still a bound.
    """
    n = r.size
    gauss = r.searchsorted(_H_KNEE / u, side="right")
    flat = r.searchsorted(J0_ZERO / u, side="left")
    k = n - flat
    log_g = (-0.25 * u * u * sq[gauss] + (flat - gauss) * math.log(_H_FLAT)
             + 0.5 * k * np.log(2.0 / (math.pi * u)) - 0.5 * (logs[n] - logs[flat]))
    g = np.exp(log_g)
    rest = np.full(u.size + _TAIL_AHEAD, math.inf)
    decays = k >= 3
    rest[:u.size][decays] = 2.0 * g[decays] / k[decays]
    steps = np.zeros(u.size + _TAIL_AHEAD)
    steps[:u.size] = g * math.log(_TAIL_STEP)
    ahead = np.arange(count)[:, None] + np.arange(_TAIL_AHEAD + 1)
    from_j = steps[ahead][:, ::-1].cumsum(axis=1)[:, ::-1]  # steps from j on
    return from_j[:, 0] + (rest[ahead] - from_j).min(axis=1)


def _first_met(u: np.ndarray, bounds: np.ndarray, top: tuple):
    ok = (bounds <= _TAIL_TARGET).nonzero()[0]
    return (float(u[ok[0]]), float(bounds[ok[0]]), top) if ok.size else None


def _series_order(m: float, t_max: float, largest: float,
                  bulk_sq: float) -> tuple[int, float]:
    """The fewest log-J0 orders K for the bulk, whose largest term is
    ``largest`` (0 for no bulk) and whose squares sum to bulk_sq = P_1, and
    the bound on what the rest of the series moves the integral.

    log J0(x) = -sum_k x^(2k) sigma_k / k with sigma_k = sum_s j_{0,s}^(-2k)
    <= J0_ZERO^(2-2k) / 4, so for x = r t < J0_ZERO the orders past K sum
    to at most eps(x) = (J0_ZERO^2 / (4 (K+1))) q^(K+1) / (1 - q), q =
    (x / J0_ZERO)^2.  Over the bulk at t <= t_max that is at most
    eps = t_max^2 P_1 q_max^K / (4 (K+1) (1 - q_max)).  The bulk's J0
    product is at most 1, so the series moves each Phi value by at most
    e^eps - 1 <= eps e^eps, hence the integral and every quadrature sum
    (|sin(m t)/t| <= m, weights summing to t_max) by m t_max eps e^eps.
    """
    if largest == 0.0:
        return 1, 0.0
    q = (largest * t_max / J0_ZERO) ** 2
    eps = t_max * t_max * bulk_sq * q ** _ORDERS / (4.0 * (_ORDERS + 1) * (1.0 - q))
    err = m * t_max * eps * np.exp(eps)
    ok = (err <= _SERIES_TARGET).nonzero()[0]
    i = int(ok[0]) if ok.size else _SERIES_MAX - 1
    return i + 1, float(err[i])


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
    b = t_max / (2.0 * count) * _RHO_HEIGHT
    log_err = (np.log(32.0 / 15.0 * t_max) - _RHO_POWER - _RHO_GAP + math.log(m)
               + np.logaddexp(m * b, -m * b) - math.log(2.0) + log_i0(b))
    return log_err.min(axis=-1)


def _panel_count(m: float, t_max: float, head: np.ndarray,
                 bulk_sq: float) -> tuple[int, float]:
    """The fewest equal Gauss-Legendre panels on [0, t_max], at most
    _PANEL_CAP, whose error bound meets _QUAD_TARGET (or the cap and its
    bound), with i0e
    for the head and log I0(x) <= x^2/4 for the bulk."""
    from scipy.special import i0e

    def log_i0(b):
        x = np.multiply.outer(b, head)
        return 0.25 * b * b * bulk_sq + (np.log(i0e(x)) + x).sum(axis=-1)

    for count in _PANEL_COUNTS:
        count = min(count, _PANEL_CAP)
        log_err = float(_quad_log_bounds(m, t_max, count, log_i0))
        if log_err <= math.log(_QUAD_TARGET) or count == _PANEL_CAP:
            break
    # past e^2 > pi the budget is at its cap of 1 anyway
    return count, math.exp(min(log_err, 2.0))


def _t_max_and_tail(spectrum: Spectrum, m: float) -> tuple[float, float, tuple]:
    """t_max, the bound on the integral beyond it, and the top terms
    reaching it.

    t_max is the first grid point whose tail bound meets _TAIL_TARGET,
    provided _PANEL_CAP panels can meet _QUAD_TARGET there, judged with
    sum log I0(r_j b) <= min(b^2 sum r^2 / 4, b sum r).  Models with few
    terms may fail that; they take the grid point that minimises tail plus
    quadrature bound instead.
    """
    sq = spectrum._sq
    inverse = spectrum.table.inverse_sums[spectrum._components]
    total = float((spectrum._scales * inverse).sum())

    def quad(t):
        return _quad_log_bounds(
            m, t, _PANEL_CAP, lambda b: np.minimum(0.25 * b * b * sq, b * total))

    first = spectrum._first
    if first is not None and quad(first[0]) <= math.log(_QUAD_TARGET):
        return first
    u, bounds, top = spectrum._grid
    if not np.isfinite(bounds).any():  # fewer than 3 terms: stop at 1024 / |r|
        return float(u[80]), 1.0, top
    with np.errstate(divide="ignore"):  # a tail bound may underflow to 0
        i = int(np.argmin(np.logaddexp(np.log(bounds), quad(u))))
    return float(u[i]), float(bounds[i]), top


def _head_and_bulk(spectrum: Spectrum, t_max: float,
                   top: tuple) -> tuple[np.ndarray, float, np.ndarray]:
    """The head terms (r t_max >= 1, ascending) from the top terms reaching
    t_max, the largest bulk term (0 for none), and each component's head
    count, where its bulk starts."""
    terms, starts = top
    is_head = terms >= 1.0 / t_max
    split = _run_counts(is_head, starts)
    bases = spectrum.table.bases[spectrum._components, split]
    return np.sort(terms[is_head]), float((spectrum._scales / bases).max()), split


def _bulk_power_sums(spectrum: Spectrum, split: np.ndarray, order: int) -> np.ndarray:
    """The bulk's power sums P_1..P_order: sum_c s_c^(2k) sum_{i >= j_c}
    b_ci^(-2k) over the components, from each one's head count j_c on."""
    s = spectrum._scales
    scale_powers = np.repeat((s * s)[:, None], order, axis=1).cumprod(axis=1)
    sums = spectrum.table.power(order, spectrum._components, split)
    return (scale_powers * sums).sum(axis=0)


def _grid_integral(m: float, t_max: float, panels: int, power_sums: np.ndarray,
                   depth: int, head: np.ndarray) -> tuple[float, float]:
    """Integral_0^t_max sin(m t) Phi(t) / t dt by Gauss-Legendre on equal
    panels, Phi being exp(bulk series over the power sums P_1..P_order)
    times the head's J0 product, and a first-order bound on its
    floating-point rounding.  The head's Bessel values are taken a block
    of nodes at a time and never for every term at every node.

    Rounding, per node, in units of _U (standard model, Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3).  The table's P_k is off
    from the sum of the model's float terms r^(2k) by at most
    (7k + depth) relative: 3k for b^(-2k), 2k for s^(2k), 2k for each
    r = fl(s/b), and the additions along a component and across the
    components, ``depth`` in all.  So the series S, whose terms share one
    sign, is off by (depth + 9 order + 2) |S|, the coefficient, the
    products and the order-term sum included.  The head's j0 values and
    products by 5 head + sqrt(head t sum r) absolute; sin(m t)/t by m
    absolute; the nodes by 4 t_max absolute, which moves f by at most
    |f'| 4 t_max with |f'| <= B (m^2/2 + m (|S'| + _J1_MAX sum r)),
    B = e^S; the weights and the N-term sum by _GL_WEIGHT_ULPS + N + 8
    relative.
    """
    order = power_sums.size
    half = t_max / (2.0 * panels)
    t = (np.arange(1, 2 * panels, 2)[:, None] * half + half * _GL_X).ravel()
    y = np.repeat(((0.5 * t) ** 2)[:, None], order, axis=1).cumprod(axis=1)
    coef = LOG_J0[:order] * power_sums
    series = y @ coef
    slope = y @ (2.0 * _ORDERS[:order] * coef) / t  # S'(t)
    bulk_phi = np.exp(series)
    head_phi = np.ones(t.size)
    block = max(1, _BLOCK // max(head.size, 1))
    for start in range(0, t.size, block):
        part = slice(start, start + block)
        head_phi[part] = j0(np.multiply.outer(head, t[part])).prod(axis=0)
    g = np.sin(m * t) / t
    f = g * bulk_phi * head_phi
    weights = np.concatenate([half * _GL_W] * panels)
    head_sum = float(head.sum())
    ulps = (bulk_phi * (np.abs(g) * (5 * head.size + np.sqrt(head.size * head_sum * t))
                        + m + 4.0 * t_max * (0.5 * m * m + m * (np.abs(slope)
                                                                  + _J1_MAX * head_sum)))
            + np.abs(f) * ((depth + 9 * order + 2) * np.abs(series)
                           + _GL_WEIGHT_ULPS + t.size + 8))
    return float(f @ weights), _U * float(ulps @ weights)


def density_fourier(model: RaceModel) -> DensityEstimate:
    """P(X > 0) by Gil-Pelaez inversion of the characteristic function.

    delta = 1/2 + (1/pi) Integral_0^inf sin(mean*t) Phi(t) / t dt with
    Phi(t) = prod_j J0(r_j t), an entire integrand, integrated on [0, t_max]
    by equal Gauss-Legendre panels (at most _PANEL_CAP of them).  Terms with
    r t_max >= 1 (the head) go through ``j0``; the rest (the bulk) enter as
    exp(sum_k L_k (t/2)^(2k) P_k) with the power sums P_k = sum r^(2k) of
    the spectral table.  The budget adds three proven parts: the bulk
    series remainder, the panels' Bernstein-ellipse bound, and the tail
    beyond t_max, which also picks t_max; and a first-order bound on
    rounding.  A mean of zero short-circuits to exactly 1/2, and a
    negative mean is the ``complement`` of the mirrored race, so flipping
    the mean maps delta to 1 - delta identically.
    """
    spectrum = model.spectrum
    if spectrum._count == 0:
        raise ValueError("empty term list")
    if model.mean == 0:
        return DensityEstimate(0.5, 0.0, 0)
    if spectrum._count < 3:
        warnings.warn("fewer than 3 oscillation terms: the integrand decays "
                      "slowly, and the tail bound is 1", stacklevel=2)
    m = abs(float(model.mean))
    t_max, tail, top = _t_max_and_tail(spectrum, m)
    head, largest, split = _head_and_bulk(spectrum, t_max, top)
    bulk_sq = float(_bulk_power_sums(spectrum, split, 1)[0])
    order, series_err = _series_order(m, t_max, largest, bulk_sq)
    panels, quad_err = _panel_count(m, t_max, head, bulk_sq)
    integral, rounding = _grid_integral(m, t_max, panels,
                                        _bulk_power_sums(spectrum, split, order),
                                        spectrum._depth, head)
    # 2 _U for 1/2 + integral/pi; delta and its estimate both lie in [0, 1],
    # so 1 always bounds the error
    budget = min((series_err + quad_err + tail + rounding) / math.pi + 2 * _U, 1.0)
    est = DensityEstimate(min(max(0.5 + integral / math.pi, 0.0), 1.0),
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


def q_factor(weights: dict[str, float], level: int, n: int,
             b1: int, b2: int) -> float:
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
    return q


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
