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
a model of a few terms (``mod4`` over three to seven zeros).  A panel
count's bound is the least over 24 Bernstein ellipses; it is convex in
the log of the ellipse parameter, so a Fibonacci search finds that least
value in 7 evaluations, and evaluates the rest of its bracket where two
values lie within their rounding bound of each other: the panel counts
and bounds are the whole grid's bit for bit.  Amplitudes with
r t_max >= 1 go through J0 at every node; the rest enter through a
truncated power-sum series of log J0.  The budget adds three proven
parts: the series remainder (from the Rayleigh sums of J0's zeros), the
panels' Bernstein-ellipse bound (Trefethen, ATAP Thm 19.3, with
|J0(x+iy)| <= I0(y)), and the tail beyond t_max (|J0(x)| <= exp(-x^2/4)
below J0's first zero, the envelope sqrt(2/(pi x)) above it), which also
picks t_max.  A first-order bound on float rounding is added to it.
J0, and the exp(-x) I0(x) of the panel bound, are numpy kernels that
perform the Cephes library's operations in its order (Moshier, Methods
and Programs for Mathematical Functions, 1989), so they give Cephes'
values to the bit.

A ``RaceModel(mean, table, row)`` is an integer mean and a row of scales
(twice each character's weight) over a ``SpectralTable``: a call's zero
moduli in one array, one component per character in ``character_ids``
order, which every race of the call reads (the tower inverts its rows
together).  Sums run over the components of nonzero scale in column
order, so a race has one model, and one estimate, whichever driver
builds it.  The variance is a sum over the components, not over the
terms, and the term list itself, which only the Monte Carlo kernel reads,
is listed when first read.  The table keeps one memo of the suffix power
sums of its moduli, summed whole again only when an inversion needs more
orders or starts than it holds, so the Fourier engine lists only the
terms that reach a threshold at t_max.  The tail search visits a few grid
points past a floor that no point below can meet, each bound split within
two doublings of its point.

The Fourier engine inverts a batch: rows of scales over one table, each
with its mean (``density_fourier_batch``; ``density_fourier`` is the batch
of one).  Each step is a few array operations over a block of rows: the
top terms of every row counted by one search of the table's ascending
bases, the rows' terms sorted and their prefix sums taken, both along
padded rows, one pass per panel count tried over the rows still open,
and the grid integrals by (panel count, series order), the head terms
padded with r = 0, whose J0 is exactly 1.  Every sum over a row's terms or components
has the length and order it has for the row alone (rows of one length are
summed together, as the rows of a matrix), so each estimate is bit for bit
the one its model gets alone, whatever else is in the batch.  A block
holds at most _ROWS_BLOCK components of nonzero scale and a working array
at most _BLOCK values, which bounds memory and moves no estimate.

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

from .characters import character_degrees
from .zeros import ZeroSet

_MC_SALT = 0x5CE9A813
MIN_MC_SAMPLES = 10_000  # the Monte Carlo floor; the drivers check it up front
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
    if samples < MIN_MC_SAMPLES:
        raise ValueError(f"need samples >= {MIN_MC_SAMPLES}, got {samples}")
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
# most values a working array of the Fourier engine holds, and most
# components of nonzero scale a block of its rows holds
_BLOCK = 1 << 14
_ROWS_BLOCK = 1 << 16
# targets on |integral| error (delta moves by 1/pi of it)
_TAIL_TARGET = 1e-13
_QUAD_TARGET = 1e-13
_SERIES_TARGET = 1e-15


# Cephes' j0.c (Moshier, Methods and Programs for Mathematical Functions,
# 1989): a rational in x^2 with J0's first two zeros squared factored out
# up to 5, Hankel's asymptotic form in 25/x^2 beyond.  The monic QQ and RQ
# lead with 1.0, since x * 1.0 + c is Cephes' p1evl step x + c to the bit
_J0_PP = (7.96936729297347051624E-4, 8.28352392107440799803E-2, 1.23953371646414299388E0,
          5.44725003058768775090E0, 8.74716500199817011941E0, 5.30324038235394892183E0,
          9.99999999999999997821E-1)
_J0_PQ = (9.24408810558863637013E-4, 8.56288474354474431428E-2, 1.25352743901058953537E0,
          5.47097740330417105182E0, 8.76190883237069594232E0, 5.30605288235394617618E0,
          1.00000000000000000218E0)
_J0_QP = (-1.13663838898469149931E-2, -1.28252718670509318512E0, -1.95539544257735972385E1,
          -9.32060152123768231369E1, -1.77681167980488050595E2, -1.47077505154951170175E2,
          -5.14105326766599330220E1, -6.05014350600728481186E0)
_J0_QQ = (1.0, 6.43178256118178023184E1, 8.56430025976980587198E2, 3.88240183605401609683E3,
          7.24046774195652478189E3, 5.93072701187316984827E3, 2.06209331660327847417E3,
          2.42005740240291393179E2)
_J0_RP = (-4.79443220978201773821E9, 1.95617491946556577543E12, -2.49248344360967716204E14,
          9.70862251047306323952E15)
_J0_RQ = (1.0, 4.99563147152651017219E2, 1.73785401676374683123E5, 4.84409658339962045305E7,
          1.11855537045356834862E10, 2.11277520115489217587E12, 3.10518229857422583814E14,
          3.18121955943204943306E16, 1.71086294081043136091E18)
_J0_DR1 = 5.78318596294678452118E0
_J0_DR2 = 3.04712623436620863991E1
_J0_SQ2OPI = 7.9788456080286535587989E-1
_J0_PIO4 = 0.78539816339744830962
# Cephes' i0.c: exp(-x) I0(x) as Chebyshev series in x/2 - 2 up to 8 and
# in 32/x - 2 (times sqrt(x)) beyond
_I0E_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17, -2.43127984654795469359E-16,
    1.71539128555513303061E-15, -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12, -1.72682629144155570723E-11,
    9.67580903537323691224E-11, -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8, -2.67079385394061173391E-7,
    1.11738753912010371815E-6, -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4, -5.76375574538582365885E-4,
    1.63947561694133579842E-3, -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2, -9.49010970480476444210E-2,
    1.71620901522208775349E-1, -3.04682672343198398683E-1, 6.76795274409476084995E-1)
_I0E_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18, 4.46562142029675999901E-17,
    3.46122286769746109310E-17, -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15, -9.55484669882830764870E-15,
    -4.15056934728722208663E-14, 1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12, -1.32158118404477131188E-11,
    -3.14991652796324136454E-11, 1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8, 2.04891858946906374183E-7,
    2.89137052083475648297E-6, 6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes' polevl: coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _chbevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes' chbevl: the Chebyshev series sum' coef[-1-k] T_k(x/2) by
    Clenshaw's recurrence b0 = x b1 - b2 + c, in three rotating arrays."""
    b0, b1, b2 = np.full_like(x, coef[0]), np.zeros_like(x), np.empty_like(x)
    for c in coef[1:]:
        b2, b1, b0 = b1, b0, b2
        np.multiply(x, b1, out=b0)
        b0 -= b2
        b0 += c
    return 0.5 * (b0 - b2)


def j0(x) -> np.ndarray:
    """Bessel J0, elementwise, as float64 arrays: Cephes' j0, with its
    operations in Cephes' order, so its values are Cephes' bit for bit
    (the tests check them against a build of it).

    The rational for x <= 5 is taken over the whole array and the entries
    beyond 5 (few at the engine's nodes) and below 1e-5 (the padding
    zeros) are replaced by index."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = np.abs(x.reshape(-1))
    z = x * x
    with np.errstate(over="ignore", invalid="ignore"):
        out = z - _J0_DR1
        out *= z - _J0_DR2
        out *= _polevl(z, _J0_RP)
        out /= _polevl(z, _J0_RQ)
    tiny = np.flatnonzero(x < 1e-5)
    out[tiny] = 1.0 - z[tiny] / 4.0
    big = np.flatnonzero(x > 5.0)
    if big.size:
        x = x[big]
        w = 5.0 / x
        q = 25.0 / (x * x)
        p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
        q = _polevl(q, _J0_QP) / _polevl(q, _J0_QQ)
        xn = x - _J0_PIO4
        out[big] = (p * np.cos(xn) - w * q * np.sin(xn)) * _J0_SQ2OPI / np.sqrt(x)
    return out.reshape(shape)


def _i0e(x: np.ndarray) -> np.ndarray:
    """exp(-|x|) I0(x), elementwise: Cephes' i0e, operation for operation,
    so bit for bit."""
    x = np.abs(x)
    out = np.empty_like(x)
    low = x <= 8.0
    out[low] = _chbevl(x[low] / 2.0 - 2.0, _I0E_A)
    high = x[~low]
    out[~low] = _chbevl(32.0 / high - 2.0, _I0E_B) / np.sqrt(high)
    return out


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
    """The zero data of a call, one component per character, summed once.

    Component k holds the ``sizes[k]`` zero moduli |rho|, its ascending
    bases b_ki, of the character at column ``columns[k]`` (ascending) of
    ``character_ids``, laid end to end with the others' in the read-only
    array ``moduli``, and its set's horizon ``t_max[k]`` and log conductor
    (NaN for a zero file without one).  A model gives component k a scale
    s_k (2 w_k, or 0) and has the amplitudes r_ki = s_k / b_ki.  The table
    builds when first asked: sum_i b_ki^-2 (``square_sums``) and
    sum_i 1/b_ki (``inverse_sums``); the bases padded with inf to a common
    width L plus one (``bases``), and the same laid end to end as complex
    numbers k + i b_ki, so that one ``searchsorted`` counts the bases of
    many components below many limits (``_counts``); and the suffix power
    sums sum_{i >= j} b_ki^(-2m), ``squares`` for m = 1 and every j <= L,
    and ``power`` for the orders m and the starts j the inversions have
    asked for so far.  So the terms
    of a row past the first j_k of each component have the power sums
    sum_k s_k^(2m) sum_{i >= j_k} b_ki^(-2m), whatever the j_k.  Every sum
    runs along one component, from its largest base down, so no entry
    depends on the other components or on the padding, and
    ``square_sums`` is ``squares[:, 0]`` bit for bit.  Only the Fourier
    engine asks for the matrices.
    """

    columns: np.ndarray
    sizes: np.ndarray
    moduli: np.ndarray
    t_max: np.ndarray
    log_conductors: np.ndarray

    @classmethod
    def of(cls, sets: Mapping[int, ZeroSet]) -> SpectralTable:
        """The table of these zero sets keyed by column; the moduli
        sqrt(1/4 + gamma^2) are taken in place over their ordinates."""
        chosen = [sets[c] for c in sorted(sets)]
        g = np.concatenate([np.empty(0), *(zs.ordinates for zs in chosen)])
        g *= g
        g += 0.25
        np.sqrt(g, out=g)
        g.flags.writeable = False
        return cls(np.array(sorted(sets), dtype=np.intp),
                   np.array([len(zs) for zs in chosen], dtype=np.intp), g,
                   np.array([zs.t_max for zs in chosen]),
                   np.array([zs.log_conductor for zs in chosen], dtype=float))

    def _down(self, f) -> np.ndarray:
        """sum_i f(b_ki) per component, from its largest base down."""
        ends = _starts(self.sizes).tolist()
        return np.array([np.cumsum(f(self.moduli[a:b])[::-1])[-1] if b > a else 0.0
                         for a, b in zip(ends, ends[1:])])

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
        bases[np.arange(bases.shape[1]) < sizes[:, None]] = self.moduli
        return bases

    @cached_property
    def _keys(self) -> np.ndarray:
        return _row_keys(self.bases)

    def _counts(self, components: np.ndarray, limits: np.ndarray) -> np.ndarray:
        """How many bases of component components[e] are at most limits[e]."""
        return _search_rows(self._keys, self.bases.shape[1], components, limits, "right")

    @cached_property
    def _q(self) -> np.ndarray:
        return 1.0 / (self.bases * self.bases)  # b^-2, and 0 on the padding

    @cached_property
    def squares(self) -> np.ndarray:
        return np.cumsum(self._q[:, ::-1], axis=1)[:, ::-1]

    def variances(self, rows: np.ndarray) -> np.ndarray:
        """(1/2) sum r^2 of each row of scales, the variance of its race's
        oscillation part: a sum over the row's components of nonzero scale,
        in table order, whatever the other rows hold."""
        rows = np.asarray(rows, dtype=float)
        sq = np.empty(rows.shape[0])
        for lo, hi in _ranges(np.count_nonzero(rows, axis=1), _ROWS_BLOCK):
            sq[lo:hi] = _Rows.of(self, rows[lo:hi]).sq
        return 0.5 * sq

    def scales(self, weights: np.ndarray) -> np.ndarray:
        """Weight rows over the table's columns (the last axis), made into
        component scales in place: twice each weight, and 0 where the
        column's zero set is empty."""
        weights *= 2.0
        weights[..., self.sizes == 0] = 0.0
        return weights

    def power(self, order: int, span: int) -> np.ndarray:
        """The suffix power sums sum_{i >= j} b_ci^(-2k) at [k - 1, c, j],
        for at least the orders 1..order and the starts j < span: one memo
        of the most orders and the widest span asked for so far, summed
        whole again when a call asks for more (the bulk starts a few bases
        in).  Each sum runs along its whole component, so no entry depends
        on what was asked before."""
        memo = getattr(self, "_power", np.empty((0, 0, 0)))
        if order <= memo.shape[0] and span <= memo.shape[2]:
            return memo
        order, span = max(order, memo.shape[0]), max(span, memo.shape[2])
        self._power = memo = np.empty((order, self.bases.shape[0], span))
        qk = np.ones_like(self._q)
        for k in range(order):
            qk *= self._q
            memo[k] = np.cumsum(qk[:, ::-1], axis=1)[:, ::-1][:, :span]
        return memo


@dataclass(frozen=True, eq=False)
class RaceModel:
    """The race X = mean + sum_ci r_ci cos(theta_ci) with r_ci = s_c / b_ci,
    s_c being the row's scale for component c of the table: what both
    density engines take.  Its sums run over the components of nonzero
    scale in table order, so they do not depend on what else the table
    holds."""

    mean: int
    table: SpectralTable
    row: np.ndarray

    @cached_property
    def variance(self) -> float:
        """(1/2) sum r^2, the variance of the oscillation part."""
        return float(self.table.variances(self.row[None, :])[0])

    @property
    def bias_factor(self) -> float:
        """B = mean / sqrt(Var X)."""
        return self.mean / math.sqrt(self.variance)

    @cached_property
    def terms(self) -> np.ndarray:
        """Every amplitude r_ki, largest first, as the Monte Carlo kernel
        reads them: the scales repeated over the moduli, divided in place,
        those of scale 0 left out, sorted in place."""
        sizes = self.table.sizes
        terms = np.repeat(self.row, sizes)
        terms /= self.table.moduli
        if not self.row.all():
            terms = terms[np.repeat(self.row != 0.0, sizes)]
        terms.sort()
        return terms[::-1]


def race_model(mean: int, row: Sequence[float], table: SpectralTable) -> RaceModel:
    """The race of this mean and this weight row, in ``character_ids``
    order, over the call's table of zero data: each component's scale is
    twice its column's weight, and 0 where the set has no zeros, so the
    race's sums run over its weighted columns with zeros, in column order,
    whatever else the table holds.  Raises KeyError when a weighted column
    has no component, and ValueError when no weighted column has a zero."""
    row = np.asarray(row, dtype=float)
    missing = set(np.flatnonzero(row).tolist()).difference(table.columns.tolist())
    if missing:
        raise KeyError(f"zero set missing for weighted column {min(missing)}")
    scales = table.scales(row[table.columns])
    if not scales.any():
        raise ValueError("no oscillation terms: provide nonempty zero sets "
                         "for the weighted characters")
    return RaceModel(mean, table, scales)


# -- the batched Fourier engine: every step one pass over a block of rows ------


def _starts(lengths: np.ndarray) -> np.ndarray:
    """The offsets of runs of these lengths laid end to end, and the end."""
    starts = np.zeros(lengths.size + 1, dtype=np.intp)
    lengths.cumsum(out=starts[1:])
    return starts


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices starts[i] .. starts[i] + lengths[i] - 1, run after run."""
    return np.arange(int(lengths.sum())) + np.repeat(starts - _starts(lengths)[:-1], lengths)


def _padded(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
            fill: float) -> np.ndarray:
    """The runs values[starts[i]:starts[i] + lengths[i]] as the rows of a
    matrix, each at the start of its row, filled out with ``fill``."""
    row = np.arange(lengths.size).repeat(lengths)
    col = np.arange(row.size) - _starts(lengths)[row]
    out = np.full((lengths.size, int(lengths.max(initial=0))) + values.shape[1:], fill)
    out[row, col] = values[_spans(starts, lengths)]
    return out


def _groups(keys: np.ndarray):
    """(key, indices) for each distinct value of the integer array keys,
    ascending."""
    if not keys.size:
        return []
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return zip(ordered[np.concatenate(([0], cuts))].tolist(), np.split(order, cuts))


def _row_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """numpy's sum of values[starts[i]:starts[i] + lengths[i]] for every i,
    bit for bit.  The runs are gathered in order of length, and those of
    one length summed together, one along each row of a matrix, which
    numpy sums as it sums the run alone; so every sum has its own run's
    length and order, whatever else is summed."""
    order = np.argsort(lengths, kind="stable")
    n = lengths[order]
    runs = values[_spans(starts[order], n)]
    at = _starts(n)
    cuts = [*np.flatnonzero(np.diff(n, prepend=-1)).tolist(), n.size]
    out = np.empty(lengths.size)
    for a, e in zip(cuts, cuts[1:]):
        out[order[a:e]] = runs[at[a]:at[e]].reshape(e - a, n[a]).sum(axis=1)
    return out


def _row_keys(matrix: np.ndarray) -> np.ndarray:
    """The ascending rows of a matrix, row after row, as the complex numbers
    i + 1j matrix[i, j]: ascending in numpy's lexicographic complex order."""
    keys = np.empty(matrix.shape, dtype=complex)
    keys.real = np.arange(matrix.shape[0])[:, None]
    keys.imag = matrix
    return keys.ravel()


def _search_rows(keys: np.ndarray, width: int, rows, x: np.ndarray,
                 side: str) -> np.ndarray:
    """searchsorted(row rows[e], x[e], side) over ascending rows of this
    width laid out by ``_row_keys``, for every e, in one search."""
    query = np.empty(x.shape, dtype=complex)
    query.real = rows
    query.imag = x
    return keys.searchsorted(query, side) - width * rows


def _ranges(widths: np.ndarray, budget: int):
    """Consecutive runs lo..hi - 1 of the rows, each of widths summing to
    at most ``budget`` (or of one row)."""
    ends = np.cumsum(widths)
    lo = 0
    while lo < widths.size:
        hi = int(np.searchsorted(ends, ends[lo] - widths[lo] + budget, side="right"))
        yield lo, max(hi, lo + 1)
        lo = max(hi, lo + 1)


class _Rows:
    """Rows of scales over one SpectralTable, as the engine reads them:
    each row's components of nonzero scale in table order, row after row.
    Entry e is component comp[e] of row owner[e], with scale scale[e], and
    row i holds entries first[i] .. first[i + 1] - 1.  A sum over a row's
    entries runs along that row alone (``_row_sums``), so no row's figures
    depend on which other rows are read with it."""

    def __init__(self, table: SpectralTable, owner: np.ndarray, comp: np.ndarray,
                 scale: np.ndarray, size: int) -> None:
        self.table, self.owner, self.comp, self.scale = table, owner, comp, scale
        self.size = size
        self.ncomp = np.bincount(owner, minlength=size)
        self.first = _starts(self.ncomp)

    @classmethod
    def of(cls, table: SpectralTable, rows: np.ndarray) -> _Rows:
        owner, comp = np.nonzero(rows)
        return cls(table, owner, comp, rows[owner, comp], rows.shape[0])

    def take(self, rows: np.ndarray) -> _Rows:
        """These rows alone."""
        entries = _spans(self.first[rows], self.ncomp[rows])
        return _Rows(self.table, np.arange(rows.size).repeat(self.ncomp[rows]),
                     self.comp[entries], self.scale[entries], rows.size)

    def sums(self, values: np.ndarray) -> np.ndarray:
        return _row_sums(values, self.first, self.ncomp)

    @cached_property
    def sq(self) -> np.ndarray:
        """P_1 = sum r^2 over every term of each row."""
        s = self.scale
        return self.sums(s * s * self.table.square_sums[self.comp])

    @cached_property
    def total(self) -> np.ndarray:
        """sum r over every term of each row."""
        return self.sums(self.scale * self.table.inverse_sums[self.comp])

    @cached_property
    def count(self) -> np.ndarray:
        """Terms per row."""
        sizes = _starts(self.table.sizes[self.comp])
        return sizes[self.first[1:]] - sizes[self.first[:-1]]

    @cached_property
    def depth(self) -> np.ndarray:
        """Most additions in a power sum of each row (of at least one
        entry): along a component, then across."""
        return np.maximum.reduceat(self.table.sizes[self.comp], self.first[:-1]) + self.ncomp


def _top(rows: _Rows, reach: np.ndarray) -> np.ndarray:
    """How many terms of each entry have r >= 1 / reach, and perhaps a few
    just below: a term left out has b > s reach (1 + 2^-30), so r < 1 / reach,
    the least threshold the tail bound (_H_KNEE / u) or the head split
    (1 / t_max) compares with at points up to ``reach``.  The counts are
    one search of the table's ascending bases."""
    limit = rows.scale * (reach * (1.0 + 2.0 ** -30))[rows.owner]
    return rows.table._counts(rows.comp, limit)


def _suffix_squares(rows: _Rows, starts: np.ndarray) -> np.ndarray:
    """Each row's sum of r^2 over the terms of each entry e from its starts[e]-th on."""
    return rows.sums(rows.scale * rows.scale * rows.table.squares[rows.comp, starts])


def _terms(rows: _Rows, counts: np.ndarray, at: slice) -> np.ndarray:
    """The leading counts[e] terms s / b of each entry e in ``at``, in the
    rows' own floats, entry after entry."""
    counts = counts[at]
    entry = np.arange(at.start, at.stop).repeat(counts)
    index = _spans(np.zeros_like(counts), counts)
    return rows.scale[entry] / rows.table.bases[rows.comp[entry], index]


def _run_counts(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """How many terms of each run (offsets ``starts``) are marked in
    ``mask``."""
    total = np.zeros(mask.size + 1, dtype=np.intp)
    mask.cumsum(out=total[1:])
    return total[starts[1:]] - total[starts[:-1]]


def _ascending(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """values, laid in runs of these lengths, each run sorted ascending
    (the head terms): the runs as the rows of a matrix padded with inf,
    sorted along its rows, at most _BLOCK values (or one run) at a time.
    (numpy's float64 sort, which the tail search also runs, pages in about
    0.3 MB of vectorised sort kernel; a tower call's peak RSS stays within
    that, 42.2-42.5 MB at n = 7 in ``bench/scale.py`` against 41.6-42.2 MB
    with the sort of complex numbers owner + 1j value it replaced.)"""
    out = np.empty_like(values)
    starts = _starts(lengths)
    step = max(1, _BLOCK // max(int(lengths.max(initial=0)), 1))
    for lo in range(0, lengths.size, step):
        run = lengths[lo:lo + step]
        block = _padded(values, starts[lo:lo + run.size], run, math.inf)
        block.sort(axis=1)
        out[starts[lo]:starts[lo + run.size]] = block[np.arange(block.shape[1]) < run[:, None]]
    return out


def _window_starts(count: np.ndarray) -> np.ndarray:
    """The grid point where the tail search of a row of so many terms
    starts.

    G >= exp(-u^2 P_1 / 4) (each H(x) >= exp(-x^2/4)), and every split in
    ``_tail_bounds`` pays G(u_i) log(_TAIL_STEP) or 2 G(u_i)/k_i, so
    B_i >= exp(-2^(i/4) / 4) min(log(_TAIL_STEP), 2/n) for n terms.  No
    point below the first where that falls to twice the target can meet
    it; the search starts one point before.  That is point 26 at most, so
    the two windows and the points their bounds look at lie on the grid."""
    starts = {}
    for n in set(count.tolist()):
        floor = min(math.log(_TAIL_STEP), 2.0 / n)
        reach = 4.0 * (math.log(floor) - math.log(2.0 * _TAIL_TARGET))
        starts[n] = max(0, math.ceil(4.0 * math.log2(reach)) - 1) if reach > 1.0 else 0
    return np.array([starts[n] for n in count.tolist()], dtype=np.intp)


def _stretch(rows: _Rows, lo: np.ndarray, count: int,
             span: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's grid points lo .. lo + count - 1 and their
    ``_tail_bounds``, over the top terms reaching the last of the ``span``
    points from lo, which those bounds look at, and the squares of the
    rest.  The rows go a run at a time, each run's top terms within
    _BLOCK, as a matrix padded with inf and sorted along its rows."""
    u = _GRID[lo[:, None] + np.arange(span)] / np.sqrt(rows.sq)[:, None]
    counts = _top(rows, u[:, -1])
    rest = _suffix_squares(rows, counts)
    first = rows.first
    n = _starts(counts)[first]
    n = n[1:] - n[:-1]
    bounds = np.empty((rows.size, count))
    for a, b in _ranges(n + count * (_TAIL_AHEAD + 1), _BLOCK):
        r = _padded(_terms(rows, counts, slice(first[a], first[b])),
                    _starts(n[a:b])[:-1], n[a:b], math.inf)
        r.sort(axis=1)
        bounds[a:b] = _tail_bounds(r, n[a:b], rest[a:b], u[a:b], count)
    return u[:, :count], bounds


def _tail_bounds(r: np.ndarray, n: np.ndarray, rest: np.ndarray,
                 u: np.ndarray, count: int) -> np.ndarray:
    """Bounds B_i >= Integral_{u_i}^inf |prod_j J0(r_j t)| / t dt at the
    first ``count`` points of each row's geometric stretch u (ratio
    _TAIL_STEP), for the n[i] ascending amplitudes leading row i of r,
    padded with inf.  Smaller terms may be left out of a row if none
    reaches _H_KNEE / u at any of its u; rest is their sum of squares.

    G(t) = prod_j H(r_j t) bounds the product and does not increase, so
    one grid step contributes at most G(u_i) log(_TAIL_STEP).  Past u_N,
    the k terms with r u_N >= J0_ZERO decay like t^(-1/2) each and the
    rest do not grow, so the remainder is at most G(u_N) 2/k, taken only
    when k >= 3 (infinite otherwise).  B_i is the best split
    min_{i <= N <= i + _TAIL_AHEAD} of the steps from i to N plus the
    remainder at N; a minimum over fewer N is still a bound.  Each row's
    prefix sums of r^2 and log r run along its own row, read at most n[i]
    terms in, so never past the padding.
    """
    size, span = u.shape
    width = r.shape[1]
    sq = np.cumsum(np.column_stack((rest, r * r)), axis=1)
    logs = np.cumsum(np.column_stack((np.zeros(size), np.log(r))), axis=1)
    keys = _row_keys(r)
    lines = np.arange(size)[:, None]
    gauss = _search_rows(keys, width, lines, _H_KNEE / u, "right")
    flat = _search_rows(keys, width, lines, J0_ZERO / u, "left")
    k = n[:, None] - flat
    log_g = (-0.25 * u * u * np.take_along_axis(sq, gauss, axis=1)
             + (flat - gauss) * math.log(_H_FLAT)
             + 0.5 * k * np.log(2.0 / (math.pi * u))
             - 0.5 * (logs[lines, n[:, None]] - np.take_along_axis(logs, flat, axis=1)))
    g = np.exp(log_g)
    remainder = np.full((size, span + _TAIL_AHEAD), math.inf)
    decays = k >= 3
    remainder[:, :span][decays] = 2.0 * g[decays] / k[decays]
    steps = np.zeros((size, span + _TAIL_AHEAD))
    steps[:, :span] = g * math.log(_TAIL_STEP)
    ahead = np.arange(count)[:, None] + np.arange(_TAIL_AHEAD + 1)
    from_j = steps[:, ahead][:, :, ::-1].cumsum(axis=2)[:, :, ::-1]  # steps from j on
    return from_j[:, :, 0] + (remainder[:, ahead] - from_j).min(axis=2)


def _first_met(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether some point of each row meets _TAIL_TARGET, and the first."""
    ok = bounds <= _TAIL_TARGET
    return ok.any(axis=1), ok.argmax(axis=1)


def _series_order(m: np.ndarray, t_max: np.ndarray, largest: np.ndarray,
                  bulk_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fewest log-J0 orders K for each row's bulk, whose largest term
    is ``largest`` (0 for no bulk) and whose squares sum to bulk_sq = P_1,
    and the bound on what the rest of the series moves the integral.

    log J0(x) = -sum_k x^(2k) sigma_k / k with sigma_k = sum_s j_{0,s}^(-2k)
    <= J0_ZERO^(2-2k) / 4, so for x = r t < J0_ZERO the orders past K sum
    to at most eps(x) = (J0_ZERO^2 / (4 (K+1))) q^(K+1) / (1 - q), q =
    (x / J0_ZERO)^2.  Over the bulk at t <= t_max that is at most
    eps = t_max^2 P_1 q_max^K / (4 (K+1) (1 - q_max)).  The bulk's J0
    product is at most 1, so the series moves each Phi value by at most
    e^eps - 1 <= eps e^eps, hence the integral and every quadrature sum
    (|sin(m t)/t| <= m, weights summing to t_max) by m t_max eps e^eps.
    """
    order = np.ones(m.size, dtype=np.intp)
    err = np.zeros(m.size)
    some = np.flatnonzero(largest != 0.0)
    if some.size:
        t = t_max[some, None]
        # squared by Python's float power (the C library's pow), to which the
        # pinned budgets hold, not by numpy's x * x
        q = np.array([x ** 2 for x in (largest[some] * t_max[some] / J0_ZERO).tolist()])[:, None]
        eps = t * t * bulk_sq[some, None] * q ** _ORDERS / (4.0 * (_ORDERS + 1) * (1.0 - q))
        bound = m[some, None] * t * eps * np.exp(eps)
        ok = bound <= _SERIES_TARGET
        i = np.where(ok.any(axis=1), ok.argmax(axis=1), _SERIES_MAX - 1)
        order[some] = i + 1
        err[some] = bound[np.arange(some.size), i]
    return order, err


def _ellipse_heights(t_max, count: int) -> np.ndarray:
    """The half-height b of each Bernstein ellipse E_rho, rho in _RHO,
    about a panel of ``count`` equal panels on [0, t_max]: t_max[..., None]
    against _RHO."""
    return np.asarray(t_max, dtype=float)[..., None] / (2.0 * count) * _RHO_HEIGHT


def _quad_log_bounds(m, log_m, t_max, b, log_i0, rho=slice(None)) -> np.ndarray:
    """log of the Gauss-Legendre error bound for equal panels on [0, t_max]
    at the Bernstein ellipse parameters _RHO[rho], whose half-heights are
    b (``_ellipse_heights``), given log_i0 >= sum_j log I0(r_j b) at each
    b; every argument broadcasts against b (t_max[..., None] against all
    of _RHO, or one rho per entry).

    On a panel of half-width h, Trefethen's Thm 19.3 (ATAP) bounds the
    error by h (64/15) M rho^(-2n) / (rho^2 - 1), where M bounds the
    integrand on the Bernstein ellipse E_rho, whose points have
    |Im z| <= b = h (rho - 1/rho) / 2.  There |sin(m z)/z| <= m cosh(m b)
    and |J0(r z)| <= I0(r b).  Every panel has the same bound, and the
    panels' half-widths sum to t_max/2.

    In s = log rho the log bound is convex: -48 s and -log(e^(2s) - 1)
    are, and log 2cosh(m b), b^2 P_1 / 4 and each log I0(r b) are convex
    and non-decreasing in b (log cosh and log I0 are cumulant generating
    functions), which is h sinh s, convex and increasing.
    ``_panel_count`` searches it by that.  (The min(b^2 P_1 / 4, b sum r)
    that ``_t_max_and_tail`` takes for log_i0 is not convex in s.)
    """
    return (np.log(32.0 / 15.0 * t_max) - _RHO_POWER[rho] - _RHO_GAP[rho] + log_m
            + np.logaddexp(m * b, -m * b) - math.log(2.0) + log_i0)


def _search_slack(m, log_m, t_max, b, head_sum, bulk_sq, sizes) -> np.ndarray:
    """``_panel_count``'s delta, per row: a bound on the rounding of its
    computed log bound at any rho, from the terms' sizes at the largest
    rho, whose half-height is b."""
    size = (np.abs(np.log(32.0 / 15.0 * t_max)) + np.abs(log_m) + _RHO_POWER[-1]
            + _RHO_GAP[-1] + m * b + 0.25 * b * b * bulk_sq + 2.0 * b * head_sum + sizes + 2.0)
    return 2.0 ** -48 * (sizes + 32) * size


def _panel_count(m: np.ndarray, log_m: np.ndarray, t_max: np.ndarray,
                 head: np.ndarray, sizes: np.ndarray, head_sum: np.ndarray,
                 bulk_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fewest equal Gauss-Legendre panels on [0, t_max] of each row,
    at most _PANEL_CAP, whose error bound meets _QUAD_TARGET (or the cap),
    and the log of that bound, the least over _RHO, with i0e for the head
    (``sizes`` terms per row, laid in ``head``, summing to ``head_sum``)
    and log I0(x) <= x^2/4 for the bulk.  Each panel count tried is one
    pass over the rows still open.

    The least bound is found by a Fibonacci search (Kiefer, Proc. AMS 4,
    1953) over the 24 points of _RHO, padded to 33 with +inf, in 7
    evaluations, not 24.  The exact bound F is convex in log rho
    (``_quad_log_bounds``); let the computed f be within delta of F at
    every rho.  Where f(rho_a) > f(rho_b) + 2 delta with a < b, then
    F(rho_a) > F(rho_b), so F(rho_k) >= F(rho_a) for every k <= a by
    convexity, and f(rho_k) >= f(rho_a) - 2 delta > f(rho_b): no point up
    to a holds the least computed value, and the search drops them.
    Likewise from b up where f(rho_b) > f(rho_a) + 2 delta.  A row whose
    two points lie within 2 delta has every point of its bracket
    evaluated.  Each point is the value the
    whole grid computes there (the same operations, elementwise, each
    head sum along its own row of length h), so the least value, the
    panel count and the log bound are the whole grid's bit for bit.

    delta (``_search_slack``), in units of u = _U.  Let S be the sum of
    the terms' sizes at the largest rho, which bound them at every rho:
    |log(32 t_max / 15)|, |log m|, 48 log rho and log(rho^2 - 1) (at least
    |log(rho^2 - 1)| at every rho), m b for log 2cosh(m b), b^2 P_1 / 4,
    2 b sum r for the h terms x_j + log i0e(x_j) (both within x_j = b r_j
    in size), and h + 2.  The inputs the terms are computed from are
    within 8 u relative of the exact ones: b through 1/rho and
    rho - 1/rho, which amplifies the first by 1/(rho^2 - 1) <= 2.5, and
    two products; b r_j; rho^2 - 1, likewise.  numpy's log, exp and
    log1p and Cephes' i0e (measured by its author within 5.4e-16, under
    5 u, on [0, 30]) are taken within 8 u relative.  Each term's
    derivative in the log of its input is at most its size
    (x I1(x) / I0(x) <= x, m b tanh(m b) <= m b, ...), so each term is
    within 24 u of its size, and each log i0e within 8 u absolute
    besides: 32 u S in all.  The h head terms and the seven terms of the
    bound are summed within h u S and 7 u S.  So |f - F| <= (h + 39) u S,
    and delta = 32 (h + 32) u S leaves a factor of at least 26 for the
    second-order terms and the rounding of delta itself.
    """
    order = np.argsort(sizes, kind="stable")  # the rows by head size, each size one run
    h = sizes[order]
    heads = head[_spans(_starts(sizes)[order], h)]
    first = _starts(h)
    m, log_m, t_max, head_sum, bulk_sq = (
        v[order] for v in (m, log_m, t_max, head_sum, bulk_sq))

    def bounds(rows: np.ndarray, rho: np.ndarray, count: int) -> np.ndarray:
        """The bound of row rows[e] at _RHO[rho[e]], the rows ascending, at
        most _BLOCK head values at a time."""
        out = np.empty(rows.size)
        for lo, hi in _ranges(h[rows], _BLOCK):
            r, k = rows[lo:hi], rho[lo:hi]
            n = h[r]
            b = t_max[r] / (2.0 * count) * _RHO_HEIGHT[k]  # as _ellipse_heights
            x = np.repeat(b, n) * heads[_spans(first[r], n)]
            x += np.log(_i0e(x))  # log I0(x) = x + log i0e(x)
            log_i0 = 0.25 * b * b * bulk_sq[r] + _row_sums(x, _starts(n), n)
            out[lo:hi] = _quad_log_bounds(m[r], log_m[r], t_max[r], b, log_i0, k)
        return out

    def least(rows: np.ndarray, count: int) -> np.ndarray:
        """The least bound over _RHO of each row, the rows ascending."""
        lo = np.full(rows.size, -1)
        slack = 2.0 * _search_slack(m[rows], log_m[rows], t_max[rows],
                                    t_max[rows] / (2.0 * count) * _RHO_HEIGHT[-1],
                                    head_sum[rows], bulk_sq[rows], h[rows])
        fib = (1, 2, 3, 5, 8, 13, 21, 34)
        out = np.empty(rows.size)
        live = np.arange(rows.size)
        a, b = lo + fib[5], lo + fib[6]  # the bracket (lo, lo + fib[j]) holds a < b
        both = bounds(rows.repeat(2), np.stack((a, b), axis=1).ravel(), count)
        fa, fb = both[0::2], both[1::2]
        ties = []
        for j in range(7, 1, -1):
            right = (b >= _RHO.size) | (fb > fa + slack)  # nothing from b on is least
            tie = ~right & ~(fa > fb + slack)  # else nothing up to a is
            if tie.any():
                ties.append((live[tie], lo[tie], lo[tie] + fib[j]))
                keep = ~tie
                live, lo, a, b, fa, fb, slack, right = (
                    v[keep] for v in (live, lo, a, b, fa, fb, slack, right))
            if j == 2:
                out[live] = np.where(right, fa, fb)
                break
            lo = np.where(right, lo, a)
            a, b = lo + fib[j - 3], lo + fib[j - 2]  # one of them the old a or b
            k = np.where(right, a, b)
            new = np.full(live.size, math.inf)
            real = np.flatnonzero(k < _RHO.size)
            new[real] = bounds(rows[live[real]], k[real], count)
            fa, fb = np.where(right, new, fb), np.where(right, fa, new)
        if ties:  # the least bound at _RHO[lo + 1 .. hi - 1] of each row
            pos, lo, hi = (np.concatenate(v) for v in zip(*ties))
            by = np.argsort(pos, kind="stable")  # the stable kernel a verb already runs
            pos, lo, hi = pos[by], lo[by], hi[by]
            n = np.minimum(hi, _RHO.size) - lo - 1
            values = bounds(rows[pos].repeat(n), _spans(lo + 1, n), count)
            out[pos] = np.minimum.reduceat(values, _starts(n)[:-1])
        return out

    panels = np.zeros(order.size, dtype=np.intp)
    log_err = np.zeros(order.size)
    pending = np.arange(order.size)
    for count in _PANEL_COUNTS:
        if not pending.size:
            break
        count = min(count, _PANEL_CAP)
        bound = least(pending, count)
        done = (bound <= math.log(_QUAD_TARGET)) | (count == _PANEL_CAP)
        panels[order[pending[done]]] = count
        log_err[order[pending[done]]] = bound[done]
        pending = pending[~done]
    return panels, log_err


def _t_max_and_tail(rows: _Rows, m: np.ndarray,
                    log_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's t_max and the bound on the integral beyond it.

    t_max is the first grid point u_i = _TAIL_STEP^i / sqrt(P_1) whose
    tail bound meets _TAIL_TARGET, provided _PANEL_CAP panels can meet
    _QUAD_TARGET there, judged with
    sum log I0(r_j b) <= min(b^2 sum r^2 / 4, b sum r).  The search takes
    two windows of _TAIL_WINDOW points from ``_window_starts``, then the
    whole grid for the rows still open.  Each B_i depends on G at
    u_i..u_(i+_TAIL_AHEAD) alone, so the window it is taken in moves it
    at most in its last bits (through the sum over the terms the window
    leaves out).  Models with few terms may fail the panel test; they take
    the grid point that minimises tail plus quadrature bound instead.
    """
    size = rows.size
    t_max, tail = np.zeros(size), np.zeros(size)
    found = np.zeros(size, dtype=bool)
    lo = _window_starts(rows.count)
    pending = np.arange(size)
    for window in range(2):
        if not pending.size:
            break
        part = rows if pending.size == size else rows.take(pending)
        u, bounds = _stretch(part, lo[pending] + window * _TAIL_WINDOW, _TAIL_WINDOW,
                             _TAIL_WINDOW + _TAIL_AHEAD)
        met, at = _first_met(bounds)
        hit = pending[met]
        t_max[hit], tail[hit] = u[met, at[met]], bounds[met, at[met]]
        found[hit] = True
        pending = pending[~met]

    def quad(sel, t):
        shape = (-1,) + (1,) * t.ndim
        sq, total = rows.sq[sel].reshape(shape), rows.total[sel].reshape(shape)
        b = _ellipse_heights(t, _PANEL_CAP)
        return _quad_log_bounds(m[sel].reshape(shape), log_m[sel].reshape(shape), t[..., None],
                                b, np.minimum(0.25 * b * b * sq, b * total)).min(axis=-1)

    target = math.log(_QUAD_TARGET)
    ok = found.copy()
    ok[found] = quad(np.flatnonzero(found), t_max[found]) <= target
    redo = np.flatnonzero(~ok)
    if not redo.size:
        return t_max, tail
    u, bounds = _stretch(rows.take(redo), np.zeros(redo.size, dtype=np.intp),
                         _TAIL_STEPS, _TAIL_STEPS)
    met, at = _first_met(bounds)
    first = ~found[redo] & met  # the windows left them open; the grid meets the target
    done = np.zeros(redo.size, dtype=bool)
    done[first] = quad(redo[first], u[first, at[first]]) <= target
    t_max[redo[done]], tail[redo[done]] = u[done, at[done]], bounds[done, at[done]]
    left = np.flatnonzero(~done)
    finite = np.isfinite(bounds[left]).any(axis=1)
    slow, left = left[~finite], left[finite]  # fewer than 3 terms: stop at 1024 / |r|
    t_max[redo[slow]], tail[redo[slow]] = u[slow, 80], 1.0
    for lo, hi in _ranges(np.full(left.size, _TAIL_STEPS * _RHO.size), _BLOCK):
        part = left[lo:hi]
        with np.errstate(divide="ignore"):  # a tail bound may underflow to 0
            i = np.argmin(np.logaddexp(np.log(bounds[part]), quad(redo[part], u[part])), axis=1)
        t_max[redo[part]], tail[redo[part]] = u[part, i], bounds[part, i]
    return t_max, tail


def _head_and_bulk(rows: _Rows, t_max: np.ndarray):
    """Each row's head terms (r t_max >= 1), ascending, laid row after row,
    and their count per row; each row's largest bulk term (0 for none);
    and each entry's head count, where its bulk starts."""
    counts = _top(rows, t_max)
    terms = _terms(rows, counts, slice(0, counts.size))
    owner = rows.owner.repeat(counts)
    is_head = terms >= (1.0 / t_max)[owner]
    split = _run_counts(is_head, _starts(counts))
    bulk = rows.scale / rows.table.bases[rows.comp, split]
    largest = np.maximum.reduceat(bulk, rows.first[:-1])
    sizes = np.bincount(owner[is_head], minlength=rows.size)
    return _ascending(terms[is_head], sizes), sizes, largest, split


def _bulk_power_sums(rows: _Rows, split: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Each row's bulk power sums P_1..P_K, K = order.max(), of which the
    row reads its first ``order``: sum_c s_c^(2k) sum_{i >= j_c} b_ci^(-2k)
    over its entries, from each one's head count j_c on, with s_c^(2k) the
    running product of s_c^2.  Each row adds its entries one after
    another, every row's j-th entry in one step (``_invert`` gives the rows
    of order 1 their pairwise sums of ``_suffix_squares`` instead)."""
    most = int(order.max())
    s2 = rows.scale * rows.scale
    power = rows.table.power(most, int(split.max(initial=0)) + 1)
    # rows by descending component count, so the rows with a j-th entry lead
    by_count = np.argsort(-rows.ncomp, kind="stable")
    first, ncomp = rows.first[by_count], rows.ncomp[by_count]
    acc = np.zeros((rows.size, most))
    for j in range(int(ncomp[0])):
        e = first[:np.count_nonzero(ncomp > j)] + j
        scale = np.repeat(s2[e][:, None], most, axis=1).cumprod(axis=1)
        acc[:e.size] += scale * power[:most, rows.comp[e], split[e]].T
    sums = np.empty_like(acc)
    sums[by_count] = acc
    return sums


def _grid_integral(m: np.ndarray, t_max: np.ndarray, panels: int,
                   power_sums: np.ndarray, depth: np.ndarray, head: np.ndarray,
                   size: np.ndarray, head_sum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integral_0^t_max sin(m t) Phi(t) / t dt by Gauss-Legendre on equal
    panels for rows of one panel count and one series order, Phi being
    exp(bulk series over the power sums P_1..P_order) times the head's J0
    product, and a first-order bound on its floating-point rounding.  Each
    row's ``size`` head terms lead its row of ``head``, padded with zeros,
    whose J0 is exactly 1.  The Bessel values are taken at most _BLOCK at a
    time.

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
    rows, order = power_sums.shape
    half = (t_max / (2.0 * panels))[:, None, None]
    t = (np.arange(1, 2 * panels, 2)[:, None] * half + half * _GL_X).reshape(rows, -1)
    nodes = t.shape[1]
    y = np.repeat(((0.5 * t) ** 2)[:, :, None], order, axis=2).cumprod(axis=2)
    coef = LOG_J0[:order] * power_sums
    series = np.matmul(y, coef[:, :, None])[:, :, 0]
    slope = np.matmul(y, (2.0 * _ORDERS[:order] * coef)[:, :, None])[:, :, 0] / t  # S'(t)
    bulk_phi = np.exp(series)
    head_phi = np.ones(t.shape)
    step = max(1, _BLOCK // max(head.shape[1], 1))  # nodes per block
    for r in range(0, rows, max(1, step // nodes)):
        r_end = r + max(1, step // nodes)
        for c in range(0, nodes, step):
            head_phi[r:r_end, c:c + step] = j0(
                head[r:r_end, :, None] * t[r:r_end, None, c:c + step]).prod(axis=1)
    m, t_max = m[:, None], t_max[:, None]
    size, head_sum, depth = size[:, None], head_sum[:, None], depth[:, None]
    g = np.sin(m * t) / t
    f = g * bulk_phi * head_phi
    weights = np.tile(half[:, 0] * _GL_W, panels)
    ulps = (bulk_phi * (np.abs(g) * (5 * size + np.sqrt(size * head_sum * t))
                        + m + 4.0 * t_max * (0.5 * m * m + m * (np.abs(slope)
                                                                + _J1_MAX * head_sum)))
            + np.abs(f) * ((depth + 9 * order + 2) * np.abs(series)
                           + _GL_WEIGHT_ULPS + nodes + 8))
    weights = weights[:, :, None]
    return (np.matmul(f[:, None, :], weights)[:, 0, 0],
            _U * np.matmul(ulps[:, None, :], weights)[:, 0, 0])


def _invert(rows: _Rows, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delta, its budget and the node count of each row's race against
    the positive mean m: one pass of each step over all the rows."""
    log_m = np.array([math.log(x) for x in m.tolist()])
    t_max, tail = _t_max_and_tail(rows, m, log_m)
    head, sizes, largest, split = _head_and_bulk(rows, t_max)
    bulk_sq = _suffix_squares(rows, split)
    order, series_err = _series_order(m, t_max, largest, bulk_sq)
    starts = _starts(sizes)
    head_sum = _row_sums(head, starts, sizes)
    panels, log_err = _panel_count(m, log_m, t_max, head, sizes, head_sum, bulk_sq)
    power_sums = _bulk_power_sums(rows, split, order)
    power_sums[order == 1, 0] = bulk_sq[order == 1]
    depth = rows.depth
    integral, rounding = np.zeros(rows.size), np.zeros(rows.size)
    for key, rows in _groups(panels * (_SERIES_MAX + 1) + order):
        count, k = divmod(key, _SERIES_MAX + 1)
        for lo, hi in _ranges(np.full(rows.size, count * _GL_NODES * k), _BLOCK):
            idx = rows[lo:hi]
            n = sizes[idx]
            integral[idx], rounding[idx] = _grid_integral(
                m[idx], t_max[idx], count, power_sums[idx, :k], depth[idx],
                _padded(head, starts[idx], n, 0.0), n, head_sum[idx])
    # past e^2 > pi the budget is at its cap of 1 anyway
    quad_err = np.array([math.exp(min(x, 2.0)) for x in log_err.tolist()])
    # 2 _U for 1/2 + integral/pi; delta and its estimate both lie in [0, 1],
    # so 1 always bounds the error
    budget = np.minimum((series_err + quad_err + tail + rounding) / math.pi + 2 * _U, 1.0)
    value = np.minimum(np.maximum(0.5 + integral / math.pi, 0.0), 1.0)
    return value, budget, panels * _GL_NODES


def density_fourier_batch(table: SpectralTable, rows: np.ndarray,
                          models: Sequence[tuple[int, int]]) -> list[DensityEstimate]:
    """P(X > 0) for each model (i, mean): the race of row i of scales over
    this table against that mean, by Gil-Pelaez inversion of the
    characteristic function.

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

    The models go in blocks of at most _BLOCK entries (components of
    nonzero scale), and each step of the engine is a few array operations
    over a block, its wider arrays taken a part at a time.  Every sum over
    a model's terms or components has that model's own length and order,
    so each estimate is bit for bit the one the model gets alone, whatever
    else is in the batch.
    """
    return _fourier_batch(table, rows, models)


def _fourier_batch(table: SpectralTable, rows: np.ndarray,
                   models: Sequence[tuple[int, int]]) -> list[DensityEstimate]:
    """Both public entries call this, so that the few-term warning names their caller."""
    rows = np.asarray(rows, dtype=float)
    which = np.array([i for i, _ in models], dtype=np.intp)
    counts = ((rows != 0.0) @ table.sizes)[which]
    if not counts.all():
        raise ValueError("empty term list")
    live = np.array([k for k, (_, mean) in enumerate(models) if mean != 0], dtype=np.intp)
    if (counts[live] < 3).any():
        warnings.warn("fewer than 3 oscillation terms: the integrand decays "
                      "slowly, and the tail bound is 1", stacklevel=3)
    out = [DensityEstimate(0.5, 0.0, 0)] * len(models)
    m = np.array([abs(float(models[k][1])) for k in live.tolist()])
    entries = np.count_nonzero(rows, axis=1)[which[live]]
    for lo, hi in _ranges(entries, _ROWS_BLOCK):
        block = live[lo:hi]
        values, budgets, nodes = _invert(_Rows.of(table, rows[which[block]]), m[lo:hi])
        for k, value, budget, count in zip(block.tolist(), values.tolist(),
                                           budgets.tolist(), nodes.tolist()):
            est = DensityEstimate(value, budget, count)
            out[k] = est if models[k][1] > 0 else complement(est)
    return out


def density_fourier(model: RaceModel) -> DensityEstimate:
    """P(X > 0) for one race model: ``density_fourier_batch`` of one row."""
    return _fourier_batch(model.table, model.row[None, :], [(0, model.mean)])[0]


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


def q_factor(row: np.ndarray, level: int, n: int, b1: int, b2: int) -> float:
    """Q(C1, C2) from the extremes of a weight row in ``character_ids`` order.

    b3 is the largest weight |lambda(C2+)-lambda(C1+)|, b4 the smallest
    nonzero one, lambda* the maximizing character (largest degree wins ties;
    the columns from 4 on are the degree-2 psi_j).  Over a proper base
    field Q = max(exp(QC sqrt(M0 b1 b2 / (deg* b3))), QC b3/b4, QC); over
    the rationals (level = n) the shared part is empty and Q = QC (b3/b4 + 1).
    """
    nonzero = row[row > 0.0]
    if not nonzero.size:
        raise ValueError("all character weights vanish; race undefined")
    b3 = float(nonzero.max())
    b4 = float(nonzero.min())
    deg = int(character_degrees(np.flatnonzero(row == b3)).max())
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
