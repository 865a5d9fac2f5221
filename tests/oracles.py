"""Test-only reference implementations.

The per-pair ``CycloInt`` computations the array path in ``chebrace.races``
replaced: one character value at a time, summed in the cyclotomic ring.
Tests compare the array path against them for equal integers and bit-equal
floats.

The per-pair race path from before ``races.race_table`` took a call's
pairs as one table: ``RaceSpec`` checks one pair's level and classes and
fuses them, and ``mean`` and ``weights`` give that pair's mean and weight
row, raising ``RaceUndefinedError`` when the fused classes coincide.
Tests compare the table against it for equal ``defined`` columns, means
and error messages (the first bad pair in order named), and bit-equal
weight rows, all-zero where the race is undefined.

``weights``' per-pair array path from before ``pair_weights`` took
every pair of a call in one pass over the table's value ids: one
``canonical_terms`` reduction of all characters' differences at the pair
(``difference_terms``), then one Python ``to_complex`` loop over the terms
(``complex_values``).  Tests require bit-equal weights.

The two chunked Monte Carlo loops the shared kernel in ``chebrace.density``
replaced: ``density_montecarlo``'s and ``monotonicity_experiment``'s.  Tests
compare the kernel against them for bit-equal estimates and intervals.

``density_fourier``'s engine from before the Gauss-Legendre grid:
QUADPACK's oscillatory-weighted adaptive quadrature over the full J0
product, with a series segment at 0 and the envelope tail.  Tests compare
the grid against it within the sum of the two error budgets.

``tower_experiment``'s per-pair loop from before it shared one Fourier
inversion among the rows with equal weights and equal |mean|: every row
runs its own ``density_fourier``, on a spectral table that holds only the
characters it weights.  Tests compare the driver against it for bit-equal
densities and budgets.

``density_fourier``'s per-model path from before one spectral table per
call: the model's terms sorted, prefix sums of r^2 and log r, the tail
bound on all 512 grid points with every split, and the bulk's power sums
one order at a time.  Tests require the table's classification of every
term to be the sorted list's, its power sums to agree within the stated
rounding bounds, and its windowed tail search to pick the same t_max.
The ``engine_*`` probes run one model's row through the batched engine's
steps for those comparisons.

The QUADPACK reference multiplies its J0 factors in long double, from
J0's power series up to x = 4: scipy's j0 is biased by about -0.6 ulp
there, and over a few thousand factors that bias moved the reference
beyond its own error estimate.

``density._panel_count``'s whole grid from before its Fibonacci search:
the Gauss-Legendre bound at all 24 Bernstein ellipse parameters of every
open row, the rows of one head size together, and its least value.
Tests require the search's panel counts and log bounds to be the grid's
bit for bit.

``races.assemble_race_model``, the sorted term list every driver but
``tower_experiment`` raced before each race became a row of scales over a
spectral table: every amplitude 2 w / |rho|, a character at a time, sorted
largest first, with the variance summed over that list.  Tests require
``density.RaceModel.terms`` to be that list bit for bit, and its variance
to lie within the table's stated rounding of the list's.

``mean_table``'s per-pair loop from before it took the closed-form and
published means once per class: both functions and the fused-class test
run for every class pair, and each pair is a ``MeanRow``.  Tests compare
the table's columns, read back as rows by ``mean_rows``, against it for
equal rows, and pin that both functions are differences of per-class
values.

The per-character induction from before ``characters.induction_pairs``:
``induce`` decomposes one level irreducible's induction at a time, and
``level_orders_by_induction`` sums the per-id ``central_order`` over those
components.  Tests compare the index pairs, ``races.level_orders``,
``ArithmeticScenario.central_orders`` and ``characters.sr_partition``
against them.

``report_json``'s expression from before it encoded each container of
leaves in one call: the whole report converted to plain types, then
json's indented encoder.  Tests require equal strings.

Brute-force and second-route references for the exact layers, which the
package itself never calls: the ring operations of ``CycloInt`` beyond the
sums the package builds (products, conjugation, change of order, integer
and complex values); group elements multiplied, inverted, enumerated and
embedded one at a time, with orders found by repeated multiplication; the
character table as ``CycloInt`` objects with inner products,
Frobenius-Schur indicators and restriction, and its orthogonality checked
exactly by integer matrix products modulo a prime; the odd-index
symplectic value sums; class fusion and induction summed over the whole
group; explicit 2x2 matrices of the degree-2 characters; inertia
invariants by averaging; the tame-conductor layer over literal primes
(conductor reports, the conductor-discriminant identity, explicit and
random ramification), built on the package's ``conductor_exponents``,
and the per-id conductor exponents and log conductors they replaced; the
central vanishing orders in closed form; the race variance from B0 sums;
and the partial inverse sums of a zero set with their analytic main term.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import j0

from chebrace.arithmetic import (
    _is_odd_prime,
    _random_nonidentity,
    ArithmeticScenario,
    VirtualPrime,
    conductor_exponents,
    scenario_generator,
)
from chebrace.characters import (
    _LINEAR_PARITIES,
    _linear_value,
    character_ids,
    character_index,
    character_value,
    induction_pairs,
    psi_id,
)
from chebrace.cyclotomic import (
    CycloInt,
    _canonical,
    _fold,
    _is_power_of_two,
    add,
    canonical_terms,
    cyclo_int,
    cyclo_zero,
    root_power,
    root_value,
)
from chebrace.density import (
    _MC_SALT,
    Z99,
    DensityEstimate,
    RaceModel,
    SpectralTable,
    complement,
    density_fourier,
)
from chebrace import density
from chebrace.experiments import _SHARED_MC_SALT, provision_zero_sets
from chebrace.groups import DIHEDRAL, QUATERNION, ClassLabel, Element, Group, GroupKind
from chebrace import races
from chebrace.races import (
    STATUS_MATCH,
    STATUS_OPEN_QUESTION,
    STATUS_UNDEFINED,
    InternalInconsistencyError,
    RaceTable,
    level_data,
    pair_weights,
)
from chebrace.zeros import TWO_PI, ZeroCountModel, ZeroSet


class RaceUndefinedError(ValueError):
    """Fused classes coincide: the two counting functions are identical."""


@dataclass(frozen=True)
class RaceSpec:
    scenario: ArithmeticScenario
    level: int
    c1: ClassLabel
    c2: ClassLabel

    def __post_init__(self) -> None:
        n = self.scenario.kind.n
        if not 3 <= self.level <= n:
            raise ValueError(f"level must satisfy 3 <= level <= {n}, got {self.level}")
        for lab in (self.c1, self.c2):
            if lab.kind == "power" and not 1 <= lab.k <= (1 << (self.level - 2)) - 1:
                raise ValueError(f"{lab} out of range at level {self.level}")
        if self.c1 == self.c2:
            raise ValueError("classes must differ")

    @property
    def group(self) -> Group:
        return self.scenario.group

    def fused_pair(self) -> tuple[ClassLabel, ClassLabel]:
        g = self.group
        return (g.class_fusion(self.level, self.c1),
                g.class_fusion(self.level, self.c2))

    def is_defined(self) -> bool:
        a, b = self.fused_pair()
        return a != b


def _check_defined(spec: RaceSpec) -> None:
    if not spec.is_defined():
        raise RaceUndefinedError(
            f"race undefined: fused classes coincide for ({spec.c1}, {spec.c2}) "
            f"at level {spec.level}; the counting functions are identical")


def mean(spec: RaceSpec) -> int:
    """Exact integer mean of X for the race, per the limiting formula, from
    the constant parts of its two classes alone."""
    _check_defined(spec)
    first, second = level_data(spec.scenario, spec.level, (spec.c1, spec.c2)).tolist()
    return second - first


def weights(spec: RaceSpec) -> np.ndarray:
    """|lambda(C2+) - lambda(C1+)| over the full-group irreducibles, in
    ``character_ids`` order: the one-pair case of ``pair_weights``."""
    _check_defined(spec)
    return pair_weights(spec.group, spec.fused_pair(), [0], [1])[0]


def z_value_cyclo(level_group: Group, label: ClassLabel,
                  orders: np.ndarray) -> int:
    """2 sum_{chi != chi0} chi(label) ord(chi), accumulated in Z[zeta], for
    orders in ``character_ids`` order; raises ValueError when the sum is not
    a rational integer."""
    m = level_group.rotation_order
    acc = cyclo_zero(m)
    for cid, order in zip(character_ids(level_group), np.asarray(orders).tolist()):
        if cid == "chi0" or order == 0:
            continue
        acc = add(acc, scale(character_value(level_group, cid, label), order))
    return as_int(scale(acc, 2))


def weights_cyclo(spec: RaceSpec) -> dict[str, float]:
    """|lambda(C2+) - lambda(C1+)| over the full-group irreducibles, one
    exact difference per character, then ``to_complex``."""
    if not spec.is_defined():
        raise RaceUndefinedError("fused classes coincide")
    g = spec.group
    f1, f2 = spec.fused_pair()
    return {cid: abs(to_complex(sub(character_value(g, cid, f2),
                                    character_value(g, cid, f1))))
            for cid in character_ids(g)}


def difference_terms(group: Group, c1: ClassLabel, c2: ClassLabel
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact chi(c2) - chi(c1) for every irreducible chi, one row per
    character in ``character_ids`` order, as canonical terms."""
    r1 = group.class_representative(c1)
    r2 = group.class_representative(c2)
    n_lin = len(_LINEAR_PARITIES)
    j = np.arange(1, 1 << (group.n - 2), dtype=np.int64)[:, None]
    exps = np.zeros((n_lin + j.size, 4), dtype=np.int64)
    exps[n_lin:] = j * [r2.exponent, -r2.exponent, r1.exponent, -r1.exponent]
    coeffs = np.zeros_like(exps)
    coeffs[:n_lin, 0] = [_linear_value(cid, r2.exponent, r2.flip)
                         - _linear_value(cid, r1.exponent, r1.flip)
                         for cid in _LINEAR_PARITIES]
    coeffs[n_lin:] = [1 - r2.flip, 1 - r2.flip, r1.flip - 1, r1.flip - 1]
    return canonical_terms(group.rotation_order, exps, coeffs)


def complex_values(order: int, rows, exponents, coeffs, count: int) -> list[complex]:
    """``to_complex`` of each of ``count`` rows of canonical terms, as
    returned by ``canonical_terms``; the terms are added in the same order
    and with the same operations, so every value is bit-identical."""
    exponents = np.asarray(exponents).tolist()
    root = {e: root_value(order, e) for e in set(exponents)}
    acc = [0j] * count
    for r, e, c in zip(np.asarray(rows).tolist(), exponents,
                       np.asarray(coeffs).tolist()):
        acc[r] += c * root[e]
    return acc


def weights_per_pair(group: Group, c1: ClassLabel, c2: ClassLabel) -> list[float]:
    """|chi(c2) - chi(c1)| over the irreducibles, in ``character_ids``
    order, from one pair's canonical terms and a Python ``to_complex``
    loop."""
    rows, exps, coeffs = difference_terms(group, c1, c2)
    count = len(character_ids(group))
    return [abs(v) for v in complex_values(group.rotation_order, rows, exps,
                                           coeffs, count)]


def density_montecarlo_loop(model, samples: int, seed: int) -> DensityEstimate:
    """``density_montecarlo`` as one chunk at a time on one thread, each
    chunk drawn as a single (take, terms) array, in float64 throughout.
    S is each row's own pairwise sum, the kernel's exact S, so even a mean
    at an exact tie m + S = 0 is decided as the kernel decides it."""
    if samples < 10_000:
        raise ValueError(f"need samples >= 10000, got {samples}")
    terms = model.terms
    if terms.size == 0:
        raise ValueError("empty term list")
    n_pairs = samples // 2
    chunk = max(128, (1 << 21) // max(terms.size, 1))
    s1 = 0.0
    s2 = 0.0
    done = 0
    index = 0
    mean = float(model.mean)
    while done < n_pairs:
        take = min(chunk, n_pairs - done)
        rng = np.random.default_rng(np.random.SeedSequence([_MC_SALT, seed, index]))
        u = rng.random((take, terms.size))
        x = mean + np.sum(np.cos(2.0 * np.pi * u) * terms, axis=1)
        y = 0.5 * ((x > 0.0).astype(float) + ((2.0 * mean - x) > 0.0))
        s1 += float(y.sum())
        s2 += float((y * y).sum())
        done += take
        index += 1
    value = s1 / n_pairs
    var_y = max(s2 / n_pairs - value * value, 0.0)
    ci = Z99 * math.sqrt(var_y / n_pairs)
    return DensityEstimate(min(max(value, 0.0), 1.0), ci, 2 * n_pairs)


def shared_mc_loop(terms: np.ndarray, level_means: Sequence[float], samples: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-level delta and 99% half-width of ``monotonicity_experiment``
    from one shared noise sample, one chunk at a time on one thread, in
    float64 throughout, with S as in ``density_montecarlo_loop``."""
    m_vec = np.array([float(m) for m in level_means])
    n_pairs = max(samples // 2, 1)
    chunk = max(16, (1 << 21) // max(terms.size, 1))
    sums = np.zeros(len(m_vec))
    sumsq = np.zeros(len(m_vec))
    done = 0
    index = 0
    while done < n_pairs:
        take = min(chunk, n_pairs - done)
        rng = np.random.default_rng(
            np.random.SeedSequence([_SHARED_MC_SALT, seed, index]))
        u = rng.random((take, terms.size))
        s = np.sum(np.cos(2.0 * np.pi * u) * terms, axis=1)
        # one shared noise draw decides every level: y = P(S > -m) symmetrized
        y = 0.5 * ((s[:, None] + m_vec[None, :] > 0.0).astype(float)
                   + (m_vec[None, :] - s[:, None] > 0.0).astype(float))
        sums += y.sum(axis=0)
        sumsq += (y * y).sum(axis=0)
        done += take
        index += 1
    deltas = sums / n_pairs
    var_y = np.maximum(sumsq / n_pairs - deltas * deltas, 0.0)
    cis = Z99 * np.sqrt(var_y / n_pairs)
    return deltas, cis


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


# J0's power series sum_k (-1)^k (x^2/4)^k / k!^2, in long double, to k = 22
# (past it the terms are below 2^-80 for x <= 4)
_J0_SERIES = [np.longdouble((-1) ** k) / np.longdouble(math.factorial(k)) ** 2
              for k in range(23)]


def j0_product(x: np.ndarray) -> float:
    """prod_j J0(x_j).  Factors with x <= 4 come from J0's power series in
    long double (64-bit mantissa), the rest from scipy's j0; the product is
    taken in long double.  scipy's j0 is biased below x = 1 (-0.58 ulp on
    average over [0, 0.3] against mpmath), so over a few thousand factors
    its plain float product drifts by ~1e-13 relative, far past a budget
    of ~1e-15."""
    small = x <= 4.0
    z = np.asarray(x[small], dtype=np.longdouble) ** 2 / 4
    series = np.full(z.size, _J0_SERIES[-1])
    for c in reversed(_J0_SERIES[:-1]):
        series = series * z + c
    return float(np.prod(series) * np.prod(j0(x[~small]).astype(np.longdouble)))


def density_fourier_quadpack(model, t_max: float | None = None,
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
        return DensityEstimate(0.5, 0.0, 0)
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
        return j0_product(terms * t) / t

    integral, quad_err, info, *message = quad(
        integrand, eps, t_max, weight="sin", wvar=m, limit=nodes,
        epsabs=1e-11, epsrel=1e-11, full_output=1)
    if message:  # full_output returns QUADPACK's warning instead of issuing it
        warnings.warn(message[0], IntegrationWarning)
    half_gap = (series + integral) / math.pi
    # QAWO may return its error estimate with a minus sign
    budget = (series_err + abs(quad_err) + tail) / math.pi
    est = DensityEstimate(min(max(0.5 + half_gap, 0.0), 1.0), budget,
                          info["neval"])
    return est if model.mean > 0 else complement(est)


def tower_rows_per_pair(family: str, n: int, w_axiom: int,
                        seed: int) -> list[dict]:
    """The model and density fields of every ``tower_experiment`` row, one
    inversion per class pair, each on a spectral table of its own that
    holds only the characters the pair weights."""
    if family == DIHEDRAL:
        w_axiom = +1
    scen = scenario_generator(family, n, w_axiom, seed)
    labels = scen.group.class_labels()
    ids = character_ids(scen.group)
    constant = level_data(scen, n, labels).tolist()
    rows = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            c1, c2 = labels[a], labels[b]
            spec = RaceSpec(scen, n, c1, c2)
            m = constant[b] - constant[a]
            row = weights(spec)
            needed = np.flatnonzero(row).tolist()
            zeros = provision_zero_sets(scen, needed, seed)
            model = one_row_model(m, row[needed], [column_moduli(zeros, c) for c in needed])
            est = density_fourier(model)
            rows.append({"c1": str(c1), "c2": str(c2), "mean_formula": m,
                         "weights": tuple(sorted(zip(ids, row.tolist()))),
                         "bias_factor": m / math.sqrt(model.variance) if m else 0.0,
                         "delta_fourier": est.value,
                         "delta_fourier_budget": est.error_bound})
    return rows


def spectral_table(moduli: Sequence[np.ndarray]) -> SpectralTable:
    """The spectral table with these moduli as its components, in columns
    0, 1, ..., with no horizon or log conductor (NaN)."""
    count = len(moduli)
    flat = np.concatenate([np.empty(0), *moduli])
    flat.flags.writeable = False
    return SpectralTable(np.arange(count), np.array([m.size for m in moduli], dtype=np.intp),
                         flat, np.full(count, math.nan), np.full(count, math.nan))


def column_moduli(table: SpectralTable, c: int) -> np.ndarray:
    """The moduli of a spectral table's component for column c, read by
    the column's position; KeyError when the table has no such column."""
    k = int(np.searchsorted(table.columns, c))
    if k == table.columns.size or table.columns[k] != c:
        raise KeyError(f"zero set missing for weighted column {c}")
    start = int(table.sizes[:k].sum())
    return table.moduli[start:start + int(table.sizes[k])]


def one_row_model(mean_value: int, weight_list: Sequence[float],
                  moduli: Sequence[np.ndarray]) -> RaceModel:
    """The race of this mean with these character weights over these zero
    moduli, on a table of its own."""
    return RaceModel(mean_value, spectral_table(moduli), 2.0 * np.asarray(weight_list))


def term_model(mean_value: int, terms: np.ndarray) -> RaceModel:
    """The race with exactly these amplitudes: one component of base 1 per
    term, scaled by the term."""
    terms = np.asarray(terms, dtype=float)
    return RaceModel(mean_value, spectral_table([np.ones(1)] * terms.size), terms)


# -- the sorted term list the spectral race model replaced ---------------------


@dataclass(frozen=True, eq=False)
class TermModel:
    """A race model as ``assemble_race_model`` built it: the mean, the
    variance and bias factor from the term list, and the terms."""

    mean: int
    variance: float
    bias_factor: float
    terms: np.ndarray


def assemble_race_model(mean_value: int, row: Sequence[float],
                        table: SpectralTable) -> TermModel:
    """Every amplitude 2 w / |rho| of the weighted columns of a weight row
    over a call's spectral table, a column at a time, sorted largest
    first, with the variance (1/2) sum r^2 over that list."""
    chunks: list[np.ndarray] = []
    for c, wv in enumerate(np.asarray(row, dtype=float).tolist()):
        if wv == 0.0:
            continue
        moduli = column_moduli(table, c)
        if moduli.size:
            chunks.append(2.0 * wv / moduli)
    terms = np.sort(np.concatenate(chunks))[::-1] if chunks else np.empty(0)
    var = 0.5 * float(np.sum(terms * terms))
    if not var > 0.0:
        raise ValueError("no oscillation terms: provide nonempty zero sets "
                         "for the weighted characters")
    return TermModel(mean_value, var, mean_value / math.sqrt(var), terms)


# -- the per-model Fourier path that one spectral table per call replaced ------
# Every model sorted its own terms, took prefix sums of r^2 and log r, bounded
# the tail on all 512 points of the grid, each split at any later point, and
# summed the bulk's powers one order at a time.


def sorted_tail_bounds(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tail bounds at every point of the geometric grid u for ascending
    amplitudes r, each the best split at any later grid point."""
    sq = np.concatenate(([0.0], np.cumsum(r * r)))
    logs = np.concatenate(([0.0], np.cumsum(np.log(r))))
    n = r.size
    gauss = np.searchsorted(r, density._H_KNEE / u, side="right")
    flat = np.searchsorted(r, density.J0_ZERO / u, side="left")
    k = n - flat
    log_g = (-0.25 * u * u * sq[gauss] + (flat - gauss) * math.log(density._H_FLAT)
             + 0.5 * k * np.log(2.0 / (math.pi * u)) - 0.5 * (logs[n] - logs[flat]))
    g = np.exp(log_g)
    rest = np.full(u.size, math.inf)
    decays = k >= 3
    rest[decays] = 2.0 * g[decays] / k[decays]
    steps = np.cumsum((g * math.log(density._TAIL_STEP))[::-1])[::-1]
    return steps + np.minimum.accumulate((rest - steps)[::-1])[::-1]


def sorted_t_max(r: np.ndarray, m: float, cap: int) -> tuple[int, float]:
    """The grid index of t_max and its tail bound, chosen over the whole
    grid for ascending amplitudes r."""
    u = density._GRID / math.sqrt(float(np.sum(r * r)))
    bounds = sorted_tail_bounds(r, u)
    ok = np.flatnonzero(bounds <= density._TAIL_TARGET)
    total = float(r.sum())
    sq = float(np.sum(r * r))

    def quad(t):
        b = density._ellipse_heights(t, cap)
        return density._quad_log_bounds(
            m, math.log(m), np.asarray(t)[..., None], b,
            np.minimum(0.25 * b * b * sq, b * total)).min(axis=-1)

    if ok.size and quad(u[ok[0]]) <= math.log(density._QUAD_TARGET):
        i = int(ok[0])
    else:
        with np.errstate(divide="ignore"):
            i = int(np.argmin(np.logaddexp(np.log(bounds), quad(u))))
    return i, float(bounds[i])


def sorted_bulk_power_sums(r: np.ndarray, t_max: float,
                           order: int) -> tuple[np.ndarray, np.ndarray]:
    """The head (r t_max >= 1) of ascending amplitudes r, and the bulk's
    power sums P_1..P_order, one order at a time."""
    split = int(np.searchsorted(r, 1.0 / t_max, side="left"))
    bulk, head = r[:split], r[split:]
    r2 = bulk * bulk
    power = r2.copy()
    power_sums = np.empty(order)
    for k in range(order):
        power_sums[k] = power.sum()
        power *= r2
    return head, power_sums


def panel_count_grid(m: np.ndarray, log_m: np.ndarray, t_max: np.ndarray,
                     head: np.ndarray, sizes: np.ndarray,
                     bulk_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``density._panel_count`` with the bound taken at every rho of _RHO
    and minimised: each panel count tried is one pass over the rows still
    open, a head size at a time."""
    starts = density._starts(sizes)
    panels = np.zeros(m.size, dtype=np.intp)
    log_err = np.zeros(m.size)
    open_rows = np.ones(m.size, dtype=bool)
    for count in density._PANEL_COUNTS:
        count = min(count, density._PANEL_CAP)
        for h, rows in density._groups(sizes):
            rows = rows[open_rows[rows]]
            if not rows.size:
                continue
            b = density._ellipse_heights(t_max[rows], count)
            x = b[:, :, None] * head[starts[rows, None] + np.arange(h)][:, None, :]
            x += np.log(density._i0e(x))
            bound = density._quad_log_bounds(
                m[rows, None], log_m[rows, None], t_max[rows, None], b,
                0.25 * b * b * bulk_sq[rows, None] + x.sum(axis=-1)).min(axis=-1)
            done = (bound <= math.log(density._QUAD_TARGET)) | (count == density._PANEL_CAP)
            panels[rows[done]] = count
            log_err[rows[done]] = bound[done]
            open_rows[rows[done]] = False
        if not open_rows.any():
            break
    return panels, log_err


def engine_rows(model) -> density._Rows:
    """A model's row of scales as the batched Fourier engine reads it,
    alone."""
    return density._Rows.of(model.table, model.row[None, :])


def engine_t_max(model, mean: float | None = None) -> tuple[float, float]:
    """The t_max and tail bound the engine picks for a model against
    |mean|, the model's own by default."""
    m = abs(float(model.mean if mean is None else mean))
    t_max, tail = density._t_max_and_tail(engine_rows(model), np.array([m]),
                                           np.array([math.log(m)]))
    return float(t_max[0]), float(tail[0])


def engine_top(model, reach: float) -> np.ndarray:
    """The top terms the engine lists for a model's row at this reach."""
    rows = engine_rows(model)
    counts = density._top(rows, np.array([reach]))
    return density._terms(rows, counts, slice(0, counts.size))


def engine_grid(model) -> tuple[np.ndarray, np.ndarray]:
    """The whole grid's points and the engine's tail bounds there for a
    model's row."""
    u, bounds = density._stretch(engine_rows(model), np.zeros(1, dtype=np.intp),
                                 density._TAIL_STEPS, density._TAIL_STEPS)
    return u[0], bounds[0]


@dataclass(frozen=True)
class MeanRow:
    c1: ClassLabel
    c2: ClassLabel
    mean_formula: int | None
    mean_published: int | None
    status: str


def mean_rows(table: tuple[RaceTable, np.ndarray]) -> list[MeanRow]:
    """The race table and published column of ``races.mean_table`` as one
    row per pair, with the status ``reproduce_table`` reports."""
    races, published = table
    rows = []
    for i, j, ok, f, p in zip(races.first.tolist(), races.second.tolist(),
                              races.defined.tolist(), races.means.tolist(),
                              published.tolist()):
        c1, c2 = races.labels[i], races.labels[j]
        if ok:
            rows.append(MeanRow(c1, c2, f, p,
                                STATUS_MATCH if p == f else STATUS_OPEN_QUESTION))
        else:
            rows.append(MeanRow(c1, c2, None, None, STATUS_UNDEFINED))
    return rows


def mean_table_per_pair(family: str, n: int, level: int,
                        w_axiom: int) -> list[MeanRow]:
    """Every unordered class pair's row, with ``race_mean_closed_form`` and
    ``published_mean`` evaluated for that pair (looked up on the module, so
    a patched closed form reaches it too)."""
    kind = GroupKind(family, n)
    group = Group(kind)
    labels = group.level(level).class_labels()
    fused = [group.class_fusion(level, lab) for lab in labels]
    constant = level_data(races._table_scenario(kind, w_axiom), level, labels)
    rows: list[MeanRow] = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            c1, c2 = labels[a], labels[b]
            if fused[a] == fused[b]:
                rows.append(MeanRow(c1, c2, None, None, STATUS_UNDEFINED))
                continue
            formula = int(constant[b] - constant[a])
            closed = races.race_mean_closed_form(kind, w_axiom, level, c1, c2)
            if closed != formula:
                raise InternalInconsistencyError(
                    f"mean engine self-check failed at level {level}: closed "
                    f"form {closed} != formula {formula} for ({c1}, {c2})")
            pub = races.published_mean(kind, w_axiom, level, c1, c2)
            status = STATUS_MATCH if pub == formula else STATUS_OPEN_QUESTION
            rows.append(MeanRow(c1, c2, formula, pub, status))
    return rows


# -- report plumbing ----------------------------------------------------------


def _native(value):
    """Recursively convert numpy scalars/arrays so json emits plain types."""
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_native(v) for v in value.tolist()]
    return value


def report_json_indent(report) -> str:
    """The report as json's indent=2 encoder writes it, after a walk that
    turns numpy scalars and arrays into plain values."""
    return json.dumps(_native(report), indent=2, sort_keys=True) + "\n"


# -- the cyclotomic ring ----------------------------------------------------


def neg(x: CycloInt) -> CycloInt:
    return CycloInt(x.order, tuple((e, -c) for e, c in x.terms))


def sub(x: CycloInt, y: CycloInt) -> CycloInt:
    return add(x, neg(y))


def scale(x: CycloInt, k: int) -> CycloInt:
    if k == 0:
        return cyclo_zero(x.order)
    return CycloInt(x.order, tuple((e, k * c) for e, c in x.terms))


def mul(x: CycloInt, y: CycloInt) -> CycloInt:
    assert x.order == y.order
    acc: dict[int, int] = {}
    for e1, c1 in x.terms:
        for e2, c2 in y.terms:
            e, c = _fold(x.order, e1 + e2, c1 * c2)
            acc[e] = acc.get(e, 0) + c
    return CycloInt(x.order, _canonical(x.order, acc))


def conjugate(x: CycloInt) -> CycloInt:
    """Complex conjugation, zeta -> zeta^(-1)."""
    acc: dict[int, int] = {}
    for e, c in x.terms:
        e2, c2 = _fold(x.order, -e, c)
        acc[e2] = acc.get(e2, 0) + c2
    return CycloInt(x.order, _canonical(x.order, acc))


def promote(x: CycloInt, new_order: int) -> CycloInt:
    """Embed Z[zeta_m] into Z[zeta_M] via zeta_m = zeta_M^(M/m); m must divide M."""
    assert _is_power_of_two(new_order) and new_order % x.order == 0
    step = new_order // x.order
    acc: dict[int, int] = {}
    for e, c in x.terms:
        e2, c2 = _fold(new_order, e * step, c)
        acc[e2] = acc.get(e2, 0) + c2
    return CycloInt(new_order, _canonical(new_order, acc))


def compress(x: CycloInt, new_order: int) -> CycloInt:
    """Inverse of promote: rewrite over Z[zeta_new] when every exponent allows it."""
    assert _is_power_of_two(new_order) and new_order >= 2 and x.order % new_order == 0
    step = x.order // new_order
    acc: dict[int, int] = {}
    for e, c in x.terms:
        if e % step != 0:
            raise ValueError(f"exponent {e} not divisible by {step}")
        e2, c2 = _fold(new_order, e // step, c)
        acc[e2] = acc.get(e2, 0) + c2
    return CycloInt(new_order, _canonical(new_order, acc))


def is_zero(x: CycloInt) -> bool:
    return not x.terms


def is_rational(x: CycloInt) -> bool:
    return all(e == 0 for e, _ in x.terms)


def as_int(x: CycloInt) -> int:
    """The value as a rational integer; raises if irrational."""
    if not x.terms:
        return 0
    if not is_rational(x):
        raise ValueError(f"not a rational integer: {x.terms}")
    return x.terms[0][1]


def to_complex(x: CycloInt) -> complex:
    acc = 0j
    for e, c in x.terms:
        acc += c * root_value(x.order, e)
    return acc


def to_float(x: CycloInt) -> float:
    z = to_complex(x)
    assert abs(z.imag) < 1e-9, "value is not real"
    return z.real


# -- group elements one at a time -------------------------------------------


def identity() -> Element:
    return Element(0, 0)


def elements(group: Group) -> list[Element]:
    return [Element(e, f) for f in (0, 1) for e in range(group.rotation_order)]


def multiply(group: Group, g: Element, h: Element) -> Element:
    # a^e1 b^f1 * a^e2 b^f2: the flip inverts the exponent it passes over.
    e = g.exponent + (-h.exponent if g.flip else h.exponent)
    f = g.flip ^ h.flip
    if group.family == QUATERNION and g.flip and h.flip:
        e += 1 << (group.n - 2)  # b^2 = a^(2^(n-2))
    return Element(e % group.rotation_order, f)


def inverse(group: Group, g: Element) -> Element:
    if g.flip == 0:
        return Element(-g.exponent % group.rotation_order, 0)
    if group.family == DIHEDRAL:
        return g  # flips are involutions
    # (a^e b)^(-1) = a^(e + 2^(n-2)) b: flips square to a^(2^(n-2)).
    return Element((g.exponent + (1 << (group.n - 2))) % group.rotation_order, 1)


def brute_force_order(group: Group, g: Element) -> int:
    """Oracle for ``Group.element_order``: multiply by g until the identity."""
    k = 1
    h = g
    while h != identity():
        h = multiply(group, h, g)
        k += 1
    return k


def class_members(group: Group, label: ClassLabel) -> list[Element]:
    if label.kind == "power":
        return [Element(label.k, 0), Element(group.rotation_order - label.k, 0)]
    if label.kind in ("flip_even", "flip_odd"):
        parity = 0 if label.kind == "flip_even" else 1
        return [Element(e, 1) for e in range(parity, group.rotation_order, 2)]
    return [group.class_representative(label)]


def embed(group: Group, i: int, g: Element) -> Element:
    """Coordinates of a level-i element inside the full group."""
    assert 3 <= i <= group.n
    step = 1 << (group.n - i)
    return Element((g.exponent * step) % group.rotation_order, g.flip)


# -- groups and characters --------------------------------------------------


def brute_force_fusion(group: Group, i: int, label: ClassLabel) -> ClassLabel:
    """Oracle: fuse by conjugating every embedded class member by every element."""
    level = group.level(i)
    images = {
        group.conjugacy_class_of(
            multiply(group, multiply(group, t, embed(group, i, m)), inverse(group, t))
        )
        for m in class_members(level, label)
        for t in elements(group)
    }
    assert len(images) == 1, f"fusion of {label} is not a single class: {images}"
    return images.pop()


ORTHOGONAL = "orthogonal"


SYMPLECTIC = "symplectic"


UNITARY = "unitary"


@dataclass(frozen=True, eq=False)
class Character:
    cid: str
    degree: int
    values: Mapping[ClassLabel, CycloInt]

    def value(self, label: ClassLabel) -> CycloInt:
        return self.values[label]


@dataclass(frozen=True, eq=False)
class CharacterTable:
    group: Group
    characters: tuple[Character, ...]

    def by_id(self, cid: str) -> Character:
        for chi in self.characters:
            if chi.cid == cid:
                return chi
        raise KeyError(cid)

    @property
    def ring_order(self) -> int:
        return self.group.rotation_order


def character_table(group: Group) -> CharacterTable:
    labels = group.class_labels()
    chars = tuple(
        Character(cid, character_degree(cid),
                  {lab: character_value(group, cid, lab) for lab in labels})
        for cid in character_ids(group)
    )
    table = CharacterTable(group, chars)
    assert sum(c.degree**2 for c in chars) == group.order
    return table


def inner_product(group: Group, f: Mapping[ClassLabel, CycloInt],
                  g: Mapping[ClassLabel, CycloInt]) -> Fraction:
    """(1/|G|) sum_C |C| f(C) conj(g(C)), exact; raises if not rational."""
    m = group.rotation_order
    acc = cyclo_zero(m)
    for lab in group.class_labels():
        term = mul(f[lab], conjugate(g[lab]))
        acc = add(acc, scale(term, group.class_size(lab)))
    return Fraction(as_int(acc), group.order)


def _ntt_prime(m: int, bound: int) -> int:
    """The least prime p = 1 (mod m) with p > 2 bound."""
    p = (2 * bound // m + 1) * m + 1
    while not _is_odd_prime(p):
        p += m
    return p


def _root_of_unity(m: int, p: int) -> int:
    """An element of order m, a power of two, in F_p for p = 1 (mod m)."""
    for x in range(2, p):
        w = pow(x, (p - 1) // m, p)
        if pow(w, m // 2, p) == p - 1:
            return w
    raise ValueError(f"no element of order {m} modulo {p}")


def orthogonality_mod_p(table: CharacterTable) -> tuple[bool, bool]:
    """Whether the rows and the columns of the table are orthogonal,
    decided exactly by integer matrix products.

    Z[zeta_m] = Z[x]/(x^(m/2) + 1), and for a prime p = 1 (mod m) that
    polynomial splits over F_p into the m/2 distinct factors x - w^(2j+1),
    w of order m, so Z[zeta]/(p) is F_p^(m/2): one coordinate per embedding
    zeta -> w^(2j+1), and conjugation zeta -> zeta^(-1) sends embedding j
    to m/2 - 1 - j.  An element whose power-basis coefficients lie in
    (-p/2, p/2) is zero iff every coordinate is.  p is chosen above twice
    a bound on the coefficients of every difference checked, so

        X diag(|C|) conj(X)^T = |G| I   and   conj(X)^T X = diag(|G|/|C|)

    hold in Z[zeta] iff they hold in every coordinate, X being the
    characters x classes table.
    """
    group = table.group
    m = group.rotation_order
    half = m // 2
    labels = group.class_labels()
    sizes = np.array([group.class_size(lab) for lab in labels], dtype=np.int64)
    coeffs = np.zeros((len(table.characters), len(labels), half), dtype=np.int64)
    for a, chi in enumerate(table.characters):
        for b, lab in enumerate(labels):
            for e, c in chi.value(lab).terms:
                coeffs[a, b, e] = c
    # a coefficient of x conj(y) is at most l1(x) l1(y) in absolute value,
    # l1 being the sum of |coefficients|
    l1 = np.abs(coeffs).sum(axis=2)
    bound = max(int(sizes @ l1.max(axis=0) ** 2),
                int((l1.max(axis=1) ** 2).sum())) + group.order
    p = _ntt_prime(m, bound)
    roots = [pow(_root_of_unity(m, p), 2 * j + 1, p) for j in range(half)]
    powers = np.array([[pow(z, e, p) for z in roots] for e in range(half)],
                      dtype=np.int64)
    images = np.moveaxis(coeffs @ powers % p, 2, 0)  # embeddings x chars x classes
    conj_t = np.swapaxes(images[::-1], 1, 2)
    rows = (images * sizes % p) @ conj_t % p
    cols = conj_t @ images % p
    rows_want = np.eye(len(table.characters), dtype=np.int64) * group.order % p
    cols_want = np.diag(group.order // sizes) % p
    return bool((rows == rows_want).all()), bool((cols == cols_want).all())


def frobenius_schur(table: CharacterTable, chi: Character) -> int:
    """(1/|G|) sum_g chi(g^2), via classes: g -> g^2 is class-constant."""
    group = table.group
    acc = cyclo_zero(table.ring_order)
    for lab in group.class_labels():
        rep = group.class_representative(lab)
        sq = group.conjugacy_class_of(multiply(group, rep, rep))
        acc = add(acc, scale(chi.value(sq), group.class_size(lab)))
    total = as_int(acc)
    assert total % group.order == 0
    ind = total // group.order
    assert ind in (-1, 0, 1)
    return ind


def fs_type(table: CharacterTable, chi: Character) -> str:
    return {1: ORTHOGONAL, -1: SYMPLECTIC, 0: UNITARY}[frobenius_schur(table, chi)]


def is_faithful(table: CharacterTable, chi: Character) -> bool:
    """True iff chi(C) = chi(1) only at the identity class."""
    m = table.ring_order
    top = cyclo_int(m, chi.degree)
    for lab in table.group.class_labels():
        if lab.kind == "one":
            continue
        if chi.value(lab) == top:
            return False
    return True


def restrict(group: Group, i: int, cid: str) -> dict[ClassLabel, CycloInt]:
    """Values of a full-group character on the classes of the level-i subgroup."""
    level = group.level(i)
    out: dict[ClassLabel, CycloInt] = {}
    for lab in level.class_labels():
        rep = level.class_representative(lab)
        full_lab = group.conjugacy_class_of(embed(group, i, rep))
        out[lab] = compress(character_value(group, cid, full_lab),
                            level.rotation_order)
    return out


def character_degree(cid: str) -> int:
    """Per-id degree: 2 for the psi_j, 1 for chi0..chi3 (the columns below
    4 of ``character_ids``)."""
    return 2 if cid.startswith("psi_") else 1


def is_symplectic(cid: str) -> bool:
    """Per-id form of ``characters.symplectic_mask`` for the quaternion
    family: exactly the odd-index psi_j are symplectic."""
    return cid.startswith("psi_") and int(cid.split("_")[1]) % 2 == 1


def central_order(scenario: ArithmeticScenario, cid: str) -> int:
    """Per-id form of ``ArithmeticScenario.central_orders``: an override
    if one names ``cid``, else (1 - W)/2 on the quaternion family's
    symplectic characters, else 0."""
    for k, v in scenario.order_overrides:
        if k == cid:
            return v
    if scenario.kind.family == QUATERNION and is_symplectic(cid):
        return (1 - scenario.w_axiom) // 2
    return 0


@dataclass(frozen=True)
class InducedDecomposition:
    level: int
    components: tuple[tuple[str, int], ...]

    def component_ids(self) -> set[str]:
        return {cid for cid, _ in self.components}


def _psi_range(n: int, residue: int, modulus: int) -> list[int]:
    start = residue % modulus
    if start == 0:
        start = modulus
    return list(range(start, 1 << (n - 2), modulus))


def induce(group: Group, i: int, source_id: str) -> InducedDecomposition:
    """Decompose the induction of one level-i irreducible into the full
    group, the per-source form of ``characters.induction_pairs``.

    Closed components: the two relevant degree-1 characters plus psi_j for
    j = 0 mod 2^(i-1) (sources chi0, chi1), the pure psi block at
    j = 2^(i-2) mod 2^(i-1) (sources chi2, chi3), and the folded block
    j = +-k mod 2^(i-1) (source psi_k).  Degree bookkeeping asserted here.
    """
    n = group.n
    if not 3 <= i <= n:
        raise ValueError(f"level must satisfy 3 <= i <= {n}, got {i}")
    if i == n:
        comps = [(source_id, 1)]
        src_degree = character_degree(source_id)
    else:
        step = 1 << (i - 1)
        if source_id in ("chi0", "chi1"):
            heads = ["chi0", "chi2"] if source_id == "chi0" else ["chi1", "chi3"]
            comps = [(h, 1) for h in heads]
            comps += [(psi_id(j), 1) for j in _psi_range(n, 0, step)]
            src_degree = 1
        elif source_id in ("chi2", "chi3"):
            comps = [(psi_id(j), 1) for j in _psi_range(n, 1 << (i - 2), step)]
            src_degree = 1
        elif source_id.startswith("psi_"):
            k = int(source_id.split("_")[1])
            assert 1 <= k < (1 << (i - 2))
            js = sorted(set(_psi_range(n, k, step)) | set(_psi_range(n, -k, step)))
            comps = [(psi_id(j), 1) for j in js]
            src_degree = 2
        else:
            raise KeyError(source_id)
    total = sum(mult * character_degree(cid) for cid, mult in comps)
    assert total == (1 << (n - i)) * src_degree, (source_id, i, total)
    return InducedDecomposition(i, tuple(sorted(comps)))


def induced_components(group: Group, i: int) -> dict[str, dict[str, int]]:
    """``characters.induction_pairs`` read back per level irreducible, as
    {component id: multiplicity}, the form of ``brute_force_induce``."""
    level_ids, ids = character_ids(group.level(i)), character_ids(group)
    out: dict[str, dict[str, int]] = {cid: {} for cid in level_ids}
    for src, comp in zip(*(a.tolist() for a in induction_pairs(group, i))):
        parts = out[level_ids[src]]
        parts[ids[comp]] = parts.get(ids[comp], 0) + 1
    return out


def level_orders_by_induction(scenario: ArithmeticScenario,
                              level: int) -> dict[str, int]:
    """``races.level_orders`` a character at a time: each level
    irreducible's ``induce`` components, their ``central_order`` summed
    with multiplicity."""
    group = scenario.group
    return {cid: sum(mult * central_order(scenario, comp)
                     for comp, mult in induce(group, level, cid).components)
            for cid in character_ids(group.level(level))}


def brute_force_induce(table: CharacterTable, i: int,
                       values: Mapping[ClassLabel, CycloInt]) -> dict[str, int]:
    """Oracle: induced class function summed over the whole group, then
    decomposed by exact inner products.  Quadratic in |G|; tests cap n."""
    group = table.group
    level = group.level(i)
    m = group.rotation_order
    member_of = {embed(group, i, h): lab
                 for lab in level.class_labels()
                 for h in class_members(level, lab)}
    ind_vals: dict[ClassLabel, CycloInt] = {}
    for lab in group.class_labels():
        g = group.class_representative(lab)
        acc = cyclo_zero(m)
        for t in elements(group):
            conj_g = multiply(group, multiply(group, t, g), inverse(group, t))
            src = member_of.get(conj_g)
            if src is not None:
                acc = add(acc, promote(values[src], m))
        ind_vals[lab] = acc  # |H| * Ind(value); divided out below
    out: dict[str, int] = {}
    for chi in table.characters:
        raw = inner_product(group, ind_vals, chi.values)
        mult = Fraction(raw, level.order)
        assert mult.denominator == 1 and mult >= 0
        if mult:
            out[chi.cid] = int(mult)
    return out


def multiplicity(dec: InducedDecomposition, cid: str) -> int:
    """How often ``cid`` occurs in an induced decomposition."""
    return dict(dec.components).get(cid, 0)


def symplectic_value_sum(i: int, k: int) -> CycloInt:
    """Sum of zeta^(jk) + zeta^(-jk) over odd j in [1, 2^(i-2)-1], zeta of
    order 2^(i-1): the symplectic psi_j's values at a^k.  It cancels to zero
    exactly, which the tests assert."""
    if i < 3:
        raise ValueError(f"need i >= 3, got {i}")
    if not 1 <= k <= (1 << (i - 2)) - 1:
        raise ValueError(f"need 1 <= k <= {(1 << (i - 2)) - 1}, got {k}")
    m = 1 << (i - 1)
    j = np.arange(1, 1 << (i - 2), 2)
    _, exps, coeffs = canonical_terms(m, np.concatenate((j * k, -j * k))[None, :], 1)
    return CycloInt(m, tuple(zip(exps.tolist(), coeffs.tolist())))


def degree_two_matrices(group: Group, j: int, element) -> list[list[complex]]:
    """Explicit 2x2 matrix of psi_j at an element, for the conductor oracle.

    Rotations are diag(zeta^(je), zeta^(-je)); the flip is the swap matrix in
    the dihedral family and for even j, and the symplectic rotation for odd j
    in the quaternion family.
    """
    m = group.rotation_order
    za = to_complex(root_power(m, j * element.exponent))
    zb = to_complex(root_power(m, -j * element.exponent))
    rot = [[za, 0j], [0j, zb]]
    if not element.flip:
        return rot
    if group.family == "quaternion" and j % 2 == 1:
        flip = [[0j, -1 + 0j], [1 + 0j, 0j]]
    else:
        flip = [[0j, 1 + 0j], [1 + 0j, 0j]]
    return [
        [
            rot[r][0] * flip[0][c] + rot[r][1] * flip[1][c]
            for c in range(2)
        ]
        for r in range(2)
    ]


# -- arithmetic -------------------------------------------------------------


def invariant_dimension_average(group: Group, cid: str, generator: Element) -> int:
    """dim of the inertia-fixed subspace, (1/|I|) sum over <generator> of chi.

    Exact cyclotomic averaging; linear in the inertia order, so only usable
    for small groups.  Kept as the oracle the closed form is tested against.
    """
    order = brute_force_order(group, generator)
    acc = cyclo_zero(group.rotation_order)
    t = identity()
    for _ in range(order):
        acc = add(acc, character_value(group, cid, group.conjugacy_class_of(t)))
        t = multiply(group, t, generator)
    total = as_int(acc)
    assert total % order == 0, (cid, generator, total)
    dim = total // order
    assert 0 <= dim <= character_degree(cid)
    return dim


def invariant_dimension(group: Group, cid: str, generator: Element) -> int:
    """Per-id closed form for the inertia-fixed dimension, the reference
    for ``arithmetic.conductor_exponents``.

    Degree 1: the cyclic inertia acts through chi(generator), so the line is
    fixed iff that value is 1.  Degree 2 at a rotation a^e: the matrix is
    diag(zeta^(je), zeta^(-je)), fixed space has dimension 2 iff
    je = 0 mod 2^(n-1), else 0.  Degree 2 at a reflected element: in the
    dihedral family the element is an involution swapping the eigenlines
    (dimension 1); in the quaternion family it generates an order-4 subgroup
    through -1, whose average is (2 + 2(-1)^j)/4.
    """
    m = group.rotation_order
    if character_degree(cid) == 1:
        val = character_value(group, cid, group.conjugacy_class_of(generator))
        return 1 if val == cyclo_int(m, 1) else 0
    j = int(cid.split("_")[1])
    if generator.flip:
        if group.family == DIHEDRAL:
            return 1
        return 1 if j % 2 == 0 else 0
    return 2 if (j * generator.exponent) % m == 0 else 0


def conductor_exponent(group: Group, cid: str, generator: Element) -> int:
    """Per-id tame n(chi, p) = chi(1) - dim V^I for inertia <generator>."""
    return character_degree(cid) - invariant_dimension(group, cid, generator)


def log_conductor(scenario: ArithmeticScenario, cid: str) -> float:
    """Per-id form of ``ArithmeticScenario.log_conductors``: the sum over
    the scenario's primes of n(chi, p) log p, one character at a time."""
    group = scenario.group
    return sum(
        conductor_exponent(group, cid, vp.inertia) * vp.log_p
        for vp in scenario.primes
    )


@dataclass(frozen=True)
class RamifiedPrime:
    p: int
    inertia: Element

    def __post_init__(self) -> None:
        if not _is_odd_prime(self.p):
            raise ValueError(f"ramified prime must be an odd prime >= 3, got {self.p}")


@dataclass(frozen=True)
class RamificationData:
    """Literal ramified primes with their (tame, cyclic) inertia generators."""

    kind: GroupKind
    primes: tuple[RamifiedPrime, ...]

    def __post_init__(self) -> None:
        ps = [rp.p for rp in self.primes]
        if len(set(ps)) != len(ps):
            raise ValueError(f"ramified primes must be distinct: {ps}")
        for rp in self.primes:
            if rp.inertia == identity():
                raise ValueError(f"inertia at {rp.p} is trivial; prime not ramified")


def artin_conductor_tame(group: Group, cid: str,
                         ram: RamificationData) -> dict[int, int]:
    """Exponent map p -> n(chi, p) over the ramified primes, read from the
    package's ``conductor_exponents``."""
    assert ram.kind == group.kind
    c = character_index(group, cid)
    return {rp.p: int(conductor_exponents(group, rp.inertia)[c]) for rp in ram.primes}


@dataclass(frozen=True)
class CharacterConductor:
    character_id: str
    exponents: tuple[tuple[int, int], ...]  # (p, n(chi, p)), ramified primes only


def conductor_report(group: Group, ram: RamificationData) -> dict[str, CharacterConductor]:
    return {
        cid: CharacterConductor(
            cid, tuple(sorted(artin_conductor_tame(group, cid, ram).items()))
        )
        for cid in character_ids(group)
    }


def conductor_discriminant(group: Group, ram: RamificationData) -> dict[int, int]:
    """Factored |d| = prod over chi of A(chi)^chi(1), as {p: exponent}."""
    out: dict[int, int] = {rp.p: 0 for rp in ram.primes}
    for cid in character_ids(group):
        deg = character_degree(cid)
        for p, n in artin_conductor_tame(group, cid, ram).items():
            out[p] += deg * n
    return out


def discriminant_exponent_tame(group: Group, generator: Element) -> int:
    """Second route: ord_p |d| = (e-1) |G| / e for tame cyclic inertia of
    order e, e found by repeated multiplication."""
    e = brute_force_order(group, generator)
    assert group.order % e == 0
    return (e - 1) * (group.order // e)


def explicit_scenario(ram: RamificationData) -> ArithmeticScenario:
    """W = +1 scenario with literal primes; log_disc is the exact
    conductor-discriminant value."""
    group = Group(ram.kind)
    disc = conductor_discriminant(group, ram)
    log_disc = sum(n * math.log(p) for p, n in disc.items())
    primes = tuple(
        VirtualPrime(rp.p, math.log(rp.p), rp.inertia) for rp in ram.primes
    )
    return ArithmeticScenario(ram.kind, +1, primes, log_disc)


_SMALL_ODD_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def random_ramification(kind: GroupKind, seed: int) -> RamificationData:
    """Randomized explicit tame data: 5 and one other small odd prime, each
    with random cyclic inertia."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5CE9A810, seed]))
    group = Group(kind)
    chosen = rng.choice(len(_SMALL_ODD_PRIMES), size=1, replace=False)
    ps = [5] + [_SMALL_ODD_PRIMES[int(c)] for c in chosen]
    return RamificationData(
        kind,
        tuple(RamifiedPrime(p, _random_nonidentity(rng, group)) for p in ps),
    )


def vanishing_orders(kind: GroupKind, w_axiom: int, i: int) -> dict[str, int]:
    """Central vanishing orders for the level-i irreducibles under the
    independence axiom: W = -1 sends every symplectic character of the level
    to 2^(n-i), everything else (and the whole dihedral family) to 0."""
    assert w_axiom in (+1, -1)
    group = Group(kind)
    if not 3 <= i <= kind.n:
        raise ValueError(f"level must satisfy 3 <= i <= {kind.n}, got {i}")
    level_ids = character_ids(group.level(i))
    if kind.family == DIHEDRAL or w_axiom == +1:
        return {cid: 0 for cid in level_ids}
    return {
        cid: (1 << (kind.n - i)) if is_symplectic(cid) else 0
        for cid in level_ids
    }


# -- races and zeros --------------------------------------------------------


def variance(spec: RaceSpec, b0_map: Mapping[str, float]) -> float:
    """2 sum_lambda |lambda(C1+)-lambda(C2+)|^2 B0(lambda); with the
    one-sided B0 this is the actual variance of X."""
    total = 0.0
    for cid, wv in zip(character_ids(spec.group), weights(spec).tolist()):
        if wv == 0.0:
            continue
        if cid not in b0_map:
            raise KeyError(f"b0 value missing for weighted character {cid}")
        total += wv * wv * b0_map[cid]
    total *= 2.0
    if not total > 0.0:
        raise ValueError("variance must be positive when the fused classes differ")
    return total


def bias_factor(spec: RaceSpec, b0_map: Mapping[str, float]) -> float:
    """mean / sqrt(variance)."""
    return mean(spec) / math.sqrt(variance(spec, b0_map))


class HorizonError(ValueError):
    """Query beyond the completeness horizon T_max."""


def zero_set_problem(ordinates: Sequence[float], t_max: float) -> str | None:
    """What ZeroSet rejects in these ordinates, checked one Python float
    at a time as it was before its ordinates became an array: the message
    for the first ordinate not strictly above the one before (or above 0,
    for the first), NaN included, then for a last ordinate past t_max; or
    None."""
    prev = 0.0
    for k, g in enumerate(ordinates):
        if not g > prev:
            return (f"ordinate #{k + 1} = {g!r} not strictly above "
                    f"{'0' if k == 0 else repr(prev)}")
        prev = g
    if ordinates and ordinates[-1] > t_max:
        return f"ordinate {ordinates[-1]!r} exceeds T_max = {t_max!r}"
    return None


def same_zero_set(a: ZeroSet, b: ZeroSet) -> bool:
    """Every field of a equals b's, the ordinates value for value (a
    ZeroSet's own equality is identity)."""
    return (np.array_equal(a.ordinates, b.ordinates)
            and (a.character_id, a.t_max, a.source, a.log_conductor)
            == (b.character_id, b.t_max, b.source, b.log_conductor))


def column_set(table: SpectralTable, c: int) -> tuple:
    """Column c of a spectral table as (moduli bytes, T_max, log conductor
    or None), to compare with another table's or with ``zero_set_column``."""
    k = int(np.searchsorted(table.columns, c))
    log_c = float(table.log_conductors[k])
    return (column_moduli(table, c).tobytes(), float(table.t_max[k]),
            None if math.isnan(log_c) else log_c)


def zero_set_column(zs: ZeroSet) -> tuple:
    """``column_set`` of a table holding this zero set: its moduli
    sqrt(1/4 + gamma^2) taken here, T_max and log conductor."""
    g = zs.ordinates
    return np.sqrt(0.25 + g * g).tobytes(), zs.t_max, zs.log_conductor


def b0(zs: ZeroSet, two_sided: bool = False) -> float:
    """Sum of 1/(1/4 + gamma^2) over the stored ordinates.

    Defaults to the one-sided sum over gamma > 0 as used in the variance
    formula; two_sided doubles it to cover the conjugate zeros at -gamma.
    """
    g = zs.ordinates
    total = float(np.sum(1.0 / (0.25 + g * g))) if g.size else 0.0
    return 2.0 * total if two_sided else total


def partial_inverse_sum(zs: ZeroSet, t: float) -> float:
    """Sum of 1/sqrt(1/4 + gamma^2) over ordinates with gamma <= t."""
    if t > zs.t_max:
        raise HorizonError(f"t = {t!r} beyond completeness horizon {zs.t_max!r}")
    if t < 1.0:
        raise ValueError(f"need t >= 1, got {t}")
    g = zs.ordinates[zs.ordinates <= t]
    return float(np.sum(1.0 / np.sqrt(0.25 + g * g))) if g.size else 0.0


def partial_inverse_main_term(model: ZeroCountModel, t: float) -> float:
    """Analytic main term for partial_inverse_sum on a synthetic set:
    (log t / 2pi) * log(A (sqrt(t)/2pi e)^deg)."""
    return (math.log(t) / TWO_PI) * (
        model.log_conductor
        + model.degree_factor * (0.5 * math.log(t) - math.log(TWO_PI) - 1.0))


def partial_inverse_tolerance(model: ZeroCountModel, t: float) -> float:
    """Tolerance band 5 (1 + log(A (t+4)^deg)) for the main-term comparison."""
    return 5.0 * (1.0 + model.log_conductor
                  + model.degree_factor * math.log(t + 4.0))


# -- values the package computes or quotes but never reads ---------------------


def q_factor_extremes(weights: Mapping[str, float]) -> tuple[float, float, str, int]:
    """b3, b4, lambda* and deg lambda* of ``density.q_factor``: the largest
    and smallest nonzero weight, and the character of the largest (largest
    degree first, then id)."""
    nonzero = {cid: w for cid, w in weights.items() if w > 0.0}
    b3 = max(nonzero.values())
    star = sorted((cid for cid, w in nonzero.items() if w == b3),
                  key=lambda cid: (-character_degree(cid), cid))[0]
    return b3, min(nonzero.values()), star, character_degree(star)


def scenario_regime(n: int) -> tuple[float, float]:
    """The bracket [2^n / 2, n 2^n] that ``scenario_generator`` draws
    log|d| from."""
    return 0.5 * 2.0**n, n * 2.0**n


def sr_split(group: Group, i: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The level's irreducibles whose inductions are disjoint from every
    other's (S), and the rest but chi0 (R), as ``characters.sr_partition``
    splits them for its b1 and b2."""
    level_ids = character_ids(group.level(i))
    comps = {cid: induce(group, i, cid).component_ids() for cid in level_ids}
    s_ids = tuple(cid for cid in level_ids
                  if all(comps[cid].isdisjoint(comps[other])
                         for other in level_ids if other != cid))
    return s_ids, tuple(cid for cid in level_ids
                        if cid not in s_ids and cid != "chi0")


# b1, b2 and the entangled characters quoted alongside the towers' analysis
# at every proper level; ``characters.sr_partition`` computes its own
PUBLISHED_SR = (2, 2, ("chi2", "chi3"))
