"""Test-only reference implementations.

The per-pair ``CycloInt`` computations the array path in ``chebrace.races``
replaced: one character value at a time, summed in the cyclotomic ring.
Tests compare the array path against them for equal integers and bit-equal
floats.

``races.weights``' per-pair array path from before ``pair_weights`` took
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
assembles its own model and runs its own ``density_fourier``.  Tests
compare the driver against it for bit-equal densities and budgets.

``mean_table``'s per-pair loop from before it took the closed-form and
published means once per class: both functions and the fused-class test
run for every class pair.  Tests compare the table against it for equal
rows, and pin that both functions are differences of per-class values.

``report_json``'s expression from before it encoded each container of
leaves in one call: the whole report converted to plain types, then
json's indented encoder.  Tests require equal strings.

Brute-force and second-route references for the exact layers, which the
package itself never calls: the character table as ``CycloInt`` objects
with inner products, Frobenius-Schur indicators and restriction; class
fusion and induction summed over the whole group; explicit 2x2 matrices of
the degree-2 characters; inertia invariants by averaging; the central
vanishing orders in closed form; the race variance from B0 sums; and the
partial inverse sums of a zero set with their analytic main term.
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

from chebrace.arithmetic import inertia_order, scenario_generator
from chebrace.characters import (
    _LINEAR_PARITIES,
    _linear_value,
    character_degree,
    character_ids,
    character_value,
    is_symplectic,
)
from chebrace.cyclotomic import (
    CycloInt,
    add,
    canonical_terms,
    compress,
    conjugate,
    cyclo_int,
    cyclo_zero,
    mul,
    promote,
    root_power,
    root_value,
    scale,
    sub,
)
from chebrace.density import (
    _MC_SALT,
    FOURIER,
    MONTECARLO,
    Z99,
    DensityEstimate,
    complement,
    density_fourier,
)
from chebrace.experiments import _SHARED_MC_SALT, provision_zero_sets
from chebrace.groups import DIHEDRAL, ClassLabel, Element, Group, GroupKind
from chebrace import races
from chebrace.races import (
    STATUS_MATCH,
    STATUS_OPEN_QUESTION,
    STATUS_UNDEFINED,
    InternalInconsistencyError,
    MeanRow,
    RaceModel,
    RaceSpec,
    RaceUndefinedError,
    assemble_race_model,
    level_data,
    mean,
    weights,
)
from chebrace.zeros import TWO_PI, ZeroCountModel, ZeroSet


def z_value_cyclo(level_group: Group, label: ClassLabel,
                  orders: Mapping[str, int]) -> int:
    """2 sum_{chi != chi0} chi(label) ord(chi), accumulated in Z[zeta];
    raises ValueError when the sum is not a rational integer."""
    m = level_group.rotation_order
    acc = cyclo_zero(m)
    for cid, order in orders.items():
        if cid == "chi0" or order == 0:
            continue
        acc = add(acc, scale(character_value(level_group, cid, label), order))
    return scale(acc, 2).as_int()


def weights_cyclo(spec: RaceSpec) -> dict[str, float]:
    """|lambda(C2+) - lambda(C1+)| over the full-group irreducibles, one
    exact difference per character, then ``CycloInt.to_complex``."""
    if not spec.is_defined():
        raise RaceUndefinedError("fused classes coincide")
    g = spec.group
    f1, f2 = spec.fused_pair()
    return {cid: abs(sub(character_value(g, cid, f2),
                         character_value(g, cid, f1)).to_complex())
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


def density_montecarlo_loop(model: RaceModel, samples: int, seed: int) -> DensityEstimate:
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
    return DensityEstimate(min(max(value, 0.0), 1.0), MONTECARLO, ci, 2 * n_pairs)


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


def density_fourier_quadpack(model: RaceModel, t_max: float | None = None,
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


def tower_rows_per_pair(family: str, n: int, w_axiom: int, seed: int,
                        min_zeros: int = 64, nodes: int = 2000) -> list[dict]:
    """The model and density fields of every ``tower_experiment`` row, one
    ``assemble_race_model`` and one ``density_fourier`` per class pair."""
    if family == DIHEDRAL:
        w_axiom = +1
    scen = scenario_generator(family, n, w_axiom, seed)
    labels = scen.group.class_labels()
    data = level_data(scen, n)
    sets: dict = {}
    rows = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            c1, c2 = labels[a], labels[b]
            spec = RaceSpec(scen, n, c1, c2)
            m = data.mean(c1, c2)
            w_map = weights(spec)
            needed = sorted(cid for cid, wv in w_map.items() if wv > 0)
            fresh = [cid for cid in needed if cid not in sets]
            sets.update(provision_zero_sets(scen, fresh, seed,
                                            min_count=min_zeros))
            model = assemble_race_model(m, w_map, sets)
            est = density_fourier(model, nodes=nodes)
            rows.append({"c1": str(c1), "c2": str(c2), "mean_formula": m,
                         "weights": tuple(sorted(w_map.items())),
                         "bias_factor": model.bias_factor,
                         "delta_fourier": est.value,
                         "delta_fourier_budget": est.error_bound})
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
    data = level_data(races._table_scenario(kind, w_axiom), level)
    rows: list[MeanRow] = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            c1, c2 = labels[a], labels[b]
            if fused[a] == fused[b]:
                rows.append(MeanRow(c1, c2, None, None, STATUS_UNDEFINED))
                continue
            formula = data.mean(c1, c2)
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


# -- groups and characters --------------------------------------------------


def brute_force_fusion(group: Group, i: int, label: ClassLabel) -> ClassLabel:
    """Oracle: fuse by conjugating every embedded class member by every element."""
    level = group.level(i)
    images = {
        group.conjugacy_class_of(
            group.multiply(group.multiply(t, group.embed(i, m)), group.inverse(t))
        )
        for m in level.class_members(label)
        for t in group.elements()
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

    def ids(self) -> list[str]:
        return [chi.cid for chi in self.characters]


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
    return Fraction(acc.as_int(), group.order)


def frobenius_schur(table: CharacterTable, chi: Character) -> int:
    """(1/|G|) sum_g chi(g^2), via classes: g -> g^2 is class-constant."""
    group = table.group
    acc = cyclo_zero(table.ring_order)
    for lab in group.class_labels():
        rep = group.class_representative(lab)
        sq = group.conjugacy_class_of(group.multiply(rep, rep))
        acc = add(acc, scale(chi.value(sq), group.class_size(lab)))
    total = acc.as_int()
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
        full_lab = group.conjugacy_class_of(group.embed(i, rep))
        out[lab] = compress(character_value(group, cid, full_lab),
                            level.rotation_order)
    return out


def brute_force_induce(table: CharacterTable, i: int,
                       values: Mapping[ClassLabel, CycloInt]) -> dict[str, int]:
    """Oracle: induced class function summed over the whole group, then
    decomposed by exact inner products.  Quadratic in |G|; tests cap n."""
    group = table.group
    level = group.level(i)
    m = group.rotation_order
    member_of = {group.embed(i, h): lab
                 for lab in level.class_labels()
                 for h in level.class_members(lab)}
    ind_vals: dict[ClassLabel, CycloInt] = {}
    for lab in group.class_labels():
        g = group.class_representative(lab)
        acc = cyclo_zero(m)
        for t in group.elements():
            conj_g = group.multiply(group.multiply(t, g), group.inverse(t))
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


def degree_two_matrices(group: Group, j: int, element) -> list[list[complex]]:
    """Explicit 2x2 matrix of psi_j at an element, for the conductor oracle.

    Rotations are diag(zeta^(je), zeta^(-je)); the flip is the swap matrix in
    the dihedral family and for even j, and the symplectic rotation for odd j
    in the quaternion family.
    """
    m = group.rotation_order
    za = root_power(m, j * element.exponent).to_complex()
    zb = root_power(m, -j * element.exponent).to_complex()
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
    order = inertia_order(group, generator)
    acc = cyclo_zero(group.rotation_order)
    t = group.identity()
    for _ in range(order):
        acc = add(acc, character_value(group, cid, group.conjugacy_class_of(t)))
        t = group.multiply(t, generator)
    total = acc.as_int()
    assert total % order == 0, (cid, generator, total)
    dim = total // order
    assert 0 <= dim <= character_degree(cid)
    return dim


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
    w = weights(spec)
    total = 0.0
    for cid, wv in w.items():
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


def b0(zs: ZeroSet, two_sided: bool = False) -> float:
    """Sum of 1/(1/4 + gamma^2) over the stored ordinates.

    Defaults to the one-sided sum over gamma > 0 as used in the variance
    formula; two_sided doubles it to cover the conjugate zeros at -gamma.
    """
    g = np.asarray(zs.ordinates, dtype=float)
    total = float(np.sum(1.0 / (0.25 + g * g))) if g.size else 0.0
    return 2.0 * total if two_sided else total


def partial_inverse_sum(zs: ZeroSet, t: float) -> float:
    """Sum of 1/sqrt(1/4 + gamma^2) over ordinates with gamma <= t."""
    if t > zs.t_max:
        raise HorizonError(f"t = {t!r} beyond completeness horizon {zs.t_max!r}")
    if t < 1.0:
        raise ValueError(f"need t >= 1, got {t}")
    g = np.asarray(zs.ordinates, dtype=float)
    g = g[g <= t]
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
