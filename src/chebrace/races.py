"""The limiting race random variable for a class pair at a tower level.

For Galois group G of order 2^i acting as Gal(L/K) and two conjugacy classes
C1, C2, the normalized prime-counting difference converges (under the usual
axioms) to

    X = |C2^(1/2)|/|C2| - |C1^(1/2)|/|C1| + z(C2) - z(C1)
        + 2 sum_lambda |lambda(C2+) - lambda(C1+)| sum_{gamma>0} X_gamma/sqrt(1/4+gamma^2)

where the lambda run over the irreducibles of the full group, C+ denotes the
fused class there, z(C) = 2 sum_{chi != chi0} chi(C) ord_{s=1/2} L(s,chi) over
the level's own irreducibles, and the X_gamma are independent cosines of
uniform angles.  The mean is an exact integer; the variance used throughout
is the actual variance of X, i.e. (1/2) sum r^2 = 2 sum_lambda w^2 B0(lambda)
with the one-sided B0 convention.

The race is undefined exactly when the fused classes coincide (the two
counting functions are then identical); in these families that happens only
for the two reflection classes below the top level.

Everything exact here is read from the integer form of the character table
(see ``characters``): ``level_data`` computes a level's central orders and,
for every class at once, the constant part sqrt_density(C) + z(C) of X, so
a mean is one subtraction (``mean`` computes just the pair's two).
``pair_weights`` takes the weights of many fused pairs in one pass over the
table's value ids (``characters.value_table``): a difference depends only
on its two ids, so only the distinct id pairs are reduced to canonical
terms and evaluated, with the same float operations as ``to_complex`` of
a ``CycloInt`` in ``tests/oracles.py``; ``weights`` is its one-pair case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .arithmetic import ArithmeticScenario
from .characters import character_ids, class_sum_terms, induce, value_table
from .cyclotomic import canonical_values
from .groups import DIHEDRAL, MINUS_ONE, ONE, ClassLabel, Group, GroupKind
from .zeros import ZeroSet


class RaceUndefinedError(ValueError):
    """Fused classes coincide: the two counting functions are identical."""


class InternalInconsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree (CLI exit 3)."""


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


def level_orders(scenario: ArithmeticScenario, level: int) -> dict[str, int]:
    """Central vanishing order of each level irreducible: the L-function
    factors through the induction, so the order is the multiplicity-weighted
    sum of full-group central orders over the components."""
    group = scenario.group
    out: dict[str, int] = {}
    for cid in character_ids(group.level(level)):
        dec = induce(group, level, cid)
        out[cid] = sum(mult * scenario.central_order(comp)
                       for comp, mult in dec.components)
    return out


def z_values(level_group: Group, labels: list[ClassLabel],
             orders: Mapping[str, int]) -> list[int]:
    """Exact integers 2 sum_{chi != chi0} chi(C) ord(chi) for every class C
    of ``labels``, from one array reduction over all of them.

    The sums live in the cyclotomic ring; each must land in the integers
    (it does whenever the order map is constant on each Galois orbit of
    characters, e.g. the symplectic-block orders), else ValueError."""
    coeffs = {cid: o for cid, o in orders.items() if cid != "chi0" and o != 0}
    rows, exps, vals = class_sum_terms(level_group, labels, coeffs)
    if exps.any():
        r = int(rows[exps != 0][0])
        terms = tuple(zip(exps[rows == r].tolist(), (2 * vals[rows == r]).tolist()))
        raise ValueError(f"not a rational integer: {terms}")
    out = np.zeros(len(labels), dtype=np.int64)
    out[rows] = vals
    return [2 * v for v in out.tolist()]


def sqrt_density(level_group: Group, label: ClassLabel) -> int:
    """|C^(1/2)|/|C| as an exact integer (it always is in these families)."""
    rho = Fraction(level_group.square_root_count(label),
                   level_group.class_size(label))
    assert rho.denominator == 1, (label, rho)
    return int(rho)


@dataclass(frozen=True, eq=False)
class LevelData:
    """A tower level's exact race data, computed once for all its pairs:
    per class C, the constant part sqrt_density(C) + z(C) of X.  A mean is
    the difference of two."""

    constant: dict[ClassLabel, int]

    def mean(self, c1: ClassLabel, c2: ClassLabel) -> int:
        """Mean of X for the race (c1, c2); the caller checks that it is
        defined."""
        return self.constant[c2] - self.constant[c1]


def level_data(scenario: ArithmeticScenario, level: int) -> LevelData:
    """Every class's sqrt_density + z at the level, from one
    ``level_orders`` call and one ``z_values`` reduction."""
    lg = scenario.group.level(level)
    labels = lg.class_labels()
    z = z_values(lg, labels, level_orders(scenario, level))
    return LevelData({lab: sqrt_density(lg, lab) + zv
                      for lab, zv in zip(labels, z)})


def _check_defined(spec: RaceSpec) -> None:
    if not spec.is_defined():
        raise RaceUndefinedError(
            f"race undefined: fused classes coincide for ({spec.c1}, {spec.c2}) "
            f"at level {spec.level}; the counting functions are identical")


def mean(spec: RaceSpec) -> int:
    """Exact integer mean of X for the race, per the limiting formula, from
    the constant parts of its two classes alone."""
    _check_defined(spec)
    lg = spec.group.level(spec.level)
    pair = [spec.c1, spec.c2]
    z1, z2 = z_values(lg, pair, level_orders(spec.scenario, spec.level))
    return sqrt_density(lg, spec.c2) + z2 - sqrt_density(lg, spec.c1) - z1


# pairs x characters of one pair_weights chunk stays below this many entries
_CHUNK_ENTRIES = 1 << 18


def pair_weights(group: Group,
                 fused_pairs: Sequence[tuple[ClassLabel, ClassLabel]]) -> np.ndarray:
    """|lambda(C2+) - lambda(C1+)| over the full-group irreducibles for
    every fused pair (C1+, C2+), as a pairs x characters array in
    ``character_ids`` order.

    Each value is abs of the oracles' ``to_complex`` of the exact
    difference, bit for bit.  Pairs go a chunk at a time, so temporaries stay
    O(chunk x characters) beside the result, and each chunk reduces and
    evaluates only its distinct (value id, value id) keys."""
    labels = list(dict.fromkeys(lab for pair in fused_pairs for lab in pair))
    index = {lab: i for i, lab in enumerate(labels)}
    ids, exps, coeffs = value_table(group, labels)
    base = exps.shape[0]
    i1 = np.array([index[a] for a, _ in fused_pairs], dtype=np.intp)
    i2 = np.array([index[b] for _, b in fused_pairs], dtype=np.intp)
    out = np.empty((len(fused_pairs), ids.shape[1]))
    step = max(1, _CHUNK_ENTRIES // ids.shape[1])
    for lo in range(0, len(out), step):
        key = ids[i2[lo:lo + step]] * base + ids[i1[lo:lo + step]]
        # np.unique by hand: its int64 quicksort pages in ~0.4 MB of sort
        # kernel that no other step of a verb runs; canonical_terms already
        # runs the stable argsort
        perm = np.argsort(key, axis=None, kind="stable")
        ordered = key.ravel()[perm]
        first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        inverse = np.empty_like(perm)
        inverse[perm] = np.cumsum(first) - 1
        v2, v1 = np.divmod(ordered[first], base)
        values = canonical_values(
            group.rotation_order,
            np.concatenate((exps[v2], exps[v1]), axis=1),
            np.concatenate((coeffs[v2], -coeffs[v1]), axis=1))
        out[lo:lo + step] = np.abs(values)[inverse.reshape(key.shape)]
    return out


def weights(spec: RaceSpec) -> dict[str, float]:
    """|lambda(C2+) - lambda(C1+)| over the full-group irreducibles, the
    one-pair case of ``pair_weights``."""
    _check_defined(spec)
    g = spec.group
    row = pair_weights(g, [spec.fused_pair()])[0]
    return dict(zip(character_ids(g), row.tolist()))


@dataclass(frozen=True, eq=False)
class RaceModel:
    """Materialized finite model of X: integer mean, descending amplitude
    list r = 2 w(lambda)/sqrt(1/4+gamma^2) over the provided zero sets,
    variance = (1/2) sum r^2, and bias_factor = mean/sqrt(variance)."""

    mean: int
    variance: float
    bias_factor: float
    terms: np.ndarray

    def __post_init__(self) -> None:
        if not self.variance >= 0.0:
            raise ValueError(f"variance must be >= 0, got {self.variance!r}")
        if self.terms.size and not float(self.terms.min()) > 0.0:
            raise ValueError("amplitudes must be positive")


def assemble_race_model(mean_value: int, weight_map: Mapping[str, float],
                        zero_sets: Mapping[str, ZeroSet]) -> RaceModel:
    """Materialize a RaceModel from an explicit mean and weight map; the
    drivers pass the mean and weights they already hold, and ad-hoc races
    built outside the two families use it directly."""
    chunks: list[np.ndarray] = []
    for cid in sorted(weight_map):
        wv = weight_map[cid]
        if wv == 0.0:
            continue
        if cid not in zero_sets:
            raise KeyError(f"zero set missing for weighted character {cid}")
        moduli = zero_sets[cid].moduli
        if moduli.size:
            chunks.append(2.0 * wv / moduli)
    terms = np.sort(np.concatenate(chunks))[::-1] if chunks else np.empty(0)
    var = 0.5 * float(np.sum(terms * terms))
    if not var > 0.0:
        raise ValueError("no oscillation terms: provide nonempty zero sets "
                         "for the weighted characters")
    return RaceModel(mean_value, var, mean_value / math.sqrt(var), terms)


# -- closed-form means and published tables ------------------------------------


def race_mean_closed_form(kind: GroupKind, w_axiom: int, level: int,
                          c1: ClassLabel, c2: ClassLabel) -> int | None:
    """Direct evaluation of the mean in closed form (defined-race pairs only).

    Derived from the square-root densities (identity and central involution
    swap their counts between the two families; even rotation classes give 2,
    everything else 0) plus the symplectic z contribution, which vanishes
    except at +-1 where it is -+2^(n-2)(1-W) in the quaternion family.
    Returns None for the undefined pair.
    """
    n = kind.n
    i = level
    quo = kind.family != DIHEDRAL

    def rho(lab: ClassLabel) -> int:
        if lab == ONE:
            return 2 if quo else (1 << (i - 1)) + 2
        if lab == MINUS_ONE:
            return (1 << (i - 1)) + 2 if quo else 2
        if lab.kind == "power":
            return 2 if lab.k % 2 == 0 else 0
        return 0

    def z(lab: ClassLabel) -> int:
        if not quo:
            return 0
        if lab == ONE:
            return (1 << (n - 2)) * (1 - w_axiom)
        if lab == MINUS_ONE:
            return -(1 << (n - 2)) * (1 - w_axiom)
        return 0

    if {c1.kind, c2.kind} == {"flip_even", "flip_odd"} and i < n:
        return None
    return rho(c2) - rho(c1) + z(c2) - z(c1)


def published_mean(kind: GroupKind, w_axiom: int, level: int,
                   c1: ClassLabel, c2: ClassLabel) -> int | None:
    """The mean as printed in the published race tables for these families.

    Quaternion rows agree with race_mean_closed_form everywhere.  The
    dihedral rows involving the identity class are printed one higher than
    direct evaluation of the limiting formula; both values are surfaced and
    the discrepancy is flagged rather than resolved (see README).
    """
    base = race_mean_closed_form(kind, w_axiom, level, c1, c2)
    if base is None:
        return None
    if kind.family == DIHEDRAL and ONE in (c1, c2):
        return base + 1 if c1 == ONE else base - 1
    return base


STATUS_MATCH = "match"
STATUS_OPEN_QUESTION = "open-question"
STATUS_UNDEFINED = "undefined"


@dataclass(frozen=True)
class MeanRow:
    c1: ClassLabel
    c2: ClassLabel
    mean_formula: int | None
    mean_published: int | None
    status: str


def mean_table(family: str, n: int, level: int, w_axiom: int) -> list[MeanRow]:
    """Exact means for every unordered class pair at the level, with the
    published value alongside and a status flag; the undefined pair is
    reported, never skipped.  Every formula mean is checked against the
    closed form; a disagreement raises InternalInconsistencyError.

    The formula mean, the closed form and the published mean of a pair are
    each a difference of one value per class, so each is taken once per
    class (the closed and published forms as the race against the first
    class, ``one``, which is defined for every other class) and the pairs
    are differences of arrays, in the row order of ``np.triu_indices``."""
    kind = GroupKind(family, n)
    group = Group(kind)
    labels = group.level(level).class_labels()
    fused_index: dict[ClassLabel, int] = {}
    fused = np.array([fused_index.setdefault(group.class_fusion(level, lab),
                                             len(fused_index))
                      for lab in labels])
    data = level_data(_table_scenario(kind, w_axiom), level)
    ref, others = labels[0], labels[1:]
    a, b = np.triu_indices(len(labels), 1)

    def per_pair(values: np.ndarray) -> np.ndarray:
        return values[b] - values[a]

    defined = fused[a] != fused[b]
    formula = per_pair(np.array([data.constant[lab] for lab in labels]))
    closed = per_pair(np.array(
        [0] + [race_mean_closed_form(kind, w_axiom, level, ref, lab) for lab in others]))
    bad = np.flatnonzero(defined & (closed != formula))
    if bad.size:
        k = bad[0]
        raise InternalInconsistencyError(
            f"mean engine self-check failed at level {level}: closed form "
            f"{closed[k]} != formula {formula[k]} for ({labels[a[k]]}, {labels[b[k]]})")
    published = per_pair(np.array(
        [0] + [published_mean(kind, w_axiom, level, ref, lab) for lab in others]))
    rows: list[MeanRow] = []
    for i, j, ok, f, p in zip(a.tolist(), b.tolist(), defined.tolist(),
                              formula.tolist(), published.tolist()):
        if ok:
            rows.append(MeanRow(labels[i], labels[j], f, p,
                                STATUS_MATCH if p == f else STATUS_OPEN_QUESTION))
        else:
            rows.append(MeanRow(labels[i], labels[j], None, None, STATUS_UNDEFINED))
    return rows


def _table_scenario(kind: GroupKind, w_axiom: int) -> ArithmeticScenario:
    """Minimal scenario carrying only the family and root-number axiom, used
    for mean tables where conductor sizes are irrelevant."""
    from .arithmetic import VirtualPrime
    from .groups import Element

    if kind.family == DIHEDRAL:
        w_axiom = +1
    return ArithmeticScenario(
        kind, w_axiom,
        (VirtualPrime(5, math.log(5.0), Element(1, 0)),),
        log_disc=1.0)
