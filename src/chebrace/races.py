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
(see ``characters``), and character data are arrays in ``character_ids``
order: a character's index there is its only key.  ``level_orders`` sums
the scenario's central-order array over the index pairs of the level's
induction in one ``bincount``.  ``level_data`` takes, for every class of a
label set at once, the constant part sqrt_density(C) + z(C) of X, as an
array aligned with the labels, so a mean is one subtraction (``mean``
asks for just the pair's two classes).  Both ``z_values`` and
``pair_weights`` read the table's value ids (``characters.value_table``).
``z_values`` reduces the order-weighted values of every class in one
``canonical_terms`` call.  ``pair_weights`` takes the weights of many
fused pairs in one pass: a difference depends only on its two ids, so only
the distinct id pairs are reduced to canonical terms and evaluated, with
the same float operations as ``to_complex`` of a ``CycloInt`` in
``tests/oracles.py``; ``weights`` is its one-pair case.

This module stops at the exact data: a mean and a weight row.  The
oscillation part over zero sets, the race model the density engines take,
is ``density.race_model``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arithmetic import ArithmeticScenario
from .characters import character_count, induction_pairs, value_table
from .cyclotomic import canonical_terms, canonical_values
from .groups import DIHEDRAL, MINUS_ONE, ONE, ClassLabel, Group, GroupKind


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


def level_orders(scenario: ArithmeticScenario, level: int) -> np.ndarray:
    """Central vanishing order of each level irreducible, in
    ``character_ids`` order: the L-function factors through the induction,
    so the order is the sum of the full-group central orders over the
    components, every multiplicity being 1 (``characters.induction_pairs``)."""
    source, component = induction_pairs(scenario.group, level)
    orders = np.bincount(source, weights=scenario.central_orders[component],
                         minlength=character_count(level))
    return orders.astype(np.int64)


def z_values(level_group: Group, labels: Sequence[ClassLabel],
             orders: np.ndarray) -> list[int]:
    """Exact integers 2 sum_{chi != chi0} chi(C) ord(chi) for every class C
    of ``labels``, from one array reduction over all of them; ``orders``
    holds one integer per level irreducible, in ``character_ids`` order.

    The sums live in the cyclotomic ring; each must land in the integers
    (it does whenever the orders are constant on each Galois orbit of
    characters, e.g. the symplectic-block orders), else ValueError.
    Memory is O(labels x characters), as for ``characters.value_table``."""
    cols = np.flatnonzero(orders[1:]) + 1  # chi0 left out
    weight = orders[cols][:, None]
    ids, exps, coeffs = value_table(level_group, labels)
    live_ids = ids[:, cols]
    rows, terms, vals = canonical_terms(
        level_group.rotation_order,
        exps[live_ids].reshape(len(labels), -1),
        (coeffs[live_ids] * weight).reshape(len(labels), -1))
    if terms.any():
        r = int(rows[terms != 0][0])
        found = tuple(zip(terms[rows == r].tolist(), (2 * vals[rows == r]).tolist()))
        raise ValueError(f"not a rational integer: {found}")
    out = np.zeros(len(labels), dtype=np.int64)
    out[rows] = vals
    return (2 * out).tolist()


def sqrt_density(level_group: Group, label: ClassLabel) -> int:
    """|C^(1/2)|/|C| as an exact integer (it always is in these families)."""
    rho = Fraction(level_group.square_root_count(label),
                   level_group.class_size(label))
    assert rho.denominator == 1, (label, rho)
    return int(rho)


def level_data(scenario: ArithmeticScenario, level: int,
               labels: Sequence[ClassLabel]) -> np.ndarray:
    """The constant part sqrt_density(C) + z(C) of X at the level for every
    class C of ``labels``, as an int64 array aligned with them, from one
    ``level_orders`` call and one ``z_values`` reduction.  The mean of the
    race (labels[a], labels[b]) is entry b minus entry a."""
    lg = scenario.group.level(level)
    z = z_values(lg, labels, level_orders(scenario, level))
    return np.array([sqrt_density(lg, lab) + zv for lab, zv in zip(labels, z)],
                    dtype=np.int64)


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
        first, inverse = _distinct(key.ravel())
        v2, v1 = np.divmod(key.ravel()[first], base)
        values = canonical_values(
            group.rotation_order,
            np.concatenate((exps[v2], exps[v1]), axis=1),
            np.concatenate((coeffs[v2], -coeffs[v1]), axis=1))
        out[lo:lo + step] = np.abs(values)[inverse.reshape(key.shape)]
    return out


def _distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct value of the integer array key,
    in ascending order of the values, and each entry's number among
    them.

    np.unique by hand: its int64 quicksort pages in ~0.4 MB of sort kernel
    that no other step of a verb runs; canonical_terms already runs the
    stable argsort."""
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    number = np.empty_like(order)
    number[order] = np.cumsum(new) - 1
    return order[new], number


def weights(spec: RaceSpec) -> np.ndarray:
    """|lambda(C2+) - lambda(C1+)| over the full-group irreducibles, in
    ``character_ids`` order: the one-pair case of ``pair_weights``."""
    _check_defined(spec)
    return pair_weights(spec.group, [spec.fused_pair()])[0]


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


@dataclass(frozen=True, eq=False)
class MeanTable:
    """A level's mean table in columns, one entry per unordered class pair
    in the row order of ``np.triu_indices``: the pair races
    ``labels[first]`` against ``labels[second]``.  ``formula`` and
    ``published`` are integer means, read only where ``defined``."""

    labels: list[ClassLabel]
    first: np.ndarray
    second: np.ndarray
    defined: np.ndarray
    formula: np.ndarray
    published: np.ndarray


def mean_table(family: str, n: int, level: int, w_axiom: int) -> MeanTable:
    """Exact means for every unordered class pair at the level, with the
    published value alongside; the undefined pair is kept, never skipped.
    Every formula mean is checked against the closed form; a disagreement
    raises InternalInconsistencyError.

    The formula mean, the closed form and the published mean of a pair are
    each a difference of one value per class, so each is taken once per
    class (the closed and published forms as the race against the first
    class, ``one``, which is defined for every other class) and the pairs
    are differences of arrays."""
    kind = GroupKind(family, n)
    group = Group(kind)
    labels = group.level(level).class_labels()
    fused_index: dict[ClassLabel, int] = {}
    fused = np.array([fused_index.setdefault(group.class_fusion(level, lab),
                                             len(fused_index))
                      for lab in labels])
    constant = level_data(_table_scenario(kind, w_axiom), level, labels)
    ref, others = labels[0], labels[1:]
    a, b = np.triu_indices(len(labels), 1)

    def per_pair(values: np.ndarray) -> np.ndarray:
        return values[b] - values[a]

    defined = fused[a] != fused[b]
    formula = per_pair(constant)
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
    return MeanTable(labels, a, b, defined, formula, published)


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
