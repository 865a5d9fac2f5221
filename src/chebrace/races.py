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
order: a character's index there is its only key.  A call's races are one
``RaceTable`` (``race_table``; ``level_races`` for every pair of a level):
index columns into the call's labels, whether each race is defined, and
its integer mean, with the weight rows on request.  ``level_orders`` sums
the scenario's central-order array over the index pairs of the level's
induction in one ``bincount``.  ``level_data`` takes, for every class of a
label set at once, the constant part sqrt_density(C) + z(C) of X, as an
array aligned with the labels, so the means are one subtraction of
arrays.  Both ``z_values`` and ``pair_weights`` read the table's value ids
(``characters.value_table``).  ``z_values`` reduces the order-weighted
values of every class in one ``canonical_terms`` call.  ``pair_weights``
takes the weights of many fused pairs in one pass: a difference depends
only on its two ids, so only the distinct id pairs are reduced to
canonical terms and evaluated, with the same float operations as
``to_complex`` of a ``CycloInt`` in ``tests/oracles.py``.

This module stops at the exact data: means and weight rows.  The
oscillation part over zero sets, the race model the density engines take,
is ``density.race_model``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arithmetic import ArithmeticScenario
from .characters import character_count, induction_pairs, value_table
from .cyclotomic import canonical_terms, canonical_values
from .groups import DIHEDRAL, ClassLabel, Group, GroupKind


class InternalInconsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree (CLI exit 3)."""


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
    rho, rest = divmod(level_group.square_root_count(label), level_group.class_size(label))
    assert rest == 0, (label, rho, rest)
    return rho


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


@dataclass(frozen=True, eq=False)
class RaceTable:
    """The races of one call at one level, in columns: pair k races
    ``labels[first[k]]`` against ``labels[second[k]]``.  ``fused`` holds
    each label's class in the full group, ``defined`` marks the pairs whose
    fused classes differ, and ``means`` holds every pair's exact integer
    mean, read only where ``defined``."""

    scenario: ArithmeticScenario
    level: int
    labels: list[ClassLabel]
    fused: list[ClassLabel]
    first: np.ndarray
    second: np.ndarray
    defined: np.ndarray
    means: np.ndarray

    def weights(self) -> np.ndarray:
        """|lambda(C2+) - lambda(C1+)| of every pair over the full-group
        irreducibles, pairs x characters in ``character_ids`` order, from one
        ``pair_weights`` pass; an undefined pair's row is all zeros.  Not
        kept, so a caller can drop it (69 MB for a tower at n = 10)."""
        return pair_weights(self.scenario.group, self.fused, self.first, self.second)


def race_table(scenario: ArithmeticScenario, level: int,
               labels: Sequence[ClassLabel], first, second) -> RaceTable:
    """The races of ``labels[first[k]]`` against ``labels[second[k]]`` at
    the level, for distinct labels that each lie in some pair, with every
    mean a difference of one ``level_data`` over the labels.

    ValueError for a level outside 3..n, and otherwise for the first pair
    in order that holds a power class outside the level (its first class
    named before its second) or races a class against itself; each label
    is checked once."""
    n = scenario.kind.n
    if not 3 <= level <= n:
        raise ValueError(f"level must satisfy 3 <= level <= {n}, got {level}")
    first = np.asarray(first, dtype=np.intp)
    second = np.asarray(second, dtype=np.intp)
    top = (1 << (level - 2)) - 1
    outside = np.array([lab.kind == "power" and not 1 <= lab.k <= top
                        for lab in labels], dtype=bool)
    if outside.any() or (first == second).any():
        k = np.flatnonzero(outside[first] | outside[second] | (first == second))[0]
        for i in (first[k], second[k]):
            if outside[i]:
                raise ValueError(f"{labels[i]} out of range at level {level}")
        raise ValueError("classes must differ")
    group = scenario.group
    fused = [group.class_fusion(level, lab) for lab in labels]
    number: dict[ClassLabel, int] = {}
    fused_id = np.array([number.setdefault(f, len(number)) for f in fused],
                        dtype=np.intp)
    constant = level_data(scenario, level, labels)
    return RaceTable(scenario, level, list(labels), fused, first, second,
                     fused_id[first] != fused_id[second],
                     constant[second] - constant[first])


def level_races(scenario: ArithmeticScenario, level: int) -> RaceTable:
    """Every unordered class pair of the level, in the row order of
    ``np.triu_indices`` over its class labels."""
    labels = scenario.group.level(level).class_labels()
    first, second = np.triu_indices(len(labels), 1)
    return race_table(scenario, level, labels, first, second)


# pairs x characters of one pair_weights chunk stays below this many entries
_CHUNK_ENTRIES = 1 << 18


def pair_weights(group: Group, labels: Sequence[ClassLabel],
                 first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """|lambda(labels[second[k]]) - lambda(labels[first[k]])| over the
    full-group irreducibles for every pair k of full-group classes, as a
    pairs x characters array in ``character_ids`` order.

    Each value is abs of the oracles' ``to_complex`` of the exact
    difference, bit for bit.  Pairs go a chunk at a time, so temporaries stay
    O(chunk x characters) beside the result, and each chunk reduces and
    evaluates only its distinct (value id, value id) keys."""
    ids, exps, coeffs = value_table(group, labels)
    base = exps.shape[0]
    out = np.empty((len(first), ids.shape[1]))
    step = max(1, _CHUNK_ENTRIES // ids.shape[1])
    for lo in range(0, len(out), step):
        key = ids[second[lo:lo + step]] * base + ids[first[lo:lo + step]]
        first_key, inverse = _distinct(key.ravel())
        v2, v1 = np.divmod(key.ravel()[first_key], base)
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

    np.unique by hand: its int64 quicksort pages in about 0.4 MB of
    vectorised sort kernel that no other step of a verb runs (the Fourier
    engine's float64 sort is another kernel, about 0.3 MB, which a tower
    call at n = 7 pays within its 42.2-42.5 MB peak RSS);
    canonical_terms already runs the stable argsort."""
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    number = np.empty_like(order)
    number[order] = np.cumsum(new) - 1
    return order[new], number


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
        if lab.kind == "one":
            return 2 if quo else (1 << (i - 1)) + 2
        if lab.kind == "minus_one":
            return (1 << (i - 1)) + 2 if quo else 2
        if lab.kind == "power":
            return 2 if lab.k % 2 == 0 else 0
        return 0

    def z(lab: ClassLabel) -> int:
        if not quo:
            return 0
        if lab.kind == "one":
            return (1 << (n - 2)) * (1 - w_axiom)
        if lab.kind == "minus_one":
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
    if kind.family == DIHEDRAL and "one" in (c1.kind, c2.kind):
        return base + 1 if c1.kind == "one" else base - 1
    return base


def class_means(races: RaceTable, form) -> np.ndarray:
    """Every pair's mean by ``form`` (``race_mean_closed_form`` or
    ``published_mean``) in one array.  Each form is a difference of one
    value per class, so each is taken once per class, as the race against
    the first label, and the pairs are differences of that array.  The
    first label must race every other one defined: ``one``, which leads
    every level's class labels, does."""
    scen, ref = races.scenario, races.labels[0]
    values = np.array([0] + [form(scen.kind, scen.w_axiom, races.level, ref, lab)
                             for lab in races.labels[1:]])
    return values[races.second] - values[races.first]


STATUS_MATCH = "match"
STATUS_OPEN_QUESTION = "open-question"
STATUS_UNDEFINED = "undefined"


def mean_table(family: str, n: int, level: int,
               w_axiom: int) -> tuple[RaceTable, np.ndarray]:
    """Every unordered class pair at the level (``level_races``), with the
    published mean of each pair alongside, read only where the race is
    defined; the undefined pair is kept, never skipped.  Every defined
    mean is checked against the closed form; a disagreement raises
    InternalInconsistencyError.  Both printed means are ``class_means``."""
    races = level_races(_table_scenario(GroupKind(family, n), w_axiom), level)
    closed = class_means(races, race_mean_closed_form)
    bad = np.flatnonzero(races.defined & (closed != races.means))
    if bad.size:
        k = bad[0]
        raise InternalInconsistencyError(
            f"mean engine self-check failed at level {level}: closed form "
            f"{closed[k]} != formula {races.means[k]} for "
            f"({races.labels[races.first[k]]}, {races.labels[races.second[k]]})")
    return races, class_means(races, published_mean)


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
