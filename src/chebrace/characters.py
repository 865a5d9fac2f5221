"""Exact character tables for the two 2-group families.

Both families of order 2^n have four degree-1 characters factoring through
the Klein quotient and 2^(n-2)-1 degree-2 characters psi_j whose rotation
values are zeta^(jk) + zeta^(-jk) for zeta of order 2^(n-1).  Everything is
kept in exact cyclotomic form.  ``tests/oracles.py`` builds the whole table
from ``character_value`` for the orthogonality and Frobenius-Schur checks,
and holds the odd-index cancellation sum, a literal identity there rather
than a float check.

A class is described by its representative a^k b^f: rotation exponent k and
flip bit f.  The degree-1 characters are signs (-1)^(pk + qf), and psi_j is
zeta^(jk) + zeta^(-jk) on rotations and 0 on flips, so the whole table is
integer data: (k, f) per class and j per psi.  ``character_value`` turns it
into one ``CycloInt``; ``value_table`` gives each table entry as an id into
the few distinct values the table takes, which is how the race layer reads
it.

The degree-2 value at the central involution comes out of the generic
rotation formula at k = 2^(n-2), i.e. 2*(-1)^j.  Induction from a tower
level is one pair of index arrays (``induction_pairs``), and the
disjointness partition of inductions (``sr_partition``) is read from them
in linear time.  The tests arbitrate both against brute-force induced
class functions, Frobenius reciprocity and the per-character
decompositions kept in ``tests/oracles.py``.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .cyclotomic import CycloInt, cos_pair, cyclo_int, cyclo_zero
from .groups import QUATERNION, ClassLabel, Group


def psi_id(j: int) -> str:
    return f"psi_{j}"


def character_count(n: int) -> int:
    """How many irreducibles the groups of order 2^n have."""
    return 3 + (1 << (n - 2))


def character_degrees(columns) -> np.ndarray:
    """Degree at each column of ``character_ids``: 1 for chi0..chi3, else 2."""
    return np.where(np.asarray(columns) < 4, 1, 2)


def character_ids(group: Group) -> list[str]:
    """Canonical enumeration: chi0..chi3 then psi_1..psi_(2^(n-2)-1)."""
    return [character_id(c) for c in range(character_count(group.n))]


def character_id(index: int) -> str:
    """The id at ``index`` of ``character_ids``, psi_j at 3 + j."""
    return f"chi{index}" if index < 4 else psi_id(index - 3)


# chi(a^k b^f) = (-1)^(p k + q f) for the degree-1 characters, as (p, q)
_LINEAR_PARITIES = {"chi0": (0, 0), "chi1": (0, 1), "chi2": (1, 0), "chi3": (1, 1)}


def character_index(group: Group, cid: str) -> int:
    """Position of ``cid`` in ``character_ids(group)``, psi_j at 3 + j.
    KeyError if no irreducible of the group has that id, ValueError if a
    psi id's index is not an integer."""
    if cid in _LINEAR_PARITIES:
        return list(_LINEAR_PARITIES).index(cid)
    if not cid.startswith("psi_"):
        raise KeyError(cid)
    j = int(cid[len("psi_"):])
    if not 1 <= j < (1 << (group.n - 2)):
        raise KeyError(cid)
    return 3 + j


def _linear_value(cid: str, k, f):
    """(-1)^(pk + qf) for integer or integer-array k and f."""
    p, q = _LINEAR_PARITIES[cid]
    return 1 - 2 * ((p * k + q * f) % 2)


def character_value(group: Group, cid: str, label: ClassLabel) -> CycloInt:
    """Exact table entry, evaluated lazily so huge groups never need a table.

    The class representative a^k b^f determines everything: degree-1
    values are the signs (-1)^(pk + qf), degree-2 values are
    zeta^(j k) + zeta^(-j k) on rotations and 0 on flips.
    """
    m = group.rotation_order
    rep = group.class_representative(label)
    if cid in _LINEAR_PARITIES:
        return cyclo_int(m, _linear_value(cid, rep.exponent, rep.flip))
    j = character_index(group, cid) - 3
    if rep.flip:
        return cyclo_zero(m)
    return cos_pair(m, j * rep.exponent)


def value_table(group: Group, labels: Sequence[ClassLabel]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every irreducible's value at every class of ``labels``, as integer
    data: ``ids`` (labels x characters, in ``character_ids`` order) indexes
    the rows of ``exponents`` and ``coeffs`` (values x 2), row v standing
    for sum_t coeffs[v, t] zeta^exponents[v, t] in Z[zeta_m].

    Entries that are equal share one id: psi_j at a^k is
    zeta^a + zeta^(-a) with a = jk mod m taken up to sign, so the ids are
    a in [0, m/2], then 0 (psi on flips), +1 and -1.  Memory is O(labels x
    characters), never m x m.
    """
    m = group.rotation_order
    half = m // 2
    zero, plus, minus = half + 1, half + 2, half + 3
    reps = [group.class_representative(lab) for lab in labels]
    k = np.array([r.exponent for r in reps], dtype=np.int64)[:, None]
    f = np.array([r.flip for r in reps], dtype=np.int64)[:, None]
    linear = np.concatenate([_linear_value(cid, k, f) for cid in _LINEAR_PARITIES],
                            axis=1)
    a = k * np.arange(1, 1 << (group.n - 2), dtype=np.int64) % m
    psi = np.where(f == 1, zero, np.minimum(a, m - a))
    ids = np.concatenate((np.where(linear == 1, plus, minus), psi), axis=1)
    exps = np.zeros((half + 4, 2), dtype=np.int64)
    exps[:half + 1] = np.arange(half + 1)[:, None] * [1, -1]
    coeffs = np.zeros_like(exps)
    coeffs[:half + 1] = 1
    coeffs[plus, 0], coeffs[minus, 0] = 1, -1
    return ids, exps, coeffs


def symplectic_mask(group: Group) -> np.ndarray:
    """Which irreducibles are symplectic, in ``character_ids`` order.  In
    closed form these are exactly the odd-index psi_j, and only in the
    quaternion family (the tests check it against the Frobenius-Schur
    indicator)."""
    mask = np.zeros(character_count(group.n), dtype=bool)
    if group.family == QUATERNION:
        mask[4::2] = True
    return mask


def induction_pairs(group: Group, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The induction of every level-i irreducible to the group, as arrays of
    (level character, full-group component) index pairs, both sides in
    ``character_ids`` order.  Every multiplicity is 1.

    With step = 2^(i-1), the full-group psi_j comes from the level's psi_k
    iff j = +-k mod step, from both chi0 and chi1 iff j = 0 mod step, and
    from both chi2 and chi3 iff j = step/2 mod step; chi0 and chi2 come from
    chi0, chi1 and chi3 from chi1.  At i = n the map is the identity.  The
    tests check the pairs against brute-force induced class functions and
    Frobenius reciprocity.
    """
    n = group.n
    if not 3 <= i <= n:
        raise ValueError(f"level must satisfy 3 <= i <= {n}, got {i}")
    if i == n:
        every = np.arange(character_count(n))
        return every, every
    step = 1 << (i - 1)
    j = np.arange(1, 1 << (n - 2))
    k = j % step
    k = np.minimum(k, step - k)
    two = (k == 0) | (2 * k == step)  # from chi0 and chi1, or chi2 and chi3
    first = np.where(k == 0, 0, np.where(two, 2, 3 + k))
    return (np.concatenate(([0, 1, 0, 1], first, first[two] + 1)),
            np.concatenate((np.arange(4), 3 + j, 3 + j[two])))


def sr_partition(group: Group, i: int) -> tuple[int, int]:
    """(b1, b2) of the split of a level's irreducibles by whether their
    inductions stay disjoint: the largest degree and the count of the
    entangled part R, definition-faithful.  A level irreducible is in R
    when one of its components also lies in another's induction, and chi0
    is left out of R.  The value 2 quoted for both alongside the towers'
    analysis disagrees below the top level (see README; the tests keep the
    quoted values and the split)."""
    level, comp = induction_pairs(group, i)
    shared = np.bincount(level[np.bincount(comp)[comp] > 1], minlength=character_count(i))
    degrees = character_degrees(np.flatnonzero(shared[1:]) + 1)  # chi0 left out
    return int(degrees.max(initial=0)), int(degrees.size)
