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
into one ``CycloInt``; ``class_sum_terms`` turns it into exponent arrays and
reduces whole rows of sums at once with ``cyclotomic.canonical_terms``, and
``value_table`` gives each table entry as an id into the few distinct
values the table takes, which is how the race layer reads it.

The degree-2 value at the central involution comes out of the generic
rotation formula at k = 2^(n-2), i.e. 2*(-1)^j.  Induction from a tower
level and the disjointness partition of inductions are computed from the
closed-form component sets, which the tests arbitrate against brute-force
induced class functions and Frobenius reciprocity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cyclotomic import CycloInt, canonical_terms, cos_pair, cyclo_int, cyclo_zero
from .groups import ClassLabel, Group


def psi_id(j: int) -> str:
    return f"psi_{j}"


def character_ids(group: Group) -> list[str]:
    """Canonical enumeration: chi0..chi3 then psi_1..psi_(2^(n-2)-1)."""
    return ["chi0", "chi1", "chi2", "chi3"] + [
        psi_id(j) for j in range(1, 1 << (group.n - 2))
    ]


def character_degree(cid: str) -> int:
    return 2 if cid.startswith("psi_") else 1


# chi(a^k b^f) = (-1)^(p k + q f) for the degree-1 characters, as (p, q)
_LINEAR_PARITIES = {"chi0": (0, 0), "chi1": (0, 1), "chi2": (1, 0), "chi3": (1, 1)}

# rows x terms of one canonical_terms call stays below this many entries
_CHUNK_ENTRIES = 1 << 16


def _psi_index(group: Group, cid: str) -> int:
    """j of a degree-2 character id psi_j of the group; KeyError otherwise."""
    if not cid.startswith("psi_"):
        raise KeyError(cid)
    j = int(cid[len("psi_"):])
    if not 1 <= j < (1 << (group.n - 2)):
        raise KeyError(cid)
    return j


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
    j = _psi_index(group, cid)
    if rep.flip:
        return cyclo_zero(m)
    return cos_pair(m, j * rep.exponent)


def class_sum_terms(group: Group, labels: Sequence[ClassLabel],
                    coeffs: Mapping[str, int]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact values of sum_chi coeffs[chi] chi(C) at every class C of
    ``labels``, as the canonical (row, exponent, coefficient) terms of
    ``cyclotomic.canonical_terms`` with one row per label.

    Rows are reduced a chunk at a time, so memory stays O(labels +
    characters) whatever the group order.
    """
    reps = [group.class_representative(lab) for lab in labels]
    k = np.array([r.exponent for r in reps], dtype=np.int64)
    f = np.array([r.flip for r in reps], dtype=np.int64)
    const = np.zeros(len(labels), dtype=np.int64)
    js, cs = [], []
    for cid, c in coeffs.items():
        if cid in _LINEAR_PARITIES:
            const += c * _linear_value(cid, k, f)
        else:
            js.append(_psi_index(group, cid))
            cs.append(c)
    j = np.array(js, dtype=np.int64)
    c = np.array(cs, dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // (1 + 2 * j.size))
    parts = []
    for lo in range(0, len(labels), step):
        kk = k[lo:lo + step, None]
        on = (1 - f[lo:lo + step, None]) * c  # psi vanishes on flips
        rows, exps, vals = canonical_terms(
            group.rotation_order,
            np.concatenate((np.zeros_like(kk), kk * j, -kk * j), axis=1),
            np.concatenate((const[lo:lo + step, None], on, on), axis=1))
        parts.append((rows + lo, exps, vals))
    return tuple(np.concatenate(col) for col in zip(*parts))


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


def is_symplectic(cid: str) -> bool:
    """Closed form for these families: exactly the odd-index psi_j are symplectic,
    and only in the quaternion family (checked against the brute sum in tests)."""
    return cid.startswith("psi_") and int(cid.split("_")[1]) % 2 == 1


@dataclass(frozen=True)
class InducedDecomposition:
    level: int
    source_id: str
    components: tuple[tuple[str, int], ...]

    def component_ids(self) -> set[str]:
        return {cid for cid, _ in self.components}


def _psi_range(n: int, residue: int, modulus: int) -> list[int]:
    start = residue % modulus
    if start == 0:
        start = modulus
    return list(range(start, 1 << (n - 2), modulus))


def induce(group: Group, i: int, source_id: str) -> InducedDecomposition:
    """Decompose the induction of a level-i irreducible into the full group.

    Closed components: the two relevant degree-1 characters plus psi_j for
    j = 0 mod 2^(i-1) (sources chi0, chi1), the pure psi block at
    j = 2^(i-2) mod 2^(i-1) (sources chi2, chi3), and the folded block
    j = +-k mod 2^(i-1) (source psi_k).  Verified against brute-force
    induced class functions in the tests; degree bookkeeping asserted here.
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
    return InducedDecomposition(i, source_id, tuple(sorted(comps)))


@dataclass(frozen=True)
class SRPartition:
    """Split of a level's irreducibles by whether their inductions stay disjoint.

    b1/b2 are the definition-faithful max-degree and size of the shared part;
    published_b1/published_b2 carry the value 2 quoted alongside the towers'
    analysis, which disagrees below the top level (see README).
    """

    level: int
    s_ids: tuple[str, ...]
    r_ids: tuple[str, ...]
    b1: int
    b2: int
    published_b1: int
    published_b2: int
    published_r_ids: tuple[str, ...]


def sr_partition(group: Group, i: int) -> SRPartition:
    level_ids = character_ids(group.level(i))
    comps = {cid: induce(group, i, cid).component_ids() for cid in level_ids}
    s_ids = tuple(
        cid for cid in level_ids
        if all(comps[cid].isdisjoint(comps[other])
               for other in level_ids if other != cid)
    )
    r_ids = tuple(cid for cid in level_ids
                  if cid not in s_ids and cid != "chi0")
    b1 = max((character_degree(cid) for cid in r_ids), default=0)
    b2 = len(r_ids)
    return SRPartition(i, s_ids, r_ids, b1, b2,
                       published_b1=2, published_b2=2,
                       published_r_ids=("chi2", "chi3"))
