"""Exact arithmetic in Z[zeta] for zeta a primitive 2^k-th root of unity.

Elements are kept in the canonical power basis 1, zeta, ..., zeta^(m/2 - 1)
with the single relation zeta^(m/2) = -1, so representation is unique and
equality is literal tuple equality.  Values are stored sparsely: character
values in this package are sums of at most two root powers, and products of
two such stay tiny, so all table operations cost O(1) per entry.

Two forms share that basis.  ``CycloInt`` is one element: the package
builds it only for single table entries (``characters.character_value``),
and the ring operations on it (products, conjugation, change of order,
evaluation) live in ``tests/oracles.py``, which builds the tests' character
table from ``character_value``.  ``canonical_terms`` is the array form used
on the hot path: many sums of root powers, given as integer exponent and
coefficient arrays, reduced at once to the same canonical terms a
``CycloInt`` would hold, and ``canonical_values`` evaluates them with the
same floating-point operations as the oracles' ``to_complex``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def _fold(order: int, exponent: int, coeff: int) -> tuple[int, int]:
    # zeta^(m/2) = -1: exponents live in [0, m/2), signs absorb the rest.
    half = order // 2
    e = exponent % order
    if e >= half:
        return e - half, -coeff
    return e, coeff


def _canonical(order: int, raw: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((e, c) for e, c in raw.items() if c != 0))


@dataclass(frozen=True)
class CycloInt:
    """An element of Z[zeta_order], order a power of two >= 2."""

    order: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        assert _is_power_of_two(self.order) and self.order >= 2
        half = self.order // 2
        for e, c in self.terms:
            assert 0 <= e < half and c != 0


def root_value(order: int, exponent: int) -> complex:
    """zeta^exponent as a float complex number."""
    return cmath.exp(2j * math.pi * exponent / order)


def canonical_terms(order: int, exponents, coeffs
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical forms of many sums of root powers at once.

    Row r of ``exponents`` (rows x terms, any integers) with ``coeffs``
    (broadcast to the same shape) stands for the element
    sum_t coeffs[r, t] zeta^exponents[r, t].  Exponents are folded into
    [0, m/2) by zeta^(m/2) = -1 and equal exponents merged in int64, so the
    nonzero terms left are exactly the ``terms`` of that row's CycloInt.
    Returns their (row, exponent, coefficient) arrays, sorted by row and
    then by exponent.
    """
    half = order // 2
    e = np.asarray(exponents, dtype=np.int64) % order
    c = np.broadcast_to(np.asarray(coeffs, dtype=np.int64), e.shape)
    upper = e >= half
    c = np.where(upper, -c, c).ravel()
    e = np.where(upper, e - half, e)
    key = (e + half * np.arange(e.shape[0], dtype=np.int64)[:, None]).ravel()
    if key.size == 0:
        return key, key, key
    perm = np.argsort(key, kind="stable")
    key = key[perm]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    merged = np.add.reduceat(c[perm], starts)
    keep = merged != 0
    key = key[starts][keep]
    return key // half, key % half, merged[keep]


def canonical_values(order: int, exponents, coeffs) -> np.ndarray:
    """``to_complex`` of every row's element, as complex128, for rows given
    as in ``canonical_terms``.  Each row's canonical terms are added to 0j in
    exponent order, position by position across the rows, with the same
    complex operations as the oracles' ``to_complex`` of a ``CycloInt``, so
    every value is bit-identical to it (up to the sign of a zero part)."""
    exponents = np.asarray(exponents, dtype=np.int64)
    rows, exps, cs = canonical_terms(order, exponents, coeffs)
    acc = np.zeros(exponents.shape[0], dtype=complex)
    if not rows.size:
        return acc
    used = np.flatnonzero(np.bincount(exps))
    roots = np.zeros(int(used[-1]) + 1, dtype=complex)
    roots[used] = [root_value(order, e) for e in used.tolist()]
    # terms are sorted by row: a term's position is its offset from the
    # first term of its row
    pos = np.arange(rows.size) - np.searchsorted(rows, rows)
    terms = np.zeros((acc.size, int(pos.max()) + 1), dtype=complex)
    terms[rows, pos] = cs * roots[exps]
    for column in terms.T:
        acc += column
    return acc


def cyclo_zero(order: int) -> CycloInt:
    return CycloInt(order, ())


def cyclo_int(order: int, value: int) -> CycloInt:
    return CycloInt(order, _canonical(order, {0: value}))


def root_power(order: int, exponent: int) -> CycloInt:
    """zeta^exponent in canonical form."""
    e, c = _fold(order, exponent, 1)
    return CycloInt(order, _canonical(order, {e: c}))


def cos_pair(order: int, exponent: int) -> CycloInt:
    """zeta^a + zeta^(-a), the real value 2*cos(2*pi*a/order)."""
    return add(root_power(order, exponent), root_power(order, -exponent))


def add(x: CycloInt, y: CycloInt) -> CycloInt:
    assert x.order == y.order
    acc = dict(x.terms)
    for e, c in y.terms:
        acc[e] = acc.get(e, 0) + c
    return CycloInt(x.order, _canonical(x.order, acc))
