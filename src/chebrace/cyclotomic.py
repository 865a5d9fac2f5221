"""Exact arithmetic in Z[zeta] for zeta a primitive 2^k-th root of unity.

Elements are kept in the canonical power basis 1, zeta, ..., zeta^(m/2 - 1)
with the single relation zeta^(m/2) = -1, so representation is unique and
equality is literal tuple equality.  Values are stored sparsely: character
values in this package are sums of at most two root powers, and products of
two such stay tiny, so all table operations cost O(1) per entry.

Two forms share that basis.  ``CycloInt`` is one element, for the character
table, the orthogonality checks and the oracles.  ``canonical_terms`` is the
array form used on the hot path: many sums of root powers, given as integer
exponent and coefficient arrays, reduced at once to the same canonical terms
a ``CycloInt`` would hold, and ``complex_values`` evaluates them with the
same floating-point operations as ``CycloInt.to_complex``.
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

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(e == 0 for e, _ in self.terms)

    def as_int(self) -> int:
        """The value as a rational integer; raises if irrational."""
        if not self.terms:
            return 0
        if not self.is_rational():
            raise ValueError(f"not a rational integer: {self.terms}")
        return self.terms[0][1]

    def to_complex(self) -> complex:
        acc = 0j
        for e, c in self.terms:
            acc += c * root_value(self.order, e)
        return acc

    def to_float(self) -> float:
        z = self.to_complex()
        assert abs(z.imag) < 1e-9, "value is not real"
        return z.real


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
