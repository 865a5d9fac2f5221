"""Ring axioms and canonical-form invariants for the exact cyclotomic layer:
the package's element constructors and sums, with the oracles' ring
operations."""
from __future__ import annotations

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from chebrace.cyclotomic import (
    CycloInt,
    add,
    cos_pair,
    cyclo_int,
    cyclo_zero,
    root_power,
)
from oracles import (
    as_int,
    compress,
    conjugate,
    mul,
    neg,
    promote,
    scale,
    sub,
    to_complex,
    to_float,
)

ORDERS = (2, 4, 8, 16, 32)


def cyclo_elements(order: int):
    term = st.tuples(st.integers(-3 * order, 3 * order),
                     st.integers(-9, 9))
    return st.lists(term, max_size=5).map(
        lambda pairs: _build(order, pairs))


def _build(order: int, pairs) -> CycloInt:
    acc = cyclo_zero(order)
    for e, c in pairs:
        acc = add(acc, scale(root_power(order, e), c))
    return acc


@st.composite
def order_and_triple(draw):
    order = draw(st.sampled_from(ORDERS))
    els = cyclo_elements(order)
    return order, draw(els), draw(els), draw(els)


@settings(max_examples=200, deadline=None)
@given(order_and_triple())
def test_ring_axioms(data):
    order, x, y, z = data
    zero = cyclo_zero(order)
    one = cyclo_int(order, 1)
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, zero) == x
    assert add(x, neg(x)) == zero
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, one) == x
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert sub(x, y) == add(x, neg(y))


@settings(max_examples=150, deadline=None)
@given(order_and_triple())
def test_numeric_embedding_is_a_homomorphism(data):
    order, x, y, _ = data
    zx, zy = to_complex(x), to_complex(y)
    assert cmath.isclose(to_complex(add(x, y)), zx + zy, abs_tol=1e-8)
    assert cmath.isclose(to_complex(mul(x, y)), zx * zy,
                         abs_tol=1e-6 * (1 + abs(zx)) * (1 + abs(zy)))


@settings(max_examples=150, deadline=None)
@given(order_and_triple())
def test_conjugation_is_an_involution_and_multiplicative(data):
    order, x, y, _ = data
    assert conjugate(conjugate(x)) == x
    assert conjugate(mul(x, y)) == mul(conjugate(x), conjugate(y))
    norm = to_complex(mul(x, conjugate(x)))
    assert norm.real >= -1e-9 and abs(norm.imag) < 1e-9


def test_root_powers_fold_into_the_canonical_half_range():
    for order in ORDERS:
        for e in range(-2 * order, 2 * order + 1):
            v = root_power(order, e)
            for exp, coeff in v.terms:
                assert 0 <= exp < order // 2
                assert coeff != 0
            expected = cmath.exp(2j * math.pi * e / order)
            assert cmath.isclose(to_complex(v), expected, abs_tol=1e-9)


def test_minus_one_power_identity():
    # zeta^(order/2) = -1 exactly
    for order in ORDERS:
        assert root_power(order, order // 2) == cyclo_int(order, -1)


def test_cos_pair_values():
    assert cos_pair(8, 0) == cyclo_int(8, 2)
    assert cos_pair(8, 4) == cyclo_int(8, -2)
    assert abs(to_complex(cos_pair(8, 2))) < 1e-12
    assert math.isclose(to_float(cos_pair(16, 2)), math.sqrt(2.0))


def test_promote_then_compress_round_trips():
    for order in (2, 4, 8):
        for e in range(order):
            x = add(root_power(order, e), cyclo_int(order, 3))
            up = promote(x, 4 * order)
            assert cmath.isclose(to_complex(up), to_complex(x), abs_tol=1e-9)
            assert compress(up, order) == x


def test_as_int_accepts_only_rationals():
    import pytest

    assert as_int(cyclo_int(8, -5)) == -5
    assert as_int(cyclo_zero(8)) == 0
    with pytest.raises(ValueError):
        as_int(root_power(8, 1))
