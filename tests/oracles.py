"""Test-only reference implementations of the race layer's exact quantities.

These are the per-pair ``CycloInt`` computations the array path in
``chebrace.races`` replaced: one character value at a time, summed in the
cyclotomic ring.  Tests compare the array path against them for equal
integers and bit-equal floats.
"""
from __future__ import annotations

from typing import Mapping

from chebrace.characters import character_ids, character_value
from chebrace.cyclotomic import add, cyclo_zero, scale, sub
from chebrace.groups import ClassLabel, Group
from chebrace.races import RaceSpec, RaceUndefinedError


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
