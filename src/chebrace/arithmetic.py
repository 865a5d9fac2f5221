"""Tame conductor exponents and simulated arithmetic scenarios.

A scenario stands in for a Galois extension of the dihedral or quaternion
family: which odd primes ramify (tame, so inertia is cyclic and given by a
generator element), the shared symplectic root number axiom W, central
vanishing orders, and the discriminant size.  The scenarios the verbs use
are scaled: they carry log sizes calibrated to the towers' discriminant
growth, with the per-prime log treated as a real number.  Explicit
scenarios with literal primes and factored conductors, and the
conductor-discriminant identity they satisfy, live in ``tests/oracles.py``,
where the tests check ``conductor_exponent`` against them.

Conductor exponents use the tame formula n(chi, p) = chi(1) - dim V^I with
the invariant dimension in closed form (the tests check it against the
average of chi over the inertia subgroup); degree-1 characters reduce to
kernel membership of the generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import character_degree, character_ids, character_value, is_symplectic
from .cyclotomic import cyclo_int
from .groups import DIHEDRAL, QUATERNION, Element, Group, GroupKind

LOG5 = math.log(5.0)
LOG7 = math.log(7.0)


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def inertia_order(group: Group, generator: Element) -> int:
    return group.element_order(generator)


def invariant_dimension(group: Group, cid: str, generator: Element) -> int:
    """Closed form for the inertia-fixed dimension, O(1) at any group size.

    Degree 1: the cyclic inertia acts through chi(generator), so the line is
    fixed iff that value is 1.  Degree 2 at a rotation a^e: the matrix is
    diag(zeta^(je), zeta^(-je)), fixed space has dimension 2 iff
    je = 0 mod 2^(n-1), else 0.  Degree 2 at a reflected element: in the
    dihedral family the element is an involution swapping the eigenlines
    (dimension 1); in the quaternion family it generates an order-4 subgroup
    through -1, whose average is (2 + 2(-1)^j)/4.
    """
    m = group.rotation_order
    if character_degree(cid) == 1:
        val = character_value(group, cid, group.conjugacy_class_of(generator))
        return 1 if val == cyclo_int(m, 1) else 0
    j = int(cid.split("_")[1])
    if generator.flip:
        if group.family == DIHEDRAL:
            return 1
        return 1 if j % 2 == 0 else 0
    return 2 if (j * generator.exponent) % m == 0 else 0


def conductor_exponent(group: Group, cid: str, generator: Element) -> int:
    """Tame n(chi, p) = chi(1) - dim V^I for inertia <generator>."""
    return character_degree(cid) - invariant_dimension(group, cid, generator)


# -- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class VirtualPrime:
    """A ramified place: literal odd prime in explicit mode (p set), or a
    pure log size in scaled mode (p None)."""

    p: int | None
    log_p: float
    inertia: Element

    def __post_init__(self) -> None:
        if self.p is not None:
            if not _is_odd_prime(self.p):
                raise ValueError(f"explicit prime must be an odd prime, got {self.p}")
            if not abs(self.log_p - math.log(self.p)) < 1e-9:
                raise ValueError(f"log_p = {self.log_p!r} is not log({self.p})")
        if not self.log_p > 0.0:
            raise ValueError(f"log_p must be positive, got {self.log_p!r}")


@dataclass(frozen=True)
class ArithmeticScenario:
    kind: GroupKind
    w_axiom: int
    primes: tuple[VirtualPrime, ...]
    log_disc: float
    order_overrides: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.w_axiom not in (+1, -1):
            raise ValueError(f"w_axiom must be +1 or -1, got {self.w_axiom!r}")
        if self.kind.family == DIHEDRAL and self.w_axiom != +1:
            raise ValueError("dihedral scenarios carry W = +1 vacuously")
        if not self.log_disc > 0.0:
            raise ValueError(f"log_disc must be positive, got {self.log_disc!r}")

    @property
    def group(self) -> Group:
        return Group(self.kind)

    def log_conductor(self, cid: str) -> float:
        group = self.group
        return sum(
            conductor_exponent(group, cid, vp.inertia) * vp.log_p
            for vp in self.primes
        )

    def central_order(self, cid: str) -> int:
        for k, v in self.order_overrides:
            if k == cid:
                return v
        if self.kind.family == QUATERNION and is_symplectic(cid):
            return (1 - self.w_axiom) // 2
        return 0


def _random_nonidentity(rng: np.random.Generator, group: Group) -> Element:
    while True:
        e = int(rng.integers(0, group.rotation_order))
        f = int(rng.integers(0, 2))
        if (e, f) != (0, 0):
            return Element(e, f)


def scenario_generator(family: str, n: int, w_axiom: int,
                       seed: int) -> ArithmeticScenario:
    """Scaled scenario: two virtual primes mimicking 5 and p, with log_disc
    drawn uniformly from [2^n / 2, n 2^n] and log p solved from the
    conductor-discriminant split so the sizes stay consistent.

    The lower end is clamped up when the draw could force log p below log 7,
    which keeps the virtual prime larger than the literal 5; the clamp stays
    inside the nominal bracket for every n >= 3.
    """
    kind = GroupKind(family, n)  # rejects n < 3 and n > 20
    if family == DIHEDRAL:
        w_axiom = +1
    rng = np.random.default_rng(np.random.SeedSequence([0x5CE9A811, seed]))
    group = Group(kind)
    g5 = _random_nonidentity(rng, group)
    gp = _random_nonidentity(rng, group)
    e5 = inertia_order(group, g5)
    ep = inertia_order(group, gp)
    exp5 = (e5 - 1) * (group.order // e5)
    expp = (ep - 1) * (group.order // ep)
    lo = max(0.5 * 2.0**n, exp5 * LOG5 + expp * LOG7)
    hi = n * 2.0**n
    assert lo < hi, (lo, hi)
    log_disc = float(rng.uniform(lo, hi))
    log_p = (log_disc - exp5 * LOG5) / expp
    assert log_p >= LOG7 - 1e-9
    primes = (
        VirtualPrime(5, LOG5, g5),
        VirtualPrime(None, log_p, gp),
    )
    return ArithmeticScenario(kind, w_axiom, primes, log_disc)


def horizontal_scenario(d_index: int, f_value: float, w_axiom: int) -> ArithmeticScenario:
    """Order-8 quaternion scenario whose single ramified place is large:
    log A(psi) = 2 f^3 + log(2 + d_index), so the simulated smallest ramified
    prime exceeds e^(f^3) strictly and distinct indices give distinct fields."""
    if f_value <= 0:
        raise ValueError(f"f_value must be positive, got {f_value}")
    kind = GroupKind(QUATERNION, 3)
    log_a_psi = 2.0 * float(f_value) ** 3 + math.log(2.0 + d_index)
    # flip inertia: n(psi) = 2, n(chi1) = n(chi3) = 1, so log|d| = 3 log A(psi) / ...
    gen = Element(0, 1)
    log_p = log_a_psi / 2.0
    group = Group(kind)
    log_disc = sum(
        character_degree(cid) * conductor_exponent(group, cid, gen) * log_p
        for cid in character_ids(group)
    )
    return ArithmeticScenario(
        kind, w_axiom,
        (VirtualPrime(None, log_p, gen),),
        log_disc,
    )
