"""Tame conductor exponents and simulated arithmetic scenarios.

A scenario stands in for a Galois extension of the dihedral or quaternion
family: which odd primes ramify (tame, so inertia is cyclic and given by a
generator element), the shared symplectic root number axiom W, central
vanishing orders, and the discriminant size.  The central orders and the
log conductors of the full group's irreducibles are arrays in
``character_ids`` order, built once per scenario.  The scenarios the verbs
use are scaled: they carry log sizes calibrated to the towers' discriminant
growth, with the per-prime log treated as a real number.  Explicit
scenarios with literal primes and factored conductors, and the
conductor-discriminant identity they satisfy, live in ``tests/oracles.py``,
where the tests check ``conductor_exponents`` against them.

Conductor exponents use the tame formula n(chi, p) = chi(1) - dim V^I with
the invariant dimension in closed form, one array per inertia generator (the
tests check it against the average of chi over the inertia subgroup);
degree-1 characters reduce to kernel membership of the generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .characters import (
    character_count,
    character_degrees,
    character_id,
    character_index,
    character_value,
    symplectic_mask,
)
from .cyclotomic import cyclo_int
from .groups import DIHEDRAL, QUATERNION, Element, Group, GroupKind

LOG5 = math.log(5.0)
LOG7 = math.log(7.0)


def conductor_exponents(group: Group, generator: Element) -> np.ndarray:
    """Tame n(chi, p) = chi(1) - dim V^I for inertia <generator>, of every
    irreducible in ``character_ids`` order, as an int64 array.

    dim V^I in closed form.  Degree 1: the cyclic inertia acts through
    chi(generator), so the line is fixed iff that value is 1.  psi_j at a
    rotation a^e: the matrix is diag(zeta^(je), zeta^(-je)), fixed space of
    dimension 2 iff je = 0 mod 2^(n-1), else 0.  psi_j at a reflected
    element: in the dihedral family an involution swapping the eigenlines
    (dimension 1); in the quaternion family it generates an order-4
    subgroup through -1, whose average is (2 + 2(-1)^j)/4.
    """
    m = group.rotation_order
    label = group.conjugacy_class_of(generator)
    linear = [0 if character_value(group, character_id(c), label) == cyclo_int(m, 1)
              else 1 for c in range(4)]
    j = np.arange(1, 1 << (group.n - 2), dtype=np.int64)
    if not generator.flip:
        psi = np.where(j * generator.exponent % m == 0, 0, 2)
    else:
        psi = np.ones_like(j) if group.family == DIHEDRAL else 1 + j % 2
    return np.concatenate((np.array(linear, dtype=np.int64), psi))


# -- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class VirtualPrime:
    """A ramified place as the conductors read it: its log size, a positive
    real, and a generator of its tame inertia.  Literal primes with factored
    conductors belong to the oracles' ``RamifiedPrime``."""

    log_p: float
    inertia: Element

    def __post_init__(self) -> None:
        if not self.log_p > 0.0:
            raise ValueError(f"log_p must be positive, got {self.log_p!r}")


@dataclass(frozen=True)
class ArithmeticScenario:
    """A simulated extension: its group, the symplectic root number axiom
    W, its ramified places and its discriminant size.

    W is decided here and nowhere else.  It must be the integer 1 or -1 (a
    bool is not one), and a dihedral scenario stores W = +1 whatever it is
    given: that family has no symplectic characters, so W is vacuous there
    and both values give the same scenario."""

    kind: GroupKind
    w_axiom: int
    primes: tuple[VirtualPrime, ...]
    log_disc: float
    order_overrides: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if type(self.w_axiom) is not int or self.w_axiom not in (+1, -1):
            raise ValueError(f"w_axiom must be the integer 1 or -1, got {self.w_axiom!r}")
        if self.kind.family == DIHEDRAL:
            object.__setattr__(self, "w_axiom", +1)
        if not self.log_disc > 0.0:
            raise ValueError(f"log_disc must be positive, got {self.log_disc!r}")

    @property
    def group(self) -> Group:
        return Group(self.kind)

    @cached_property
    def log_conductors(self) -> np.ndarray:
        """log A(chi) = sum_p n(chi, p) log p of every full-group
        irreducible, in ``character_ids`` order and read-only; summed prime
        by prime in the order of ``primes``."""
        acc = np.zeros(character_count(self.kind.n))
        for vp in self.primes:
            acc = acc + conductor_exponents(self.group, vp.inertia) * vp.log_p
        acc.flags.writeable = False
        return acc

    @cached_property
    def central_orders(self) -> np.ndarray:
        """Central vanishing order of every full-group irreducible, in
        ``character_ids`` order and read-only: (1 - W)/2 on the symplectic
        characters, 0 elsewhere, then the ``order_overrides``."""
        group = self.group
        orders = np.where(symplectic_mask(group), (1 - self.w_axiom) // 2, 0)
        for cid, order in self.order_overrides:
            orders[character_index(group, cid)] = order
        orders.flags.writeable = False
        return orders


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
    inside the nominal bracket for every n >= 3.  The draws depend on the
    family, n and seed only; ``ArithmeticScenario`` checks W and stores it
    (as +1 for the dihedral family).
    """
    kind = GroupKind(family, n)  # rejects n < 3 and n > 20
    rng = np.random.default_rng(np.random.SeedSequence([0x5CE9A811, seed]))
    group = Group(kind)
    g5 = _random_nonidentity(rng, group)
    gp = _random_nonidentity(rng, group)
    e5 = group.element_order(g5)
    ep = group.element_order(gp)
    exp5 = (e5 - 1) * (group.order // e5)
    expp = (ep - 1) * (group.order // ep)
    lo = max(0.5 * 2.0**n, exp5 * LOG5 + expp * LOG7)
    hi = n * 2.0**n
    assert lo < hi, (lo, hi)
    log_disc = float(rng.uniform(lo, hi))
    log_p = (log_disc - exp5 * LOG5) / expp
    assert log_p >= LOG7 - 1e-9
    primes = (
        VirtualPrime(LOG5, g5),
        VirtualPrime(log_p, gp),
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
    exps = conductor_exponents(Group(kind), gen)
    degrees = character_degrees(np.arange(exps.size))
    log_disc = sum((degrees * exps * log_p).tolist())
    return ArithmeticScenario(
        kind, w_axiom,
        (VirtualPrime(log_p, gen),),
        log_disc,
    )
