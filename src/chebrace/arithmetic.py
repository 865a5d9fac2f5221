"""Tame ramification data, Artin conductors, and simulated arithmetic scenarios.

A scenario stands in for a Galois extension of the dihedral or quaternion
family: which odd primes ramify (tame, so inertia is cyclic and given by a
generator element), the shared symplectic root number axiom W, central
vanishing orders, and the discriminant size.  Explicit scenarios carry
literal integer primes and exact factored conductors; scaled scenarios only
carry log sizes calibrated to the towers' discriminant growth, with the
per-prime log treated as a real number.

Conductor exponents use the tame formula n(chi, p) = chi(1) - dim V^I with
the invariant dimension evaluated exactly as the average of chi over the
inertia subgroup; degree-1 characters reduce to kernel membership of the
generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .characters import character_degree, character_ids, character_value, is_symplectic
from .cyclotomic import add, cyclo_int, cyclo_zero
from .groups import DIHEDRAL, QUATERNION, Element, Group, GroupKind

LOG5 = math.log(5.0)
LOG7 = math.log(7.0)


class ScenarioFormatError(ValueError):
    pass


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def resolve_inertia(group: Group, spec: Element | str) -> Element:
    """Accept a generator element or a named subgroup; reject non-cyclic names.

    Tame inertia is cyclic, so the only named subgroups allowed are the
    cyclic ones; asking for the full group (or any flip-containing subgroup
    beyond a single generator) is an error.
    """
    if isinstance(spec, Element):
        return spec
    if spec == "rotation":
        return Element(1, 0)
    if spec == "center":
        return Element(1 << (group.n - 2), 0)
    if spec in ("full", "klein"):
        raise ValueError(f"inertia {spec!r} is not cyclic; tame inertia must be cyclic")
    raise ValueError(f"unknown inertia spec {spec!r}")


@dataclass(frozen=True)
class RamifiedPrime:
    p: int
    inertia: Element

    def __post_init__(self) -> None:
        if not _is_odd_prime(self.p):
            raise ValueError(f"ramified prime must be an odd prime >= 3, got {self.p}")


@dataclass(frozen=True)
class RamificationData:
    kind: GroupKind
    primes: tuple[RamifiedPrime, ...]
    tame: bool = True

    def __post_init__(self) -> None:
        assert self.tame, "only tame ramification is modeled"
        ps = [rp.p for rp in self.primes]
        if len(set(ps)) != len(ps):
            raise ValueError(f"ramified primes must be distinct: {ps}")
        group = Group(self.kind)
        for rp in self.primes:
            if rp.inertia == group.identity():
                raise ValueError(f"inertia at {rp.p} is trivial; prime not ramified")


def inertia_order(group: Group, generator: Element) -> int:
    return group.element_order(generator)


def invariant_dimension_average(group: Group, cid: str, generator: Element) -> int:
    """dim of the inertia-fixed subspace, (1/|I|) sum over <generator> of chi.

    Exact cyclotomic averaging; linear in the inertia order, so only usable
    for small groups.  Kept as the oracle the closed form is tested against.
    """
    order = inertia_order(group, generator)
    acc = cyclo_zero(group.rotation_order)
    t = group.identity()
    for _ in range(order):
        acc = add(acc, character_value(group, cid, group.conjugacy_class_of(t)))
        t = group.multiply(t, generator)
    total = acc.as_int()
    assert total % order == 0, (cid, generator, total)
    dim = total // order
    assert 0 <= dim <= character_degree(cid)
    return dim


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


def artin_conductor_tame(group: Group, cid: str,
                         ram: RamificationData) -> dict[int, int]:
    """Exponent map p -> n(chi, p) over the ramified primes."""
    assert ram.kind == group.kind
    return {rp.p: conductor_exponent(group, cid, rp.inertia) for rp in ram.primes}


@dataclass(frozen=True)
class CharacterConductor:
    character_id: str
    exponents: tuple[tuple[int, int], ...]  # (p, n(chi, p)), ramified primes only

    @property
    def factored(self) -> dict[int, int]:
        return {p: n for p, n in self.exponents if n > 0}

    @property
    def value(self) -> int:
        out = 1
        for p, n in self.exponents:
            out *= p**n
        return out

    @property
    def log_value(self) -> float:
        return sum(n * math.log(p) for p, n in self.exponents)


def conductor_report(group: Group, ram: RamificationData) -> dict[str, CharacterConductor]:
    return {
        cid: CharacterConductor(
            cid, tuple(sorted(artin_conductor_tame(group, cid, ram).items()))
        )
        for cid in character_ids(group)
    }


def conductor_discriminant(group: Group, ram: RamificationData) -> dict[int, int]:
    """Factored |d| = prod over chi of A(chi)^chi(1), as {p: exponent}."""
    out: dict[int, int] = {rp.p: 0 for rp in ram.primes}
    for cid in character_ids(group):
        deg = character_degree(cid)
        for p, n in artin_conductor_tame(group, cid, ram).items():
            out[p] += deg * n
    return out


def discriminant_exponent_tame(group: Group, generator: Element) -> int:
    """Independent route: ord_p |d| = (e-1) * |G| / e for tame cyclic inertia of order e."""
    e = inertia_order(group, generator)
    assert group.order % e == 0
    return (e - 1) * (group.order // e)


def vanishing_orders(kind: GroupKind, w_axiom: int, i: int) -> dict[str, int]:
    """Central vanishing orders for the level-i irreducibles under the
    independence axiom: W = -1 sends every symplectic character of the level
    to 2^(n-i), everything else (and the whole dihedral family) to 0."""
    assert w_axiom in (+1, -1)
    group = Group(kind)
    if not 3 <= i <= kind.n:
        raise ValueError(f"level must satisfy 3 <= i <= {kind.n}, got {i}")
    level_ids = character_ids(group.level(i))
    if kind.family == DIHEDRAL or w_axiom == +1:
        return {cid: 0 for cid in level_ids}
    return {
        cid: (1 << (kind.n - i)) if is_symplectic(cid) else 0
        for cid in level_ids
    }


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
            assert abs(self.log_p - math.log(self.p)) < 1e-9
        assert self.log_p > 0.0


@dataclass(frozen=True)
class ArithmeticScenario:
    kind: GroupKind
    w_axiom: int
    primes: tuple[VirtualPrime, ...]
    log_disc: float
    explicit: bool
    order_overrides: tuple[tuple[str, int], ...] = ()
    regime: tuple[float, float] | None = None

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

    def central_orders(self) -> dict[str, int]:
        return {cid: self.central_order(cid) for cid in character_ids(self.group)}


def explicit_scenario(ram: RamificationData, w_axiom: int = +1,
                      order_overrides: Mapping[str, int] | None = None) -> ArithmeticScenario:
    """Scenario with literal primes; log_disc is the exact conductor-discriminant value."""
    group = Group(ram.kind)
    disc = conductor_discriminant(group, ram)
    log_disc = sum(n * math.log(p) for p, n in disc.items())
    primes = tuple(
        VirtualPrime(rp.p, math.log(rp.p), rp.inertia) for rp in ram.primes
    )
    overrides = tuple(sorted((order_overrides or {}).items()))
    return ArithmeticScenario(ram.kind, w_axiom, primes, log_disc,
                              explicit=True, order_overrides=overrides)


_SMALL_ODD_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _random_nonidentity(rng: np.random.Generator, group: Group) -> Element:
    while True:
        e = int(rng.integers(0, group.rotation_order))
        f = int(rng.integers(0, 2))
        if (e, f) != (0, 0):
            return Element(e, f)


def random_ramification(kind: GroupKind, seed: int, count: int = 2) -> RamificationData:
    """Randomized explicit tame data: distinct small odd primes, random cyclic inertia."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5CE9A810, seed]))
    group = Group(kind)
    chosen = rng.choice(len(_SMALL_ODD_PRIMES), size=count - 1, replace=False)
    ps = [5] + [_SMALL_ODD_PRIMES[int(c)] for c in chosen]
    return RamificationData(
        kind,
        tuple(RamifiedPrime(p, _random_nonidentity(rng, group)) for p in ps),
    )


def scenario_generator(family: str, n: int, w_axiom: int, seed: int,
                       c_lo: float = 0.5, c_hi: float = 1.0) -> ArithmeticScenario:
    """Scaled scenario: two virtual primes mimicking 5 and p, with log_disc
    drawn uniformly from [c_lo * 2^n, c_hi * n * 2^n] and log p solved from
    the conductor-discriminant split so the sizes stay consistent.

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
    lo = max(c_lo * 2.0**n, exp5 * LOG5 + expp * LOG7)
    hi = c_hi * n * 2.0**n
    assert lo < hi, (lo, hi)
    log_disc = float(rng.uniform(lo, hi))
    log_p = (log_disc - exp5 * LOG5) / expp
    assert log_p >= LOG7 - 1e-9
    primes = (
        VirtualPrime(5, LOG5, g5),
        VirtualPrime(None, log_p, gp),
    )
    return ArithmeticScenario(kind, w_axiom, primes, log_disc,
                              explicit=False, regime=(c_lo * 2.0**n, hi))


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
        log_disc, explicit=False,
    )


# -- scenario files ----------------------------------------------------------


def save_scenario(scenario: ArithmeticScenario, path: str) -> None:
    lines = [
        f"family: {scenario.kind.family}",
        f"n: {scenario.kind.n}",
        f"W: {scenario.w_axiom:+d}",
        f"explicit: {'true' if scenario.explicit else 'false'}",
        f"log_disc: {scenario.log_disc!r}",
    ]
    if scenario.regime is not None:
        lines.append(f"regime: {scenario.regime[0]!r} {scenario.regime[1]!r}")
    for cid, order in scenario.order_overrides:
        lines.append(f"order_override: {cid} {order}")
    for vp in scenario.primes:
        p_str = str(vp.p) if vp.p is not None else "-"
        lines.append(
            f"prime: {p_str} {vp.log_p!r} {vp.inertia.exponent} {vp.inertia.flip}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scenario(path: str) -> ArithmeticScenario:
    fields: dict[str, str] = {}
    primes: list[VirtualPrime] = []
    overrides: list[tuple[str, int]] = []
    regime: tuple[float, float] | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ScenarioFormatError(f"{path}:{lineno}: expected 'key: value'")
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            try:
                if key == "prime":
                    p_str, log_p, e, f = value.split()
                    primes.append(VirtualPrime(
                        None if p_str == "-" else int(p_str),
                        float(log_p), Element(int(e), int(f)),
                    ))
                elif key == "order_override":
                    cid, order = value.split()
                    overrides.append((cid, int(order)))
                elif key == "regime":
                    a, b = value.split()
                    regime = (float(a), float(b))
                else:
                    fields[key] = value
            except (ValueError, TypeError) as exc:
                if isinstance(exc, ScenarioFormatError):
                    raise
                raise ScenarioFormatError(f"{path}:{lineno}: {exc}") from exc
    try:
        kind = GroupKind(fields["family"], int(fields["n"]))
        return ArithmeticScenario(
            kind,
            int(fields["W"]),
            tuple(primes),
            float(fields["log_disc"]),
            explicit=fields["explicit"] == "true",
            order_overrides=tuple(overrides),
            regime=regime,
        )
    except KeyError as exc:
        raise ScenarioFormatError(f"{path}: missing field {exc}") from exc
