"""Dihedral and generalized quaternion 2-groups in exact normal form.

Both families of order 2^n are generated by a rotation a of order 2^(n-1)
and a flip b with b a b^(-1) = a^(-1); the quaternion family additionally
satisfies b^2 = a^(2^(n-2)) while the dihedral one has b^2 = 1.  Every
element is a^e * b^f with e reduced mod 2^(n-1) and f in {0, 1}, which
makes equality, hashing and enumeration trivial.

Conjugacy classes carry symbolic labels: the two central singletons, the
paired rotation powers, and the two flip classes split by exponent parity.
The subgroup chain used for towers is level(i) = <a^(2^(n-i)), b>, itself
a group of the same family of order 2^i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

DIHEDRAL = "dihedral"
QUATERNION = "quaternion"

MAX_N = 20  # group order 2^20; exhaustive oracles are separately capped in tests


@dataclass(frozen=True)
class GroupKind:
    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in (DIHEDRAL, QUATERNION):
            raise ValueError(f"unknown family: {self.family!r}")
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if self.n > MAX_N:
            raise ValueError(f"n must be <= {MAX_N}, got {self.n}")


@dataclass(frozen=True)
class Element:
    exponent: int
    flip: int


@dataclass(frozen=True)
class ClassLabel:
    """One of: one, minus_one, power(k) with 1 <= k <= 2^(n-2)-1, flip_even, flip_odd."""

    kind: str
    k: int = 0

    def __str__(self) -> str:
        if self.kind == "power":
            return f"power({self.k})"
        return self.kind


ONE = ClassLabel("one")
MINUS_ONE = ClassLabel("minus_one")
FLIP_EVEN = ClassLabel("flip_even")
FLIP_ODD = ClassLabel("flip_odd")


def power(k: int) -> ClassLabel:
    assert k >= 1
    return ClassLabel("power", k)


@dataclass(frozen=True)
class Group:
    kind: GroupKind

    @property
    def family(self) -> str:
        return self.kind.family

    @property
    def n(self) -> int:
        return self.kind.n

    @property
    def order(self) -> int:
        return 1 << self.kind.n

    @property
    def rotation_order(self) -> int:
        return 1 << (self.kind.n - 1)

    def element_order(self, g: Element) -> int:
        """a^e has order 2^(n-1) / gcd(e, 2^(n-1)); a flip a^e b squares to
        1 (dihedral) or to the central involution (quaternion)."""
        if g.flip:
            return 2 if self.family == DIHEDRAL else 4
        return self.rotation_order // math.gcd(g.exponent, self.rotation_order)

    # -- conjugacy structure -----------------------------------------------

    def class_labels(self) -> list[ClassLabel]:
        half = 1 << (self.kind.n - 2)
        return (
            [ONE, MINUS_ONE]
            + [power(k) for k in range(1, half)]
            + [FLIP_EVEN, FLIP_ODD]
        )

    def conjugacy_class_of(self, g: Element) -> ClassLabel:
        half = 1 << (self.kind.n - 2)
        if g.flip:
            return FLIP_EVEN if g.exponent % 2 == 0 else FLIP_ODD
        e = g.exponent
        if e == 0:
            return ONE
        if e == half:
            return MINUS_ONE
        return power(min(e, self.rotation_order - e))

    def class_size(self, label: ClassLabel) -> int:
        if label.kind in ("one", "minus_one"):
            return 1
        if label.kind == "power":
            return 2
        return 1 << (self.kind.n - 2)

    def class_representative(self, label: ClassLabel) -> Element:
        if label.kind == "one":
            return Element(0, 0)
        if label.kind == "minus_one":
            return Element(1 << (self.kind.n - 2), 0)
        if label.kind == "power":
            assert 1 <= label.k < (1 << (self.kind.n - 2))
            return Element(label.k, 0)
        if label.kind == "flip_even":
            return Element(0, 1)
        assert label.kind == "flip_odd"
        return Element(1, 1)

    def square_root_count(self, label: ClassLabel) -> int:
        """|{g : g^2 in C}|, in closed form.

        Rotation squares are the even powers a^(2e); dihedral flips square
        to 1 while quaternion flips square to a^(2^(n-2)).  Power classes
        with odd k are never squares; even k = 2m is hit by the four
        exponents +-m, +-m + 2^(n-2).
        """
        flips = self.rotation_order  # 2^(n-1) flip elements
        if label.kind == "one":
            base = 2  # e with 2e = 0 mod 2^(n-1): e in {0, 2^(n-2)}
            return base + (flips if self.family == DIHEDRAL else 0)
        if label.kind == "minus_one":
            base = 2  # 2e = 2^(n-2) mod 2^(n-1) has two solutions
            return base + (flips if self.family == QUATERNION else 0)
        if label.kind == "power":
            return 4 if label.k % 2 == 0 else 0
        return 0

    # -- subgroup chain ------------------------------------------------------

    def level(self, i: int) -> "Group":
        """The subgroup <a^(2^(n-i)), b> of order 2^i, as a group of the same family."""
        if not 3 <= i <= self.kind.n:
            raise ValueError(f"level must satisfy 3 <= i <= {self.kind.n}, got {i}")
        return Group(GroupKind(self.family, i))

    def class_fusion(self, i: int, label: ClassLabel) -> ClassLabel:
        """The full-group class generated by a level-i class.

        Rotation classes map by exponent scaling; both flip classes of a
        proper level land in flip_even because the scaled exponent is even.
        """
        if not 3 <= i <= self.kind.n:
            raise ValueError(f"level must satisfy 3 <= i <= {self.kind.n}, got {i}")
        if i == self.kind.n:
            return label
        if label.kind == "power":
            return power(label.k << (self.kind.n - i))
        if label.kind in ("flip_even", "flip_odd"):
            return FLIP_EVEN
        return label
