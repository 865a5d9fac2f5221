"""Zero-ordinate data for L-functions: synthetic generation and file ingestion.

A ZeroSet holds the positive imaginary parts (ordinates) of the nontrivial
zeros of one character's L-function up to a completeness horizon T_max.
Synthetic sets are drawn from a renewal process whose local rate is the
derivative of the Riemann-von Mangoldt main term, so counting functions,
B0 sums, and partial inverse sums all match the classical asymptotics.
Sampling is sequential with exponential gaps, which models the simplicity
and independence axioms: ordinates are distinct with probability one and
carry no correlation structure.

The one-sided convention (gamma > 0 only) is used throughout; callers that
need the two-sided sum over conjugate pairs double explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi
RATE_FLOOR = 1e-6
_SAMPLE_SALT = 0x5CE9A812
# the largest horizon sampled: 2^20 (several million zeros at the largest
# conductors); past it sampling would not finish in practice
HORIZON_LIMIT = float(1 << 20)
# the largest expected zero count sampled: 2^25.  The test suite and the
# benchmark's pinned calls sample at most 1748 per set, and every family
# scenario stays below the limit up to HORIZON_LIMIT (about 9.1M zeros at
# the largest conductors, n = 20).  Past it sampling would need gigabytes,
# and once the mean gap falls below ulp(t) it would never finish
ZERO_COUNT_LIMIT = float(1 << 25)


class ParseError(ValueError):
    """Malformed zero file content, reported with path and line number."""


class ValidationError(ValueError):
    """Ordinates violating positivity or strict monotonicity."""


@dataclass(frozen=True)
class ZeroCountModel:
    """Counting-function main term N(T) = (T/2pi) log(A (T/2pi e)^deg)."""

    log_conductor: float
    degree_factor: int = 2

    def __post_init__(self) -> None:
        if self.log_conductor < 0:
            raise ValueError(f"log conductor must be >= 0, got {self.log_conductor}")
        if self.degree_factor < 1:
            raise ValueError(f"degree factor must be >= 1, got {self.degree_factor}")

    def rate(self, t: float) -> float:
        """d/dT of the main term: (1/2pi) log(A (t/2pi)^deg)."""
        return (self.log_conductor
                + self.degree_factor * math.log(t / TWO_PI)) / TWO_PI

    @property
    def onset(self) -> float:
        """Height where the local rate crosses zero: 2pi A^(-1/deg)."""
        return TWO_PI * math.exp(-self.log_conductor / self.degree_factor)


def expected_zero_count(model: ZeroCountModel, t: float) -> float:
    """Main-term count of zeros with 0 < gamma <= t, clamped at 0."""
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    main = (t / TWO_PI) * (model.log_conductor
                           + model.degree_factor * (math.log(t / TWO_PI) - 1.0))
    return max(main, 0.0)


@dataclass(frozen=True)
class ZeroSet:
    character_id: str
    t_max: float
    ordinates: tuple[float, ...]
    source: str
    log_conductor: float | None = None

    def __post_init__(self) -> None:
        if self.t_max <= 0:
            raise ValidationError(f"T_max must be positive, got {self.t_max}")
        prev = 0.0
        for k, g in enumerate(self.ordinates):
            if not g > prev:
                raise ValidationError(
                    f"ordinate #{k + 1} = {g!r} not strictly above "
                    f"{'0' if k == 0 else repr(prev)}")
            prev = g
        if self.ordinates and self.ordinates[-1] > self.t_max:
            raise ValidationError(
                f"ordinate {self.ordinates[-1]!r} exceeds T_max = {self.t_max!r}")

    def __len__(self) -> int:
        return len(self.ordinates)

    @cached_property
    def moduli(self) -> np.ndarray:
        """|1/2 + i gamma| = sqrt(1/4 + gamma^2) per ordinate, read-only and
        computed once: every race model over this set divides by it."""
        g = np.asarray(self.ordinates, dtype=float)
        moduli = np.sqrt(0.25 + g * g)
        moduli.flags.writeable = False
        return moduli


def sample_zero_set(model: ZeroCountModel, t_max: float, seed: int,
                    character_id: str = "unknown") -> ZeroSet:
    """Synthetic ZeroSet on (0, t_max] calibrated to expected_zero_count.

    Exact inhomogeneous Poisson sampling by thinning: exponential gaps at the
    majorant rate (the local rate at t_max, where it peaks), each proposal
    kept with probability local-rate / majorant.  The local rate is the
    derivative of the counting main term, clamped below at a small floor, so
    the counting function matches expected_zero_count up to Poisson noise.
    Independent gaps model the ordinate-independence axiom; ordinates are
    distinct with probability one.  Deterministic per (seed, model, t_max).
    """
    if not 1.0 <= t_max <= HORIZON_LIMIT:
        raise ValueError(f"need 1 <= t_max <= 2^20, got {t_max}")
    count = expected_zero_count(model, t_max)
    if not count <= ZERO_COUNT_LIMIT:
        raise ValueError(f"expected {count:.4g} zeros up to t_max = {t_max}, "
                         f"past the limit of 2^25 = {ZERO_COUNT_LIMIT:.0f}")
    rng = np.random.default_rng(np.random.SeedSequence([_SAMPLE_SALT, seed]))
    log_c, deg = model.log_conductor, model.degree_factor
    majorant = max(model.rate(t_max), RATE_FLOOR)
    kept: list[np.ndarray] = []
    t = 0.0
    while t < t_max:
        gaps = rng.standard_exponential(4096) / majorant
        pts = t + np.cumsum(gaps)
        u = rng.random(pts.size)
        crossed = bool(pts[-1] > t_max)
        if crossed:
            inside = pts <= t_max
            pts, u = pts[inside], u[inside]
        else:
            t = float(pts[-1])
        rates = np.maximum((log_c + deg * np.log(pts / TWO_PI)) / TWO_PI,
                           RATE_FLOOR)
        kept.append(pts[u * majorant < rates])
        if crossed:
            break
    ordinates = np.concatenate(kept) if kept else np.empty(0)
    # cumsum of positive gaps is strictly increasing; drop any float ties
    if ordinates.size:
        keep = np.empty(ordinates.size, dtype=bool)
        keep[0] = ordinates[0] > 0.0
        keep[1:] = np.diff(ordinates) > 0.0
        ordinates = ordinates[keep]
    return ZeroSet(character_id, t_max, tuple(float(g) for g in ordinates),
                   source=f"synthetic({seed})", log_conductor=model.log_conductor)


def b0_tail(model: ZeroCountModel, t: float) -> float:
    """Main-term estimate of the one-sided sum of 1/(1/4+gamma^2) over
    gamma > t: integral of rate(u)/u^2 du = (rate(t) + deg/2pi)/t."""
    assert t > 0
    return (max(model.rate(t), 0.0) + model.degree_factor / TWO_PI) / t


# -- zero files ----------------------------------------------------------------


def save_zero_file(zs: ZeroSet, path: str) -> None:
    """Decimal text serialization; 17 significant digits round-trip floats."""
    lines = [f"# character: {zs.character_id}", f"# T_max: {zs.t_max:.17g}"]
    if zs.log_conductor is not None:
        lines.append(f"# log_conductor: {zs.log_conductor:.17g}")
    lines.extend(f"{g:.17g}" for g in zs.ordinates)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_zero_file(path: str) -> ZeroSet:
    character_id = "unknown"
    t_max: float | None = None
    log_conductor: float | None = None
    ordinates: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, sep, value = body.partition(":")
                key, value = key.strip(), value.strip()
                if not sep:
                    continue  # plain comment
                if key == "character":
                    character_id = value
                elif key == "T_max":
                    try:
                        t_max = float(value)
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: bad T_max {value!r}") from exc
                elif key == "log_conductor":
                    try:
                        log_conductor = float(value)
                    except ValueError as exc:
                        raise ParseError(
                            f"{path}:{lineno}: bad log_conductor {value!r}") from exc
                continue
            try:
                g = float(line)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: not a decimal ordinate: "
                                 f"{line!r}") from exc
            if not math.isfinite(g):
                raise ParseError(f"{path}:{lineno}: non-finite ordinate {line!r}")
            if g <= 0:
                raise ValidationError(f"{path}:{lineno}: ordinate must be positive, "
                                      f"got {g!r}")
            if ordinates and g <= ordinates[-1]:
                raise ValidationError(f"{path}:{lineno}: ordinates must be strictly "
                                      f"increasing ({g!r} after {ordinates[-1]!r})")
            ordinates.append(g)
    if t_max is None:
        if not ordinates:
            raise ParseError(f"{path}: empty body and no T_max header")
        t_max = ordinates[-1]
    return ZeroSet(character_id, t_max, tuple(ordinates),
                   source="file", log_conductor=log_conductor)
