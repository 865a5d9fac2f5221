"""Seeded experiment drivers producing reproducible race reports.

Each driver reads the exact data of its races (integer means, character
weight rows) as a ``races.RaceTable`` of its pairs, one per level, and
composes it with synthetic or file-backed zero sets and the two density
estimators, then returns a plain-dict report whose JSON/CSV rendering
(``cli.write_report``) is byte-identical for identical (config, seed).
Expected qualitative
outcomes for the published race tables live here as data
(TABLE_CLAIMS, MONOTONICITY_CLAIMS) so that drivers and acceptance checks
read one source of truth; the published order-8 rows are resolved per
pair by ``_h8_published_row``.

Per-race seeds derive from (master seed, race index) through
SeedSequence, so scheduling order cannot affect any number in a report.
Races run one after another; only the Monte Carlo kernel's chunks run on
worker threads, and each chunk's draws depend on its seed alone.
"""
from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence

import numpy as np

from .arithmetic import (
    ArithmeticScenario,
    VirtualPrime,
    horizontal_scenario,
    scenario_generator,
)
from .characters import (
    character_degrees,
    character_id,
    character_ids,
    character_index,
    sr_partition,
)
from .density import (
    MIN_MC_SAMPLES,
    SpectralTable,
    _mc_race,
    clt_estimate,
    density_fourier_batch,
    density_montecarlo,
    lower_bound,
    q_factor,
    race_model,
    truncation_shift_bound,
    upper_bound,
)
from .groups import (
    DIHEDRAL,
    Element,
    MINUS_ONE,
    ONE,
    ClassLabel,
    Group,
    GroupKind,
    QUATERNION,
    power,
)
from .races import (
    InternalInconsistencyError,
    RaceTable,
    STATUS_MATCH,
    STATUS_OPEN_QUESTION,
    STATUS_UNDEFINED,
    class_means,
    level_races,
    mean_table,
    published_mean,
    race_mean_closed_form,
    race_table,
)
from .zeros import (
    HORIZON_LIMIT,
    ParseError,
    ValidationError,
    ZeroCountModel,
    ZeroSet,
    b0_tail,
    expected_zero_count,
    load_zero_file,
    sample_zero_set,
)

_PROVISION_SALT = 0x5CE9A814
_SHARED_MC_SALT = 0x5CE9A815
_SANDWICH_SALT = 0x5CE9A816

TABLE_IDS = ("esp-q", "esp-d", "h8")
# largest n whose esp-q table meets the time budget stated in the README
TABLE_MAX_N = 10

# computed classification labels for a class pair at a given level
EXACTLY_HALF = "exactly-half"
EXTREME_TOWARD_1 = "extreme-toward-1"
EXTREME_TOWARD_0 = "extreme-toward-0"
MODERATE = "moderate"
UNDETERMINED = "undetermined"


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= value <= hi:
        raise ConfigError(f"{name} must satisfy {lo} <= {name} <= {hi}, got {value}")
    if value < lo:
        raise ConfigError(f"{name} must be at least {lo}, got {value}")


def check_seed(seed) -> None:
    """SeedSequence takes non-negative integers only."""
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def check_t_max(t_max) -> None:
    """sample_zero_set's horizon range, checked before any work is done."""
    if isinstance(t_max, bool) or not isinstance(t_max, (int, float)):
        raise ConfigError(f"t_max must be a number, got {t_max!r}")
    if not t_max >= 1.0:
        raise ConfigError(f"--t-max must be at least 1, got {t_max}")
    if not t_max <= HORIZON_LIMIT:
        raise ConfigError(f"--t-max must be at most 2^20 = 1048576, got {t_max}")


def _check_mc_samples(samples, floor: int = MIN_MC_SAMPLES) -> None:
    """density_montecarlo's floor, or the caller's, and an even count (the
    kernel draws samples // 2 antithetic pairs), checked before any work is
    done."""
    _check_int("samples", samples, floor)
    if samples % 2:
        raise ConfigError(f"samples must be even (antithetic pairs), got {samples}")


# ---------------------------------------------------------------------------
# claims data: expected qualitative outcomes, shared with acceptance checks
# ---------------------------------------------------------------------------

_TAG_ORDER = ("one", "minus_one", "power_even", "power_odd", "flip")


def class_tag(label: ClassLabel) -> str:
    if label.kind == "power":
        return "power_even" if label.k % 2 == 0 else "power_odd"
    if label.kind in ("flip_even", "flip_odd"):
        return "flip"
    return label.kind


def pair_tags(c1: ClassLabel, c2: ClassLabel) -> tuple[str, str]:
    a, b = class_tag(c1), class_tag(c2)
    if _TAG_ORDER.index(a) <= _TAG_ORDER.index(b):
        return (a, b)
    return (b, a)


def _claim(tags, cls, side=None, **extra):
    rec = {"tags": tags, "class": cls, "side": side}
    rec.update(extra)
    return rec


# Rows of the published base-field race tables, keyed by unordered tag
# pair; "side" is the asserted side of 1/2 for delta(c1, c2) with the
# identity/central class listed first (the order class_labels() yields).
# "formula_class" marks rows where the printed condition contradicts the
# published mean formulas themselves; those rows are open questions and
# the drivers check the formula-faithful behavior while surfacing both.
_TABD_CLAIMS = (
    _claim(("one", "minus_one"), EXTREME_TOWARD_0, -1),
    _claim(("one", "power_even"), EXTREME_TOWARD_0, -1),
    _claim(("one", "power_odd"), EXTREME_TOWARD_0, -1),
    _claim(("one", "flip"), EXTREME_TOWARD_0, -1),
    _claim(("minus_one", "power_even"), EXACTLY_HALF),
    _claim(("minus_one", "power_odd"), UNDETERMINED),
    _claim(("minus_one", "flip"), MODERATE, -1),
    _claim(("power_even", "power_even"), EXACTLY_HALF),
    _claim(("power_odd", "power_odd"), EXACTLY_HALF),
    _claim(("power_even", "power_odd"), UNDETERMINED),
    _claim(("power_even", "flip"), UNDETERMINED),
    _claim(("power_odd", "flip"), EXACTLY_HALF),
    _claim(("flip", "flip"), EXACTLY_HALF),
)

_TABQ_PLUS_CLAIMS = (
    _claim(("one", "minus_one"), EXTREME_TOWARD_1, +1),
    _claim(("one", "power_even"), EXACTLY_HALF),
    _claim(("one", "power_odd"), UNDETERMINED),
    _claim(("one", "flip"), MODERATE, -1),
    _claim(("minus_one", "power_even"), EXTREME_TOWARD_0, -1),
    _claim(("minus_one", "power_odd"), EXTREME_TOWARD_0, -1),
    _claim(("minus_one", "flip"), EXTREME_TOWARD_0, -1),
    _claim(("power_even", "power_even"), EXACTLY_HALF),
    _claim(("power_odd", "power_odd"), EXACTLY_HALF),
    _claim(("power_even", "power_odd"), UNDETERMINED),
    _claim(("power_even", "flip"), UNDETERMINED),
    _claim(("power_odd", "flip"), EXACTLY_HALF),
    _claim(("flip", "flip"), EXACTLY_HALF),
)

_TABQ_MINUS_CLAIMS = (
    _claim(("one", "minus_one"), EXTREME_TOWARD_0, -1),
    _claim(("one", "power_even"), EXTREME_TOWARD_0, -1),
    _claim(("one", "power_odd"), EXTREME_TOWARD_0, -1),
    _claim(("one", "flip"), EXTREME_TOWARD_0, -1),
    # printed: undetermined for even k, exactly 1/2 for odd k; the published
    # mean formulas give mean 0 at even k and mean -2 at odd k, so the two
    # parities appear swapped in print.  Flagged, never silently resolved.
    _claim(("minus_one", "power_even"), UNDETERMINED,
           formula_class=EXACTLY_HALF, open_question=True),
    _claim(("minus_one", "power_odd"), EXACTLY_HALF,
           formula_class=MODERATE, formula_side=-1, open_question=True),
    _claim(("minus_one", "flip"), MODERATE, -1),
    _claim(("power_even", "power_even"), EXACTLY_HALF),
    _claim(("power_odd", "power_odd"), EXACTLY_HALF),
    _claim(("power_even", "power_odd"), UNDETERMINED),
    _claim(("power_even", "flip"), UNDETERMINED),
    _claim(("power_odd", "flip"), EXACTLY_HALF),
    _claim(("flip", "flip"), EXACTLY_HALF),
)

TABLE_CLAIMS: dict[tuple[str, int], tuple[dict, ...]] = {
    (DIHEDRAL, +1): _TABD_CLAIMS,
    (QUATERNION, +1): _TABQ_PLUS_CLAIMS,
    (QUATERNION, -1): _TABQ_MINUS_CLAIMS,
}

# Level-monotonicity claims for the (C1, C-1) relative races: quantity
# followed downward as the level rises through the qualifying window.
MONOTONICITY_CLAIMS: dict[tuple[str, int], dict] = {
    (DIHEDRAL, +1): {"quantity": "delta", "direction": "decreasing",
                     "formula_consistent": True},
    (QUATERNION, +1): {"quantity": "one-minus-delta", "direction": "decreasing",
                       "formula_consistent": True},
    (QUATERNION, -1): {
        "quantity": "delta", "direction": "decreasing",
        "formula_consistent": False,
        "note": ("closed-form means 2^(i-1) - 2^n increase with the level, "
                 "implying the opposite ordering of the printed display; "
                 "flagged open-question"),
    },
}

MOD4_PUBLISHED_DELTA = 0.9959  # Rubinstein-Sarnak computed logarithmic density


# each published table's claims keyed by their tag pair
_CLAIMS_BY_TAGS = {key: {rec["tags"]: rec for rec in claims}
                   for key, claims in TABLE_CLAIMS.items()}


def expected_row(family: str, w_axiom: int, c1: ClassLabel, c2: ClassLabel) -> dict:
    """Claims-data record for the base-field race (c1, c2), a copy, from
    the published table of (family, w_axiom).  Pass the W a scenario
    stored: the dihedral table is keyed on W = +1 alone."""
    key = (family, w_axiom)
    tags = pair_tags(c1, c2)
    rec = _CLAIMS_BY_TAGS.get(key, {}).get(tags)
    if rec is None:
        raise InternalInconsistencyError(f"no published claim row for {tags} in {key}")
    return dict(rec)


def classify_pair(mean_value: int, level: int) -> str:
    """Computed classification from the exact mean at the tower scale.

    Mean zero is exactly-half; a mean on the order of 2^(level-1) (the
    identity/central rows) is extreme toward the side of its sign; any
    other nonzero mean is moderate.  Sides are verified from density
    estimates by the drivers, never assumed.
    """
    if mean_value == 0:
        return EXACTLY_HALF
    cut = max(4, (1 << (level - 1)) - 2)
    if abs(mean_value) >= cut:
        return EXTREME_TOWARD_1 if mean_value > 0 else EXTREME_TOWARD_0
    return MODERATE


# ---------------------------------------------------------------------------
# zero-set provisioning
# ---------------------------------------------------------------------------


def _family_scenario(family: str, n: int, n_max: int, w_axiom: int,
                     seed: int) -> ArithmeticScenario:
    """The scenario of a family driver, its inputs checked before any work
    is done: the family, 3 <= n <= n_max, the seed, and W, which the
    scenario itself checks."""
    if family not in (DIHEDRAL, QUATERNION):
        raise ConfigError(f"family must be dihedral or quaternion, got {family!r}")
    _check_int("n", n, 3, n_max)
    check_seed(seed)
    try:
        return scenario_generator(family, n, w_axiom, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _child_seed(*path: int) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1, np.uint64)[0])


def provision_zero_sets(scenario: ArithmeticScenario, indices: Iterable[int],
                        seed: int, min_count: int = 64,
                        t_max: float | None = None) -> SpectralTable:
    """The call's zero data: one synthetic zero set per character, sampled
    deterministically in the order given, as one SpectralTable whose
    columns are these indices into ``character_ids``.  A character's zero
    count follows its entry of the scenario's ``log_conductors`` and its
    degree.

    The horizon is t_max when given (shared zero data across every use),
    and a t_max below every sampled zero is a ConfigError; otherwise the
    horizon is doubled from 16 until the expected count reaches min_count.
    Child seeds mix a fixed salt, the master seed, and the character's
    index, so adding characters never reshuffles previously sampled sets.
    """
    columns = list(dict.fromkeys(int(c) for c in indices))
    sets: dict[int, ZeroSet] = {}
    for c, log_c, degree in zip(columns, scenario.log_conductors[columns].tolist(),
                                character_degrees(columns).tolist()):
        cid = character_id(c)
        model = ZeroCountModel(log_c, degree)
        horizon = t_max
        if horizon is None:
            horizon = 16.0
            while expected_zero_count(model, horizon) < min_count:
                horizon *= 2.0
                if horizon > HORIZON_LIMIT:
                    raise ConfigError(
                        f"min_zeros {min_count} is out of reach for {cid}: "
                        f"its zero horizon would pass the 2^20 limit")
        child = _child_seed(_PROVISION_SALT, seed, c)
        try:
            sets[c] = sample_zero_set(model, horizon, child, character_id=cid)
        except ValueError as exc:  # the zero count limit
            raise ConfigError(f"{cid}: {exc}") from exc
    table = SpectralTable.of(sets)
    if t_max is not None and not table.moduli.size:
        raise ConfigError(
            f"t_max = {t_max} lies below every sampled zero of "
            f"{', '.join(map(character_id, table.columns.tolist()))}: the race "
            "has no oscillation terms")
    return table


def _tail_sigma(row: np.ndarray, table: SpectralTable) -> float | None:
    """Standard deviation of the oscillation dropped beyond each horizon,
    or None when a set has no log conductor (a zero file without one)."""
    acc = 0.0
    cols = np.flatnonzero(row)
    at = table.columns.searchsorted(cols)
    for wv, degree, t_max, log_c in zip(row[cols].tolist(),
                                        character_degrees(cols).tolist(),
                                        table.t_max[at].tolist(),
                                        table.log_conductors[at].tolist()):
        if math.isnan(log_c):
            return None
        acc += 2.0 * wv * wv * b0_tail(ZeroCountModel(log_c, degree), t_max)
    return math.sqrt(acc)


# ---------------------------------------------------------------------------
# generic per-pair race rows
# ---------------------------------------------------------------------------


def _flag(ok: bool, inequality: str) -> dict:
    return {"ok": bool(ok), "inequality": inequality}


def parse_class_label(text: str) -> ClassLabel:
    t = text.strip()
    if t in ("one", "minus_one", "flip_even", "flip_odd"):
        return ClassLabel(t)
    if t.startswith("power(") and t.endswith(")"):
        try:
            k = int(t[len("power("):-1])
        except ValueError as exc:
            raise ConfigError(f"bad power index in {text!r}") from exc
        if k < 1:
            raise ConfigError(f"power index must be >= 1 in {text!r}")
        return power(k)
    raise ConfigError(
        f"unknown class label {text!r}; use one, minus_one, flip_even, "
        "flip_odd, or power(k)")


def race_row(races: RaceTable, k: int, weight_row: np.ndarray,
             table: SpectralTable, samples: int, mc_seed: int) -> dict:
    """One fully populated report row for race k of the table, from its
    weight row and the call's zero data; ``q_factor`` takes the (b1, b2)
    of the level's S/R split (``sr_partition``), which it reads below the
    top level only.  An undefined race yields a status row."""
    scen = races.scenario
    kind, level = scen.kind, races.level
    c1, c2 = races.labels[races.first[k]], races.labels[races.second[k]]
    row: dict = {"c1": str(c1), "c2": str(c2), "level": level}
    if not races.defined[k]:
        row["status"] = STATUS_UNDEFINED
        row["reason"] = ("fused classes coincide at this level; the two "
                         "counting functions are identical")
        return row
    m = int(races.means[k])
    closed = race_mean_closed_form(kind, scen.w_axiom, level, c1, c2)
    if closed is not None and closed != m:
        raise InternalInconsistencyError(
            f"closed-form mean {closed} != formula mean {m} for {row}")
    pub = published_mean(kind, scen.w_axiom, level, c1, c2)
    row["mean_formula"] = m
    row["mean_published"] = pub
    row["status"] = STATUS_MATCH if pub == m else STATUS_OPEN_QUESTION
    model = race_model(m, weight_row, table)
    row["variance"] = model.variance
    row["bias_factor"] = model.bias_factor
    row["n_terms"] = int(model.terms.size)

    [est_f] = density_fourier_batch(table, model.row[None, :], [(0, m)])
    row["delta_fourier"] = est_f.value
    row["delta_fourier_budget"] = est_f.error_bound
    est_mc = density_montecarlo(model, samples, mc_seed)
    row["delta_mc"] = est_mc.value
    row["delta_mc_ci"] = est_mc.error_bound

    q = q_factor(weight_row, level, kind.n, *sr_partition(scen.group, level))
    row["clt_estimate"], row["clt_error_budget"] = clt_estimate(
        model.bias_factor, model.variance)
    row["upper_one_minus_delta"] = upper_bound(model.bias_factor)
    row["lower_one_minus_delta"] = lower_bound(model.bias_factor, q)
    row["q"] = q

    tail = _tail_sigma(weight_row, table)
    row["truncation_shift_bound"] = (
        None if tail is None
        else truncation_shift_bound(math.sqrt(model.variance), tail))

    agree_tol = max(3.0 * est_mc.error_bound + est_f.error_bound, 1e-3)
    gap = abs(est_mc.value - est_f.value)
    flags = {
        "delta_in_unit_interval": _flag(
            0.0 <= est_mc.value <= 1.0 and 0.0 <= est_f.value <= 1.0,
            f"0 <= {est_mc.value!r}, {est_f.value!r} <= 1"),
        "methods_agree": _flag(gap <= agree_tol,
                               f"|delta_mc - delta_fourier| = {gap!r} <= {agree_tol!r}"),
    }
    if m == 0:
        flags["half_exact"] = _flag(est_f.value == 0.5,
                                    f"delta_fourier = {est_f.value!r} == 0.5")
    else:
        side_gap = abs(est_f.value - 0.5)
        resolved = side_gap > est_f.error_bound
        side_ok = (est_f.value > 0.5) == (m > 0)
        flags["side_matches_mean"] = _flag(
            resolved and side_ok,
            f"|delta_fourier - 1/2| = {side_gap!r} > {est_f.error_bound!r} "
            f"and sign matches mean {m}")
    row["flags"] = flags
    row["pass"] = all(f["ok"] for f in flags.values())
    return row


def run_race(*, family: str = QUATERNION, n: int = 4, w_axiom: int = -1,
             level: int | None = None,
             pairs: Sequence[tuple[ClassLabel, ClassLabel]] = (),
             seed: int = 0, samples: int = 100_000,
             zero_files: Sequence[str] = (), min_zeros: int = 64) -> dict:
    """Ad-hoc race driver over explicit class pairs (default: all pairs) at
    one level (default: the top).  Zero data comes from the files when any
    are given, otherwise it is sampled.  Every argument is checked, type
    included, before any work is done."""
    scen = _family_scenario(family, n, 20, w_axiom, seed)
    if level is not None:
        _check_int("level", level, 3, n)
    if isinstance(pairs, str) or not all(
            isinstance(p, (tuple, list)) and len(p) == 2
            and all(isinstance(c, ClassLabel) for c in p) for p in pairs):
        raise ConfigError(f"pairs must be class label pairs, got {pairs!r}")
    _check_mc_samples(samples)
    if isinstance(zero_files, str) or not all(
            isinstance(path, str) for path in zero_files):
        raise ConfigError(f"zero_files must be a list of paths, got {zero_files!r}")
    _check_int("min_zeros", min_zeros, 1)

    from_files = bool(zero_files)
    sets = load_zero_sets(zero_files, scen.group)
    paths = dict(zip(sets, zero_files))  # load_zero_sets keeps file order
    if level is None:
        level = n
    if pairs:
        labels = list(dict.fromkeys(c for pair in pairs for c in pair))
        index = {lab: i for i, lab in enumerate(labels)}
        try:
            races = race_table(scen, level, labels, [index[c1] for c1, _ in pairs],
                               [index[c2] for _, c2 in pairs])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        races = level_races(scen, level)
    weight_rows = races.weights()
    wanted = []
    for k in np.flatnonzero(races.defined).tolist():
        needed = np.flatnonzero(weight_rows[k]).tolist()
        missing = [c for c in needed if c not in sets]
        c1, c2 = races.labels[races.first[k]], races.labels[races.second[k]]
        if from_files and missing:
            raise ConfigError(
                f"zero files do not cover characters "
                f"{[character_id(c) for c in missing]} needed by ({c1}, {c2})")
        if from_files and not any(len(sets[c]) for c in needed):
            raise ConfigError(
                f"zero files {[paths[c] for c in needed]} hold no "
                f"ordinates for ({c1}, {c2})")
        wanted += missing
    # every pair's characters sampled at once (a set depends on its column
    # alone), in pair order, so a failure names the first pair's character
    table = (SpectralTable.of(sets) if from_files
             else provision_zero_sets(scen, wanted, seed, min_count=min_zeros))
    rows = [race_row(races, k, weight_rows[k], table, samples, _child_seed(seed, k))
            for k in range(len(races.first))]
    return {
        "experiment": "race",
        "family": family,
        "n": n,
        "w_axiom": scen.w_axiom,
        "level": level,
        "seed": seed,
        "samples": samples,
        "zero_source": "files" if from_files else "synthetic",
        "rows": rows,
    }


def read_zero_file(path: str) -> ZeroSet:
    """``load_zero_file`` with every way the file can be bad (unreadable,
    malformed, unordered) turned into a ConfigError naming it."""
    try:
        return load_zero_file(path)
    except OSError as exc:
        raise ConfigError(
            f"cannot read zero file {path}: {exc.strerror or exc}") from exc
    except (ParseError, ValidationError, UnicodeDecodeError) as exc:
        text = str(exc)
        raise ConfigError(text if text.startswith(f"{path}:")
                          else f"{path}: {text}") from exc


def load_zero_sets(paths: Iterable[str], group: Group) -> dict[int, ZeroSet]:
    """The zero files' sets, in file order, keyed by their character's
    index in ``character_ids(group)``; an id that names no irreducible of
    the group, or names one twice, is a ConfigError naming the file."""
    sets: dict[int, ZeroSet] = {}
    for path in paths:
        zs = read_zero_file(path)
        try:
            c = character_index(group, zs.character_id)
        except (KeyError, ValueError):
            raise ConfigError(
                f"{path}: {zs.character_id!r} names no irreducible of the "
                f"{group.family} group of order 2^{group.n}") from None
        if c in sets:
            raise ConfigError(f"duplicate zero file for {zs.character_id}: {path}")
        sets[c] = zs
    return sets


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------


def _h8_scenario(o: int) -> ArithmeticScenario:
    kind = GroupKind(QUATERNION, 3)
    return ArithmeticScenario(kind, +1, (VirtualPrime(math.log(5.0), Element(1, 0)),),
                              math.log(5.0) * 6, order_overrides=(("psi_1", o),))


def _symbolic_mean(m0: int, m1: int) -> str:
    slope = m1 - m0
    if slope == 0:
        return str(m0)
    return f"{m0}{slope:+d}o"


def h8_table() -> list[dict]:
    """The ten order-8 quaternion races: symbolic means in the central
    vanishing order o and exact variance coefficients of B0 per character;
    each row is checked against the published pattern."""
    at0, at1 = level_races(_h8_scenario(0), 3), level_races(_h8_scenario(1), 3)
    labels = at0.labels
    ids = character_ids(at0.scenario.group)
    nontrivial = ids[1:]
    rows: list[dict] = []
    for a, b, m0, m1, row in zip(at0.first.tolist(), at0.second.tolist(),
                                 at0.means.tolist(), at1.means.tolist(), at0.weights()):
        c1, c2 = labels[a], labels[b]
        sym = _symbolic_mean(m0, m1)
        coeffs = {}
        for cid, wv in sorted(zip(ids, row.tolist())):
            if wv == 0.0:
                continue
            c = wv * wv
            if not abs(c - round(c)) < 1e-9:
                raise InternalInconsistencyError(
                    f"order-8 variance coefficient of {cid} is {c!r}, "
                    "not an integer")
            coeffs[cid] = int(round(c))
        pub = _h8_published_row(c1, c2, nontrivial)
        ok_mean = sym == pub["mean"]
        ok_var = coeffs == pub["variance_coefficients"]
        if not (ok_mean and ok_var):
            raise InternalInconsistencyError(
                f"order-8 row ({c1}, {c2}): computed {sym}/{coeffs} vs "
                f"published {pub}")
        rows.append({
            "c1": str(c1), "c2": str(c2),
            "mean_symbolic": sym,
            "mean_at_o0": m0, "mean_at_o1": m1,
            "variance_coefficients": coeffs,
            "published_mean": pub["mean"],
            "published_variance_coefficients": pub["variance_coefficients"],
            "status": STATUS_MATCH,
        })
    return rows


def _h8_published_row(c1: ClassLabel, c2: ClassLabel,
                      nontrivial: list[str]) -> dict:
    """Resolve the published symbolic row for an order-8 pair.

    The three order-4 classes are interchangeable ("axis"); the variance
    patterns are: psi alone with coefficient 16 for (1,-1); coefficient 4
    on every nontrivial character except the degree-1 character trivial
    on the axis for the (+-1, axis) rows; coefficient 4 on the two
    degree-1 characters trivial on neither axis for (axis, axis).
    """
    kernel_of = {"power(1)": "chi1", "flip_even": "chi2", "flip_odd": "chi3"}
    t1, t2 = str(c1), str(c2)
    if (t1, t2) == ("one", "minus_one"):
        return {"mean": "4-8o", "variance_coefficients": {"psi_1": 16}}
    if t1 in ("one", "minus_one"):
        skip = kernel_of[t2]
        coeffs = {cid: 4 for cid in nontrivial if cid != skip}
        mean_sym = "-2-4o" if t1 == "one" else "-6+4o"
        return {"mean": mean_sym, "variance_coefficients": coeffs}
    coeffs = {kernel_of[t1]: 4, kernel_of[t2]: 4}
    return {"mean": "0", "variance_coefficients": coeffs}


# a mean-table row's status by code: 0 undefined, 1 defined, 2 defined and
# printed as computed
_STATUS_CODES = np.array([STATUS_UNDEFINED, STATUS_OPEN_QUESTION, STATUS_MATCH],
                         dtype=object)


def reproduce_table(table_id: str, n: int = 8) -> dict:
    """Computed-vs-published table with a diff column.

    Known print discrepancies are flagged open-question, never failures;
    only a disagreement between two internal computations raises.
    """
    if table_id not in TABLE_IDS:
        raise ConfigError(f"table id must be one of {TABLE_IDS}, got {table_id!r}")
    _check_int("n", n, 3, TABLE_MAX_N)
    if table_id == "h8":
        return {"experiment": "h8-table", "rows": h8_table(),
                "open_questions": 0}
    family = QUATERNION if table_id == "esp-q" else DIHEDRAL
    rows: list[dict] = []
    open_questions = 0
    # one table per W the published claims hold for the family
    for w_axiom in [w for fam, w in TABLE_CLAIMS if fam == family]:
        for level in range(3, n + 1):
            races, printed = mean_table(family, n, level, w_axiom)
            # report values per column: object arrays of Python ints, None
            # off the defined pairs, and each label's text made once
            names = np.array([str(lab) for lab in races.labels], dtype=object)
            defined = races.defined
            formula = races.means.astype(object)
            published = printed.astype(object)
            diff = (printed - races.means).astype(object)
            for column in (formula, published, diff):
                column[~defined] = None
            same = printed == races.means
            open_questions += int(np.count_nonzero(defined & ~same))
            status = _STATUS_CODES[defined.astype(np.intp) + (defined & same)]
            rows += [{"w_axiom": w_axiom, "level": level, "c1": c1, "c2": c2,
                      "mean_formula": f, "mean_published": p, "diff": d,
                      "status": state}
                     for c1, c2, f, p, d, state in zip(
                         names[races.first].tolist(), names[races.second].tolist(),
                         formula.tolist(), published.tolist(), diff.tolist(),
                         status.tolist())]
    if family == QUATERNION and open_questions:
        raise InternalInconsistencyError(
            "quaternion mean rows must match the published table exactly")
    return {"experiment": table_id, "family": family, "n": n,
            "rows": rows, "open_questions": open_questions}


# ---------------------------------------------------------------------------
# horizontal sweep (order-8 base races with growing conductor)
# ---------------------------------------------------------------------------


def horizontal_experiment(f_values: Iterable[int] = (1, 2, 3, 4), w_axiom: int = -1,
                          seed: int = 0, samples: int = 100_000) -> dict:
    """Order-8 (C1, C-1) race for one scenario per f, with log A(psi)
    >= 2 f^3 and at least 512 expected zeros per character; checks the
    W-controlled side of 1/2 and that |delta - 1/2| decreases along f."""
    fs = list(f_values)
    for f in fs:
        _check_int("f_values entry", f, 1)
    if not fs or any(b <= a for a, b in zip(fs, fs[1:])):
        raise ConfigError("f_values must be positive and strictly increasing")
    if not 2 * fs[-1] ** 3 <= sys.float_info.max:
        raise ConfigError("f_values must keep log A(psi) = 2 f^3 within "
                          "float range")
    check_seed(seed)
    _check_mc_samples(samples)
    try:
        scenarios = [horizontal_scenario(index, float(f), w_axiom)
                     for index, f in enumerate(fs)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = []
    for index, (f, scen) in enumerate(zip(fs, scenarios)):
        races = race_table(scen, 3, [ONE, MINUS_ONE], [0], [1])
        weight_row = races.weights()[0]
        table = provision_zero_sets(scen, np.flatnonzero(weight_row),
                                    _child_seed(seed, index), min_count=512)
        row = race_row(races, 0, weight_row, table, samples, _child_seed(seed, index, 1))
        log_a = float(scen.log_conductors[4])  # psi_1
        row["f"] = f
        row["log_conductor_psi"] = log_a
        row["flags"]["conductor_large"] = _flag(
            log_a >= 2.0 * f ** 3,
            f"log A(psi) = {log_a!r} >= 2 f^3 = {2.0 * f ** 3!r}")
        # W = +1 pushes delta above 1/2, W = -1 below
        side_ok = (row["delta_fourier"] - 0.5) * w_axiom > 0
        row["flags"]["w_controlled_side"] = _flag(
            side_ok, f"sign(delta - 1/2) == {w_axiom:+d} for W = {w_axiom:+d}")
        row["abs_bias_gap"] = abs(row["delta_fourier"] - 0.5)
        row["abs_bias_gap_mc"] = abs(row["delta_mc"] - 0.5)
        row["pass"] = all(fl["ok"] for fl in row["flags"].values())
        rows.append(row)
    decreasing_fourier = all(
        rows[k + 1]["abs_bias_gap"] < rows[k]["abs_bias_gap"]
        for k in range(len(rows) - 1))
    decreasing_mc_within_ci = all(
        rows[k + 1]["abs_bias_gap_mc"] - rows[k]["abs_bias_gap_mc"]
        <= rows[k]["delta_mc_ci"] + rows[k + 1]["delta_mc_ci"]
        for k in range(len(rows) - 1))
    return {
        "experiment": "horizontal",
        "w_axiom": w_axiom,
        "seed": seed,
        "samples": samples,
        "rows": rows,
        "gap_decreasing_fourier": decreasing_fourier,
        "gap_nonincreasing_mc_within_ci": decreasing_mc_within_ci,
        "all_rows_pass": all(r["pass"] for r in rows),
        "series": {"x": "f", "y": "abs_bias_gap",
                   "points": [[r["f"], r["abs_bias_gap"]] for r in rows]},
    }


# ---------------------------------------------------------------------------
# tower tables (base-field races across all class pairs)
# ---------------------------------------------------------------------------


def tower_experiment(family: str = QUATERNION, n: int = 5, w_axiom: int = -1,
                     seed: int = 0) -> dict:
    """Classify every base-field class pair and compare against the
    published table rows; rows the published table leaves undetermined
    are reported as computed, never asserted."""
    # n = 10 takes 2.1-2.3 s and 141 MB on 2 vCPUs (bench/scale.py tower); n = 11
    # would hold a pairs x characters weight table of 545 MB
    scen = _family_scenario(family, n, 10, w_axiom, seed)
    races = level_races(scen, n)
    labels = races.labels
    mean = races.means  # all defined at the top
    means = mean.tolist()
    # The zero sets are fixed for the call, so pairs with equal weight rows
    # race the same oscillation part: every pair goes to one batch over one
    # spectral table with a component per weighted character, as (distinct
    # row, mean), and the batch inverts each (row, |mean|) once.  Rows are
    # grouped by their bytes (weights are abs values, so equal rows have
    # equal bytes).
    table = races.weights()
    number: dict[bytes, int] = {}  # each distinct row's bytes, numbered as first met
    row_of = np.array([number.setdefault(row.tobytes(), len(number)) for row in table],
                      dtype=np.intp)
    del number
    # each distinct row's first index, where the numbers met so far grow
    distinct = np.flatnonzero(np.diff(np.maximum.accumulate(row_of), prepend=-1))
    weighted = np.flatnonzero(table.any(axis=0))
    table = table[np.ix_(distinct, weighted)]
    zeros = provision_zero_sets(scen, weighted, seed)
    scales = zeros.scales(table)
    del table
    estimates = density_fourier_batch(zeros, scales, list(zip(row_of.tolist(), means)))
    # a mean-0 row needs no variance
    live = mean != 0
    factors = np.zeros(len(means))
    factors[live] = mean[live] / np.sqrt(zeros.variances(scales)[row_of[live]])
    biases = factors.tolist()
    del scales
    rows: list[dict] = []
    confirmed = True
    tags = [class_tag(label) for label in labels]
    claims: dict[tuple[str, str], dict] = {}  # the rows' claims by their classes' tags
    for a, b, m, pub, bias, est in zip(races.first.tolist(), races.second.tolist(), means,
                                       class_means(races, published_mean).tolist(),
                                       biases, estimates):
        c1, c2 = labels[a], labels[b]
        claim = claims.get((tags[a], tags[b]))
        if claim is None:
            claim = claims[tags[a], tags[b]] = expected_row(family, scen.w_axiom, c1, c2)
        row = {
            "c1": str(c1), "c2": str(c2),
            "mean_formula": m, "mean_published": pub,
            "mean_status": STATUS_MATCH if pub == m else STATUS_OPEN_QUESTION,
            "bias_factor": bias,
            "delta_fourier": est.value,
            "delta_fourier_budget": est.error_bound,
            "computed_class": classify_pair(m, n),
            "published_class": claim["class"],
        }
        row.update(_check_claim(row, claim, est))
        if row["comparison"] == "fails":
            confirmed = False
        rows.append(row)
    return {
        "experiment": "tabD" if family == DIHEDRAL else "tabQ",
        "family": family, "n": n, "w_axiom": scen.w_axiom, "seed": seed,
        "rows": rows,
        "all_published_rows_confirmed": confirmed,
    }


def _check_claim(row: dict, claim: dict, est) -> dict:
    """Comparison verdict for one row: published classes are checked from
    the density estimate; undetermined rows are never asserted; rows whose
    printed condition conflicts with the mean formulas check the
    formula-faithful class and surface the conflict."""
    target = claim.get("formula_class", claim["class"])
    side = claim.get("formula_side", claim.get("side"))
    open_question = bool(claim.get("open_question"))
    if claim["class"] == UNDETERMINED and not open_question:
        return {"comparison": "undetermined-in-source"}
    checks_ok: bool
    if target == EXACTLY_HALF:
        checks_ok = est.value == 0.5 and row["mean_formula"] == 0
        detail = f"delta = {est.value!r} == 0.5 exactly (mean 0)"
    else:
        gap = est.value - 0.5
        resolved = abs(gap) > est.error_bound
        side_ok = side is not None and (gap > 0) == (side > 0)
        class_ok = row["computed_class"] == target
        checks_ok = resolved and side_ok and class_ok
        detail = (f"|delta - 1/2| = {abs(gap)!r} > {est.error_bound!r}, "
                  f"side {('+' if gap > 0 else '-')}1 expected {side:+d}, "
                  f"class {row['computed_class']}")
    comparison = "agrees" if checks_ok else "fails"
    out = {"comparison": comparison, "comparison_detail": detail}
    if open_question:
        out["comparison"] = "open-question" if checks_ok else "fails"
        out["open_question"] = True
        out["note"] = ("printed condition conflicts with the published mean "
                       "formulas; the formula-faithful class was checked")
    return out


# ---------------------------------------------------------------------------
# level monotonicity (relative races with shared zero data)
# ---------------------------------------------------------------------------


def monotonicity_experiment(family: str = DIHEDRAL, n: int = 12, epsilon: float = 0.1,
                            w_axiom: int = 1, seed: int = 0, samples: int = 40_000,
                            t_max: float = 32.0) -> dict:
    """delta at every level for the (C1, C-1) relative race, from one
    shared noise sample set (the fused pair, hence the character weights
    and the zero data, are level-independent); verdict checks the claimed
    ordering over qualifying (i, j) pairs with CI separation."""
    check_t_max(t_max)
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
        raise ConfigError(f"epsilon must be a number, got {epsilon!r}")
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if not math.isfinite(epsilon):  # inf would print as invalid JSON
        raise ConfigError(f"epsilon must be finite, got {epsilon}")
    scen = _family_scenario(family, n, 20, w_axiom, seed)
    _check_mc_samples(samples, 2)  # one antithetic pair
    levels = list(range(3, n + 1))
    races = [race_table(scen, i, [ONE, MINUS_ONE], [0], [1]) for i in levels]
    means = {i: int(r.means[0]) for i, r in zip(levels, races)}
    if len({tuple(r.fused) for r in races}) != 1:
        raise InternalInconsistencyError(
            "fused pairs, hence weights, must be identical across levels")
    weight_row = races[-1].weights()[0]
    table = provision_zero_sets(scen, np.flatnonzero(weight_row), seed, t_max=t_max)
    model = race_model(means[n], weight_row, table)
    noise_var = model.variance  # mean-free oscillation variance, all levels

    # one shared noise draw decides every level
    deltas, cis = _mc_race(model.terms, [float(means[i]) for i in levels],
                           samples // 2, seed, _SHARED_MC_SALT, 16)

    per_level = [{"level": i, "mean": means[i],
                  "delta_mc": float(deltas[k]), "ci": float(cis[k])}
                 for k, i in enumerate(levels)]
    i_levels = [i for i in levels if i <= n * (1 + epsilon) / 2]
    j_levels = [j for j in levels if j >= n * (1 + 3 * epsilon) / 2]
    pairs = [(i, j) for i in i_levels for j in j_levels if i < j]
    claim = MONOTONICITY_CLAIMS[(family, scen.w_axiom)]
    pair_rows = []
    outcomes = []
    idx = {i: k for k, i in enumerate(levels)}
    for i, j in pairs:
        di, dj = float(deltas[idx[i]]), float(deltas[idx[j]])
        ci_sum = float(cis[idx[i]] + cis[idx[j]])
        separated = abs(di - dj) > ci_sum
        if claim["quantity"] == "delta":
            holds_direction = dj < di
        else:  # one-minus-delta decreasing means delta increasing
            holds_direction = dj > di
        if not separated:
            outcome = "not-separated"
        elif holds_direction:
            outcome = "holds"
        else:
            outcome = "fails"
        outcomes.append(outcome)
        pair_rows.append({
            "i": i, "j": j, "delta_i": di, "delta_j": dj,
            "ci_separation": ci_sum, "outcome": outcome,
            "inequality": f"|{di!r} - {dj!r}| > {ci_sum!r}: {separated}",
        })
    if not pairs:
        verdict = "vacuous"
    elif any(o == "fails" for o in outcomes):
        verdict = "fails"
    elif any(o == "not-separated" for o in outcomes):
        verdict = "inconclusive"
    else:
        verdict = "holds"
    report = {
        "experiment": "monotonicity",
        "family": family, "n": n, "epsilon": epsilon, "w_axiom": scen.w_axiom,
        "seed": seed, "samples": samples, "t_max": t_max,
        "quantity": claim["quantity"],
        "claimed_direction": claim["direction"],
        "formula_consistent": claim["formula_consistent"],
        "levels": per_level,
        "qualifying_i": i_levels, "qualifying_j": j_levels,
        "pairs": pair_rows,
        "verdict": verdict,
        "noise_variance": noise_var,
        "series": {"x": "level", "y": "delta_mc",
                   "points": [[r["level"], r["delta_mc"]] for r in per_level]},
    }
    if not claim["formula_consistent"]:
        report["open_question"] = True
        report["note"] = claim["note"]
        exact_dir = [(i, j, means[j] > means[i]) for i, j in pairs]
        report["mean_ordering_by_formula"] = [
            {"i": i, "j": j, "mean_increasing": inc} for i, j, inc in exact_dir]
    return report


# ---------------------------------------------------------------------------
# sandwich calibration for the tail bounds
# ---------------------------------------------------------------------------


def _rotation_tower_scenario(n: int, log_a_psi: float) -> ArithmeticScenario:
    """Quaternion W=+1 scenario, one rotation-generated place: every
    two-dimensional character gets conductor exponent 2, so log A(psi) is
    uniform across the symplectic block."""
    log_p = log_a_psi / 2.0
    vp = VirtualPrime(log_p, Element(1, 0))
    exp_disc = (1 << n) - 2  # (e-1)|G|/e at full rotation inertia
    return ArithmeticScenario(GroupKind(QUATERNION, n), +1, (vp,),
                              exp_disc * log_p)


def _b0_proxy(log_a: float, t_max: float) -> float:
    """Analytic stand-in for b0 at degree 2: counting density integrated
    against 1/(1/4 + t^2); used only to aim the bias factor."""
    model = ZeroCountModel(log_a, 2)
    t0 = min(model.onset, t_max)
    ts = np.linspace(t0, t_max, 2001)
    rate = np.maximum((log_a + 2.0 * np.log(np.maximum(ts, 1e-300) / (2 * np.pi)))
                      / (2 * np.pi), 0.0)
    return float(np.trapezoid(rate / (0.25 + ts * ts), ts)) + 1e-12


def _aim_conductor(n: int, target_bias: float, t_max: float) -> float:
    """log A(psi) such that the (C1, C-1) bias factor lands near target.

    Mean 2^(n-1); only the odd-index (symplectic) two-dimensional characters
    carry weight 4 (the even-index ones agree on +-1), and all share one
    conductor, so bias^2 = 2^(2n-2) / (32 * 2^(n-3) * b0) = 2^(n-4) / b0."""
    n_sympl = 1 << (n - 3)
    b0_target = float(1 << (2 * n - 2)) / (
        32.0 * n_sympl * target_bias * target_bias)
    lo, hi = 0.4, 400.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _b0_proxy(mid, t_max) < b0_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sandwich_experiment(count: int = 100, seed: int = 0,
                        samples: int = 100_000, t_max: float = 64.0) -> dict:
    """Tail-bound calibration: synthetic tower races aimed at bias factors
    in (1, 2.6); for each, the MC estimate of 1 - delta must lie between
    lower_bound and upper_bound with the pinned constants."""
    check_t_max(t_max)
    _check_int("count", count, 1)
    check_seed(seed)
    _check_mc_samples(samples)
    rows = []
    inside = 0
    population = 0
    for k in range(count):
        rng = np.random.default_rng(
            np.random.SeedSequence([_SANDWICH_SALT, seed, k]))
        n = 5 + k % 3
        # sampled b0 is right-skewed (an occasional low first zero inflates
        # it), so realized bias factors wobble around the aim by roughly
        # +-25%; this band keeps them inside (1, 3.5)
        target = 1.4 + 1.0 * float(rng.random())
        log_a = _aim_conductor(n, target, t_max)
        scen = _rotation_tower_scenario(n, log_a)
        races = race_table(scen, n, [ONE, MINUS_ONE], [0], [1])
        weight_row = races.weights()[0]
        table = provision_zero_sets(scen, np.flatnonzero(weight_row),
                                    _child_seed(seed, k), t_max=t_max)
        model = race_model(int(races.means[0]), weight_row, table)
        est = density_montecarlo(model, samples, _child_seed(seed, k, 1))
        one_minus = 1.0 - est.value
        q = q_factor(weight_row, n, n, *sr_partition(scen.group, n))
        lower = lower_bound(model.bias_factor, q)
        upper = upper_bound(model.bias_factor)
        row = {
            "race": k, "n": n, "log_conductor_psi": log_a,
            "target_bias": target, "bias_factor": model.bias_factor,
            "one_minus_delta_mc": one_minus, "mc_ci": est.error_bound,
            "lower": lower, "upper": upper, "q": q,
        }
        counted = model.bias_factor > 1.0
        row["counted"] = counted
        if counted:
            population += 1
            ok = lower <= one_minus <= upper
            row["inside"] = ok
            row["inequality"] = f"{lower!r} <= {one_minus!r} <= {upper!r}"
            if ok:
                inside += 1
        rows.append(row)
    rate = inside / population if population else 0.0
    return {
        "experiment": "sandwich",
        "count": count, "seed": seed, "samples": samples, "t_max": t_max,
        "population_bias_above_1": population,
        "inside": inside,
        "success_rate": rate,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# external-zero comparison (optional, non-gating)
# ---------------------------------------------------------------------------


def mod4_experiment(zero_file: str | None = None, seed: int = 0,
                    t_max: float = 600.0) -> dict:
    """Nonresidues-vs-residues race over the order-2 group of residues
    mod 4: mean +2, one weight-2 character.  With a real ordinate table
    for that character the density is comparable to the published
    Rubinstein-Sarnak value; with synthetic ordinates the difference is
    reported for calibration only.  Never gates a build.  Every argument
    is checked before any work is done.
    """
    check_seed(seed)
    if zero_file is not None and not isinstance(zero_file, str):
        raise ConfigError(f"zero_file must be a path or None, got {zero_file!r}")
    if zero_file is not None:
        zs = read_zero_file(zero_file)
        empty = f"zero file {zero_file} holds no ordinates"
    else:
        # within 2^20, chi4 expects about 2^21 zeros, far below the count limit
        check_t_max(t_max)
        zs = sample_zero_set(ZeroCountModel(math.log(4.0), 1), t_max, seed,
                             character_id="chi4")
        empty = (f"t_max = {t_max} lies below every sampled zero of chi4: "
                 "the race has no oscillation terms")
    if not len(zs):
        raise ConfigError(empty)
    model = race_model(2, [2.0], SpectralTable.of({0: zs}))
    [est] = density_fourier_batch(model.table, model.row[None, :], [(0, model.mean)])
    return {
        "experiment": "mod4",
        "zero_source": zs.source,
        "n_zeros": len(zs),
        "delta_fourier": est.value,
        "delta_fourier_budget": est.error_bound,
        "published_delta": MOD4_PUBLISHED_DELTA,
        "difference": est.value - MOD4_PUBLISHED_DELTA,
        "gating": False,
    }
