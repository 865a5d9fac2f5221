"""Output check for every verb call the benchmark makes.

A call passes when:

* the seed-free exact fields (means, statuses, classes, open-question
  counts, the monotonicity verdict) equal the values pinned in
  ``reference.json`` for that argv (any seed);
* the report's own gates hold (``all_published_rows_confirmed``, the
  sandwich success rate, the monotonicity verdict) and its internal
  bookkeeping is consistent;
* every error bound on a density stays under a ceiling, so that estimating
  less counts as a failure: the Fourier budget under FOURIER_BUDGET_CEILING,
  a Monte Carlo 99% half-width under the widest honest interval for the
  requested number of pairs;
* for an argv with pinned densities (every full-size argv the workloads
  send), each density lies within the sum of its own and the reference's
  error bounds.  Other argvs, such as other CLI seeds, get the checks above.

Nothing is compared byte for byte, so float reordering that stays within
the stated bounds is not a failure.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

Z99 = 2.5758293035489004
# The Fourier engine targets 1e-11 absolute; observed budgets are ~5e-12.
FOURIER_BUDGET_CEILING = 1e-10
SANDWICH_MIN_SUCCESS = 0.95  # the criterion-8 gate


def seed_free_key(argv: list[str]) -> str:
    """The argv without its --seed, which keys the seed-free pins."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--seed":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def _digest(items) -> str:
    canon = sorted(json.dumps(x, sort_keys=True) for x in items)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def exact_fields(verb: str, report: dict) -> dict:
    """Seed-free exact content of a report, in a form that ignores row order."""
    if verb == "table":
        rows = [[r["w_axiom"], r["level"], r["c1"], r["c2"], r["mean_formula"],
                 r["mean_published"], r["diff"], r["status"]] for r in report["rows"]]
        return {"rows": len(rows), "open_questions": report["open_questions"],
                "statuses": dict(Counter(r["status"] for r in report["rows"])),
                "digest": _digest(rows)}
    if verb == "tower":
        rows = [[r["c1"], r["c2"], r["mean_formula"], r["mean_published"],
                 r["mean_status"], r["computed_class"], r["published_class"]]
                for r in report["rows"]]
        return {"rows": len(rows),
                "mean_statuses": dict(Counter(r["mean_status"] for r in report["rows"])),
                "digest": _digest(rows)}
    if verb == "monotonicity":
        return {"means": [[r["level"], r["mean"]] for r in report["levels"]],
                "qualifying_i": report["qualifying_i"],
                "qualifying_j": report["qualifying_j"],
                "open_question": report.get("open_question", False),
                "mean_ordering_by_formula": report.get("mean_ordering_by_formula"),
                "verdict": report["verdict"]}
    if verb == "sandwich":
        return {"n": [r["n"] for r in report["rows"]]}
    raise ValueError(f"no exact fields for verb {verb!r}")


def deltas(verb: str, report: dict) -> dict[str, list[float]]:
    """Every density in the report with its error bound, keyed by row.
    Tower rows with mean 0 are left out: their density is exactly 1/2,
    which the gates check on every call."""
    if verb == "tower":
        return {f"{r['c1']}:{r['c2']}": [r["delta_fourier"], r["delta_fourier_budget"]]
                for r in report["rows"] if r["mean_formula"] != 0}
    if verb == "sandwich":
        return {str(r["race"]): [r["one_minus_delta_mc"], r["mc_ci"]]
                for r in report["rows"]}
    if verb == "monotonicity":
        return {str(r["level"]): [r["delta_mc"], r["ci"]] for r in report["levels"]}
    return {}


def _mc_ceiling(p: float, pairs: int) -> float:
    """Widest honest 99% half-width for a frequency p over `pairs` antithetic
    pairs: the normal interval with the largest pair variance p(1-p), plus
    z^2/pairs so that a Wilson or Clopper-Pearson interval also fits."""
    return Z99 * math.sqrt(max(p * (1.0 - p), 0.0) / pairs) + Z99 * Z99 / pairs


def _gates(verb: str, report: dict) -> list[str]:
    bad: list[str] = []
    if verb == "tower":
        if report["all_published_rows_confirmed"] is not True:
            bad.append("all_published_rows_confirmed is not true")
        fails = [f"{r['c1']}:{r['c2']}" for r in report["rows"]
                 if r["comparison"] == "fails"]
        if fails:
            bad.append(f"rows fail their published class: {fails[:5]}")
        for r in report["rows"]:
            d, b = r["delta_fourier"], r["delta_fourier_budget"]
            if not (0.0 <= d <= 1.0 and 0.0 <= b <= FOURIER_BUDGET_CEILING):
                bad.append(f"row {r['c1']}:{r['c2']}: delta {d!r} budget {b!r}")
            elif r["mean_formula"] == 0 and abs(d - 0.5) > b:
                bad.append(f"row {r['c1']}:{r['c2']}: mean 0 but delta {d!r}")
    elif verb == "sandwich":
        pairs = report["samples"] // 2
        counted = [r for r in report["rows"] if r["counted"]]
        inside = [r for r in counted if r["inside"]]
        if report["population_bias_above_1"] != len(counted) or \
                report["inside"] != len(inside):
            bad.append("population/inside counts disagree with the rows")
        if counted and report["success_rate"] < SANDWICH_MIN_SUCCESS:
            bad.append(f"success_rate {report['success_rate']!r} < {SANDWICH_MIN_SUCCESS}")
        for r in report["rows"]:
            p, ci = r["one_minus_delta_mc"], r["mc_ci"]
            if r["counted"] != (r["bias_factor"] > 1.0):
                bad.append(f"race {r['race']}: counted flag disagrees with bias")
            if r["counted"] and r["inside"] != (r["lower"] <= p <= r["upper"]):
                bad.append(f"race {r['race']}: inside flag disagrees with bounds")
            if not (0.0 <= p <= 1.0 and 0.0 <= ci <= _mc_ceiling(p, pairs)):
                bad.append(f"race {r['race']}: 1-delta {p!r} half-width {ci!r}")
    elif verb == "monotonicity":
        # With root number -1 the printed direction contradicts the formula
        # means (an open question): the evidence may fail the printed claim
        # or leave it inconclusive, but must never confirm it.
        wrong = "holds" if report.get("open_question") else "fails"
        if report["verdict"] == wrong:
            bad.append(f"monotonicity verdict is {wrong!r}")
        pairs = max(report["samples"] // 2, 1)
        for r in report["levels"]:
            p, ci = r["delta_mc"], r["ci"]
            if not (0.0 <= p <= 1.0 and 0.0 <= ci <= _mc_ceiling(p, pairs)):
                bad.append(f"level {r['level']}: delta {p!r} half-width {ci!r}")
        if report.get("open_question") and not all(
                r["mean_increasing"] for r in report["mean_ordering_by_formula"]):
            bad.append("formula means are not increasing with the level")
    return bad


def check_report(argv: list[str], report: dict, reference: dict) -> list[str]:
    """Problems found in one verb call's report; empty when it passes."""
    verb = argv[0]
    bad = _gates(verb, report)
    pinned = reference["exact"].get(seed_free_key(argv))
    if pinned is not None:
        got = exact_fields(verb, report)
        for key, want in pinned.items():
            if got.get(key) != want:
                bad.append(f"exact field {key!r} differs from the pinned value")
    ref = reference["deltas"].get(" ".join(argv))
    if ref is not None:
        got = deltas(verb, report)
        if set(got) != set(ref):
            bad.append("density rows differ from the pinned reference")
        for key in sorted(set(got) & set(ref)):
            (d, b), (rd, rb) = got[key], ref[key]
            if abs(d - rd) > b + rb:
                bad.append(f"{key}: delta {d!r} vs reference {rd!r} "
                           f"beyond {b!r} + {rb!r}")
    return bad


def err_max(verb: str, report: dict) -> float | None:
    """The largest error bound on any density in the report (None if the
    report holds no densities)."""
    bounds = [b for _, b in deltas(verb, report).values()]
    return max(bounds) if bounds else None
