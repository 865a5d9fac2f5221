"""Acceptance gate: each criterion runs at its stated tolerance and prints one
PASS/FAIL line.  Budgets are wall-clock seconds measured per criterion."""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from chebrace.arithmetic import conductor_exponents
from chebrace.characters import (
    character_ids,
    character_value,
    psi_id,
)
from chebrace.density import SpectralTable, density_montecarlo, race_model
from chebrace.experiments import (
    horizontal_experiment,
    mod4_experiment,
    monotonicity_experiment,
    reproduce_table,
    sandwich_experiment,
    tower_experiment,
)
from chebrace.groups import (
    DIHEDRAL,
    QUATERNION,
    Element,
    Group,
    GroupKind,
)
from chebrace.zeros import ZeroCountModel, sample_zero_set
from oracles import (
    ORTHOGONAL,
    SYMPLECTIC,
    brute_force_induce,
    character_degree,
    character_table,
    conductor_discriminant,
    conductor_report,
    density_fourier,
    density_fourier_quadpack,
    discriminant_exponent_tame,
    explicit_scenario,
    frobenius_schur,
    fs_type,
    induce,
    induced_components,
    is_faithful,
    is_zero,
    orthogonality_mod_p,
    random_ramification,
    symplectic_value_sum,
)

ELAPSED: dict[str, float] = {}


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _is_odd_psi(cid: str) -> bool:
    return cid.startswith("psi_") and int(cid.split("_")[1]) % 2 == 1


def test_criterion_1_character_theory_exactness(capsys):
    t0 = time.perf_counter()
    for family in (QUATERNION, DIHEDRAL):
        for n in range(3, 9):
            group = Group(GroupKind(family, n))
            table = character_table(group)
            labels = group.class_labels()
            assert len(labels) == (1 << (n - 2)) + 3
            assert sum(group.class_size(lab) for lab in labels) == 1 << n
            # rows: sum_C |C| chi(C) conj(psi(C)) = |G| iff chi == psi;
            # columns: sum_chi chi(la) conj(chi(lb)) = |G|/|C(la)| iff
            # la == lb; both exact in Z[zeta], decided modulo a prime
            assert orthogonality_mod_p(table) == (True, True), (family, n)
            for chi in table.characters:
                symplectic = family == QUATERNION and _is_odd_psi(chi.cid)
                assert frobenius_schur(table, chi) == (-1 if symplectic else 1)
                assert fs_type(table, chi) == (SYMPLECTIC if symplectic
                                               else ORTHOGONAL)
                assert is_faithful(table, chi) == _is_odd_psi(chi.cid)
    elapsed = time.perf_counter() - t0
    _report(capsys, "1 character-theory exactness", elapsed < 10.0,
            f"both families n=3..8, orthogonality/FS/faithfulness exact, "
            f"{elapsed:.1f}s < 10s")


def test_criterion_2_induction_oracle(capsys):
    t0 = time.perf_counter()
    checked = 0
    for family in (QUATERNION, DIHEDRAL):
        for n in range(3, 7):
            group = Group(GroupKind(family, n))
            table = character_table(group)
            top = 1 << (n - 2)
            for i in range(3, n + 1):
                level = group.level(i)
                comps = induced_components(group, i)
                for cid in character_ids(level):
                    values = {lab: character_value(level, cid, lab)
                              for lab in level.class_labels()}
                    brute = brute_force_induce(table, i, values)
                    assert dict(induce(group, i, cid).components) == brute
                    assert comps[cid] == brute
                    checked += 1
            # the three displayed decompositions at every proper level: psi
            # folding and the pure chi2/chi3 block hold verbatim; the middle
            # display is reproduced in the corrected form (chi0 -> chi0+chi2,
            # chi1 -> chi1+chi3, shared psi block), and the printed variant
            # carrying all four degree-1 characters is shown to violate
            # degree bookkeeping by exactly 2
            for i in range(3, n):
                half = 1 << (i - 1)
                index = 1 << (n - i)
                block0 = {psi_id(j) for j in range(half, top, half)}
                block2 = {psi_id(j) for j in range(half // 2, top, half)}
                comps = induced_components(group, i)
                for k in range(1, 1 << (i - 2)):
                    want = {psi_id(j) for j in range(1, top)
                            if j % half in (k % half, (-k) % half)}
                    dec = comps[psi_id(k)]
                    assert set(dec) == want
                    assert all(m == 1 for m in dec.values())
                assert set(comps["chi0"]) == {"chi0", "chi2"} | block0
                assert set(comps["chi1"]) == {"chi1", "chi3"} | block0
                assert set(comps["chi2"]) == block2
                assert set(comps["chi3"]) == block2

                def total_degree(ids):
                    return sum(character_degree(c) for c in ids)

                assert total_degree({"chi0", "chi2"} | block0) == index
                printed = {"chi0", "chi1", "chi2", "chi3"} | block0
                assert total_degree(printed) == index + 2  # the defect
    elapsed = time.perf_counter() - t0
    _report(capsys, "2 induction oracle", elapsed < 30.0,
            f"{checked} inductions match brute force for 3<=i<=n<=6; psi and "
            f"chi2/chi3 displays verbatim; middle display holds in corrected "
            f"form while the printed four-character variant overshoots the "
            f"induced degree by exactly 2 (open question), {elapsed:.1f}s "
            f"< 30s")


def test_criterion_3_symplectic_value_sum(capsys):
    t0 = time.perf_counter()
    for i in range(3, 11):
        for k in range(1, 1 << (i - 2)):
            assert is_zero(symplectic_value_sum(i, k)), (i, k)
    elapsed = time.perf_counter() - t0
    _report(capsys, "3 symplectic value sums vanish", elapsed < 1.0,
            f"exact zero for 3<=i<=10, all k, {elapsed:.2f}s < 1s")


def test_criterion_4_conductor_discriminant(capsys):
    t0 = time.perf_counter()
    scenarios = 0
    for family in (QUATERNION, DIHEDRAL):
        for seed in range(100):
            kind = GroupKind(family, 3 + seed % 4)
            group = Group(kind)
            ram = random_ramification(kind, seed=seed)
            disc = conductor_discriminant(group, ram)
            report = conductor_report(group, ram)
            for rp in ram.primes:
                total = sum(
                    character_degree(cid) * dict(cc.exponents).get(rp.p, 0)
                    for cid, cc in report.items())
                assert total == disc[rp.p]
                assert disc[rp.p] == discriminant_exponent_tame(group,
                                                                rp.inertia)
            # the scenario's log conductors, summed with the degrees, give
            # the same discriminant
            scen = explicit_scenario(ram)
            degrees = [character_degree(cid) for cid in character_ids(group)]
            assert math.isclose(float(np.dot(degrees, scen.log_conductors)),
                                scen.log_disc, rel_tol=1e-12)
            scenarios += 1
    # order-8 quaternion single-prime patterns and the discriminant bracket
    group = Group(GroupKind(QUATERNION, 3))
    central = Element(2, 0)
    axes = (Element(1, 0), Element(0, 1), Element(1, 1))
    assert conductor_exponents(group, central).tolist() == [0, 0, 0, 0, 2]
    assert discriminant_exponent_tame(group, central) == 4
    for axis in axes:
        expos = dict(zip(character_ids(group),
                         conductor_exponents(group, axis).tolist()))
        assert expos["chi0"] == 0 and expos["psi_1"] == 2
        assert sorted(expos[c] for c in ("chi1", "chi2", "chi3")) == [0, 1, 1]
        assert discriminant_exponent_tame(group, axis) == 6
    for gen in (central,) + axes:
        fpsi = conductor_exponents(group, gen)[4]  # psi_1
        d = discriminant_exponent_tame(group, gen)
        assert 2 * fpsi <= d <= 3 * fpsi
    elapsed = time.perf_counter() - t0
    _report(capsys, "4 conductor-discriminant", elapsed < 10.0,
            f"{scenarios} random tame scenarios exact, log conductors sum "
            f"to log|d|, order-8 pattern and bracket hold, {elapsed:.1f}s "
            f"< 10s")


def test_criterion_5_mean_tables(capsys):
    t0 = time.perf_counter()
    q = reproduce_table("esp-q", n=8)
    assert q["open_questions"] == 0
    assert all(r["diff"] in (0, None) for r in q["rows"])
    d = reproduce_table("esp-d", n=8)
    for row in d["rows"]:
        if row["status"] == "undefined":
            continue
        if "one" in (row["c1"], row["c2"]):
            # dual reporting: formula and published value both emitted
            assert row["status"] == "open-question"
            assert row["diff"] == (1 if row["c1"] == "one" else -1)
            assert isinstance(row["mean_formula"], int)
            assert isinstance(row["mean_published"], int)
        else:
            assert row["status"] == "match" and row["diff"] == 0
    h = reproduce_table("h8")
    assert h["open_questions"] == 0
    for row in h["rows"]:
        assert row["status"] == "match"
        assert {"mean_at_o0", "mean_at_o1"} <= row.keys()
    elapsed = time.perf_counter() - t0
    _report(capsys, "5 mean tables", elapsed < 5.0,
            f"quaternion 3<=i<=n<=8 exact both W, dihedral identity rows "
            f"dual-reported ({d['open_questions']} open), order-8 table "
            f"matches at o=0,1, {elapsed:.1f}s < 5s")


def _random_race_model(k: int):
    rng = np.random.default_rng([1009, k])
    mean = 0 if k % 10 == 0 else int(rng.integers(-6, 7))
    weights, sets = [], {}
    for c in range(2 + k % 3):
        weights.append(float(rng.choice([2.0, 4.0])))
        log_a = 25.0 + 12.0 * float(rng.random())
        sets[c] = sample_zero_set(ZeroCountModel(log_a, 2), 48.0,
                                  seed=1000 * k + c, character_id=f"c{c}")
    return race_model(mean, weights, SpectralTable.of(sets))


def test_criterion_6_density_cross_validation(capsys):
    t0 = time.perf_counter()
    zero_mean_models = 0
    worst = 0.0
    for k in range(50):
        model = _random_race_model(k)
        assert len(model.terms) >= 200, (k, len(model.terms))
        mc = density_montecarlo(model, 100000, seed=k)
        fo = density_fourier(model)
        gap = abs(mc.value - fo.value)
        tol = max(3 * mc.error_bound, 1e-3)
        assert gap <= tol, (k, gap, tol)
        worst = max(worst, gap / tol)
        if model.mean == 0:
            zero_mean_models += 1
            assert fo.value == 0.5 and fo.error_bound == 0.0
            assert abs(mc.value - 0.5) <= mc.error_bound, (k, mc.value)
        if k % 5 == 0:
            neg = dataclasses.replace(model, mean=-model.mean)
            fn = density_fourier(neg)
            assert fo.value + fn.value == 1.0, (k, fo.value, fn.value)
            mn = density_montecarlo(neg, 100000, seed=k)
            assert abs(mc.value + mn.value - 1.0) <= \
                3 * (mc.error_bound + mn.error_bound) + 1e-12, k
    elapsed = time.perf_counter() - t0
    _report(capsys, "6 density engines agree", elapsed < 600.0,
            f"50 models >=200 terms, worst gap {worst:.2f} of tolerance, "
            f"{zero_mean_models} mean-0 models exactly half, complementarity "
            f"exact, {elapsed:.0f}s < 600s")


def test_fourier_grid_matches_quadpack_on_criterion_6_models():
    for k in range(50):
        model = _random_race_model(k)
        for mean in ({model.mean, -model.mean} if k % 5 == 0 else {model.mean}):
            side = dataclasses.replace(model, mean=mean)
            grid = density_fourier(side)
            oracle = density_fourier_quadpack(side)
            assert grid.error_bound <= 1e-11, k
            assert abs(grid.value - oracle.value) <= \
                grid.error_bound + oracle.error_bound, k


def test_criterion_7a_growing_conductor(capsys):
    t0 = time.perf_counter()
    deltas = {}
    for w in (-1, +1):
        rep = horizontal_experiment((1, 2, 3, 4), w, seed=3)
        assert rep["all_rows_pass"], w
        assert rep["gap_decreasing_fourier"], w
        for row in rep["rows"]:
            if w == -1:
                assert row["delta_fourier"] < 0.5, row
            else:
                assert row["delta_fourier"] > 0.5, row
        deltas[w] = [round(r["delta_fourier"], 3) for r in rep["rows"]]
    ELAPSED["7a"] = time.perf_counter() - t0
    _report(capsys, "7a sign axiom controls the side", True,
            f"W=-1 deltas {deltas[-1]} below half, W=+1 {deltas[+1]} above, "
            f"gaps shrink over f=1..4, {ELAPSED['7a']:.0f}s")


def test_criterion_7b_quaternion_towers(capsys):
    t0 = time.perf_counter()
    for n in (4, 5, 6):
        for w in (-1, +1):
            rep = tower_experiment(QUATERNION, n, w, seed=7)
            assert rep["all_published_rows_confirmed"], (n, w)
    ELAPSED["7b"] = time.perf_counter() - t0
    _report(capsys, "7b quaternion tower classification", True,
            f"n=4,5,6 both W: every published row confirmed, "
            f"{ELAPSED['7b']:.0f}s")


def test_criterion_7c_dihedral_towers(capsys):
    t0 = time.perf_counter()
    for n in (4, 5, 6):
        rep = tower_experiment(DIHEDRAL, n, +1, seed=7)
        assert rep["all_published_rows_confirmed"], n
    ELAPSED["7c"] = time.perf_counter() - t0
    _report(capsys, "7c dihedral tower classification", True,
            f"n=4,5,6: exactly-half rows and identity-row extremes confirmed, "
            f"{ELAPSED['7c']:.0f}s")


def test_criterion_7d_level_monotonicity(capsys):
    t0 = time.perf_counter()
    rep_d = monotonicity_experiment(DIHEDRAL, 12, 0.1, +1, seed=5)
    assert rep_d["verdict"] == "holds", rep_d["verdict"]
    rep_qp = monotonicity_experiment(QUATERNION, 12, 0.1, +1, seed=5)
    assert rep_qp["verdict"] == "holds", rep_qp["verdict"]
    rep_qm = monotonicity_experiment(QUATERNION, 12, 0.1, -1, seed=5)
    assert rep_qm["open_question"] is True
    assert rep_qm["verdict"] == "inconclusive", rep_qm["verdict"]
    assert all(r["mean_increasing"] for r in rep_qm["mean_ordering_by_formula"])
    ELAPSED["7d"] = time.perf_counter() - t0
    _report(capsys, "7d delta ordering across levels", True,
            f"n=12 eps=0.1: dihedral holds, quaternion W=+1 holds, W=-1 "
            f"inconclusive and flagged open-question with the formula "
            f"ordering recorded, {ELAPSED['7d']:.0f}s")


def test_criterion_7_total_runtime(capsys):
    missing = [k for k in ("7a", "7b", "7c", "7d") if k not in ELAPSED]
    total = sum(ELAPSED.values())
    _report(capsys, "7 qualitative reproduction runtime",
            not missing and total < 1800.0,
            f"parts {sorted(ELAPSED)} total {total:.0f}s < 1800s"
            + (f", missing {missing}" if missing else ""))


def test_criterion_8_bound_sandwich(capsys):
    t0 = time.perf_counter()
    rep = sandwich_experiment(count=100, seed=0, samples=100000, t_max=64.0)
    elapsed = time.perf_counter() - t0
    ok = (rep["population_bias_above_1"] >= 90
          and rep["success_rate"] >= 0.95 and elapsed < 900.0)
    _report(capsys, "8 tail-bound sandwich", ok,
            f"{rep['inside']}/{rep['population_bias_above_1']} races with "
            f"bias>1 inside [lower, upper], rate {rep['success_rate']:.2f} "
            f">= 0.95, {elapsed:.0f}s < 900s")


def test_criterion_9_mod4_comparison_non_gating(capsys):
    rep = mod4_experiment(seed=0)
    assert rep["gating"] is False
    assert 0.0 < rep["delta_fourier"] < 1.0
    assert rep["published_delta"] == pytest.approx(0.9959)
    _report(capsys, "9 mod-4 race vs published density (non-gating)", True,
            f"synthetic-zero delta {rep['delta_fourier']:.4f}, published "
            f"0.9959, difference {rep['difference']:+.4f} reported only")
