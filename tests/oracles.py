"""Test-only reference implementations.

The per-pair ``CycloInt`` computations the array path in ``chebrace.races``
replaced: one character value at a time, summed in the cyclotomic ring.
Tests compare the array path against them for equal integers and bit-equal
floats.

The two chunked Monte Carlo loops the shared kernel in ``chebrace.density``
replaced: ``density_montecarlo``'s and ``monotonicity_experiment``'s.  Tests
compare the kernel against them for bit-equal estimates and intervals.

``tower_experiment``'s per-pair loop from before it shared one Fourier
inversion among the rows with equal weights and equal |mean|: every row
assembles its own model and runs its own ``density_fourier``.  Tests
compare the driver against it for bit-equal densities and budgets.
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from chebrace.arithmetic import scenario_generator
from chebrace.characters import character_ids, character_value
from chebrace.cyclotomic import add, cyclo_zero, scale, sub
from chebrace.density import _MC_SALT, MONTECARLO, Z99, DensityEstimate, density_fourier
from chebrace.experiments import _SHARED_MC_SALT, provision_zero_sets
from chebrace.groups import DIHEDRAL, ClassLabel, Group
from chebrace.races import (
    RaceModel,
    RaceSpec,
    RaceUndefinedError,
    assemble_race_model,
    level_data,
    weights,
)


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


def density_montecarlo_loop(model: RaceModel, samples: int, seed: int) -> DensityEstimate:
    """``density_montecarlo`` as one chunk at a time on one thread, each
    chunk drawn as a single (take, terms) array."""
    if samples < 10_000:
        raise ValueError(f"need samples >= 10000, got {samples}")
    terms = model.terms
    if terms.size == 0:
        raise ValueError("empty term list")
    n_pairs = samples // 2
    chunk = max(128, (1 << 21) // max(terms.size, 1))
    s1 = 0.0
    s2 = 0.0
    done = 0
    index = 0
    mean = float(model.mean)
    while done < n_pairs:
        take = min(chunk, n_pairs - done)
        rng = np.random.default_rng(np.random.SeedSequence([_MC_SALT, seed, index]))
        u = rng.random((take, terms.size))
        x = mean + np.cos(2.0 * np.pi * u) @ terms
        y = 0.5 * ((x > 0.0).astype(float) + ((2.0 * mean - x) > 0.0))
        s1 += float(y.sum())
        s2 += float((y * y).sum())
        done += take
        index += 1
    value = s1 / n_pairs
    var_y = max(s2 / n_pairs - value * value, 0.0)
    ci = Z99 * math.sqrt(var_y / n_pairs)
    return DensityEstimate(min(max(value, 0.0), 1.0), MONTECARLO, ci, 2 * n_pairs)


def shared_mc_loop(terms: np.ndarray, level_means: Sequence[float], samples: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-level delta and 99% half-width of ``monotonicity_experiment``
    from one shared noise sample, one chunk at a time on one thread."""
    m_vec = np.array([float(m) for m in level_means])
    n_pairs = max(samples // 2, 1)
    chunk = max(16, (1 << 21) // max(terms.size, 1))
    sums = np.zeros(len(m_vec))
    sumsq = np.zeros(len(m_vec))
    done = 0
    index = 0
    while done < n_pairs:
        take = min(chunk, n_pairs - done)
        rng = np.random.default_rng(
            np.random.SeedSequence([_SHARED_MC_SALT, seed, index]))
        u = rng.random((take, terms.size))
        s = np.cos(2.0 * np.pi * u) @ terms
        # one shared noise draw decides every level: y = P(S > -m) symmetrized
        y = 0.5 * ((s[:, None] + m_vec[None, :] > 0.0).astype(float)
                   + (m_vec[None, :] - s[:, None] > 0.0).astype(float))
        sums += y.sum(axis=0)
        sumsq += (y * y).sum(axis=0)
        done += take
        index += 1
    deltas = sums / n_pairs
    var_y = np.maximum(sumsq / n_pairs - deltas * deltas, 0.0)
    cis = Z99 * np.sqrt(var_y / n_pairs)
    return deltas, cis


def tower_rows_per_pair(family: str, n: int, w_axiom: int, seed: int,
                        min_zeros: int = 64, nodes: int = 2000) -> list[dict]:
    """The model and density fields of every ``tower_experiment`` row, one
    ``assemble_race_model`` and one ``density_fourier`` per class pair."""
    if family == DIHEDRAL:
        w_axiom = +1
    scen = scenario_generator(family, n, w_axiom, seed)
    labels = scen.group.class_labels()
    data = level_data(scen, n)
    sets: dict = {}
    rows = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            c1, c2 = labels[a], labels[b]
            spec = RaceSpec(scen, n, c1, c2)
            m = data.mean(c1, c2)
            w_map = weights(spec)
            needed = sorted(cid for cid, wv in w_map.items() if wv > 0)
            fresh = [cid for cid in needed if cid not in sets]
            sets.update(provision_zero_sets(scen, fresh, seed,
                                            min_count=min_zeros))
            model = assemble_race_model(m, w_map, sets)
            est = density_fourier(model, nodes=nodes)
            rows.append({"c1": str(c1), "c2": str(c2), "mean_formula": m,
                         "weights": tuple(sorted(w_map.items())),
                         "bias_factor": model.bias_factor,
                         "delta_fourier": est.value,
                         "delta_fourier_budget": est.error_bound})
    return rows
